#include "design/freq_alloc.hh"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/gauss_block.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "design/freq_sweep.hh"

namespace qpad::design
{

using arch::Architecture;
using arch::DeviceConstants;
using arch::Layout;
using arch::PhysQubit;

PhysQubit
centerQubit(const Layout &layout)
{
    qpad_assert(layout.numQubits() > 0, "empty layout");
    double mean_row = 0.0, mean_col = 0.0;
    for (const auto &c : layout.coords()) {
        mean_row += c.row;
        mean_col += c.col;
    }
    mean_row /= double(layout.numQubits());
    mean_col /= double(layout.numQubits());

    PhysQubit best = 0;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (PhysQubit q = 0; q < layout.numQubits(); ++q) {
        const auto &c = layout.coord(q);
        double dr = c.row - mean_row;
        double dc = c.col - mean_col;
        double d2 = dr * dr + dc * dc;
        if (d2 < best_d2) {
            best_d2 = d2;
            best = q;
        }
    }
    return best;
}

FreqAllocResult
allocateFrequencies(const Architecture &arch,
                    const FreqAllocOptions &options,
                    exec::TimePoint deadline)
{
    const std::size_t n = arch.numQubits();
    qpad_assert(n > 0, "cannot allocate frequencies on an empty chip");

    // Candidate grid 5.00, 5.01, ..., 5.34 GHz.
    const sweep::CandidateGrid grid =
        sweep::candidateGrid(options.grid_step_ghz);

    FreqAllocResult result;
    result.freqs.assign(n, 0.0);
    std::vector<bool> assigned(n, false);

    const PhysQubit center = centerQubit(arch.layout());
    const double mid = 0.5 * (DeviceConstants::freq_min_ghz +
                              DeviceConstants::freq_max_ghz);
    result.freqs[center] = mid;
    assigned[center] = true;
    result.order.push_back(center);
    result.local_scores.push_back(1.0);

    Rng rng(options.seed);

    // Breadth-first traversal of the coupling graph from the centre;
    // disconnected leftovers (possible on degenerate layouts) are
    // seeded from their own centre-most unvisited qubit.
    std::queue<PhysQubit> fifo;
    std::vector<bool> enqueued(n, false);
    fifo.push(center);
    enqueued[center] = true;

    // Evaluate every candidate frequency for q against the collision
    // terms it participates in (among assigned qubits) and return the
    // best (frequency, local yield) pair.
    auto optimize = [&](PhysQubit q) -> std::pair<double, double> {
        // Zero trials give no evidence to rank candidates (and would
        // make every score 0/0 = NaN, breaking the argmax): keep the
        // band middle with the same zero score estimateYield
        // reports for zero-trial runs.
        if (options.local_trials == 0)
            return {mid, 0.0};
        const sweep::LocalTerms terms =
            sweep::localTerms(arch, q, assigned);

        // Common random numbers: one stream of post-fabrication
        // frequencies shared by all candidates (only q's own entry
        // varies), so the argmax is not washed out by sampling
        // variance. One rng.next() seeds the lane sampler the sweep
        // draws its trials from (lane order: trial t of each 8-trial
        // block is lane t % 8, reading its involved-qubit deviates
        // and then its candidate noise; the trailing block's unused
        // lanes are drawn and dropped — they are independent
        // streams, so the kept draws are the same for every `trials`
        // remainder).
        const std::size_t trials = options.local_trials;
        std::vector<double> means(terms.involved.size());
        for (std::size_t idx = 0; idx < means.size(); ++idx)
            means[idx] = result.freqs[terms.involved[idx]];
        const std::vector<std::size_t> survivors = sweep::survivorCounts(
            terms, grid, GaussianBlockSampler(rng.next()), means,
            options.sigma_ghz, trials, options.model, options.exec,
            deadline);

        // First strict maximum, matching the sequential scan order.
        double best_score = -1.0;
        double best_freq = mid;
        for (std::size_t ci = 0; ci < grid.freqs.size(); ++ci) {
            const double score = double(survivors[ci]) / double(trials);
            if (score > best_score) {
                best_score = score;
                best_freq = grid.freqs[ci];
            }
        }
        return {best_freq, best_score};
    };

    auto process = [&](PhysQubit q) {
        // Stop between qubit visits, never mid-scan: an aborted
        // allocation leaves no partial result behind, and a completed
        // one never saw the poll affect its draws.
        exec::throwIfPassed(deadline);
        auto [freq, score] = optimize(q);
        result.freqs[q] = freq;
        assigned[q] = true;
        result.order.push_back(q);
        result.local_scores.push_back(score);
    };

    while (true) {
        while (!fifo.empty()) {
            PhysQubit u = fifo.front();
            fifo.pop();
            for (PhysQubit v : arch.adjacency()[u]) {
                if (!enqueued[v]) {
                    enqueued[v] = true;
                    process(v);
                    fifo.push(v);
                }
            }
        }
        // Any disconnected component left?
        auto it = std::find(enqueued.begin(), enqueued.end(), false);
        if (it == enqueued.end())
            break;
        PhysQubit seed = PhysQubit(it - enqueued.begin());
        result.freqs[seed] = mid;
        assigned[seed] = true;
        enqueued[seed] = true;
        result.order.push_back(seed);
        result.local_scores.push_back(1.0);
        fifo.push(seed);
    }

    // Coordinate-descent polish: revisit every qubit with the full
    // neighbourhood assigned and keep the per-qubit argmax.
    for (unsigned sweep = 0; sweep < options.refine_sweeps; ++sweep) {
        for (std::size_t idx = 0; idx < result.order.size(); ++idx) {
            exec::throwIfPassed(deadline);
            PhysQubit q = result.order[idx];
            auto [freq, score] = optimize(q);
            result.freqs[q] = freq;
            result.local_scores[idx] = score;
        }
    }

    return result;
}

void
applyOptimizedFrequencies(Architecture &arch,
                          const FreqAllocOptions &options,
                          exec::TimePoint deadline)
{
    FreqAllocResult result = allocateFrequencies(arch, options, deadline);
    arch.setAllFrequencies(result.freqs);
}

} // namespace qpad::design
