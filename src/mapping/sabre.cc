#include "mapping/sabre.hh"

#include <algorithm>
#include <limits>
#include <numeric>

#include "circuit/dag.hh"
#include "circuit/decompose.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace qpad::mapping
{

using arch::PhysQubit;
using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using circuit::Qubit;

namespace
{

/**
 * One routing pass. Works over an "extended" logical space the size
 * of the chip: logical ids >= circuit width are dummies occupying
 * the spare physical qubits so SWAPs stay a permutation.
 */
class Router
{
  public:
    Router(const arch::Architecture &arch, const MappingOptions &options)
        : arch_(arch), options_(options), dist_(arch.distances())
    {
    }

    struct PassResult
    {
        std::vector<PhysQubit> final_l2p;
        std::size_t swaps = 0;
        std::vector<Gate> gates; // only filled when recording
    };

    /**
     * Route `circ` starting from logical->physical map l2p
     * (size = chip size; entries past circ.numQubits() are dummies).
     */
    PassResult
    route(const Circuit &circ, std::vector<PhysQubit> l2p, bool record)
    {
        const std::size_t n_phys = arch_.numQubits();
        qpad_assert(l2p.size() == n_phys, "l2p must cover the chip");

        std::vector<Qubit> p2l(n_phys);
        for (Qubit l = 0; l < l2p.size(); ++l)
            p2l[l2p[l]] = l;

        circuit::DependencyDag dag(circ);
        std::vector<std::size_t> indeg = dag.indegrees();
        std::vector<std::size_t> front = dag.roots();

        PassResult result;
        std::vector<double> decay(n_phys, 1.0);

        auto release = [&](std::size_t id) {
            for (std::size_t succ : dag.successors(id))
                if (--indeg[succ] == 0)
                    front.push_back(succ);
        };

        auto emit = [&](const Gate &g) {
            if (record)
                result.gates.push_back(g);
        };

        std::size_t executed = 0;
        std::size_t stall_guard = 0;
        const std::size_t max_swaps =
            1000 + 20 * circ.size() * (n_phys + 1);

        while (!front.empty()) {
            // Execute everything executable in the current front.
            bool progress = true;
            while (progress) {
                progress = false;
                std::vector<std::size_t> still_blocked;
                // Index loop: release() appends newly ready gates to
                // `front`, and they are picked up in the same sweep.
                for (std::size_t idx = 0; idx < front.size(); ++idx) {
                    std::size_t id = front[idx];
                    const Gate &g = circ.gate(id);
                    if (executable(g, l2p)) {
                        Gate phys = g;
                        for (auto &q : phys.qubits)
                            q = l2p[q];
                        emit(phys);
                        release(id);
                        ++executed;
                        progress = true;
                        // Executing a gate resets the decay window.
                        std::fill(decay.begin(), decay.end(), 1.0);
                    } else {
                        still_blocked.push_back(id);
                    }
                }
                front = std::move(still_blocked);
            }
            if (front.empty())
                break;

            // All remaining front gates are blocked two-qubit gates:
            // pick the best SWAP.
            auto [pa, pb] = bestSwap(circ, dag, front, l2p, decay);
            applySwap(pa, pb, l2p, p2l);
            decay[pa] += options_.decay_delta;
            decay[pb] += options_.decay_delta;
            ++result.swaps;
            if (record) {
                result.gates.push_back(
                    Gate(GateKind::SWAP,
                         {static_cast<Qubit>(pa), static_cast<Qubit>(pb)}));
            }
            if (++stall_guard > max_swaps)
                qpad_panic("router stalled after ", result.swaps,
                           " swaps on '", circ.name(), "'");
        }
        qpad_assert(executed == circ.size(), "router dropped gates");
        result.final_l2p = std::move(l2p);
        return result;
    }

  private:
    const arch::Architecture &arch_;
    const MappingOptions &options_;
    const SymMatrix<uint16_t> &dist_;

    bool
    executable(const Gate &g, const std::vector<PhysQubit> &l2p) const
    {
        if (!g.isTwoQubit())
            return true; // 1q / measure / reset / barrier
        return dist_(l2p[g.qubits[0]], l2p[g.qubits[1]]) == 1;
    }

    static void
    applySwap(PhysQubit pa, PhysQubit pb, std::vector<PhysQubit> &l2p,
              std::vector<Qubit> &p2l)
    {
        Qubit la = p2l[pa], lb = p2l[pb];
        std::swap(p2l[pa], p2l[pb]);
        l2p[la] = pb;
        l2p[lb] = pa;
    }

    /** Two-qubit gates reachable from the front (lookahead window). */
    std::vector<std::size_t>
    extendedSet(const Circuit &circ, const circuit::DependencyDag &dag,
                const std::vector<std::size_t> &front) const
    {
        std::vector<std::size_t> extended;
        std::vector<std::size_t> frontier = front;
        std::size_t cursor = 0;
        while (cursor < frontier.size() &&
               extended.size() < options_.extended_set_size) {
            std::size_t id = frontier[cursor++];
            for (std::size_t succ : dag.successors(id)) {
                if (circ.gate(succ).isTwoQubit()) {
                    extended.push_back(succ);
                    if (extended.size() >= options_.extended_set_size)
                        break;
                }
                frontier.push_back(succ);
            }
        }
        return extended;
    }

    std::pair<PhysQubit, PhysQubit>
    bestSwap(const Circuit &circ, const circuit::DependencyDag &dag,
             const std::vector<std::size_t> &front,
             const std::vector<PhysQubit> &l2p,
             const std::vector<double> &decay) const
    {
        // Candidate swaps: edges touching any physical qubit that
        // hosts an operand of a blocked front gate.
        std::vector<std::pair<PhysQubit, PhysQubit>> candidates;
        std::vector<bool> seen_phys(arch_.numQubits(), false);
        for (std::size_t id : front) {
            const Gate &g = circ.gate(id);
            for (Qubit lq : g.qubits) {
                PhysQubit pq = l2p[lq];
                if (seen_phys[pq])
                    continue;
                seen_phys[pq] = true;
                for (PhysQubit nb : arch_.adjacency()[pq])
                    candidates.emplace_back(std::min(pq, nb),
                                            std::max(pq, nb));
            }
        }
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(
            std::unique(candidates.begin(), candidates.end()),
            candidates.end());
        qpad_assert(!candidates.empty(), "no candidate swaps");

        std::vector<std::size_t> extended =
            extendedSet(circ, dag, front);

        double best_score = std::numeric_limits<double>::infinity();
        std::pair<PhysQubit, PhysQubit> best = candidates.front();
        for (auto [pa, pb] : candidates) {
            double score = swapScore(circ, front, extended, l2p, decay,
                                     pa, pb);
            if (score < best_score) {
                best_score = score;
                best = {pa, pb};
            }
        }
        return best;
    }

    double
    swapScore(const Circuit &circ, const std::vector<std::size_t> &front,
              const std::vector<std::size_t> &extended,
              const std::vector<PhysQubit> &l2p,
              const std::vector<double> &decay, PhysQubit pa,
              PhysQubit pb) const
    {
        auto mapped = [&](Qubit lq) {
            PhysQubit pq = l2p[lq];
            if (pq == pa)
                return pb;
            if (pq == pb)
                return pa;
            return pq;
        };

        double front_cost = 0.0;
        std::size_t front_terms = 0;
        for (std::size_t id : front) {
            const Gate &g = circ.gate(id);
            if (!g.isTwoQubit())
                continue;
            front_cost +=
                dist_(mapped(g.qubits[0]), mapped(g.qubits[1]));
            ++front_terms;
        }
        if (front_terms)
            front_cost /= double(front_terms);

        double ext_cost = 0.0;
        if (!extended.empty()) {
            for (std::size_t id : extended) {
                const Gate &g = circ.gate(id);
                ext_cost +=
                    dist_(mapped(g.qubits[0]), mapped(g.qubits[1]));
            }
            ext_cost =
                options_.extended_weight * ext_cost / extended.size();
        }

        double decay_factor = std::max(decay[pa], decay[pb]);
        return decay_factor * (front_cost + ext_cost);
    }
};

/** Unitary-only reversed copy of a circuit (for reverse traversal). */
Circuit
reversedUnitary(const Circuit &circ)
{
    Circuit out(circ.numQubits(), circ.numClbits(),
                circ.name() + "_rev");
    for (auto it = circ.gates().rbegin(); it != circ.gates().rend();
         ++it) {
        if (it->kind == GateKind::Measure ||
            it->kind == GateKind::Reset ||
            it->kind == GateKind::Barrier)
            continue;
        out.add(*it);
    }
    return out;
}

/** Strip trailing measurements; they are re-appended after routing. */
Circuit
unitaryPart(const Circuit &circ,
            std::vector<std::pair<Qubit, circuit::Clbit>> &measures)
{
    Circuit out(circ.numQubits(), circ.numClbits(), circ.name());
    for (const Gate &g : circ.gates()) {
        if (g.kind == GateKind::Measure) {
            measures.emplace_back(g.qubits[0], g.clbit);
            continue;
        }
        out.add(g);
    }
    return out;
}

} // namespace

MappingResult
mapCircuit(const Circuit &circuit, const arch::Architecture &arch,
           const MappingOptions &options)
{
    qpad_assert(circuit.numQubits() <= arch.numQubits(),
                "circuit '", circuit.name(), "' needs ",
                circuit.numQubits(), " qubits but chip has ",
                arch.numQubits());
    qpad_assert(arch.isConnectedGraph(),
                "architecture coupling graph is disconnected");
    qpad_assert(circuit::isInBasis(circuit),
                "circuit must be lowered to the {1q, CX} basis");

    std::vector<std::pair<Qubit, circuit::Clbit>> measures;
    Circuit unitary = unitaryPart(circuit, measures);

    // Widen the logical space to chip size with dummy logicals.
    Circuit widened(arch.numQubits(), circuit.numClbits(),
                    unitary.name());
    widened.append(unitary);

    Router router(arch, options);

    // Candidate initial mappings: the identity (qpad layouts use an
    // identity pseudo-mapping, so this is often already perfect) and
    // the SABRE reverse-traversal refinement of a random start.
    std::vector<std::vector<PhysQubit>> candidates;
    std::vector<PhysQubit> identity(arch.numQubits());
    std::iota(identity.begin(), identity.end(), 0);
    candidates.push_back(identity);

    if (options.sabre_initial_mapping) {
        Rng rng(options.seed);
        std::vector<PhysQubit> l2p = identity;
        // Random starting permutation, then reverse-traversal
        // refinement: forward pass yields the initial mapping of the
        // reverse circuit and vice versa.
        for (std::size_t i = l2p.size(); i > 1; --i)
            std::swap(l2p[i - 1], l2p[rng.below(i)]);
        Circuit reversed = reversedUnitary(widened);
        for (unsigned round = 0; round < options.initial_mapping_rounds;
             ++round) {
            l2p = router.route(widened, std::move(l2p), false).final_l2p;
            l2p = router.route(reversed, std::move(l2p), false)
                      .final_l2p;
        }
        candidates.push_back(std::move(l2p));
    }

    // Route every candidate and keep the cheapest mapping.
    std::size_t best = 0;
    Router::PassResult pass;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        Router::PassResult attempt =
            router.route(widened, candidates[i], true);
        if (i == 0 || attempt.swaps < pass.swaps) {
            pass = std::move(attempt);
            best = i;
        }
    }

    MappingResult result;
    result.initial_mapping.assign(
        candidates[best].begin(),
        candidates[best].begin() + circuit.numQubits());
    result.swaps = pass.swaps;
    result.final_mapping.assign(
        pass.final_l2p.begin(),
        pass.final_l2p.begin() + circuit.numQubits());

    // Materialize the physical circuit: SWAP lowers to three CX.
    Circuit mapped(arch.numQubits(), circuit.numClbits(),
                   circuit.name() + "@" + arch.name());
    for (const Gate &g : pass.gates) {
        if (g.kind == GateKind::SWAP) {
            mapped.cx(g.qubits[0], g.qubits[1]);
            mapped.cx(g.qubits[1], g.qubits[0]);
            mapped.cx(g.qubits[0], g.qubits[1]);
        } else {
            mapped.add(g);
        }
    }
    for (auto [lq, cb] : measures)
        mapped.measure(pass.final_l2p[lq], cb);

    result.total_gates = mapped.unitaryGateCount();
    result.two_qubit_gates = mapped.twoQubitGateCount();
    result.mapped = std::move(mapped);
    return result;
}

bool
respectsCoupling(const Circuit &mapped, const arch::Architecture &arch)
{
    for (const Gate &g : mapped.gates()) {
        if (!g.isTwoQubit())
            continue;
        if (!arch.connected(g.qubits[0], g.qubits[1]))
            return false;
    }
    return true;
}

} // namespace qpad::mapping
