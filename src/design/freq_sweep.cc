#include "design/freq_sweep.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "common/logging.hh"

namespace qpad::design::sweep
{

using arch::Architecture;
using arch::DeviceConstants;
using arch::PhysQubit;
using yield::CollisionModel;

CandidateGrid
candidateGrid(double step)
{
    if (!(step >= kMinGridStepGhz) || !std::isfinite(step))
        qpad_fatal("frequency allocation: grid_step_ghz must be finite "
                   "and at least ",
                   kMinGridStepGhz, " GHz, got ", step);
    CandidateGrid grid;
    grid.step = step;
    for (double f = DeviceConstants::freq_min_ghz;
         f <= DeviceConstants::freq_max_ghz + 1e-9; f += step)
        grid.freqs.push_back(f);
    return grid;
}

LocalTerms
localTerms(const Architecture &arch, PhysQubit q,
           const std::vector<bool> &assigned)
{
    LocalTerms terms;
    const auto &adj = arch.adjacency();
    constexpr PhysQubit kNone = ~PhysQubit{0};
    std::vector<PhysQubit> local(arch.numQubits(), kNone);
    auto involve = [&](PhysQubit x) {
        if (local[x] == kNone) {
            local[x] = PhysQubit(terms.involved.size());
            terms.involved.push_back(x);
        }
        return local[x];
    };
    involve(q);

    // Conditions 1-4: edges incident to q.
    for (PhysQubit nb : adj[q]) {
        if (!assigned[nb])
            continue;
        terms.pairs.push_back({0, involve(nb)});
    }
    // Conditions 5-7 with q as the shared neighbour j.
    for (std::size_t x = 0; x < adj[q].size(); ++x) {
        for (std::size_t y = x + 1; y < adj[q].size(); ++y) {
            PhysQubit k = adj[q][x], i = adj[q][y];
            if (!assigned[k] || !assigned[i])
                continue;
            const PhysQubit lk = involve(k);
            terms.triples.push_back({0, lk, involve(i)});
        }
    }
    // Conditions 5-7 with q as one of the outer qubits: the shared
    // neighbour j is any neighbour of q, the other outer qubit any
    // other neighbour of j; k is the lower qubit id of the two.
    for (PhysQubit j : adj[q]) {
        if (!assigned[j])
            continue;
        for (PhysQubit other : adj[j]) {
            if (other == q || !assigned[other])
                continue;
            const PhysQubit lj = involve(j);
            const PhysQubit lo = involve(other);
            if (q < other)
                terms.triples.push_back({lj, 0, lo});
            else
                terms.triples.push_back({lj, lo, 0});
        }
    }
    return terms;
}

namespace
{

/**
 * Trials per chunk of the parallel sweep. Fixed, so chunk identity
 * never depends on the thread count, and a small budget (300 local
 * trials under QPAD_FAST) stays a single chunk instead of being split
 * into pieces too small to pay for their dispatch.
 */
constexpr std::size_t kChunkTrials = 1024;

/**
 * Half-width, in grid-index units, of the zone around a solved range
 * end inside which grid points are settled exactly.
 *
 * Let u = 2^-53 and let A bound the magnitude of every input:
 * partner frequencies, |x_c| <= max|grid| + max|noise|, |delta| and
 * the thresholds. Every intermediate below is then under 16 A in GHz,
 * or 16 A / step in index units.
 *  - Grid drift: grid[c] is c rounded additions of `step`, so it is
 *    within c u A <= C u A of grid[0] + c step, and x_c is within
 *    (C + 1) u A of the exact grid[0] + c step + noise.
 *  - Kernel side: a condition's value has slope 1 or 2 in x_c plus at
 *    most three further roundings, so it is within
 *    2 (C + 1) u A + 48 u A of the exact expression; per grid step (a
 *    slope of at least `step`) that is (2 C + 50) u A / step index
 *    units.
 *  - Solve side: a range end is at most 16 roundings (of values under
 *    16 A / step) from the exact root: 256 u A / step index units.
 * A grid point farther than the sum, 2 (C + 153) u A / step, from a
 * solved end is on the side the exact arithmetic puts it. The zone,
 * 2^-47 (C + 256) A / step, is at least 32 times wider; settling
 * costs only when an end falls inside it, which for continuous noise
 * is almost never (the zone is ~1e-9 wide at the paper's grid).
 */
double
settleZone(const CandidateGrid &grid, double magnitude)
{
    return std::ldexp(double(grid.freqs.size() + 256) * magnitude /
                          grid.step,
                      -47);
}

/**
 * Bit-sliced survivor counters for one chunk: bit b of slice s of
 * word w is bit s of the count of candidate 64 w + b. Adding a
 * trial's 64 survivor bits is a ripple-carry across the slices, two
 * steps on average.
 */
class SlicedCounts
{
  public:
    static constexpr std::size_t kSlices = 11;
    static_assert(kChunkTrials < (std::size_t{1} << kSlices));

    explicit SlicedCounts(std::size_t words) : slices_(words * kSlices)
    {
    }

    void add(std::size_t word, uint64_t bits)
    {
        uint64_t *slice = &slices_[word * kSlices];
        for (std::size_t s = 0; bits != 0; ++s) {
            const uint64_t carry = slice[s] & bits;
            slice[s] ^= bits;
            bits = carry;
        }
    }

    std::size_t count(std::size_t c) const
    {
        const uint64_t *slice = &slices_[c / 64 * kSlices];
        std::size_t n = 0;
        for (std::size_t s = 0; s < kSlices; ++s)
            n |= std::size_t((slice[s] >> (c % 64)) & 1u) << s;
        return n;
    }

  private:
    std::vector<uint64_t> slices_;
};

/**
 * The dead set of one trial over the grid: candidate c is dead when
 * some condition fires with q at x_c = grid[c] + noise. Positions are
 * in grid-index units, where candidate c sits at c up to rounding.
 *
 * Each `fires(x)` predicate below repeats its pairConditionMask /
 * tripleConditionMask expression verbatim, operand order included: it
 * is what settles a grid point near a range end, so it must round
 * exactly as the collision kernels do.
 */
class TrialSweep
{
  public:
    TrialSweep(const CandidateGrid &grid, const CollisionModel &model,
               double eps)
        : model_(model), freqs_(grid.freqs.data()),
          n_(grid.freqs.size()), last_(double(n_) - 1.0),
          inv_step_(1.0 / grid.step), eps_(eps),
          d_(model.delta * inv_step_),
          dh_(model.delta / 2 * inv_step_),
          t1_(model.thr1 * inv_step_), t2_(model.thr2 * inv_step_),
          t3_(model.thr3 * inv_step_), t5_(model.thr5 * inv_step_),
          t6_(model.thr6 * inv_step_), t7_(model.thr7 * inv_step_),
          dead_((n_ + 63) / 64),
          pad_(n_ % 64 == 0 ? 0 : ~uint64_t{0} << (n_ % 64))
    {
    }

    const std::vector<uint64_t> &dead() const { return dead_; }

    /** Start a trial with q's noise: nothing dead yet. */
    void reset(double noise)
    {
        noise_ = noise;
        base_ = freqs_[0] + noise;
        std::fill(dead_.begin(), dead_.end(), 0);
        dead_.back() |= pad_;
    }

    bool allDead() const
    {
        for (uint64_t word : dead_)
            if (~word != 0)
                return false;
        return true;
    }

    /** Conditions 1-4 on the edge (q, b); q is `fa`. */
    void pair(double b)
    {
        const CollisionModel &m = model_;
        const double d = m.delta;
        const double pb = pos(b);
        window(pb, t1_,
               [&](double x) { return std::fabs(x - b) < m.thr1; });
        window(pb - dh_, t2_, [&](double x) {
            return std::fabs(x - (b - d / 2)) < m.thr2;
        });
        window(pb + dh_, t2_, [&](double x) {
            return std::fabs(b - (x - d / 2)) < m.thr2;
        });
        window(pb - d_, t3_, [&](double x) {
            return std::fabs(x - (b - d)) < m.thr3;
        });
        window(pb + d_, t3_, [&](double x) {
            return std::fabs(b - (x - d)) < m.thr3;
        });
        suffix(pb - d_, [&](double x) { return x > b - d; });
        prefix(pb + d_, [&](double x) { return b > x - d; });
    }

    /**
     * Conditions 5-7 of a triple with shared neighbour j whose outer
     * qubits are q and o. IEEE subtraction is antisymmetric and
     * addition commutative, so these expressions round exactly as the
     * kernels' whether q is their `fk` or their `fi`.
     */
    void outer(double j, double o)
    {
        const CollisionModel &m = model_;
        const double d = m.delta;
        const double po = pos(o);
        const double jd = 2 * j + d;
        window(po, t5_,
               [&](double x) { return std::fabs(o - x) < m.thr5; });
        window(po + d_, t6_, [&](double x) {
            return std::fabs(o - (x - d)) < m.thr6;
        });
        window(po - d_, t6_, [&](double x) {
            return std::fabs(x - (o - d)) < m.thr6;
        });
        window(pos(jd - o), t7_, [&](double x) {
            return std::fabs(jd - (x + o)) < m.thr7;
        });
    }

    /** Conditions 5-6 of a triple centred on q: q is not involved. */
    bool centreFires(double k, double i) const
    {
        const CollisionModel &m = model_;
        const double d = m.delta;
        return std::fabs(i - k) < m.thr5 ||
               std::fabs(i - (k - d)) < m.thr6 ||
               std::fabs(k - (i - d)) < m.thr6;
    }

    /** Condition 7 of a triple centred on q: slope 2 in x. */
    void centre(double k, double i)
    {
        const CollisionModel &m = model_;
        const double d = m.delta;
        const double ki = k + i;
        window(pos((ki - d) / 2), t7_ / 2, [&](double x) {
            return std::fabs(2 * x + d - ki) < m.thr7;
        });
    }

  private:
    /** Index position of q frequency v in this trial. */
    double pos(double v) const { return (v - base_) * inv_step_; }

    /** Grid indices c <= v: floor(v) + 1 clamped to [0, C]. */
    std::size_t upTo(double v) const
    {
        // std::max(-1.0, NaN) is -1, so NaN counts no index.
        const double w = std::min(last_, std::max(-1.0, v));
        const auto t = int64_t(w);
        return std::size_t(t - int64_t(double(t) > w) + 1);
    }

    /**
     * First index at or past the boundary solved at u where `fires`
     * holds: the zone (u - eps, u + eps] is scanned upward, and the
     * indices past it are past the boundary for certain.
     */
    template <typename Fires>
    std::size_t rise(double u, const Fires &fires) const
    {
        std::size_t c = upTo(u - eps_);
        const std::size_t end = upTo(u + eps_);
        while (c < end && !fires(freqs_[c] + noise_))
            ++c;
        return c;
    }

    /** One past the last index before the boundary at u where
     * `fires` holds; the zone is scanned downward. */
    template <typename Fires>
    std::size_t fall(double u, const Fires &fires) const
    {
        const std::size_t begin = upTo(u - eps_);
        std::size_t c = upTo(u + eps_);
        while (c > begin && !fires(freqs_[c - 1] + noise_))
            --c;
        return c;
    }

    /** A |.| < thr condition centred at `mid` with half-width `half`. */
    template <typename Fires>
    void window(double mid, double half, const Fires &fires)
    {
        const double lo = mid - half, hi = mid + half;
        if (hi < -eps_ || lo > last_ + eps_)
            return; // misses the grid
        mark(rise(lo, fires), fall(hi, fires));
    }

    /** A condition firing below the boundary at u. */
    template <typename Fires>
    void prefix(double u, const Fires &fires)
    {
        mark(0, fall(u, fires));
    }

    /** A condition firing above the boundary at u. */
    template <typename Fires>
    void suffix(double u, const Fires &fires)
    {
        mark(rise(u, fires), n_);
    }

    void mark(std::size_t lo, std::size_t hi)
    {
        if (lo >= hi)
            return;
        const std::size_t wl = lo / 64, wh = (hi - 1) / 64;
        const uint64_t head = ~uint64_t{0} << (lo % 64);
        const uint64_t tail = ~uint64_t{0} >> (63 - (hi - 1) % 64);
        if (wl == wh) {
            dead_[wl] |= head & tail;
            return;
        }
        dead_[wl] |= head;
        for (std::size_t w = wl + 1; w < wh; ++w)
            dead_[w] = ~uint64_t{0};
        dead_[wh] |= tail;
    }

    const CollisionModel &model_;
    const double *freqs_;
    std::size_t n_;
    double last_;
    double inv_step_;
    double eps_;
    // delta, delta / 2 and the thresholds in index units.
    double d_, dh_, t1_, t2_, t3_, t5_, t6_, t7_;
    double noise_ = 0.0, base_ = 0.0;
    std::vector<uint64_t> dead_;
    uint64_t pad_; // bits past the last candidate, kept dead
};

} // namespace

std::vector<std::size_t>
survivorCounts(const LocalTerms &terms, const CandidateGrid &grid,
               const std::vector<double> &post,
               const std::vector<double> &q_noise,
               const CollisionModel &model, const runtime::Options &exec)
{
    const std::size_t trials = q_noise.size();
    const std::size_t n_inv = terms.involved.size();
    const std::size_t n_cand = grid.freqs.size();
    qpad_assert(n_cand > 0 && post.size() == trials * n_inv,
                "survivorCounts: empty grid or mis-shaped CRN table");

    // Partner columns, grouped by q's role in the term.
    std::vector<std::size_t> pair_b;
    std::vector<std::array<std::size_t, 2>> outer_jo, centre_ki;
    for (const auto &p : terms.pairs) {
        qpad_assert(p.a == 0, "pair term without q as `a`");
        pair_b.push_back(p.b);
    }
    for (const auto &t : terms.triples) {
        if (t.j == 0) {
            centre_ki.push_back({t.k, t.i});
            continue;
        }
        qpad_assert(t.k == 0 || t.i == 0, "triple term without q");
        outer_jo.push_back({t.j, t.k == 0 ? t.i : t.k});
    }
    double model_mag = std::fabs(model.delta);
    for (double thr : {model.thr1, model.thr2, model.thr3, model.thr5,
                       model.thr6, model.thr7})
        model_mag = std::max(model_mag, std::fabs(thr));
    const double grid_mag = std::max(std::fabs(grid.freqs.front()),
                                     std::fabs(grid.freqs.back()));

    // False when the trial kills every candidate.
    auto sweepTrial = [&](TrialSweep &sweep, const double *row,
                          double noise) {
        for (const auto &[k, i] : centre_ki)
            if (sweep.centreFires(row[k], row[i]))
                return false;
        sweep.reset(noise);
        for (std::size_t b : pair_b) {
            sweep.pair(row[b]);
            if (sweep.allDead())
                return false;
        }
        for (const auto &[j, o] : outer_jo) {
            sweep.outer(row[j], row[o]);
            if (sweep.allDead())
                return false;
        }
        for (const auto &[k, i] : centre_ki) {
            sweep.centre(row[k], row[i]);
            if (sweep.allDead())
                return false;
        }
        return true;
    };

    return runtime::parallel_reduce(
        exec, trials, kChunkTrials, std::vector<std::size_t>(n_cand, 0),
        [&](std::size_t begin, std::size_t end, std::size_t) {
            double noise_mag = 0.0, mag = model_mag;
            for (std::size_t t = begin; t < end; ++t)
                noise_mag = std::max(noise_mag, std::fabs(q_noise[t]));
            for (std::size_t idx = begin * n_inv; idx < end * n_inv; ++idx)
                mag = std::max(mag, std::fabs(post[idx]));
            mag = std::max(mag, grid_mag + noise_mag);

            TrialSweep sweep(grid, model, settleZone(grid, mag));
            SlicedCounts counts(sweep.dead().size());
            for (std::size_t t = begin; t < end; ++t) {
                if (!sweepTrial(sweep, &post[t * n_inv], q_noise[t]))
                    continue;
                for (std::size_t w = 0; w < sweep.dead().size(); ++w)
                    counts.add(w, ~sweep.dead()[w]);
            }
            std::vector<std::size_t> chunk_counts(n_cand);
            for (std::size_t c = 0; c < n_cand; ++c)
                chunk_counts[c] = counts.count(c);
            return chunk_counts;
        },
        [](std::vector<std::size_t> total,
           const std::vector<std::size_t> &chunk_counts) {
            for (std::size_t c = 0; c < total.size(); ++c)
                total[c] += chunk_counts[c];
            return total;
        });
}

} // namespace qpad::design::sweep
