#include "design/freq_sweep.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.hh"
#include "common/vec8.hh"
#include "obs/metrics.hh"

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

using namespace vec8;

constexpr std::size_t kLanes = GaussianBlockSampler::kLanes;
static_assert(kLanes == kL);

/**
 * Trials per chunk of the parallel sweep. Fixed, so chunk identity
 * never depends on the thread count, and a small budget (300 local
 * trials under QPAD_FAST) stays a single chunk instead of being split
 * into pieces too small to pay for their dispatch. A whole number of
 * 8-trial blocks, so every chunk starts on a block.
 */
constexpr std::size_t kChunkTrials = 1024;
static_assert(kChunkTrials % kLanes == 0);

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
 *
 * The bound holds for any A that bounds the inputs it covers, and
 * any zone at or above it gives the same exact counts, so A may be
 * taken per 8-trial block from that block's own values.
 */
double
settleZone(const CandidateGrid &grid, double magnitude)
{
    return std::ldexp(double(grid.freqs.size() + 256) * magnitude /
                          grid.step,
                      -47);
}

/** The grid and the model of one visit. */
struct Frame
{
    Frame(const CandidateGrid &grid, const CollisionModel &model)
        : model(model), freqs(grid.freqs.data()), n(grid.freqs.size()),
          words((n + 63) / 64),
          pad(n % 64 == 0 ? 0 : ~uint64_t{0} << (n % 64)),
          last(double(n) - 1.0), inv_step(1.0 / grid.step)
    {
    }

    const CollisionModel &model;
    const double *freqs;
    std::size_t n;
    /** Words of a dead set, and the bits of its last word past the
     * last candidate, which are kept dead. */
    std::size_t words;
    uint64_t pad;
    double last;
    double inv_step;
};

/**
 * The windows of the conditions of one term, solved alike by
 * TrialSweep (on double) and LaneSweep (on VecD): each range end is
 * computed with the same operations in the same order, in index units
 * from s.idx, and settled, where TrialSweep settles, by the term's
 * condition in GHz from s.ghz with q's frequency x in q's slot.
 */

/** Conditions 1-4 on the edge (q, b); q is the pair's `a`. */
template <typename Sweep, typename V>
inline void
pairWindows(Sweep &s, V b)
{
    using Ops = typename Sweep::Ops;
    const auto &g = s.idx;
    const auto &c = s.ghz;
    const V pb = s.pos(b);
    const V below = Ops::sub(pb, g.d), above = Ops::add(pb, g.d);
    s.window(pb, g.t1, [&](auto x) { return c.c1(x, b); });
    s.window(Ops::sub(pb, g.dh), g.t2, [&](auto x) { return c.c2(x, b); });
    s.window(Ops::add(pb, g.dh), g.t2, [&](auto x) { return c.c2(b, x); });
    s.window(below, g.t3, [&](auto x) { return c.c3(x, b); });
    s.window(above, g.t3, [&](auto x) { return c.c3(b, x); });
    s.suffix(below, [&](auto x) { return c.c4(x, b); });
    s.prefix(above, [&](auto x) { return c.c4(b, x); });
}

/**
 * Conditions 5-7 of a triple with shared neighbour j whose outer
 * qubits are q and o, with q as the triple's k. IEEE subtraction is
 * antisymmetric and addition commutative, so these round exactly as
 * with q as its i.
 */
template <typename Sweep, typename V>
inline void
outerWindows(Sweep &s, V j, V o)
{
    using Ops = typename Sweep::Ops;
    const auto &g = s.idx;
    const auto &c = s.ghz;
    const V po = s.pos(o);
    const V jd = Ops::add(Ops::add(j, j), c.d); // 2 j + delta, exactly
    s.window(po, g.t5, [&](auto x) { return c.c5(o, x); });
    s.window(Ops::add(po, g.d), g.t6, [&](auto x) { return c.c6(o, x); });
    s.window(Ops::sub(po, g.d), g.t6, [&](auto x) { return c.c6(x, o); });
    s.window(s.pos(Ops::sub(jd, o)), g.t7,
             [&](auto x) { return c.c7(j, x, o); });
}

/**
 * Condition 7 of a triple centred on q: slope 2 in x, so its window
 * sits at (k + i - delta) / 2 and is half as wide (halving is exact).
 * Conditions 5-6 do not involve q: VisitSweep applies them whole.
 */
template <typename Sweep, typename V>
inline void
centreWindow(Sweep &s, V k, V i)
{
    using Ops = typename Sweep::Ops;
    const auto &c = s.ghz;
    const V mid = Sweep::halve(Ops::sub(Ops::add(k, i), c.d));
    s.window(s.pos(mid), Sweep::halve(s.idx.t7),
             [&](auto x) { return c.c7(x, k, i); });
}

/**
 * The dead set of one trial over the grid: candidate c is dead when
 * some condition fires with q at x_c = grid[c] + noise. Positions are
 * in grid-index units, where candidate c sits at c up to rounding.
 * The scalar sweep: it runs grids wider than one word, and the lanes
 * whose range ends LaneSweep cannot place.
 */
class TrialSweep
{
  public:
    using Ops = yield::ScalarOps;

    explicit TrialSweep(const Frame &f)
        : ghz(f.model), idx(f.model, f.inv_step), f_(f), dead_(f.words)
    {
    }

    /** The conditions in GHz, and their constants in index units. */
    const yield::Conditions<Ops> ghz, idx;

    const std::vector<uint64_t> &dead() const { return dead_; }

    /** Start a trial with q's noise and settle zone: nothing dead. */
    void reset(double noise, double eps)
    {
        noise_ = noise;
        base_ = f_.freqs[0] + noise;
        eps_ = eps;
        std::fill(dead_.begin(), dead_.end(), 0);
        dead_.back() |= f_.pad;
    }

    bool allDead() const
    {
        for (uint64_t word : dead_)
            if (~word != 0)
                return false;
        return true;
    }

    /** Index position of q frequency v in this trial. */
    double pos(double v) const { return (v - base_) * f_.inv_step; }

    static double halve(double v) { return v / 2; }

    /** Every candidate is dead if `fires`. */
    void killIf(bool fires)
    {
        if (fires)
            mark(0, f_.n);
    }

    /** A |.| < thr condition centred at `mid` with half-width `half`. */
    template <typename Fires>
    void window(double mid, double half, const Fires &fires)
    {
        const double lo = mid - half, hi = mid + half;
        if (hi < -eps_ || lo > f_.last + eps_)
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
        mark(rise(u, fires), f_.n);
    }

  private:
    /** Grid indices c <= v: floor(v) + 1 clamped to [0, C]. */
    std::size_t upTo(double v) const
    {
        // std::max(-1.0, NaN) is -1, so NaN counts no index.
        const double w = std::min(f_.last, std::max(-1.0, v));
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
        while (c < end && !fires(f_.freqs[c] + noise_))
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
        while (c > begin && !fires(f_.freqs[c - 1] + noise_))
            --c;
        return c;
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

    const Frame &f_;
    double noise_ = 0.0, base_ = 0.0, eps_ = 0.0;
    std::vector<uint64_t> dead_;
};

/** Conditions' ops on the eight lanes of a VecD; a mask lane is
 * all-ones where the condition fires. */
struct VecOps
{
    using V = VecD;
    using M = VecU;
    static VecD splat(double x) { return vec8::splat(x); }
    static VecD add(VecD a, VecD b) { return vadd(a, b); }
    static VecD sub(VecD a, VecD b) { return vsub(a, b); }
    static VecD abs(VecD a)
    {
        return vand(a, fromBits(splatU(~uint64_t{0} >> 1)));
    }
    static VecU lt(VecD a, VecD b) { return toBits(vlt(a, b)); }
    static VecU either(VecU a, VecU b) { return uor(a, b); }
};

/**
 * TrialSweep for the eight trials of one block at once, on grids of
 * at most 64 candidates: lane l's dead set is one word, and a range
 * [lo, hi) is ((1 << hi) - 1) & ~((1 << lo) - 1). Every range end is
 * solved by the same window template as TrialSweep's, so it is the
 * same double, and taken as TrialSweep takes an end with no grid
 * point in its settle zone: upTo(u + eps). A lane with a grid point
 * in some end's zone (u - eps, u + eps] is flagged instead, and its
 * trial goes to TrialSweep, which settles the point; its word here is
 * not used, nor is any `fires` predicate. A window that misses the
 * grid needs no test, as its clamped ends give an empty range; one
 * that misses it in every lane is skipped only to save the work.
 */
class LaneSweep
{
  public:
    using Ops = VecOps;

    explicit LaneSweep(const Frame &f)
        : ghz(f.model), idx(f.model, f.inv_step),
          inv_step_(splat(f.inv_step)), freq0_(splat(f.freqs[0])),
          last_(splat(f.last))
    {
    }

    const yield::Conditions<Ops> ghz, idx;

    /**
     * Start a block with q's noise per lane and the block's settle
     * zone; `dead` holds each lane's initial dead set (the bits past
     * the last candidate, and every bit of a lane without a trial).
     */
    void reset(VecD noise, double eps, VecU dead)
    {
        base_ = vadd(freq0_, noise);
        eps_ = splat(eps);
        below_grid_ = splat(-eps);
        above_grid_ = vadd(last_, eps_);
        dead_ = dead;
        flags_ = splatU(0);
    }

    bool allDead() const { return allZero(alive()); }
    VecU alive() const { return uandnot(dead_, splatU(~uint64_t{0})); }
    /** Bit l set iff lane l needs TrialSweep. */
    unsigned flagged() const { return laneMask(flags_); }

    VecD pos(VecD v) const { return vmul(vsub(v, base_), inv_step_); }

    static VecD halve(VecD v) { return vmul(v, splat(0.5)); }

    /** Every candidate of the lanes where `fires` is set is dead. */
    void killIf(VecU fires) { dead_ = uor(dead_, fires); }

    template <typename Fires>
    void window(VecD mid, VecD half, const Fires &)
    {
        const VecD lo = vsub(mid, half), hi = vadd(mid, half);
        // TrialSweep's test for a window that misses the grid.
        const VecU misses = uor(toBits(vlt(hi, below_grid_)),
                                toBits(vlt(above_grid_, lo)));
        if (laneMask(misses) == (1u << kLanes) - 1)
            return;
        dead_ = uor(dead_,
                    uandnot(bitsBelow(end(lo)), bitsBelow(end(hi))));
    }

    template <typename Fires>
    void prefix(VecD u, const Fires &)
    {
        dead_ = uor(dead_, bitsBelow(end(u)));
    }

    template <typename Fires>
    void suffix(VecD u, const Fires &)
    {
        dead_ = uor(dead_, uandnot(bitsBelow(end(u)), splatU(~uint64_t{0})));
    }

  private:
    /**
     * upTo(u + eps) as an integer per lane, flagging the lanes where
     * the zone (u - eps, u + eps] holds a grid index: the largest
     * index t <= u + eps is in it iff u - eps < t.
     */
    VecU end(VecD u)
    {
        const VecD t = vfloor(vadd(u, eps_));
        flags_ = uor(flags_, toBits(vlt(vsub(u, eps_), t)));
        // floor + 1 clamped to [0, C] (NaN to 0), read off the low
        // mantissa bits of 2^52 + index.
        const VecD idx = vmin(vmax(t, splat(-1.0)), last_);
        return uxor(toBits(vadd(idx, splat(0x1p52 + 1.0))),
                    splatU(0x4330000000000000ull));
    }

    /** (1 << n) - 1 per lane: all ones at n = 64. */
    static VecU bitsBelow(VecU n)
    {
        return uadd(ushlv(splatU(1), n), splatU(~uint64_t{0}));
    }

    VecD inv_step_, freq0_, last_;
    VecD base_, eps_, below_grid_, above_grid_;
    VecU dead_, flags_;
};

/**
 * Per-lane bit-sliced survivor counters for one chunk: bit b of lane
 * l of slice s of word w is bit s of lane l's count of candidate
 * 64 w + b. Adding a block's survivor words is a ripple-carry across
 * the slices, two steps on average.
 */
class LaneCounts
{
  public:
    static constexpr std::size_t kSlices = 8;
    static_assert(kChunkTrials / kLanes < (std::size_t{1} << kSlices));

    explicit LaneCounts(std::size_t words)
        : slices_(words * kSlices * kLanes)
    {
    }

    void add(std::size_t word, VecU bits)
    {
        uint64_t *slice = &slices_[word * kSlices * kLanes];
        for (; !allZero(bits); slice += kLanes) {
            const VecU old = loadU(slice);
            storeU(slice, uxor(old, bits));
            bits = uand(old, bits);
        }
    }

    std::size_t count(std::size_t c) const
    {
        const uint64_t *slice = &slices_[c / 64 * kSlices * kLanes];
        std::size_t n = 0;
        for (std::size_t s = 0; s < kSlices; ++s)
            for (std::size_t l = 0; l < kLanes; ++l)
                n += std::size_t((slice[s * kLanes + l] >> (c % 64)) & 1u)
                     << s;
        return n;
    }

  private:
    std::vector<uint64_t> slices_;
};

/** Lanes at or past `active` are dead from the start: loaded at
 * kInactive + kLanes - active. */
constexpr uint64_t kInactive[2 * kLanes] = {
    0, 0, 0, 0, 0, 0, 0, 0,
    ~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0},
    ~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0},
};

/**
 * One qubit visit's sweep over blocks of 8 trials in the sampler's
 * layout: z[row * 8 + lane], rows 0..n_inv - 1 the involved qubits'
 * frequencies (row 0, q's own, is never read) and row n_inv q's
 * noise.
 */
class VisitSweep
{
  public:
    VisitSweep(const LocalTerms &terms, const CandidateGrid &grid,
               const CollisionModel &model)
        : grid_(grid), frame_(grid, model),
          n_inv_(terms.involved.size()),
          grid_mag_(std::max(std::fabs(grid.freqs.front()),
                             std::fabs(grid.freqs.back())))
    {
        // Partner rows, grouped by q's role in the term.
        for (const auto &p : terms.pairs) {
            qpad_assert(p.a == 0, "pair term without q as `a`");
            pair_b_.push_back(p.b);
        }
        for (const auto &t : terms.triples) {
            if (t.j == 0) {
                centre_ki_.push_back({t.k, t.i});
                continue;
            }
            qpad_assert(t.k == 0 || t.i == 0, "triple term without q");
            outer_jo_.push_back({t.j, t.k == 0 ? t.i : t.k});
        }
        model_mag_ = std::fabs(model.delta);
        for (double thr : {model.thr1, model.thr2, model.thr3,
                           model.thr5, model.thr6, model.thr7})
            model_mag_ = std::max(model_mag_, std::fabs(thr));
    }

    std::size_t candidates() const { return frame_.n; }
    /** Rows of one block: the involved qubits, then q's noise. */
    std::size_t rows() const { return n_inv_ + 1; }

    /**
     * Survivor counts of one chunk of `trials` trials;
     * `fill(z, t0, active)` writes the block of chunk trials
     * t0 .. t0 + 7, of which the first `active` are trials.
     */
    template <typename FillBlock>
    std::vector<std::size_t> chunk(std::size_t trials,
                                   FillBlock &&fill) const
    {
        static obs::Counter &settled_lanes =
            obs::counter("design.freq_settled_lanes");
        std::vector<double> z(rows() * kLanes);
        LaneCounts counts(frame_.words);
        TrialSweep scalar(frame_);
        LaneSweep lanes(frame_);
        std::vector<uint64_t> alive(frame_.words * kLanes);
        std::size_t settled = 0;
        // Lane l's trial through TrialSweep, into alive[w * 8 + l].
        auto sweepLane = [&](std::size_t l, double eps) {
            scalar.reset(z[n_inv_ * kLanes + l], eps);
            sweepTerms(scalar, [&](std::size_t row) {
                return z[row * kLanes + l];
            });
            for (std::size_t w = 0; w < frame_.words; ++w)
                alive[w * kLanes + l] = ~scalar.dead()[w];
        };
        for (std::size_t t0 = 0; t0 < trials; t0 += kLanes) {
            const std::size_t active = std::min(kLanes, trials - t0);
            fill(z.data(), t0, active);
            const double eps = blockZone(z.data());
            if (frame_.words > 1) {
                for (std::size_t l = 0; l < kLanes; ++l) {
                    if (l < active)
                        sweepLane(l, eps);
                    else
                        for (std::size_t w = 0; w < frame_.words; ++w)
                            alive[w * kLanes + l] = 0;
                }
                for (std::size_t w = 0; w < frame_.words; ++w)
                    counts.add(w, loadU(&alive[w * kLanes]));
                continue;
            }
            lanes.reset(loadD(&z[n_inv_ * kLanes]), eps,
                        uor(loadU(&kInactive[kLanes - active]),
                            splatU(frame_.pad)));
            sweepTerms(lanes, [&](std::size_t row) {
                return loadD(&z[row * kLanes]);
            });
            unsigned flagged = lanes.flagged() & ((1u << active) - 1);
            if (flagged == 0) {
                counts.add(0, lanes.alive());
                continue;
            }
            storeU(alive.data(), lanes.alive());
            for (; flagged != 0; flagged &= flagged - 1, ++settled)
                sweepLane(std::size_t(std::countr_zero(flagged)), eps);
            counts.add(0, loadU(alive.data()));
        }
        if (settled != 0)
            settled_lanes.add(settled);
        std::vector<std::size_t> chunk_counts(frame_.n);
        for (std::size_t c = 0; c < frame_.n; ++c)
            chunk_counts[c] = counts.count(c);
        return chunk_counts;
    }

  private:
    /**
     * Runs every term through `sweep` (TrialSweep or LaneSweep), with
     * `at(row)` the row's value, until everything is dead.
     */
    template <typename Sweep, typename At>
    void sweepTerms(Sweep &sweep, const At &at) const
    {
        // Conditions 5-6 of a triple centred on q do not involve q:
        // they kill every candidate or none.
        for (const auto &[k, i] : centre_ki_)
            sweep.killIf(sweep.ghz.outerPair(at(k), at(i)));
        if (sweep.allDead())
            return;
        for (std::size_t b : pair_b_) {
            pairWindows(sweep, at(b));
            if (sweep.allDead())
                return;
        }
        for (const auto &[j, o] : outer_jo_) {
            outerWindows(sweep, at(j), at(o));
            if (sweep.allDead())
                return;
        }
        for (const auto &[k, i] : centre_ki_) {
            centreWindow(sweep, at(k), at(i));
            if (sweep.allDead())
                return;
        }
    }

    /** settleZone of a block, from the magnitudes of its values. */
    double blockZone(const double *z) const
    {
        const VecD abs_mask = fromBits(splatU(~uint64_t{0} >> 1));
        // vmax keeps its second operand over a NaN: NaN is ignored.
        VecD post = splat(0.0);
        for (std::size_t row = 0; row < n_inv_; ++row)
            post = vmax(vand(loadD(z + row * kLanes), abs_mask), post);
        const VecD noise = vand(loadD(z + n_inv_ * kLanes), abs_mask);
        double post_lanes[kLanes], noise_lanes[kLanes];
        storeD(post_lanes, post);
        storeD(noise_lanes, noise);
        double mag = model_mag_, noise_mag = 0.0;
        for (std::size_t l = 0; l < kLanes; ++l) {
            mag = std::max(mag, post_lanes[l]);
            noise_mag = std::max(noise_mag, noise_lanes[l]);
        }
        return settleZone(grid_, std::max(mag, grid_mag_ + noise_mag));
    }

    const CandidateGrid &grid_;
    Frame frame_;
    std::size_t n_inv_;
    double grid_mag_, model_mag_ = 0.0;
    std::vector<std::size_t> pair_b_;
    std::vector<std::array<std::size_t, 2>> outer_jo_, centre_ki_;
};

/** Sum of the chunk counts of `visit`; `chunkFill(begin, chunk)`
 * gives the block filler of the chunk starting at trial `begin`. */
template <typename ChunkFill>
std::vector<std::size_t>
reduceChunks(const VisitSweep &visit, std::size_t trials,
             const runtime::Options &exec, exec::TimePoint deadline,
             const ChunkFill &chunkFill)
{
    return runtime::parallel_reduce(
        exec, trials, kChunkTrials,
        std::vector<std::size_t>(visit.candidates(), 0),
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
            return visit.chunk(end - begin, chunkFill(begin, chunk));
        },
        [](std::vector<std::size_t> total,
           const std::vector<std::size_t> &chunk_counts) {
            for (std::size_t c = 0; c < total.size(); ++c)
                total[c] += chunk_counts[c];
            return total;
        },
        deadline);
}

} // namespace

std::vector<std::size_t>
survivorCounts(const LocalTerms &terms, const CandidateGrid &grid,
               const std::vector<double> &post,
               const std::vector<double> &q_noise,
               const CollisionModel &model, const runtime::Options &exec,
               exec::TimePoint deadline)
{
    const std::size_t trials = q_noise.size();
    const std::size_t n_inv = terms.involved.size();
    qpad_assert(!grid.freqs.empty() && post.size() == trials * n_inv,
                "survivorCounts: empty grid or mis-shaped CRN table");
    const VisitSweep visit(terms, grid, model);
    // Packs the table into blocks; lanes past the last trial read 0.
    return reduceChunks(
        visit, trials, exec, deadline, [&](std::size_t begin, std::size_t) {
            return [&, begin](double *z, std::size_t t0,
                              std::size_t active) {
                for (std::size_t l = 0; l < kLanes; ++l) {
                    const std::size_t t = begin + t0 + l;
                    for (std::size_t row = 0; row < n_inv; ++row)
                        z[row * kLanes + l] =
                            l < active ? post[t * n_inv + row] : 0.0;
                    z[n_inv * kLanes + l] = l < active ? q_noise[t] : 0.0;
                }
            };
        });
}

std::vector<std::size_t>
survivorCounts(const LocalTerms &terms, const CandidateGrid &grid,
               const GaussianBlockSampler &sampler,
               const std::vector<double> &means, double sigma,
               std::size_t trials, const CollisionModel &model,
               const runtime::Options &exec, exec::TimePoint deadline)
{
    const std::size_t n_inv = terms.involved.size();
    qpad_assert(!grid.freqs.empty() && means.size() == n_inv,
                "survivorCounts: empty grid or not one mean per "
                "involved qubit");
    const VisitSweep visit(terms, grid, model);
    std::vector<double> row_means(means);
    row_means.push_back(0.0); // q's noise row is pure noise

    // Each chunk's start state, by skipping the rows of the chunks
    // before it: 128 blocks of n_inv + 1 rows, an even count, so from
    // a fresh sampler the skips are raw xoshiro256** steps and no
    // Box-Muller partner is carried into a chunk.
    const std::size_t chunk_rows = kChunkTrials / kLanes * visit.rows();
    std::vector<GaussianBlockSampler> starts{sampler};
    while (starts.size() * kChunkTrials < trials) {
        GaussianBlockSampler next = starts.back();
        next.discard(chunk_rows);
        starts.push_back(next);
    }
    return reduceChunks(
        visit, trials, exec, deadline, [&](std::size_t, std::size_t chunk) {
            return [&, lane_sampler = starts[chunk]](
                       double *z, std::size_t, std::size_t) mutable {
                lane_sampler.fillAffine(z, row_means.data(), sigma,
                                        row_means.size());
            };
        });
}

} // namespace qpad::design::sweep
