#include "yield/collision_batch.hh"

#include <algorithm>
#include <cstdlib>
#include <iostream> // std::cerr is built before g_env_checked may fail
#include <stdexcept>

#include "common/gauss_block.hh"
#include "common/logging.hh"

#ifdef __AVX2__
#include <immintrin.h>
#endif

namespace qpad::yield
{

BatchCollisionChecker::BatchCollisionChecker(
    const CollisionChecker &checker)
    : model_(checker.model())
{
    // A term's row is its largest qubit index: the first row of the
    // block at which all its frequencies are drawn.
    auto pair_row = [](const CollisionChecker::PairTerm &p) {
        return std::size_t(std::max(p.a, p.b));
    };
    auto tri_row = [](const CollisionChecker::TripleTerm &t) {
        return std::size_t(std::max({t.j, t.k, t.i}));
    };
    std::size_t num_rows = 0;
    for (const auto &p : checker.pairs())
        num_rows = std::max(num_rows, pair_row(p) + 1);
    for (const auto &t : checker.triples())
        num_rows = std::max(num_rows, tri_row(t) + 1);

    // One pass per row keeps each row's terms in their input order.
    for (std::size_t r = 0; r < num_rows; ++r) {
        for (const auto &p : checker.pairs()) {
            if (pair_row(p) == r) {
                pair_a_.push_back(p.a);
                pair_b_.push_back(p.b);
            }
        }
        pair_row_.push_back(uint32_t(pair_a_.size()));
        for (const auto &t : checker.triples()) {
            if (tri_row(t) == r) {
                tri_j_.push_back(t.j);
                tri_k_.push_back(t.k);
                tri_i_.push_back(t.i);
            }
        }
        tri_row_.push_back(uint32_t(tri_j_.size()));
    }
}

namespace
{

constexpr std::size_t kLanes = BatchCollisionChecker::kLanes;

/** Bit l set for each lane l in [lo, active). */
inline unsigned
lanesBetween(std::size_t lo, std::size_t active)
{
    return ((1u << active) - 1u) & ~((1u << lo) - 1u);
}

#ifdef __AVX2__
/** Conditions' ops on a group of four lanes; a mask lane is all-ones
 * where the condition fires. */
struct LaneOps
{
    using V = __m256d;
    using M = __m256d;
    static constexpr std::size_t kWidth = 4;
    static V splat(double x) { return _mm256_set1_pd(x); }
    static V load(const double *p) { return _mm256_loadu_pd(p); }
    static V add(V a, V b) { return _mm256_add_pd(a, b); }
    static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
    /** The sign bit cleared: exactly std::fabs. */
    static V abs(V a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }
    /** Ordered quiet compare, like the scalar `<`. */
    static M lt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
    static M either(M a, M b) { return _mm256_or_pd(a, b); }
    /** Bit l set iff lane l fires. */
    static unsigned bits(M m) { return unsigned(_mm256_movemask_pd(m)); }
};
#else
/** One lane per group, on the oracle's ops. */
struct LaneOps : ScalarOps
{
    static constexpr std::size_t kWidth = 1;
    static V load(const double *p) { return *p; }
    static unsigned bits(M m) { return m; }
};
#endif

} // namespace

template <typename FillRow>
unsigned
BatchCollisionChecker::scanRows(const double *post, unsigned dead,
                                FillRow &&fill_row,
                                std::size_t &rows) const
{
    constexpr std::size_t W = LaneOps::kWidth;
    constexpr unsigned kGroup = (1u << W) - 1;
    const Conditions<LaneOps> c(model_);
    const std::size_t num_rows = pair_row_.size() - 1;

    // `collides(lane)` evaluates the group of W lanes from `lane` on.
    // A group whose lanes have all collided cannot change the outcome;
    // skipping it halves the work in the common case where one
    // stubborn lane keeps the block alive. The skips read the lanes
    // dead before the term, so no group waits for another's result.
    // True once every lane has collided.
    auto scan_groups = [&](const auto &collides) {
        const unsigned before = dead;
        for (std::size_t lane = 0; lane < kLanes; lane += W)
            if (((before >> lane) & kGroup) != kGroup)
                dead |= LaneOps::bits(collides(lane)) << lane;
        return dead == (1u << kLanes) - 1;
    };
    auto lanes = [&](uint32_t q) { return post + std::size_t(q) * kLanes; };

    // One stage: the terms row r completes. True once every lane has
    // collided.
    auto scan_row = [&](std::size_t r) {
        for (std::size_t term = pair_row_[r]; term < pair_row_[r + 1];
             ++term) {
            const double *a = lanes(pair_a_[term]);
            const double *b = lanes(pair_b_[term]);
            if (scan_groups([&](std::size_t lane) {
                    return c.pair(LaneOps::load(a + lane),
                                  LaneOps::load(b + lane));
                }))
                return true;
        }
        for (std::size_t term = tri_row_[r]; term < tri_row_[r + 1];
             ++term) {
            const double *j = lanes(tri_j_[term]);
            const double *k = lanes(tri_k_[term]);
            const double *i = lanes(tri_i_[term]);
            if (scan_groups([&](std::size_t lane) {
                    return c.triple(LaneOps::load(j + lane),
                                    LaneOps::load(k + lane),
                                    LaneOps::load(i + lane));
                }))
                return true;
        }
        return false;
    };

    std::size_t r = 0;
    while (r < num_rows) {
        fill_row(r);
        if (scan_row(r++))
            break;
    }
    rows = r;
    return dead;
}

uint8_t
BatchCollisionChecker::survivorMask(const double *post,
                                    std::size_t active) const
{
    const unsigned counted = lanesBetween(0, active);
    std::size_t rows = 0;
    const unsigned dead =
        scanRows(post, ~counted & 0xFFu, [](std::size_t) {}, rows);
    return static_cast<uint8_t>(~dead & counted);
}

BatchCollisionChecker::SampledBlock
BatchCollisionChecker::sampleSurvivorMask(GaussianBlockSampler &sampler,
                                          const double *means,
                                          double sigma, std::size_t nq,
                                          double *block, std::size_t lo,
                                          std::size_t active) const
{
    qpad_assert(lo < active && active <= kLanes, "counted lanes [", lo,
                ", ", active, ") of an ", kLanes, "-lane block");
    qpad_assert(nq + 1 >= pair_row_.size(), "a ", nq,
                "-row block misses qubits of the checker's terms");
    const unsigned counted = lanesBetween(lo, active);
    SampledBlock sampled;
    const unsigned dead = scanRows(
        block, ~counted & 0xFFu,
        [&](std::size_t r) {
            sampler.fillAffine(block + r * kLanes, means + r, sigma, 1);
        },
        sampled.rows);
    sampler.discard(nq - sampled.rows);
    sampled.survivors = static_cast<uint8_t>(~dead & counted);
    return sampled;
}

bool
scalarKernelForced()
{
    const char *flag = std::getenv("QPAD_SCALAR_KERNEL");
    if (!flag || !*flag || (flag[0] == '0' && flag[1] == '\0'))
        return false;
    if (!(flag[0] == '1' && flag[1] == '\0'))
        qpad_fatal("invalid QPAD_SCALAR_KERNEL value '", flag,
                   "' (expected 0 or 1)");
    return true;
}

bool
useBatchedKernel()
{
    // One-lane groups measure slower than the scalar oracle (see the
    // file comment); they stay available for the agreement tests but
    // never as the default execution path.
    constexpr bool kVectorLanes = LaneOps::kWidth > 1;
    // Parsed on every build, so a malformed value fails alike.
    return !scalarKernelForced() && kVectorLanes;
}

/** QPAD_SCALAR_KERNEL, checked once at static init (env is set
 * before main): a malformed value prints its one `log.fatal` line and
 * exits 2, like the bench knobs, instead of escaping the first
 * estimate of every concurrent job as an uncaught exception. */
[[maybe_unused]] static const bool g_env_checked = [] {
    try {
        return scalarKernelForced();
    } catch (const std::runtime_error &) {
        std::exit(2);
    }
}();

} // namespace qpad::yield
