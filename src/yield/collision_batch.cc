#include "yield/collision_batch.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

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

#ifndef __AVX2__

/** True once every lane has collided (each byte is 0 or 1). */
inline bool
allDead(const unsigned char (&collided)[kLanes])
{
    uint64_t word;
    static_assert(sizeof(word) == sizeof(collided));
    std::memcpy(&word, collided, sizeof(word));
    return word == 0x0101010101010101ull;
}

#else

/** |x| with the sign bit cleared — exactly std::fabs, lane-wise. */
inline __m256d
absPd(__m256d x)
{
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

/** Lane-wise a < b (ordered quiet compare, like the scalar `<`). */
inline __m256d
ltPd(__m256d a, __m256d b)
{
    return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
}

/** All-ones in lane l (of four) iff bit l of `bits` is set. */
inline __m256d
lanesFromBits(unsigned bits)
{
    const __m256i bit = _mm256_set_epi64x(8, 4, 2, 1);
    const __m256i set =
        _mm256_and_si256(_mm256_set1_epi64x(bits & 0xF), bit);
    return _mm256_castsi256_pd(_mm256_cmpeq_epi64(set, bit));
}

#endif

} // namespace

template <typename FillRow>
unsigned
BatchCollisionChecker::scanRows(const double *post, unsigned dead,
                                FillRow &&fill_row,
                                std::size_t &rows) const
{
    const double d = model_.delta;
    const double t1 = model_.thr1, t2 = model_.thr2, t3 = model_.thr3;
    const double t5 = model_.thr5, t6 = model_.thr6, t7 = model_.thr7;
    const std::size_t num_rows = pair_row_.size() - 1;

    // Both implementations repeat the pairConditionMask /
    // tripleConditionMask expressions verbatim (operand order
    // included, no contraction-prone rearrangement): any algebraic
    // change could flip a trial sitting within one ulp of a
    // threshold and break the bit-identical batch/scalar contract.

#ifdef __AVX2__
    const __m256d vd = _mm256_set1_pd(d);
    const __m256d vdh = _mm256_set1_pd(d / 2);
    const __m256d vt1 = _mm256_set1_pd(t1);
    const __m256d vt2 = _mm256_set1_pd(t2);
    const __m256d vt3 = _mm256_set1_pd(t3);
    const __m256d vt5 = _mm256_set1_pd(t5);
    const __m256d vt6 = _mm256_set1_pd(t6);
    const __m256d vt7 = _mm256_set1_pd(t7);

    // Lanes 0-3 and 4-7; a lane's register is all-ones once the
    // trial collided.
    __m256d dead_lo = lanesFromBits(dead);
    __m256d dead_hi = lanesFromBits(dead >> 4);
    auto all_dead = [&] {
        return (_mm256_movemask_pd(dead_lo) &
                _mm256_movemask_pd(dead_hi)) == 0xF;
    };

    // One stage: the terms row r completes. True once every lane has
    // collided.
    auto scan_row = [&](std::size_t r) {
        for (std::size_t term = pair_row_[r]; term < pair_row_[r + 1];
             ++term) {
            const double *fa =
                post + std::size_t(pair_a_[term]) * kLanes;
            const double *fb =
                post + std::size_t(pair_b_[term]) * kLanes;
            for (int h = 0; h < 2; ++h) {
                // A half whose four lanes already collided cannot
                // change the outcome; skipping it halves the work in
                // the common case where one stubborn lane keeps the
                // batch alive.
                __m256d &dead_h = h == 0 ? dead_lo : dead_hi;
                if (_mm256_movemask_pd(dead_h) == 0xF)
                    continue;
                const __m256d a = _mm256_loadu_pd(fa + 4 * h);
                const __m256d b = _mm256_loadu_pd(fb + 4 * h);
                // c1: |a - b| < t1
                __m256d c = ltPd(absPd(_mm256_sub_pd(a, b)), vt1);
                // c2: |a - (b - d/2)| < t2, both orientations.
                c = _mm256_or_pd(
                    c, ltPd(absPd(_mm256_sub_pd(
                                a, _mm256_sub_pd(b, vdh))),
                            vt2));
                c = _mm256_or_pd(
                    c, ltPd(absPd(_mm256_sub_pd(
                                b, _mm256_sub_pd(a, vdh))),
                            vt2));
                // c3: |a - (b - d)| < t3, both orientations.
                c = _mm256_or_pd(
                    c, ltPd(absPd(_mm256_sub_pd(
                                a, _mm256_sub_pd(b, vd))),
                            vt3));
                c = _mm256_or_pd(
                    c, ltPd(absPd(_mm256_sub_pd(
                                b, _mm256_sub_pd(a, vd))),
                            vt3));
                // c4: a > b - d or b > a - d.
                c = _mm256_or_pd(
                    c, ltPd(_mm256_sub_pd(b, vd), a));
                c = _mm256_or_pd(
                    c, ltPd(_mm256_sub_pd(a, vd), b));
                dead_h = _mm256_or_pd(dead_h, c);
            }
            if (all_dead())
                return true;
        }
        for (std::size_t term = tri_row_[r]; term < tri_row_[r + 1];
             ++term) {
            const double *fj =
                post + std::size_t(tri_j_[term]) * kLanes;
            const double *fk =
                post + std::size_t(tri_k_[term]) * kLanes;
            const double *fi =
                post + std::size_t(tri_i_[term]) * kLanes;
            for (int h = 0; h < 2; ++h) {
                __m256d &dead_h = h == 0 ? dead_lo : dead_hi;
                if (_mm256_movemask_pd(dead_h) == 0xF)
                    continue;
                const __m256d j = _mm256_loadu_pd(fj + 4 * h);
                const __m256d k = _mm256_loadu_pd(fk + 4 * h);
                const __m256d i = _mm256_loadu_pd(fi + 4 * h);
                // c5: |i - k| < t5
                __m256d c = ltPd(absPd(_mm256_sub_pd(i, k)), vt5);
                // c6: |i - (k - d)| < t6, both orientations.
                c = _mm256_or_pd(
                    c, ltPd(absPd(_mm256_sub_pd(
                                i, _mm256_sub_pd(k, vd))),
                            vt6));
                c = _mm256_or_pd(
                    c, ltPd(absPd(_mm256_sub_pd(
                                k, _mm256_sub_pd(i, vd))),
                            vt6));
                // c7: |2 j + d - (k + i)| < t7.
                const __m256d two_j = _mm256_add_pd(j, j);
                c = _mm256_or_pd(
                    c, ltPd(absPd(_mm256_sub_pd(
                                _mm256_add_pd(two_j, vd),
                                _mm256_add_pd(k, i))),
                            vt7));
                dead_h = _mm256_or_pd(dead_h, c);
            }
            if (all_dead())
                return true;
        }
        return false;
    };
#else
    unsigned char collided[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l)
        collided[l] = static_cast<unsigned char>((dead >> l) & 1u);

    auto scan_row = [&](std::size_t r) {
        for (std::size_t term = pair_row_[r]; term < pair_row_[r + 1];
             ++term) {
            const double *fa =
                post + std::size_t(pair_a_[term]) * kLanes;
            const double *fb =
                post + std::size_t(pair_b_[term]) * kLanes;
            for (std::size_t l = 0; l < kLanes; ++l) {
                const double a = fa[l], b = fb[l];
                const bool c1 = std::fabs(a - b) < t1;
                const bool c2 = (std::fabs(a - (b - d / 2)) < t2) |
                                (std::fabs(b - (a - d / 2)) < t2);
                const bool c3 = (std::fabs(a - (b - d)) < t3) |
                                (std::fabs(b - (a - d)) < t3);
                const bool c4 = (a > b - d) | (b > a - d);
                collided[l] |=
                    static_cast<unsigned char>(c1 | c2 | c3 | c4);
            }
            if (allDead(collided))
                return true;
        }
        for (std::size_t term = tri_row_[r]; term < tri_row_[r + 1];
             ++term) {
            const double *fj =
                post + std::size_t(tri_j_[term]) * kLanes;
            const double *fk =
                post + std::size_t(tri_k_[term]) * kLanes;
            const double *fi =
                post + std::size_t(tri_i_[term]) * kLanes;
            for (std::size_t l = 0; l < kLanes; ++l) {
                const double j = fj[l], k = fk[l], i = fi[l];
                const bool c5 = std::fabs(i - k) < t5;
                const bool c6 = (std::fabs(i - (k - d)) < t6) |
                                (std::fabs(k - (i - d)) < t6);
                const bool c7 = std::fabs(2 * j + d - (k + i)) < t7;
                collided[l] |=
                    static_cast<unsigned char>(c5 | c6 | c7);
            }
            if (allDead(collided))
                return true;
        }
        return false;
    };
#endif

    std::size_t r = 0;
    while (r < num_rows) {
        fill_row(r);
        if (scan_row(r++))
            break;
    }
    rows = r;

#ifdef __AVX2__
    return unsigned(_mm256_movemask_pd(dead_lo)) |
           (unsigned(_mm256_movemask_pd(dead_hi)) << 4);
#else
    unsigned dead_out = 0;
    for (std::size_t l = 0; l < kLanes; ++l)
        dead_out |= unsigned(collided[l]) << l;
    return dead_out;
#endif
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
    const char *env = std::getenv("QPAD_SCALAR_KERNEL");
    return env && *env;
}

bool
useBatchedKernel()
{
#ifdef __AVX2__
    return !scalarKernelForced();
#else
    // The portable lane loop measures ~2-3x slower than the scalar
    // oracle (see the file comment); it stays available for the
    // agreement tests but never as the default execution path.
    return false;
#endif
}

} // namespace qpad::yield
