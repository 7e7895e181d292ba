/**
 * @file
 * Internal 8-lane vector backend shared by the lane-parallel Monte
 * Carlo kernels: the Gaussian block sampler (common/gauss_block.cc)
 * and the frequency allocator's candidate sweep
 * (design/freq_sweep.cc). Not a public API: include it only from
 * translation units that CMakeLists.txt builds with the same flags
 * (-mavx2 when the build host runs it, and -ffp-contract=off).
 *
 * Exactly one implementation of every op per build: AVX2 intrinsics
 * with -mavx2, a portable lane loop otherwise. Every op is an
 * IEEE-754 correctly-rounded primitive (or an exact bit/integer
 * operation, or a compare/select with the AVX2 instruction's NaN
 * rule spelled out in the portable loop), so a kernel written
 * against these ops produces the same bits on both backends. A
 * fused multiply-add would round differently, hence
 * -ffp-contract=off for every includer.
 *
 * Everything sits in an unnamed namespace: each includer gets its
 * own copy, so no inline definition is shared across translation
 * units.
 */

#ifndef QPAD_COMMON_VEC8_HH
#define QPAD_COMMON_VEC8_HH

#include <cstddef>
#include <cstdint>

#ifdef __AVX2__
#include <immintrin.h>
#else
#include <bit>
#include <cmath>
#endif

namespace qpad::vec8
{
namespace
{

constexpr std::size_t kL = 8;

#ifdef __AVX2__

struct VecD
{
    __m256d lo, hi;
};

struct VecU
{
    __m256i lo, hi;
};

inline VecD
splat(double x)
{
    return {_mm256_set1_pd(x), _mm256_set1_pd(x)};
}

inline VecU
splatU(uint64_t x)
{
    const __m256i v = _mm256_set1_epi64x(int64_t(x));
    return {v, v};
}

inline VecD
vadd(VecD a, VecD b)
{
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
}

inline VecD
vsub(VecD a, VecD b)
{
    return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
}

inline VecD
vmul(VecD a, VecD b)
{
    return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
}

inline VecD
vdiv(VecD a, VecD b)
{
    return {_mm256_div_pd(a.lo, b.lo), _mm256_div_pd(a.hi, b.hi)};
}

inline VecD
vsqrt(VecD a)
{
    return {_mm256_sqrt_pd(a.lo), _mm256_sqrt_pd(a.hi)};
}

inline VecD
vfloor(VecD a)
{
    return {_mm256_floor_pd(a.lo), _mm256_floor_pd(a.hi)};
}

/** a < b ? a : b per lane (b when either is NaN). */
inline VecD
vmin(VecD a, VecD b)
{
    return {_mm256_min_pd(a.lo, b.lo), _mm256_min_pd(a.hi, b.hi)};
}

/** a > b ? a : b per lane (b when either is NaN). */
inline VecD
vmax(VecD a, VecD b)
{
    return {_mm256_max_pd(a.lo, b.lo), _mm256_max_pd(a.hi, b.hi)};
}

/** Lane mask, all-ones where a < b (ordered quiet compare). */
inline VecD
vlt(VecD a, VecD b)
{
    return {_mm256_cmp_pd(a.lo, b.lo, _CMP_LT_OQ),
            _mm256_cmp_pd(a.hi, b.hi, _CMP_LT_OQ)};
}

/** mask-sign-bit ? a : b (masks here are all-ones or all-zero). */
inline VecD
vblend(VecD mask, VecD a, VecD b)
{
    return {_mm256_blendv_pd(b.lo, a.lo, mask.lo),
            _mm256_blendv_pd(b.hi, a.hi, mask.hi)};
}

inline VecD
vand(VecD a, VecD b)
{
    return {_mm256_and_pd(a.lo, b.lo), _mm256_and_pd(a.hi, b.hi)};
}

inline VecD
vxor(VecD a, VecD b)
{
    return {_mm256_xor_pd(a.lo, b.lo), _mm256_xor_pd(a.hi, b.hi)};
}

inline VecU
toBits(VecD a)
{
    return {_mm256_castpd_si256(a.lo), _mm256_castpd_si256(a.hi)};
}

inline VecD
fromBits(VecU a)
{
    return {_mm256_castsi256_pd(a.lo), _mm256_castsi256_pd(a.hi)};
}

inline VecU
uxor(VecU a, VecU b)
{
    return {_mm256_xor_si256(a.lo, b.lo), _mm256_xor_si256(a.hi, b.hi)};
}

inline VecU
uor(VecU a, VecU b)
{
    return {_mm256_or_si256(a.lo, b.lo), _mm256_or_si256(a.hi, b.hi)};
}

inline VecU
uand(VecU a, VecU b)
{
    return {_mm256_and_si256(a.lo, b.lo), _mm256_and_si256(a.hi, b.hi)};
}

/** ~a & b. */
inline VecU
uandnot(VecU a, VecU b)
{
    return {_mm256_andnot_si256(a.lo, b.lo),
            _mm256_andnot_si256(a.hi, b.hi)};
}

inline VecU
uadd(VecU a, VecU b)
{
    return {_mm256_add_epi64(a.lo, b.lo), _mm256_add_epi64(a.hi, b.hi)};
}

template <int K>
inline VecU
ushl(VecU a)
{
    return {_mm256_slli_epi64(a.lo, K), _mm256_slli_epi64(a.hi, K)};
}

template <int K>
inline VecU
ushr(VecU a)
{
    return {_mm256_srli_epi64(a.lo, K), _mm256_srli_epi64(a.hi, K)};
}

/** a << n per lane; 0 where n >= 64. */
inline VecU
ushlv(VecU a, VecU n)
{
    return {_mm256_sllv_epi64(a.lo, n.lo), _mm256_sllv_epi64(a.hi, n.hi)};
}

/** Bit l set iff the sign bit of lane l is. */
inline unsigned
laneMask(VecU a)
{
    return unsigned(_mm256_movemask_pd(_mm256_castsi256_pd(a.lo))) |
           unsigned(_mm256_movemask_pd(_mm256_castsi256_pd(a.hi))) << 4;
}

/** True iff every bit of every lane is zero. */
inline bool
allZero(VecU a)
{
    const __m256i any = _mm256_or_si256(a.lo, a.hi);
    return _mm256_testz_si256(any, any) != 0;
}

/** Exact double(x) for unsigned lanes x < 2^52 (magic-number add). */
inline VecD
smallU64ToDouble(VecU x)
{
    const VecU magic = splatU(0x4330000000000000ull); // bits of 2^52
    return vsub(fromBits(uor(x, magic)), splat(4503599627370496.0));
}

/**
 * (raw >> 11) * 2^-53 in [0, 1) — the Rng::uniform conversion. The
 * 53-bit integer is split into exactly-convertible halves; the
 * recombination hi * 2^32 + lo is exact, so the value matches the
 * scalar backend's direct double() conversion bit for bit.
 */
inline VecD
unitFromBits(VecU raw)
{
    const VecU m = ushr<11>(raw);
    const VecD hi = smallU64ToDouble(ushr<32>(m));
    const VecD lo = smallU64ToDouble(uand(m, splatU(0xFFFFFFFFull)));
    const VecD d = vadd(vmul(hi, splat(4294967296.0)), lo);
    return vmul(d, splat(0x1.0p-53));
}

inline VecU
loadU(const uint64_t *p)
{
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i *>(p)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(p + 4))};
}

inline void
storeU(uint64_t *p, VecU a)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), a.lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p + 4), a.hi);
}

inline VecD
loadD(const double *p)
{
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
}

inline void
storeD(double *p, VecD a)
{
    _mm256_storeu_pd(p, a.lo);
    _mm256_storeu_pd(p + 4, a.hi);
}

#else // portable fallback: same ops, one double per lane

struct VecD
{
    double v[kL];
};

struct VecU
{
    uint64_t v[kL];
};

inline VecD
splat(double x)
{
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = x;
    return r;
}

inline VecU
splatU(uint64_t x)
{
    VecU r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = x;
    return r;
}

inline VecD
vadd(VecD a, VecD b)
{
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = a.v[l] + b.v[l];
    return r;
}

inline VecD
vsub(VecD a, VecD b)
{
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = a.v[l] - b.v[l];
    return r;
}

inline VecD
vmul(VecD a, VecD b)
{
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = a.v[l] * b.v[l];
    return r;
}

inline VecD
vdiv(VecD a, VecD b)
{
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = a.v[l] / b.v[l];
    return r;
}

inline VecD
vsqrt(VecD a)
{
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = std::sqrt(a.v[l]);
    return r;
}

inline VecD
vfloor(VecD a)
{
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = std::floor(a.v[l]);
    return r;
}

inline VecD
vmin(VecD a, VecD b)
{
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = a.v[l] < b.v[l] ? a.v[l] : b.v[l];
    return r;
}

inline VecD
vmax(VecD a, VecD b)
{
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = a.v[l] > b.v[l] ? a.v[l] : b.v[l];
    return r;
}

inline VecD
vlt(VecD a, VecD b)
{
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = a.v[l] < b.v[l]
                     ? std::bit_cast<double>(~uint64_t{0})
                     : 0.0;
    return r;
}

inline VecD
vblend(VecD mask, VecD a, VecD b)
{
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = (std::bit_cast<uint64_t>(mask.v[l]) >> 63) ? a.v[l]
                                                            : b.v[l];
    return r;
}

inline VecD
vand(VecD a, VecD b)
{
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = std::bit_cast<double>(std::bit_cast<uint64_t>(a.v[l]) &
                                       std::bit_cast<uint64_t>(b.v[l]));
    return r;
}

inline VecD
vxor(VecD a, VecD b)
{
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = std::bit_cast<double>(std::bit_cast<uint64_t>(a.v[l]) ^
                                       std::bit_cast<uint64_t>(b.v[l]));
    return r;
}

inline VecU
toBits(VecD a)
{
    VecU r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = std::bit_cast<uint64_t>(a.v[l]);
    return r;
}

inline VecD
fromBits(VecU a)
{
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = std::bit_cast<double>(a.v[l]);
    return r;
}

inline VecU
uxor(VecU a, VecU b)
{
    VecU r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = a.v[l] ^ b.v[l];
    return r;
}

inline VecU
uor(VecU a, VecU b)
{
    VecU r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = a.v[l] | b.v[l];
    return r;
}

inline VecU
uand(VecU a, VecU b)
{
    VecU r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = a.v[l] & b.v[l];
    return r;
}

inline VecU
uandnot(VecU a, VecU b)
{
    VecU r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = ~a.v[l] & b.v[l];
    return r;
}

inline VecU
uadd(VecU a, VecU b)
{
    VecU r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = a.v[l] + b.v[l];
    return r;
}

template <int K>
inline VecU
ushl(VecU a)
{
    VecU r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = a.v[l] << K;
    return r;
}

template <int K>
inline VecU
ushr(VecU a)
{
    VecU r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = a.v[l] >> K;
    return r;
}

inline VecU
ushlv(VecU a, VecU n)
{
    VecU r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = n.v[l] < 64 ? a.v[l] << n.v[l] : 0;
    return r;
}

inline unsigned
laneMask(VecU a)
{
    unsigned m = 0;
    for (std::size_t l = 0; l < kL; ++l)
        m |= unsigned(a.v[l] >> 63) << l;
    return m;
}

inline bool
allZero(VecU a)
{
    uint64_t any = 0;
    for (std::size_t l = 0; l < kL; ++l)
        any |= a.v[l];
    return any == 0;
}

inline VecD
smallU64ToDouble(VecU x)
{
    // double() is exact below 2^53, a fortiori below 2^52.
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = double(x.v[l]);
    return r;
}

inline VecD
unitFromBits(VecU raw)
{
    // double(m) is exact for the 53-bit m, which equals the AVX2
    // backend's hi * 2^32 + lo recombination bit for bit.
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = double(raw.v[l] >> 11) * 0x1.0p-53;
    return r;
}

inline VecU
loadU(const uint64_t *p)
{
    VecU r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = p[l];
    return r;
}

inline void
storeU(uint64_t *p, VecU a)
{
    for (std::size_t l = 0; l < kL; ++l)
        p[l] = a.v[l];
}

inline VecD
loadD(const double *p)
{
    VecD r;
    for (std::size_t l = 0; l < kL; ++l)
        r.v[l] = p[l];
    return r;
}

inline void
storeD(double *p, VecD a)
{
    for (std::size_t l = 0; l < kL; ++l)
        p[l] = a.v[l];
}

#endif

} // namespace
} // namespace qpad::vec8

#endif // QPAD_COMMON_VEC8_HH
