#include "common/gauss_block.hh"

#include "common/rng.hh"
#include "common/vec8.hh"

namespace qpad
{

namespace
{

using namespace vec8;

static_assert(GaussianBlockSampler::kLanes == kL);

// --------------------------------------------------------------------
// Shared transform bodies (backend-independent op sequences)
// --------------------------------------------------------------------

/** One xoshiro256** step for all lanes (interleaved state words). */
inline VecU
xoshiroNext(VecU s[4])
{
    // result = rotl(s1 * 5, 7) * 9; the multiplications by 5 and 9
    // are shift-adds (AVX2 has no 64-bit mullo), identical mod 2^64.
    const VecU x5 = uadd(s[1], ushl<2>(s[1]));
    const VecU rot = uor(ushl<7>(x5), ushr<57>(x5));
    const VecU result = uadd(rot, ushl<3>(rot));

    const VecU t = ushl<17>(s[1]);
    s[2] = uxor(s[2], s[0]);
    s[3] = uxor(s[3], s[1]);
    s[1] = uxor(s[1], s[2]);
    s[0] = uxor(s[0], s[3]);
    s[2] = uxor(s[2], t);
    s[3] = uor(ushl<45>(s[3]), ushr<19>(s[3]));
    return result;
}

/**
 * ln(x) for x in (0, 1] (normal doubles; the Box-Muller u1 is at
 * least 2^-53, so no zero/denormal/negative handling is needed).
 *
 * The mantissa is scaled into m in [sqrt(1/2), sqrt(2)) and
 * ln(m) = 2 atanh(z) with z = (m - 1)/(m + 1), |z| <= 0.1716, is
 * evaluated as the plain odd Taylor series through z^21 (truncation
 * error below 1e-17 relative on this range; the coefficients are
 * the exact rationals 1/(2k+1), so there is nothing to
 * mistranscribe). The exponent is recombined through the fdlibm
 * hi/lo split of ln 2: e * ln2_hi is exact because ln2_hi carries
 * 20 trailing zero bits and |e| <= 1074.
 */
inline VecD
vlogUnit(VecD x)
{
    const VecU bits = toBits(x);
    VecD e = vsub(smallU64ToDouble(ushr<52>(bits)), splat(1022.0));
    // f in [0.5, 1): exponent bits replaced with 2^-1.
    const VecD f =
        fromBits(uor(uand(bits, splatU(0x000FFFFFFFFFFFFFull)),
                     splatU(0x3FE0000000000000ull)));
    const VecD below = vlt(f, splat(0.70710678118654752440));
    e = vsub(e, vand(below, splat(1.0)));
    const VecD m = vblend(below, vadd(f, f), f);

    const VecD z =
        vdiv(vsub(m, splat(1.0)), vadd(m, splat(1.0)));
    const VecD z2 = vmul(z, z);
    VecD p = splat(1.0 / 21.0);
    p = vadd(vmul(p, z2), splat(1.0 / 19.0));
    p = vadd(vmul(p, z2), splat(1.0 / 17.0));
    p = vadd(vmul(p, z2), splat(1.0 / 15.0));
    p = vadd(vmul(p, z2), splat(1.0 / 13.0));
    p = vadd(vmul(p, z2), splat(1.0 / 11.0));
    p = vadd(vmul(p, z2), splat(1.0 / 9.0));
    p = vadd(vmul(p, z2), splat(1.0 / 7.0));
    p = vadd(vmul(p, z2), splat(1.0 / 5.0));
    p = vadd(vmul(p, z2), splat(1.0 / 3.0));
    p = vadd(vmul(p, z2), splat(1.0));
    const VecD mant = vmul(vadd(z, z), p); // 2 atanh(z)

    const VecD ln2_hi = splat(6.93147180369123816490e-1);
    const VecD ln2_lo = splat(1.90821492927058770002e-10);
    return vadd(vadd(mant, vmul(e, ln2_lo)), vmul(e, ln2_hi));
}

/**
 * sin(2 pi u) and cos(2 pi u) for u in [0, 1). Octant reduction in
 * the exact unit domain (a = 4u and the quadrant arithmetic are
 * exact), then the Cephes sin/cos minimax polynomials on
 * |x| <= pi/4.
 */
inline void
vsincos2pi(VecD u, VecD &sin_out, VecD &cos_out)
{
    const VecD a = vmul(u, splat(4.0)); // exact: power-of-two scale
    const VecD k = vfloor(vadd(a, splat(0.5))); // quadrant, 0..4
    const VecD r = vsub(a, k);                  // [-0.5, 0.5]

    // Quadrant bits, as exact small-integer arithmetic: swap when k
    // is odd, negate sin when k mod 4 is 2 or 3 (k = 4 aliases 0).
    const VecD m2 =
        vsub(k, vmul(splat(2.0), vfloor(vmul(k, splat(0.5)))));
    const VecD m4 =
        vsub(k, vmul(splat(4.0), vfloor(vmul(k, splat(0.25)))));
    const VecD swap = vlt(splat(0.5), m2);
    const VecD neg_sin = vlt(splat(1.5), m4);
    const VecD neg_cos = vxor(swap, neg_sin);

    const VecD x = vmul(r, splat(1.5707963267948966)); // r * pi/2
    const VecD z = vmul(x, x);

    VecD sp = splat(1.58962301576546568060e-10);
    sp = vadd(vmul(sp, z), splat(-2.50507477628578072866e-8));
    sp = vadd(vmul(sp, z), splat(2.75573136213857245213e-6));
    sp = vadd(vmul(sp, z), splat(-1.98412698295895385996e-4));
    sp = vadd(vmul(sp, z), splat(8.33333333332211858878e-3));
    sp = vadd(vmul(sp, z), splat(-1.66666666666666307295e-1));
    const VecD sin_x = vadd(x, vmul(vmul(x, z), sp));

    VecD cp = splat(-1.13585365213876817300e-11);
    cp = vadd(vmul(cp, z), splat(2.08757008419747316778e-9));
    cp = vadd(vmul(cp, z), splat(-2.75573141792967388112e-7));
    cp = vadd(vmul(cp, z), splat(2.48015872888517179954e-5));
    cp = vadd(vmul(cp, z), splat(-1.38888888888730564116e-3));
    cp = vadd(vmul(cp, z), splat(4.16666666666665929218e-2));
    const VecD cos_x = vadd(vsub(splat(1.0), vmul(z, splat(0.5))),
                            vmul(vmul(z, z), cp));

    const VecD sign = splat(-0.0);
    sin_out = vxor(vblend(swap, cos_x, sin_x), vand(neg_sin, sign));
    cos_out = vxor(vblend(swap, sin_x, cos_x), vand(neg_cos, sign));
}

/**
 * Next Box-Muller pair of every lane: z0 = r cos(theta),
 * z1 = r sin(theta) — the same convention as Rng::gaussian(), which
 * returns the cosine deviate first and caches the sine one.
 */
inline void
gaussPair(VecU s[4], VecD &z0, VecD &z1)
{
    const VecD u1 = vsub(splat(1.0), unitFromBits(xoshiroNext(s)));
    const VecD u2 = unitFromBits(xoshiroNext(s));
    const VecD r = vsqrt(vmul(splat(-2.0), vlogUnit(u1)));
    VecD sn, cs;
    vsincos2pi(u2, sn, cs);
    z0 = vmul(r, cs);
    z1 = vmul(r, sn);
}

/**
 * Shared fill driver: `store(row, z)` commits one row of lane
 * deviates. The carry keeps the pending sine partner of an odd
 * trailing row so fills compose (fill(a); fill(b) == fill(a+b)).
 */
template <typename StoreRow>
inline void
fillRows(uint64_t (&state)[4][kL], double (&carry)[kL],
         bool &has_carry, std::size_t rows, StoreRow &&store)
{
    if (rows == 0)
        return;
    std::size_t r = 0;
    if (has_carry) {
        store(r++, loadD(carry));
        has_carry = false;
        if (r == rows)
            return;
    }
    VecU s[4] = {loadU(state[0]), loadU(state[1]), loadU(state[2]),
                 loadU(state[3])};
    for (; r + 1 < rows; r += 2) {
        VecD z0, z1;
        gaussPair(s, z0, z1);
        store(r, z0);
        store(r + 1, z1);
    }
    if (r < rows) {
        VecD z0, z1;
        gaussPair(s, z0, z1);
        store(r, z0);
        storeD(carry, z1);
        has_carry = true;
    }
    storeU(state[0], s[0]);
    storeU(state[1], s[1]);
    storeU(state[2], s[2]);
    storeU(state[3], s[3]);
}

} // namespace

GaussianBlockSampler::GaussianBlockSampler(uint64_t seed)
{
    for (std::size_t l = 0; l < kLanes; ++l) {
        uint64_t lane_state[4];
        Rng::expandState(Rng::childSeed(seed, l), lane_state);
        for (std::size_t w = 0; w < 4; ++w)
            state_[w][l] = lane_state[w];
    }
    for (std::size_t l = 0; l < kLanes; ++l)
        carry_[l] = 0.0;
}

void
GaussianBlockSampler::fillStandard(double *out, std::size_t rows)
{
    fillRows(state_, carry_, has_carry_, rows,
             [&](std::size_t r, VecD z) {
                 storeD(out + r * kLanes, z);
             });
}

void
GaussianBlockSampler::discard(std::size_t rows)
{
    // fillRows without the stores: a whole pair of rows is two raw
    // xoshiro256** steps per lane, and only an odd last row needs its
    // Box-Muller pair, for the partner it leaves in the carry.
    if (rows == 0)
        return;
    if (has_carry_) {
        has_carry_ = false;
        --rows;
    }
    VecU s[4] = {loadU(state_[0]), loadU(state_[1]), loadU(state_[2]),
                 loadU(state_[3])};
    for (; rows >= 2; rows -= 2) {
        xoshiroNext(s);
        xoshiroNext(s);
    }
    if (rows == 1) {
        VecD z0, z1;
        gaussPair(s, z0, z1);
        storeD(carry_, z1);
        has_carry_ = true;
    }
    for (std::size_t w = 0; w < 4; ++w)
        storeU(state_[w], s[w]);
}

void
GaussianBlockSampler::fillAffine(double *out, const double *means,
                                 double sigma, std::size_t rows)
{
    const VecD vs = splat(sigma);
    fillRows(state_, carry_, has_carry_, rows,
             [&](std::size_t r, VecD z) {
                 storeD(out + r * kLanes,
                        vadd(splat(means[r]), vmul(vs, z)));
             });
}

} // namespace qpad
