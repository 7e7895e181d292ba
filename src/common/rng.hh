/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component of qpad (yield Monte Carlo, random bus
 * selection, mapper tie-breaking) draws from an explicitly seeded Rng
 * so that experiments are reproducible across platforms. The core
 * generator is xoshiro256**, seeded through SplitMix64.
 */

#ifndef QPAD_COMMON_RNG_HH
#define QPAD_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

namespace qpad
{

/**
 * Small, fast, deterministic random number generator
 * (xoshiro256** with SplitMix64 seeding).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /**
     * Uniform double in [lo, hi). @pre lo <= hi. The naive
     * lo + (hi - lo) * u can round up to exactly hi (e.g. when
     * hi - lo is a power-of-two multiple of the ulp at hi); the
     * result is clamped to the largest double below hi so the
     * half-open contract holds at every magnitude.
     */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0. */
    uint64_t below(uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    int64_t range(int64_t lo, int64_t hi);

    /** Standard normal deviate (Box-Muller, cached pair). */
    double gaussian();

    /** Normal deviate with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Bernoulli draw with probability p of true. */
    bool chance(double p);

    /** Split off an independent child stream (for parallel phases). */
    Rng split();

    /**
     * Stateless seed splitting, the basis of deterministic parallel
     * Monte Carlo (see runtime/seed_seq.hh).
     *
     * Scheme: the base seed is first diffused through one SplitMix64
     * step, then XOR-combined with the stream index scaled by an odd
     * 64-bit constant (so distinct streams differ in many bits), and
     * finally passed through SplitMix64 again:
     *
     *   child(seed, stream) =
     *       SplitMix64(SplitMix64(seed) ^ ((stream + 1) * C))
     *
     * with C = 0xd2b74407b1ce6e93. Each child seed then goes through
     * Rng's normal SplitMix64 state expansion. The child is a pure
     * function of (seed, stream): parallel shards that draw from
     * stream = chunk index reproduce the sequential run exactly,
     * independent of thread count and scheduling order. Note that
     * child(seed, s) is unrelated to Rng(seed).split() — the two
     * mechanisms serve different call sites and must not be mixed
     * within one workload.
     *
     * The Monte Carlo draw order built on this splitting (the lane
     * order of common/gauss_block.hh): a shard with child seed s
     * draws its Gaussians from GaussianBlockSampler(s) lane-major —
     * trials are grouped in blocks of 8, lane t % 8 is the child
     * stream Rng::childSeed(s, t % 8), and each trial reads its
     * deviates from its own lane row by row. The order is a pure
     * function of (seed, shard layout), so results are bit-identical
     * across thread counts, batch remainders, and collision-kernel
     * choices. Changing it (or adding a draw) changes every seeded
     * result.
     */
    static uint64_t childSeed(uint64_t seed, uint64_t stream);

    /** Generator for child stream `stream` of `seed` (see above). */
    static Rng forStream(uint64_t seed, uint64_t stream);

    /**
     * The constructor's SplitMix64 expansion of `seed` into
     * xoshiro256** state, exposed so the lane-parallel
     * GaussianBlockSampler seeds its interleaved lanes exactly like
     * Rng(seed) would.
     */
    static void expandState(uint64_t seed, uint64_t (&state)[4]);

    /**
     * One SplitMix64 step: advance `state` and return the mixed
     * output. The single definition of the generator the seeding
     * scheme builds on, exposed for callers that need a tiny
     * standalone deterministic stream (scheduler victim
     * randomization, bench busywork) without duplicating the
     * constants.
     */
    static uint64_t splitMix64(uint64_t &state);

  private:
    uint64_t s_[4];
    double cached_gauss_;
    bool has_cached_gauss_;

    static uint64_t rotl(uint64_t x, int k);
};

} // namespace qpad

#endif // QPAD_COMMON_RNG_HH
