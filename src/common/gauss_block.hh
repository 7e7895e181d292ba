/**
 * @file
 * Lane-parallel Gaussian block sampler — the vectorized counterpart
 * of Rng::gaussian() for the Monte Carlo hot paths.
 *
 * GaussianBlockSampler runs kLanes = 8 independent xoshiro256**
 * generators with interleaved state (lane l is child stream l of the
 * sampler seed, see Rng::childSeed) and converts their output to
 * standard normal deviates with a batched Box-Muller transform. The
 * log/sin/cos evaluations use fixed polynomial kernels (Cephes
 * minimax coefficients) written against the 8-wide vector
 * abstraction of common/vec8.hh, with exactly one implementation of
 * each arithmetic op per backend: AVX2 intrinsics when the
 * translation unit is built with -mavx2 (the same run-on-host CMake
 * probe as the batched collision kernel), a portable scalar loop
 * otherwise. Every op in the pipeline is an IEEE-754
 * correctly-rounded primitive (add, sub, mul, div, sqrt, floor,
 * integer bit ops) applied in an identical order by both backends,
 * and the file is compiled with -ffp-contract=off, so the sampled
 * bits are identical on AVX2 and non-AVX2 builds.
 * tests/test_gauss_block.cc pins golden bit patterns to keep both
 * backends honest.
 *
 * Draw-order contract (the "lane order", see also common/rng.hh):
 * lane l produces an autonomous stream of deviates; a fill of n rows
 * appends n deviates to every lane at out[row * kLanes + lane]. The
 * per-lane streams are pure functions of the sampler seed — they do
 * not depend on how fills are sized or batched (an odd row count
 * carries the pending Box-Muller pair partner into the next fill),
 * which is what makes Monte Carlo results independent of batch
 * remainders. The yield simulation and the frequency allocator
 * group trials in blocks of kLanes: trial t of a block consumes
 * lane t % kLanes, qubits in row order. The frequency sweep starts
 * each fixed chunk of blocks from a copy of the visit's sampler
 * advanced with discard(rows), which leaves the lanes exactly where
 * fillStandard(rows) would, so a chunk draws the very deviates one
 * sequential fill gives it.
 */

#ifndef QPAD_COMMON_GAUSS_BLOCK_HH
#define QPAD_COMMON_GAUSS_BLOCK_HH

#include <cstddef>
#include <cstdint>

namespace qpad
{

/** 8-lane xoshiro256** + batched Box-Muller standard normals. */
class GaussianBlockSampler
{
  public:
    /** Independent generator lanes per block (= one SoA block). */
    static constexpr std::size_t kLanes = 8;

    /**
     * Seed the eight lanes as child streams 0..kLanes-1 of `seed`
     * (lane l state = Rng(Rng::childSeed(seed, l))).
     */
    explicit GaussianBlockSampler(uint64_t seed);

    /**
     * Append the next standard normal of every lane to each of
     * `rows` rows: out[r * kLanes + l] = lane l's deviate for row r.
     * Fills are composable: fill(a) then fill(b) writes the same
     * deviates as one fill(a + b).
     */
    void fillStandard(double *out, std::size_t rows);

    /**
     * Skip `rows` rows: leave the lane states (and the odd-row carry)
     * exactly as fillStandard(rows) would, without computing the
     * deviates. With no carry pending, an even row count costs one
     * raw xoshiro256** step per lane per row.
     */
    void discard(std::size_t rows);

    /**
     * Same draws as fillStandard, stored as
     * out[r * kLanes + l] = means[r] + sigma * z, computed in that
     * exact expression order on both backends. The underlying
     * standard normals (and the carried odd-row partner) are
     * unaffected by `means`/`sigma`, so mixed-parameter fills stay
     * composable.
     */
    void fillAffine(double *out, const double *means, double sigma,
                    std::size_t rows);

  private:
    /** Interleaved xoshiro256** state: word w of lane l. */
    alignas(32) uint64_t state_[4][kLanes];
    /** Pending Box-Muller partner per lane (valid iff has_carry_). */
    alignas(32) double carry_[kLanes];
    bool has_carry_ = false;
};

} // namespace qpad

#endif // QPAD_COMMON_GAUSS_BLOCK_HH
