/**
 * @file
 * Batched structure-of-arrays collision kernel — the hot path of the
 * yield Monte Carlo.
 *
 * The scalar CollisionChecker walks pair/triple terms with early
 * exits: fast for one trial that dies on its first term, but branchy
 * and serial when millions of surviving trials each scan every term.
 * BatchCollisionChecker packs the term endpoints into flat index
 * arrays at construction and evaluates kLanes = 8 Monte Carlo trials
 * at once over a qubit-major frequency block: per term, the eight
 * lane comparisons are straight-line fabs/compare arithmetic with no
 * data-dependent branches, implemented with AVX2 intrinsics when the
 * translation unit is built with -mavx2 (the CMake probe runs an
 * AVX2 snippet on the build host before enabling it). Per-half
 * dead-lane skips and an all-lanes-dead early-out keep the batch
 * ahead of the short-circuiting scalar walk even on zero-yield
 * inputs; bench/bench_collision_batch.cc measures both kernels.
 *
 * Term order and the staged scan: the pair terms, and separately the
 * triple terms, are stored stably sorted by their largest qubit index
 * (their row in the block), with per-row bounds. Both entry points
 * run one scan over the rows in order: row r scans the pairs, then
 * the triples, that row r completes, and the scan stops after the
 * first row at which every counted lane has collided (or after the
 * last row that completes a term). survivorMask() scans a block that
 * is already filled. sampleSurvivorMask() fills the block as it
 * scans, one row per stage from the shard's GaussianBlockSampler,
 * and then discards the rows it did not draw, so the sampler ends
 * where a whole-block fill leaves it: the yield Monte Carlo draws
 * only the rows its block reads (at the paper's sigma, all eight
 * lanes have usually collided well before the last row). A survivor
 * mask is an OR over the terms, whatever their order, and fills and
 * discards compose bit-exactly (common/gauss_block.hh), so neither
 * the masks nor any later draw depend on where a scan stops.
 *
 * Without AVX2 a portable lane loop is compiled instead. It is the
 * reference implementation the property tests and the bench compare
 * against, but it measures SLOWER than the scalar oracle, so
 * useBatchedKernel() steers the yield paths back to the oracle on
 * such builds — the batch is only the default where it wins.
 *
 * The lane arithmetic mirrors pairConditionMask /
 * tripleConditionMask expression-for-expression — same operand
 * order, no algebraic rearrangement — so the batch and scalar
 * kernels agree bit-for-bit on every trial (tests/test_yield.cc
 * asserts this trial-for-trial, including remainder batches). Each
 * backend holds one copy of the seven condition expressions, in the
 * staged scan both entry points share.
 * Setting QPAD_SCALAR_KERNEL non-empty in the environment makes
 * estimateYield fall back to the scalar oracle. (Algorithm 3 scores
 * its candidates with neither kernel: see design/freq_sweep.hh.)
 */

#ifndef QPAD_YIELD_COLLISION_BATCH_HH
#define QPAD_YIELD_COLLISION_BATCH_HH

#include <cstdint>
#include <vector>

#include "yield/collision.hh"

namespace qpad
{
class GaussianBlockSampler;
}

namespace qpad::yield
{

/** SoA collision predicate over blocks of kLanes trials. */
class BatchCollisionChecker
{
  public:
    /** Trials evaluated per block. */
    static constexpr std::size_t kLanes = 8;

    BatchCollisionChecker() = default;

    /** Pack the terms of a prebuilt scalar checker (indices address
     * the post block). */
    explicit BatchCollisionChecker(const CollisionChecker &checker);

    std::size_t numPairs() const { return pair_a_.size(); }
    std::size_t numTriples() const { return tri_j_.size(); }

    /**
     * Flat index of trial t, qubit q in a sequence of kLanes-trial
     * qubit-major blocks over nq qubits — the layout survivorMask
     * reads (block bi starts at bi * nq * kLanes). Single source for
     * every packer of such blocks.
     */
    static constexpr std::size_t
    soaIndex(std::size_t t, std::size_t q, std::size_t nq)
    {
        return (t / kLanes) * nq * kLanes + q * kLanes + t % kLanes;
    }

    /**
     * Evaluate `active` (1..kLanes) trials over a qubit-major block:
     * lane l of qubit q lives at post[q * kLanes + l]. Returns a
     * bitmask with bit l set iff trial l survives all seven
     * conditions; bits >= active are zero. Lanes >= active start
     * dead, but must still hold readable doubles (a half-block with
     * a live lane is evaluated branch-free, all four lanes at once).
     */
    uint8_t survivorMask(const double *post,
                         std::size_t active = kLanes) const;

    /** What sampleSurvivorMask() drew and found. */
    struct SampledBlock
    {
        /** Bit l set iff counted lane l survives all conditions. */
        uint8_t survivors = 0;
        /** Rows filled from the sampler (the rest were discarded). */
        std::size_t rows = 0;
    };

    /**
     * Draw and check one block on demand: rows r = 0, 1, ... of
     * `block` are filled one at a time with
     * sampler.fillAffine(block + r * kLanes, means + r, sigma, 1),
     * each followed by the terms it completes, until every counted
     * lane [lo, active) has collided or no term is left; the block's
     * remaining nq - rows rows are then discarded, so the sampler
     * stands exactly where fillAffine(block, means, sigma, nq) leaves
     * it. Lanes outside [lo, active) start dead: their bits are zero
     * and they never keep the scan going. Rows at and after `rows`
     * are left unwritten. Requires lo < active <= kLanes and nq
     * covering every qubit of the checker's terms.
     */
    SampledBlock sampleSurvivorMask(GaussianBlockSampler &sampler,
                                    const double *means, double sigma,
                                    std::size_t nq, double *block,
                                    std::size_t lo,
                                    std::size_t active) const;

  private:
    /**
     * The staged scan of both entry points: before scanning row r it
     * calls fill_row(r). `dead` holds the lanes that start dead (bit
     * l = lane l). Returns the dead lanes at the stop and sets `rows`
     * to the rows scanned.
     */
    template <typename FillRow>
    unsigned scanRows(const double *post, unsigned dead,
                      FillRow &&fill_row, std::size_t &rows) const;

    CollisionModel model_;
    std::vector<uint32_t> pair_a_, pair_b_;
    std::vector<uint32_t> tri_j_, tri_k_, tri_i_;
    /** Row r's terms: pairs [pair_row_[r], pair_row_[r + 1]), and
     * triples [tri_row_[r], tri_row_[r + 1]); one entry per row up to
     * the last that completes a term, plus one. */
    std::vector<uint32_t> pair_row_ = {0}, tri_row_ = {0};
};

/**
 * True when QPAD_SCALAR_KERNEL is set non-empty: the yield paths
 * then use the scalar oracle instead of the batched kernel. Queried
 * per simulation call, so tests can flip it at runtime.
 */
bool scalarKernelForced();

/**
 * True when the yield hot paths should run the batched kernel: it
 * was compiled with AVX2 lanes (the portable fallback loses to the
 * short-circuiting scalar oracle) and QPAD_SCALAR_KERNEL does not
 * force the oracle.
 */
bool useBatchedKernel();

} // namespace qpad::yield

#endif // QPAD_YIELD_COLLISION_BATCH_HH
