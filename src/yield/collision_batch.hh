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
 * asserts this trial-for-trial, including remainder batches).
 * Setting QPAD_SCALAR_KERNEL non-empty in the environment makes
 * estimateYield fall back to the scalar oracle. (Algorithm 3 scores
 * its candidates with neither kernel: see design/freq_sweep.hh.)
 */

#ifndef QPAD_YIELD_COLLISION_BATCH_HH
#define QPAD_YIELD_COLLISION_BATCH_HH

#include <cstdint>
#include <vector>

#include "yield/collision.hh"

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
     * conditions; bits >= active are zero. Lanes >= active must
     * still hold readable doubles (they are evaluated branch-free,
     * then masked off).
     */
    uint8_t survivorMask(const double *post,
                         std::size_t active = kLanes) const;

  private:
    CollisionModel model_;
    std::vector<uint32_t> pair_a_, pair_b_;
    std::vector<uint32_t> tri_j_, tri_k_, tri_i_;
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
