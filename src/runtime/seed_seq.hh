/**
 * @file
 * Deterministic seed splitting for parallel Monte Carlo.
 *
 * A SeedSequence turns one user-facing seed into an unbounded family
 * of statistically independent child streams, indexed by a stream
 * number. Parallel workloads pair one stream with one *chunk index*
 * (not one thread!), so the random numbers a chunk consumes are a
 * pure function of (seed, chunk) and results match the sequential
 * run bit for bit. The derivation scheme itself is documented with
 * Rng::childSeed in common/rng.hh.
 *
 * The splitting is applied at two levels. Shard level: chunk c of a
 * Monte Carlo run draws from child stream c of the user seed (the
 * lane order, see common/gauss_block.hh). Lane level: within a
 * shard, the GaussianBlockSampler seeded with
 * childSeed(user_seed, c) derives its eight generator lanes as child
 * streams 0..7 of *that* child seed. The nesting keeps every lane a
 * pure function of (user seed, chunk, lane), so the lanes inherit
 * the same thread-count independence the shard scheme provides —
 * the child seeds are hashed twice through SplitMix64, making
 * shard-stream/lane-stream collisions as unlikely as any other
 * 64-bit seed collision.
 */

#ifndef QPAD_RUNTIME_SEED_SEQ_HH
#define QPAD_RUNTIME_SEED_SEQ_HH

#include <cstdint>

#include "common/rng.hh"

namespace qpad::runtime
{

/** Splits a base seed into independent per-stream child seeds. */
class SeedSequence
{
  public:
    explicit SeedSequence(uint64_t base) : base_(base) {}

    /** Base seed this sequence derives from. */
    uint64_t base() const { return base_; }

    /** Child seed of stream `stream` (pure function of inputs). */
    uint64_t childSeed(uint64_t stream) const
    {
        return Rng::childSeed(base_, stream);
    }

  private:
    uint64_t base_;
};

} // namespace qpad::runtime

#endif // QPAD_RUNTIME_SEED_SEQ_HH
