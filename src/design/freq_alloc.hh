/**
 * @file
 * Center-out breadth-first frequency allocation
 * (paper Algorithm 3, Section 4.3).
 *
 * The qubit nearest the geometric centre of the placement receives
 * the middle of the allowed band (5.17 GHz). Remaining qubits are
 * visited in breadth-first order over the coupling graph; for each,
 * every candidate on a 10 MHz grid across 5.00-5.34 GHz is scored
 * by a Monte Carlo estimate of the yield of the qubit's local
 * region (the collision terms its frequency participates in, among
 * already-assigned qubits), and the argmax is committed. All
 * candidates share one stream of common-random-numbers trials per
 * visit, and an exact interval sweep over the grid
 * (design/freq_sweep.hh) draws those trials chunk by chunk and counts
 * each candidate's surviving trials.
 */

#ifndef QPAD_DESIGN_FREQ_ALLOC_HH
#define QPAD_DESIGN_FREQ_ALLOC_HH

#include <cstdint>
#include <vector>

#include "arch/architecture.hh"
#include "exec/cancel.hh"
#include "runtime/parallel.hh"
#include "yield/collision.hh"

namespace qpad::design
{

/** Allocator configuration. */
struct FreqAllocOptions
{
    /**
     * Candidate grid spacing in GHz (paper: 0.01). Must be finite and
     * at least 1e-6; anything else is a fatal error.
     */
    double grid_step_ghz = 0.01;
    /** Monte Carlo trials per candidate evaluation. */
    std::size_t local_trials = 2000;
    /** Fabrication noise assumed during optimization. */
    double sigma_ghz = arch::DeviceConstants::default_sigma_ghz;
    /** Collision thresholds. */
    yield::CollisionModel model = {};
    /** RNG seed (common random numbers across candidates). */
    uint64_t seed = 11;
    /**
     * Coordinate-descent polish: after the centre-out pass, each
     * qubit is re-optimized this many times with *all* neighbours
     * assigned. Fixes the one-pass myopia the paper acknowledges in
     * Section 6 ("Optimizing Frequency Allocation"); 0 reproduces
     * the paper's plain Algorithm 3.
     */
    unsigned refine_sweeps = 2;
    /**
     * Parallel execution of the per-qubit candidate sweep (the hot
     * path of Algorithm 3), in fixed 1024-trial chunks. Each chunk
     * draws its own common-random-numbers trials from a sampler
     * started at the chunk's place in the visit's one stream, and
     * survivor counts are integers, so the chosen frequencies are
     * identical for every thread count.
     */
    runtime::Options exec = {};
};

/** Allocation outcome. */
struct FreqAllocResult
{
    /** Chosen pre-fabrication frequency per qubit (GHz). */
    std::vector<double> freqs;
    /** BFS visit order used. */
    std::vector<arch::PhysQubit> order;
    /** Local-yield score accepted for each qubit (1.0 for the seed). */
    std::vector<double> local_scores;
};

/** Heap bytes the result's vectors own (what the result cache
 * charges beyond sizeof, see cache::heapBytes). */
inline std::size_t
heapBytes(const FreqAllocResult &result)
{
    return result.freqs.capacity() * sizeof(double) +
           result.order.capacity() * sizeof(arch::PhysQubit) +
           result.local_scores.capacity() * sizeof(double);
}

/**
 * Run Algorithm 3; does not mutate the architecture. A passed
 * `deadline` raises exec::CancelledError between qubit visits,
 * between refine steps and at the sweep's chunk claims (never
 * mid-chunk); a completed run is bit-identical to one without a
 * deadline.
 */
FreqAllocResult
allocateFrequencies(const arch::Architecture &arch,
                    const FreqAllocOptions &options = {},
                    exec::TimePoint deadline = exec::kNoDeadline);

/** Convenience: allocate and store into the architecture. */
void applyOptimizedFrequencies(
    arch::Architecture &arch, const FreqAllocOptions &options = {},
    exec::TimePoint deadline = exec::kNoDeadline);

/** The centre-most qubit (Euclidean distance to the centroid). */
arch::PhysQubit centerQubit(const arch::Layout &layout);

} // namespace qpad::design

#endif // QPAD_DESIGN_FREQ_ALLOC_HH
