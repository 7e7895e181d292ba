/**
 * @file
 * Simulated-annealing layout refinement.
 *
 * The paper claims its greedy placement heuristic finds
 * "near-optimal" solutions in the reduced search space (Section 1).
 * This module provides the instrument to check that claim: an
 * annealer over qubit placements minimizing the same
 * strength-times-distance functional, usable either as a verifier
 * (how far is Algorithm 1 from a long anneal?) or as an optional
 * refinement stage of the flow.
 */

#ifndef QPAD_DESIGN_ANNEAL_HH
#define QPAD_DESIGN_ANNEAL_HH

#include "common/rng.hh"
#include "design/layout_design.hh"
#include "exec/cancel.hh"
#include "runtime/parallel.hh"

namespace qpad::design
{

/** Annealer configuration. */
struct AnnealOptions
{
    /** Proposed moves. */
    std::size_t iterations = 20000;
    /** Initial acceptance temperature (in cost units). */
    double t_start = 8.0;
    /** Final temperature. */
    double t_end = 0.05;
    uint64_t seed = 17;
    /**
     * Independent chains started from the same layout (parallel
     * restarts); the best final placement wins, ties by lowest
     * chain index. Chain 0 replays the legacy single-chain run
     * (seeded with `seed` itself); chain i > 0 draws from child
     * stream i of `seed`. 1 = classic single-chain annealing.
     */
    std::size_t restarts = 1;
    /** Parallel execution of the restart chains. */
    runtime::Options exec = {};
};

/** Refinement outcome. */
struct AnnealResult
{
    LayoutResult layout;
    uint64_t initial_cost = 0;
    uint64_t final_cost = 0;
    /** Accepted moves of the winning chain. */
    std::size_t accepted_moves = 0;
    /** Chain that produced the returned layout. */
    std::size_t winning_chain = 0;
};

/**
 * Anneal a placement, starting from `start` (typically Algorithm
 * 1's output). Moves are qubit relocations to free frontier nodes
 * and pairwise qubit swaps; the cost is placementCost(). The result
 * is never worse than the start (best-seen is returned).
 *
 * A passed `deadline` raises exec::CancelledError; chains poll it
 * every 1024 iterations, so even a single long chain stops promptly.
 * Completed runs are bit-identical to runs without a deadline.
 */
AnnealResult
annealLayout(const profile::CouplingProfile &profile,
             const LayoutResult &start,
             const AnnealOptions &options = {},
             exec::TimePoint deadline = exec::kNoDeadline);

} // namespace qpad::design

#endif // QPAD_DESIGN_ANNEAL_HH
