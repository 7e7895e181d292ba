/**
 * @file
 * Monte Carlo yield simulation (paper Section 4.3.1).
 *
 * A fabrication attempt adds Gaussian noise N(0, sigma) to every
 * pre-fabrication frequency; the attempt succeeds iff no collision
 * condition fires on the post-fabrication frequencies. Yield rate =
 * successes / trials.
 *
 * Trial t of an estimate always draws the same deviates (trial
 * t % 1024 of shard t / 1024, see yield_sim.cc), whatever the budget.
 * So the first N trials of a 10N-trial estimate are the N-trial
 * estimate, and an estimate can be resumed: it counts only the trials
 * its prior did not and adds the prior's tallies.
 */

#ifndef QPAD_YIELD_YIELD_SIM_HH
#define QPAD_YIELD_YIELD_SIM_HH

#include <cstdint>

#include "arch/architecture.hh"
#include "exec/context.hh"
#include "runtime/parallel.hh"
#include "yield/collision.hh"

namespace qpad::yield
{

/** Simulation configuration. */
struct YieldOptions
{
    /** Monte Carlo fabrication attempts (paper: 10,000). */
    std::size_t trials = 10000;
    /** Fabrication precision sigma in GHz (paper: 30 MHz). */
    double sigma_ghz = arch::DeviceConstants::default_sigma_ghz;
    /** RNG seed; equal seeds reproduce results exactly. */
    uint64_t seed = 1;
    /** Also accumulate per-condition failure statistics (slower). */
    bool collect_condition_stats = false;
    /** Collision thresholds. */
    CollisionModel model = {};
    /**
     * Parallel execution. Trials are sharded into fixed-size blocks,
     * each drawing from its own seed-derived RNG stream, so the
     * result is bit-identical for every num_threads value (including
     * the sequential num_threads = 1).
     */
    runtime::Options exec = {};
};

/** Simulation outcome. */
struct YieldResult
{
    double yield = 0.0;
    std::size_t successes = 0;
    std::size_t trials = 0;
    /** Trials in which condition c fired at least once (1..7). */
    ConditionCounts condition_trials{};

    /** Standard error of the yield estimate (binomial). */
    double stderrEstimate() const;
};

/**
 * Estimate the yield rate of an architecture over options.trials
 * trials. All frequencies must be assigned. Trials are evaluated
 * through the batched SoA kernel (BatchCollisionChecker) unless
 * condition statistics are requested or QPAD_SCALAR_KERNEL forces
 * the scalar oracle; both paths read the same GaussianBlockSampler
 * blocks (the lane order of common/gauss_block.hh) and return
 * bit-identical results. options.trials == 0 returns a zero-trial
 * result (yield 0, stderr 0) instead of dividing by zero.
 *
 * `prior` resumes an estimate: it must be this call's result at
 * prior.trials <= options.trials (the default, zero trials, starts
 * afresh). Only trials [prior.trials, options.trials) are drawn, and
 * their tallies are added to the prior's, so the result equals the
 * options.trials estimate bit for bit.
 */
YieldResult
estimateYield(const arch::Architecture &arch,
              const YieldOptions &options = {},
              const exec::Context &ctx = exec::Context::none(),
              const YieldResult &prior = {});

/** Same, reusing a prebuilt checker. */
YieldResult
estimateYield(const CollisionChecker &checker,
              const std::vector<double> &pre_fab_freqs,
              const YieldOptions &options = {},
              const exec::Context &ctx = exec::Context::none(),
              const YieldResult &prior = {});

} // namespace qpad::yield

#endif // QPAD_YIELD_YIELD_SIM_HH
