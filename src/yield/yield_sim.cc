#include "yield/yield_sim.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/gauss_block.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/seed_seq.hh"
#include "yield/collision_batch.hh"

namespace qpad::yield
{

namespace
{

/**
 * Trials per RNG stream. Fixed (never derived from the thread
 * count or the budget) so the shard layout — and therefore every
 * random draw — is a pure function of (seed, trial index). The
 * Monte Carlo loop reduces over shard indices with grain 1, never
 * guided (grain 0): one chunk is one shard, whose index picks the
 * RNG stream, so guided sizing would change every draw. Trials are
 * uniform-cost anyway — load balance comes from the runners claiming
 * chunks as they free up, not from chunk sizing — and the fixed
 * 1024-trial blocks keep the SoA lane kernels (batched collision
 * checker, GaussianBlockSampler) walking whole 8-lane blocks.
 */
constexpr std::size_t kShardTrials = 1024;

// The lane order identifies sampler lanes with SoA block lanes;
// a diverging lane count would silently re-pair trials and draws.
static_assert(GaussianBlockSampler::kLanes ==
              BatchCollisionChecker::kLanes);

/** Mergeable per-shard tallies. */
struct ShardCounts
{
    std::size_t successes = 0;
    ConditionCounts condition_trials{};
};

ShardCounts
mergeCounts(ShardCounts acc, const ShardCounts &other)
{
    acc.successes += other.successes;
    for (std::size_t c = 0; c < acc.condition_trials.size(); ++c)
        acc.condition_trials[c] += other.condition_trials[c];
    return acc;
}

} // namespace

double
YieldResult::stderrEstimate() const
{
    if (trials == 0)
        return 0.0;
    return std::sqrt(yield * (1.0 - yield) / double(trials));
}

YieldResult
estimateYield(const CollisionChecker &checker,
              const std::vector<double> &pre_fab_freqs,
              const YieldOptions &options, const exec::Context &ctx,
              const YieldResult &prior)
{
    for (double f : pre_fab_freqs)
        qpad_assert(f > 0.0, "unassigned frequency in yield simulation");
    qpad_assert(prior.trials <= options.trials, "cannot resume a ",
                prior.trials, "-trial yield estimate at ",
                options.trials, " trials");

    // An empty range has nothing to tally; returning here also keeps
    // a zero-trial run's yield at 0 instead of computing 0/0 below.
    if (prior.trials == options.trials)
        return prior;
    // Count trials [first, options.trials) on top of the prior's.
    const std::size_t first = prior.trials;

    // The per-condition statistics need the scalar count walk; plain
    // success tallies go through the batched SoA kernel, which is
    // bit-identical (same conditions, same RNG draw order).
    const bool batched =
        !options.collect_condition_stats && useBatchedKernel();

    // One span + a few counter bumps per *estimate* (never per
    // trial): the Monte Carlo loop itself stays untouched.
    QPAD_SPAN("yield.estimate");
    {
        static obs::Counter &estimates = obs::counter("yield.estimates");
        static obs::Counter &trials = obs::counter("yield.trials");
        static obs::Counter &batched_runs =
            obs::counter("yield.batched_estimates");
        static obs::Counter &scalar_runs =
            obs::counter("yield.scalar_estimates");
        estimates.add();
        trials.add(options.trials - first);
        (batched ? batched_runs : scalar_runs).add();
    }
    const BatchCollisionChecker batch =
        batched ? BatchCollisionChecker(checker)
                : BatchCollisionChecker();

    // Evaluate one trial of the scalar walk (count statistics or
    // oracle check) on the post-fabrication frequencies in `post`.
    auto scalarTrial = [&](const std::vector<double> &post,
                           ShardCounts &local) {
        if (options.collect_condition_stats) {
            ConditionCounts counts = checker.countCollisions(post);
            bool failed = false;
            for (int c = 1; c <= 7; ++c) {
                if (counts[c] > 0) {
                    ++local.condition_trials[c];
                    failed = true;
                }
            }
            if (!failed)
                ++local.successes;
        } else {
            if (!checker.anyCollision(post))
                ++local.successes;
        }
    };

    // The 8-lane rows the chunks compute (not the ones they discard),
    // added once per chunk.
    static obs::Counter &rows_drawn = obs::counter("yield.rows_drawn");

    // Trial t is trial t % kShardTrials of shard t / kShardTrials,
    // and each shard draws from its own child stream of
    // options.seed, so one chunk per shard of the range counts it;
    // partials merge in shard order. Thread count affects wall clock
    // only, never the tallies.
    const runtime::SeedSequence seeds(options.seed);
    const std::size_t first_shard = first / kShardTrials;
    const std::size_t end_shard =
        (options.trials + kShardTrials - 1) / kShardTrials;
    const ShardCounts counted = runtime::parallel_reduce(
        ctx.apply(options.exec), end_shard - first_shard, 1,
        ShardCounts{},
        [&](std::size_t, std::size_t, std::size_t chunk) {
            ShardCounts local;
            const std::size_t nq = pre_fab_freqs.size();
            constexpr std::size_t B = BatchCollisionChecker::kLanes;
            const std::size_t shard = first_shard + chunk;
            const std::size_t begin =
                std::max(first, shard * kShardTrials);
            const std::size_t end =
                std::min(options.trials, (shard + 1) * kShardTrials);
            // Lane order: the shard's sampler fills one SoA block per
            // kLanes trials (trial t+l = lane l, qubits in row order).
            // All kLanes lanes advance even in a remainder block —
            // lanes are independent streams, so discarding the
            // inactive ones cannot disturb draws elsewhere, which is
            // what makes the tallies remainder-independent. The
            // batched kernel draws a block's rows on demand and
            // discards those after its last collision; the scalar
            // walk reads every row of the whole-block fill. Either
            // way the sampler ends each block where a whole-block
            // fill leaves it, so kernel choice never changes the
            // stream. A range that starts inside the shard skips the
            // blocks before its own and leaves out the `lo` lanes
            // below `begin` in its first block.
            GaussianBlockSampler sampler(seeds.childSeed(shard));
            std::size_t lo = begin % B;
            std::size_t t = begin - lo;
            sampler.discard((t - shard * kShardTrials) / B * nq);
            std::vector<double> block(nq * B);
            std::vector<double> post(nq);
            std::size_t rows = 0;
            for (; t < end; t += B, lo = 0) {
                const std::size_t active = std::min(B, end - t);
                if (batched) {
                    const auto sampled = batch.sampleSurvivorMask(
                        sampler, pre_fab_freqs.data(), options.sigma_ghz,
                        nq, block.data(), lo, active);
                    local.successes +=
                        std::size_t(std::popcount(sampled.survivors));
                    rows += sampled.rows;
                    continue;
                }
                sampler.fillAffine(block.data(), pre_fab_freqs.data(),
                                   options.sigma_ghz, nq);
                rows += nq;
                for (std::size_t l = lo; l < active; ++l) {
                    for (std::size_t q = 0; q < nq; ++q)
                        post[q] = block[q * B + l];
                    scalarTrial(post, local);
                }
            }
            rows_drawn.add(rows);
            return local;
        },
        mergeCounts);

    const ShardCounts totals =
        mergeCounts({prior.successes, prior.condition_trials}, counted);
    YieldResult result;
    result.trials = options.trials;
    result.successes = totals.successes;
    result.condition_trials = totals.condition_trials;
    result.yield = double(result.successes) / double(options.trials);
    return result;
}

YieldResult
estimateYield(const arch::Architecture &arch, const YieldOptions &options,
              const exec::Context &ctx, const YieldResult &prior)
{
    qpad_assert(arch.frequenciesAssigned(),
                "architecture '", arch.name(),
                "' has unassigned frequencies");
    CollisionChecker checker(arch, options.model);
    return estimateYield(checker, arch.frequencies(), options, ctx,
                         prior);
}

} // namespace qpad::yield
