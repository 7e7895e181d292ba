/**
 * @file
 * Tests for the collision model (Figure 3) and the Monte Carlo yield
 * simulator.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "arch/ibm.hh"
#include "common/gauss_block.hh"
#include "common/rng.hh"
#include "scoped_scalar_kernel.hh"
#include "yield/collision_batch.hh"
#include "yield/yield_sim.hh"

namespace
{

using namespace qpad;
using namespace qpad::yield;
using arch::Architecture;
using arch::Layout;

const CollisionModel kModel{};

using qpad::test::ScopedScalarKernel;

// --------------------------------------------------------------------
// Pair conditions 1-4
// --------------------------------------------------------------------

TEST(Collision, Condition1EqualFrequencies)
{
    EXPECT_TRUE(pairCollides(kModel, 5.10, 5.10));
    EXPECT_TRUE(pairCollides(kModel, 5.10, 5.116)); // inside 17 MHz
    EXPECT_FALSE(pairCollides(kModel, 5.10, 5.118)); // outside
}

TEST(Collision, Condition2HalfAnharmonicity)
{
    // f_j ~ f_k - delta/2 = f_k + 0.17, threshold 4 MHz.
    EXPECT_TRUE(pairCollides(kModel, 5.27, 5.10));
    EXPECT_TRUE(pairCollides(kModel, 5.273, 5.10));
    EXPECT_FALSE(pairCollides(kModel, 5.275, 5.10));
    // Symmetric orientation.
    EXPECT_TRUE(pairCollides(kModel, 5.10, 5.27));
}

TEST(Collision, Condition3FullAnharmonicity)
{
    // f_j ~ f_k + 0.34, threshold 25 MHz. Frequencies out of the
    // normal band are legal inputs for the model.
    EXPECT_TRUE(pairCollides(kModel, 5.44, 5.10));
    EXPECT_TRUE(pairCollides(kModel, 5.42, 5.10));
    EXPECT_FALSE(pairCollides(kModel, 5.41, 5.10));
}

TEST(Collision, Condition4SlowGateRegion)
{
    // f_j > f_k + 0.34 in either orientation.
    EXPECT_TRUE(pairCollides(kModel, 5.50, 5.10));
    EXPECT_TRUE(pairCollides(kModel, 5.10, 5.50));
}

TEST(Collision, SafePairDoesNotCollide)
{
    EXPECT_FALSE(pairCollides(kModel, 5.10, 5.17));
    EXPECT_FALSE(pairCollides(kModel, 5.00, 5.10));
    EXPECT_FALSE(pairCollides(kModel, 5.05, 5.30));
}

// --------------------------------------------------------------------
// Triple conditions 5-7
// --------------------------------------------------------------------

TEST(Collision, Condition5SpectatorDegeneracy)
{
    EXPECT_TRUE(tripleCollides(kModel, 5.10, 5.20, 5.20));
    EXPECT_TRUE(tripleCollides(kModel, 5.10, 5.20, 5.21));
    EXPECT_FALSE(tripleCollides(kModel, 5.10, 5.20, 5.24));
}

TEST(Collision, Condition6SpectatorAnharmonicity)
{
    // f_i ~ f_k + 0.34 (threshold 25 MHz), either orientation.
    EXPECT_TRUE(tripleCollides(kModel, 5.10, 5.00, 5.34));
    EXPECT_TRUE(tripleCollides(kModel, 5.10, 5.34, 5.00));
    EXPECT_FALSE(tripleCollides(kModel, 5.10, 5.04, 5.30));
}

TEST(Collision, Condition7TwoPhoton)
{
    // 2 f_j + delta ~ f_k + f_i, threshold 17 MHz.
    // Pick f_j = 5.20: 2*5.20 - 0.34 = 10.06.
    EXPECT_TRUE(tripleCollides(kModel, 5.20, 5.00, 5.06));
    EXPECT_TRUE(tripleCollides(kModel, 5.20, 5.03, 5.04));
    EXPECT_FALSE(tripleCollides(kModel, 5.20, 5.00, 5.10));
}

TEST(Collision, SafeTripleDoesNotCollide)
{
    EXPECT_FALSE(tripleCollides(kModel, 5.17, 5.05, 5.29));
}

// --------------------------------------------------------------------
// Checker term extraction
// --------------------------------------------------------------------

TEST(Checker, ExtractsPairAndTripleTerms)
{
    // Path of three qubits: edges (0,1), (1,2); one triple (j=1).
    Architecture arch(Layout::grid(1, 3));
    CollisionChecker checker(arch);
    EXPECT_EQ(checker.pairs().size(), 2u);
    ASSERT_EQ(checker.triples().size(), 1u);
    EXPECT_EQ(checker.triples()[0].j, 1u);
}

TEST(Checker, TriplesGrowWithDegree)
{
    // 2x2 grid with a 4-qubit bus: every vertex has degree 3, so
    // each contributes C(3,2) = 3 triples.
    Architecture arch(Layout::grid(2, 2));
    arch.addFourQubitBus({0, 0});
    CollisionChecker checker(arch);
    EXPECT_EQ(checker.pairs().size(), 6u);
    EXPECT_EQ(checker.triples().size(), 12u);
}

TEST(Checker, AnyCollisionMatchesCounts)
{
    Architecture arch(Layout::grid(1, 3));
    CollisionChecker checker(arch);
    std::vector<double> safe = {5.05, 5.17, 5.29};
    EXPECT_FALSE(checker.anyCollision(safe));
    auto counts = checker.countCollisions(safe);
    for (int c = 1; c <= 7; ++c)
        EXPECT_EQ(counts[c], 0u) << "condition " << c;

    std::vector<double> bad = {5.05, 5.05, 5.29}; // condition 1
    EXPECT_TRUE(checker.anyCollision(bad));
    EXPECT_GT(checker.countCollisions(bad)[1], 0u);
}

// --------------------------------------------------------------------
// Monte Carlo yield
// --------------------------------------------------------------------

TEST(YieldSim, PerfectYieldWithTinyNoise)
{
    Architecture arch(Layout::grid(1, 3));
    arch.setAllFrequencies({5.05, 5.17, 5.29});
    YieldOptions opts;
    opts.trials = 2000;
    opts.sigma_ghz = 1e-6;
    auto r = estimateYield(arch, opts);
    EXPECT_DOUBLE_EQ(r.yield, 1.0);
    EXPECT_EQ(r.successes, r.trials);
}

TEST(YieldSim, ZeroYieldForDegenerateFrequencies)
{
    Architecture arch(Layout::grid(1, 2));
    arch.setAllFrequencies({5.17, 5.17});
    YieldOptions opts;
    opts.trials = 2000;
    opts.sigma_ghz = 1e-4; // noise too small to escape condition 1
    auto r = estimateYield(arch, opts);
    EXPECT_DOUBLE_EQ(r.yield, 0.0);
}

TEST(YieldSim, DeterministicForEqualSeeds)
{
    auto arch = arch::ibm16Q(false);
    YieldOptions opts;
    opts.trials = 3000;
    opts.seed = 77;
    auto a = estimateYield(arch, opts);
    auto b = estimateYield(arch, opts);
    EXPECT_DOUBLE_EQ(a.yield, b.yield);
    opts.seed = 78;
    auto c = estimateYield(arch, opts);
    EXPECT_NE(a.successes, c.successes);
}

TEST(YieldSim, MoreConnectionsLowerYield)
{
    // The same 16-qubit chip with 4-qubit buses must yield strictly
    // less under identical noise (statistically robust at 20k
    // trials: the bused chip adds 8 edges and many triples).
    YieldOptions opts;
    opts.trials = 20000;
    double plain = estimateYield(arch::ibm16Q(false), opts).yield;
    double bused = estimateYield(arch::ibm16Q(true), opts).yield;
    EXPECT_GT(plain, bused);
}

TEST(YieldSim, SmallerSigmaImprovesYield)
{
    auto arch = arch::ibm16Q(false);
    YieldOptions coarse, fine;
    coarse.trials = fine.trials = 20000;
    coarse.sigma_ghz = 0.030;
    fine.sigma_ghz = 0.010;
    EXPECT_GT(estimateYield(arch, fine).yield,
              estimateYield(arch, coarse).yield);
}

TEST(YieldSim, ConditionStatsAccumulate)
{
    auto arch = arch::ibm16Q(true);
    YieldOptions opts;
    opts.trials = 2000;
    opts.collect_condition_stats = true;
    auto r = estimateYield(arch, opts);
    std::size_t total = 0;
    for (int c = 1; c <= 7; ++c)
        total += r.condition_trials[c];
    EXPECT_GT(total, 0u);
    // Success + at-least-one-condition trials cover everything.
    EXPECT_GE(total + r.successes, r.trials);
}

TEST(YieldSim, StderrEstimateSane)
{
    YieldResult r;
    r.yield = 0.5;
    r.trials = 10000;
    EXPECT_NEAR(r.stderrEstimate(), 0.005, 1e-6);
    r.yield = 0.0;
    EXPECT_DOUBLE_EQ(r.stderrEstimate(), 0.0);
}

TEST(YieldSim, RequiresAssignedFrequencies)
{
    Architecture arch(Layout::grid(1, 2));
    EXPECT_THROW(estimateYield(arch, {}), std::logic_error);
}

TEST(YieldSim, ZeroTrialsReturnZeroTrialResult)
{
    Architecture arch(Layout::grid(1, 3));
    arch.setAllFrequencies({5.05, 5.17, 5.29});
    YieldOptions opts;
    opts.trials = 0;
    auto r = estimateYield(arch, opts);
    EXPECT_EQ(r.trials, 0u);
    EXPECT_EQ(r.successes, 0u);
    EXPECT_DOUBLE_EQ(r.yield, 0.0);
    EXPECT_FALSE(std::isnan(r.yield));
    EXPECT_DOUBLE_EQ(r.stderrEstimate(), 0.0);
}

TEST(YieldSim, ScalarKernelEnvIsBitIdentical)
{
    // 4999 trials: full 1024-trial shards plus a 903-trial tail whose
    // last batch has 7 active lanes, so the remainder path is on the
    // line too.
    auto arch = arch::ibm16Q(true);
    YieldOptions opts;
    opts.trials = 4999;
    opts.seed = 11;
    const auto batched = estimateYield(arch, opts);
    YieldResult scalar;
    {
        ScopedScalarKernel forced;
        scalar = estimateYield(arch, opts);
    }
    EXPECT_EQ(batched.successes, scalar.successes);
    EXPECT_DOUBLE_EQ(batched.yield, scalar.yield);
}

// --------------------------------------------------------------------
// Resumed estimates: the first N trials of a 10N-trial estimate are
// the N-trial estimate
// --------------------------------------------------------------------

/** (prior trials, trials): starts at a block edge inside a shard
 * (the escalation steps 10,000 and 1,000), at lane 4 of a block
 * (300), at lane 1 (1001), at a shard edge (2048), and an empty
 * range. */
constexpr std::pair<std::size_t, std::size_t> kResumes[] = {
    {10000, 100000}, {1000, 10000}, {300, 3000},
    {1001, 10010}, {2048, 20480}, {10000, 10000}};

/** Resume `arch` at every kResumes point, with and without condition
 * statistics, on 1 and 4 threads: each result must equal the
 * estimate computed in full, down to the bits of the yield. */
void
expectResumesMatchFullEstimates(const Architecture &arch,
                                YieldOptions opts)
{
    for (bool stats : {false, true}) {
        opts.collect_condition_stats = stats;
        for (const auto &[first, trials] : kResumes) {
            opts.exec.num_threads = 1;
            opts.trials = first;
            const YieldResult prior = estimateYield(arch, opts);
            opts.trials = trials;
            const YieldResult full = estimateYield(arch, opts);
            for (std::size_t threads : {1, 4}) {
                SCOPED_TRACE(testing::Message()
                             << first << " -> " << trials << " stats "
                             << stats << " threads " << threads);
                opts.exec.num_threads = threads;
                const YieldResult resumed = estimateYield(
                    arch, opts, exec::Context::none(), prior);
                EXPECT_EQ(resumed.trials, full.trials);
                EXPECT_EQ(resumed.successes, full.successes);
                EXPECT_EQ(resumed.condition_trials, full.condition_trials);
                EXPECT_EQ(std::bit_cast<uint64_t>(resumed.yield),
                          std::bit_cast<uint64_t>(full.yield));
            }
        }
    }
}

TEST(YieldResume, MatchesTheFullEstimateOnTheIbmBaselines)
{
    for (const Architecture &arch : arch::ibmBaselines()) {
        SCOPED_TRACE(arch.name());
        expectResumesMatchFullEstimates(arch, YieldOptions{});
    }
}

TEST(YieldResume, CountsEachLaneOfTheRangeOnce)
{
    // Every trial survives tiny noise, so a lane below the resume
    // point counted again (or one above it skipped) moves the
    // successes, on the batched path as well as the scalar one.
    Architecture arch(Layout::grid(1, 3));
    arch.setAllFrequencies({5.05, 5.17, 5.29});
    YieldOptions opts;
    opts.sigma_ghz = 1e-6;
    opts.trials = 3000;
    ASSERT_EQ(estimateYield(arch, opts).successes, 3000u);
    expectResumesMatchFullEstimates(arch, opts);
}

TEST(YieldResume, RejectsAPriorLargerThanTheBudget)
{
    auto arch = arch::ibm16Q(false);
    YieldOptions opts;
    opts.trials = 2000;
    const YieldResult prior = estimateYield(arch, opts);
    opts.trials = 1000;
    EXPECT_THROW(estimateYield(arch, opts, exec::Context::none(), prior),
                 std::logic_error);
}

// --------------------------------------------------------------------
// Analytic oracle: the yield of one connected pair in closed form
// --------------------------------------------------------------------

/** P(lo < X < hi) for X ~ N(mean, sd^2). */
double
normalMass(double lo, double hi, double mean, double sd)
{
    auto cdf = [&](double x) {
        return 0.5 * std::erfc((mean - x) / (sd * std::sqrt(2.0)));
    };
    return cdf(hi) - cdf(lo);
}

/**
 * Exact yield of a 2-qubit chip. One edge has no triples, and
 * conditions 1-4 depend only on D = f_a - f_b ~ N(f_a - f_b, 2 sigma^2)
 * after fabrication. With a = |delta|, condition 4 fails every
 * |D| > a; inside (-a, a), condition 1 removes |D| < thr1, condition 2
 * the windows of half-width thr2 around +-a/2, and condition 3 the
 * strips of width thr3 below +a and above -a. Those windows are
 * disjoint, so their masses subtract.
 */
double
pairYield(double fa, double fb, double sigma, const CollisionModel &m)
{
    const double a = -m.delta; // delta < 0 for transmons
    auto mass = [&](double lo, double hi) {
        return normalMass(lo, hi, fa - fb, sigma * std::sqrt(2.0));
    };
    double yield = mass(-a, a) - mass(-m.thr1, m.thr1);
    for (double side : {-1.0, 1.0}) {
        yield -= mass(side * a / 2 - m.thr2, side * a / 2 + m.thr2);
        yield -= side > 0 ? mass(a - m.thr3, a) : mass(-a, -a + m.thr3);
    }
    return yield;
}

TEST(YieldOracle, TwoQubitChipMatchesClosedForm)
{
    // The windows pairYield subtracts must not overlap.
    const double a = -kModel.delta;
    ASSERT_LT(kModel.thr1, a / 2 - kModel.thr2);
    ASSERT_LT(a / 2 + kModel.thr2, a - kModel.thr3);

    // Detunings from inside condition 1 out to the condition-2 and
    // condition-3 edges; each estimate must land within 4 standard
    // errors of the exact yield.
    const double fa = 5.08;
    for (double fb : {5.00, 5.05, 5.10, 5.17, 5.26}) {
        Architecture arch(Layout::grid(1, 2));
        arch.setAllFrequencies({fa, fb});
        YieldOptions opts;
        opts.trials = 200000;
        const double exact =
            pairYield(fa, fb, opts.sigma_ghz, opts.model);
        const double se =
            std::sqrt(exact * (1.0 - exact) / double(opts.trials));
        EXPECT_NEAR(estimateYield(arch, opts).yield, exact, 4.0 * se)
            << "f_b = " << fb;
    }
}

// --------------------------------------------------------------------
// Property tests: any/count agreement, batch/scalar equivalence
// --------------------------------------------------------------------

/** Random grid, sometimes with a 4-qubit bus for triple-rich graphs. */
Architecture
randomArch(Rng &rng)
{
    const int rows = 1 + int(rng.below(3));
    const int cols = 2 + int(rng.below(4));
    Architecture arch(Layout::grid(rows, cols), "random");
    if (rows >= 2 && cols >= 2 && rng.chance(0.5))
        arch.addFourQubitBus({int(rng.below(uint64_t(rows - 1))),
                              int(rng.below(uint64_t(cols - 1)))});
    return arch;
}

/**
 * Frequencies that exercise both outcomes: half the draws are a
 * collision-free period-3 pattern plus small noise (survivors), half
 * are uniform in the allocation band (mostly colliding).
 */
std::vector<double>
randomFreqs(Rng &rng, std::size_t nq)
{
    std::vector<double> freqs(nq);
    if (rng.chance(0.5)) {
        const double pattern[3] = {5.00, 5.10, 5.20};
        for (std::size_t q = 0; q < nq; ++q)
            freqs[q] = pattern[q % 3] + rng.gaussian(0.0, 0.002);
    } else {
        for (std::size_t q = 0; q < nq; ++q)
            freqs[q] = rng.uniform(5.00, 5.40);
    }
    return freqs;
}

TEST(Property, AnyCollisionIffCountsNonzero)
{
    Rng rng(123);
    std::size_t colliding = 0, surviving = 0;
    for (int iter = 0; iter < 300; ++iter) {
        Architecture arch = randomArch(rng);
        CollisionChecker checker(arch);
        const auto freqs = randomFreqs(rng, arch.numQubits());
        const auto counts = checker.countCollisions(freqs);
        const std::size_t total =
            std::accumulate(counts.begin(), counts.end(),
                            std::size_t{0});
        EXPECT_EQ(checker.anyCollision(freqs), total > 0);
        ++(total > 0 ? colliding : surviving);
    }
    // The generator must have exercised both outcomes.
    EXPECT_GT(colliding, 0u);
    EXPECT_GT(surviving, 0u);
}

TEST(Property, BatchMatchesScalarTrialForTrial)
{
    constexpr std::size_t B = BatchCollisionChecker::kLanes;
    Rng rng(321);
    std::size_t sampled_survivors = 0, sampled_dead = 0;
    for (int iter = 0; iter < 60; ++iter) {
        Architecture arch = randomArch(rng);
        CollisionChecker checker(arch);
        BatchCollisionChecker batch(checker);
        const std::size_t nq = arch.numQubits();
        // 1..3*B trials, deliberately hitting every remainder size.
        const std::size_t trials = 1 + rng.below(3 * B);
        const std::size_t blocks = (trials + B - 1) / B;

        std::vector<std::vector<double>> rows(trials);
        std::vector<double> soa(blocks * nq * B, 5.0);
        for (std::size_t t = 0; t < trials; ++t) {
            rows[t] = randomFreqs(rng, nq);
            for (std::size_t q = 0; q < nq; ++q)
                soa[BatchCollisionChecker::soaIndex(t, q, nq)] =
                    rows[t][q];
        }

        for (std::size_t bi = 0; bi < blocks; ++bi) {
            const std::size_t active = std::min(B, trials - bi * B);
            const uint8_t mask =
                batch.survivorMask(&soa[bi * nq * B], active);
            // Bits at and above `active` must be clear.
            EXPECT_EQ(mask >> active, 0u);
            for (std::size_t l = 0; l < active; ++l) {
                const bool batch_survives = (mask >> l) & 1u;
                EXPECT_EQ(batch_survives,
                          !checker.anyCollision(rows[bi * B + l]))
                    << "iter " << iter << " trial " << bi * B + l;
            }
        }

        // The on-demand kernel draws the same blocks from one sampler
        // that a twin sampler fills whole for survivorMask. The masks
        // must agree with each other and with the scalar oracle, the
        // rows it drew must hold the twin's deviates, and it must
        // leave its sampler where the twin stands. The first block
        // counts only the lanes from a random `lo` on, as a resumed
        // estimate does.
        const std::vector<double> means = randomFreqs(rng, nq);
        const double sigma = rng.chance(0.5) ? 0.002 : 0.03;
        const uint64_t seed = rng.next();
        GaussianBlockSampler on_demand(seed), twin(seed);
        std::vector<double> drawn(nq * B), filled(nq * B);
        std::vector<double> post(nq);
        for (std::size_t bi = 0; bi < blocks; ++bi) {
            SCOPED_TRACE(testing::Message()
                         << "iter " << iter << " block " << bi);
            const std::size_t active = std::min(B, trials - bi * B);
            const std::size_t lo = bi == 0 ? rng.below(active) : 0;
            const auto sampled = batch.sampleSurvivorMask(
                on_demand, means.data(), sigma, nq, drawn.data(), lo,
                active);
            twin.fillAffine(filled.data(), means.data(), sigma, nq);
            const unsigned counted =
                ((1u << active) - 1) & ~((1u << lo) - 1);
            EXPECT_EQ(sampled.survivors,
                      batch.survivorMask(filled.data(), active) &
                          counted);
            ASSERT_LE(sampled.rows, nq);
            for (std::size_t i = 0; i < sampled.rows * B; ++i)
                ASSERT_EQ(std::bit_cast<uint64_t>(drawn[i]),
                          std::bit_cast<uint64_t>(filled[i]))
                    << "row " << i / B << " lane " << i % B;
            for (std::size_t l = lo; l < active; ++l) {
                for (std::size_t q = 0; q < nq; ++q)
                    post[q] = filled[q * B + l];
                const bool survives = (sampled.survivors >> l) & 1u;
                EXPECT_EQ(survives, !checker.anyCollision(post))
                    << "lane " << l;
                ++(survives ? sampled_survivors : sampled_dead);
            }
        }
        // Three rows: an odd count, so a pending Box-Muller partner
        // left by either sampler shows up too.
        std::vector<double> next_a(3 * B), next_b(3 * B);
        on_demand.fillStandard(next_a.data(), 3);
        twin.fillStandard(next_b.data(), 3);
        for (std::size_t i = 0; i < next_a.size(); ++i)
            EXPECT_EQ(std::bit_cast<uint64_t>(next_a[i]),
                      std::bit_cast<uint64_t>(next_b[i]))
                << "iter " << iter << " next deviate " << i;
    }
    // The random chips must have exercised both outcomes.
    EXPECT_GT(sampled_survivors, 0u);
    EXPECT_GT(sampled_dead, 0u);
}

} // namespace
