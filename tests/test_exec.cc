/**
 * @file
 * Tests for qpad::exec — request deadlines — plus the contract that
 * matters most: a deadline decides only WHETHER a result exists,
 * never its bytes, and a passed deadline unwinds promptly as
 * exec::CancelledError from every entry point that takes one.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "arch/architecture.hh"
#include "arch/ibm.hh"
#include "benchmarks/generators.hh"
#include "benchmarks/suite.hh"
#include "circuit/circuit.hh"
#include "design/anneal.hh"
#include "design/freq_alloc.hh"
#include "eval/experiment.hh"
#include "exec/cancel.hh"
#include "mapping/sabre.hh"
#include "obs/metrics.hh"
#include "profile/coupling.hh"
#include "yield/yield_sim.hh"

namespace
{

using namespace qpad;
using namespace std::chrono_literals;
using arch::Architecture;
using arch::Layout;
using exec::CancelledError;

// --------------------------------------------------------------------
// Deadlines
// --------------------------------------------------------------------

TEST(Deadline, NoDeadlineNeverPasses)
{
    EXPECT_FALSE(exec::passed(exec::kNoDeadline));
    EXPECT_NO_THROW(exec::throwIfPassed(exec::kNoDeadline));
}

TEST(Deadline, PassedDeadlineThrows)
{
    const exec::TimePoint deadline = exec::now() - 1ns;
    EXPECT_TRUE(exec::passed(deadline));
    try {
        exec::throwIfPassed(deadline);
        FAIL() << "expected CancelledError";
    } catch (const CancelledError &e) {
        EXPECT_STREQ(e.what(), "exec: request deadline exceeded");
    }
}

TEST(Deadline, FutureDeadlineDoesNotStop)
{
    const exec::TimePoint deadline = exec::now() + 1h;
    EXPECT_FALSE(exec::passed(deadline));
    EXPECT_NO_THROW(exec::throwIfPassed(deadline));
}

TEST(Deadline, ZeroBudgetHasPassed)
{
    EXPECT_TRUE(exec::passed(exec::deadlineAfter(0ns)));
}

TEST(Deadline, HugeBudgetSaturatesToNoDeadline)
{
    // now() + budget would overflow into the past; the deadline
    // saturates at the end of the clock's range instead.
    EXPECT_EQ(exec::deadlineAfter(std::chrono::nanoseconds::max()),
              exec::kNoDeadline);
}

// --------------------------------------------------------------------
// Deadlines through the compute entry points
// --------------------------------------------------------------------

profile::CouplingProfile
smallProfile()
{
    circuit::Circuit c(6);
    for (circuit::Qubit q = 0; q + 1 < 6; ++q)
        c.cx(q, q + 1);
    c.cx(0, 5);
    c.cx(2, 4);
    return profile::profileCircuit(c);
}

TEST(ExecCancel, ExpiredDeadlineStopsAnneal)
{
    auto prof = smallProfile();
    auto start = design::designLayout(prof);
    design::AnnealOptions opts;
    opts.iterations = 200000; // would take a while if not stopped
    EXPECT_THROW(design::annealLayout(prof, start, opts,
                                      exec::deadlineAfter(0ns)),
                 CancelledError);
}

TEST(ExecCancel, FutureDeadlineLeavesAnnealBitIdentical)
{
    // The determinism contract: a deadline that never passes must
    // not change a single byte of the result.
    auto prof = smallProfile();
    auto start = design::designLayout(prof);
    design::AnnealOptions opts;
    opts.iterations = 4000;
    opts.restarts = 2;
    // Both calls anneal both chains, so the guarded run polls its
    // deadline rather than reading the plain run's chains.
    obs::Counter &chains = obs::counter("design.anneal_chains");
    const uint64_t before = chains.value();
    auto plain = design::annealLayout(prof, start, opts);
    EXPECT_EQ(chains.value() - before, 2u);
    auto guarded =
        design::annealLayout(prof, start, opts, exec::now() + 1h);
    EXPECT_EQ(chains.value() - before, 4u);
    EXPECT_EQ(plain.final_cost, guarded.final_cost);
    EXPECT_EQ(plain.winning_chain, guarded.winning_chain);
    EXPECT_EQ(plain.layout.coord_of_logical,
              guarded.layout.coord_of_logical);
}

TEST(ExecCancel, PassedDeadlineStopsEstimateYield)
{
    auto arch = arch::ibm16Q(false);
    yield::YieldOptions opts;
    opts.trials = 4000;
    EXPECT_THROW(
        yield::estimateYield(arch, opts, exec::deadlineAfter(0ns)),
        CancelledError);
}

TEST(ExecCancel, ExpiredDeadlineStopsFreqAlloc)
{
    Architecture arch(Layout::grid(3, 3));
    design::FreqAllocOptions opts;
    opts.local_trials = 200;
    EXPECT_THROW(design::allocateFrequencies(arch, opts,
                                             exec::deadlineAfter(0ns)),
                 CancelledError);
}

TEST(ExecCancel, StoppedRunsCountInMetrics)
{
    obs::Counter &stops = obs::counter("exec.deadline_exceeded");
    const uint64_t before = stops.value();
    EXPECT_THROW(exec::throwIfPassed(exec::deadlineAfter(0ns)),
                 CancelledError);
    EXPECT_EQ(stops.value(), before + 1);
}

// --------------------------------------------------------------------
// Stop latency: a deadline that passes mid-run stops every entry
// point within a bound. Each call below would run for 25-50 s
// uninterrupted (measured in a Release build on 4 cores), through
// many chunks, iterations or routing passes rather than one long
// one, so a stop inside 1 s shows a poll that fired mid-run; an
// entry point that lost its polls runs to completion and fails its
// case.
// --------------------------------------------------------------------

/** Run `call` under a deadline 20 ms away; require it to stop, and
 * to stop less than 1 s after the deadline. */
template <class Call>
void
expectStopsWithinBound(const Call &call)
{
    const exec::TimePoint deadline = exec::deadlineAfter(20ms);
    try {
        call(deadline);
        ADD_FAILURE() << "expected CancelledError";
    } catch (const CancelledError &) {
    }
    const auto late = exec::now() - deadline;
    EXPECT_LT(late, 1s)
        << "stopped "
        << std::chrono::duration_cast<std::chrono::milliseconds>(late)
               .count()
        << " ms after the deadline";
}

TEST(StopLatency, EstimateYield)
{
    // Tiny noise on a collision-free 60-qubit chain: every trial
    // survives and draws every row, 2^28 trials in 2^18 shards.
    Architecture arch(Layout::grid(1, 60));
    std::vector<double> freqs(60);
    for (std::size_t q = 0; q < freqs.size(); ++q)
        freqs[q] = 5.05 + 0.12 * double(q % 3);
    arch.setAllFrequencies(freqs);
    yield::YieldOptions opts;
    opts.sigma_ghz = 1e-6;
    opts.trials = std::size_t(1) << 28;
    expectStopsWithinBound([&](exec::TimePoint deadline) {
        yield::estimateYield(arch, opts, deadline);
    });
}

TEST(StopLatency, AllocateFrequencies)
{
    // 11 passes of 100 qubit visits, each a region of 1024 chunks.
    Architecture arch(Layout::grid(10, 10));
    design::FreqAllocOptions opts;
    opts.local_trials = 1 << 20;
    opts.refine_sweeps = 10;
    expectStopsWithinBound([&](exec::TimePoint deadline) {
        design::allocateFrequencies(arch, opts, deadline);
    });
}

TEST(StopLatency, AnnealLayout)
{
    // One chain of 2^26 moves, polled every 1024.
    auto prof = smallProfile();
    auto start = design::designLayout(prof);
    design::AnnealOptions opts;
    opts.iterations = std::size_t(1) << 26;
    expectStopsWithinBound([&](exec::TimePoint deadline) {
        design::annealLayout(prof, start, opts, deadline);
    });
}

TEST(StopLatency, CountMapping)
{
    // 6e5 routing passes of a 16-qubit QFT, each polled.
    const circuit::Circuit circ = benchmarks::qft(16);
    const Architecture arch = arch::ibm16Q(true);
    mapping::MappingOptions opts;
    opts.initial_mapping_rounds = 300000;
    expectStopsWithinBound([&](exec::TimePoint deadline) {
        mapping::countMapping(circ, arch, opts, deadline);
    });
}

TEST(StopLatency, RunBenchmark)
{
    // Large budgets: every data point allocates frequencies over
    // 1024-chunk regions and estimates its yield over 2^17 shards.
    eval::ExperimentOptions opts;
    opts.freq_options.local_trials = 1 << 20;
    opts.yield_options.trials = std::size_t(1) << 27;
    opts.adaptive_yield_trials = false;
    expectStopsWithinBound([&](exec::TimePoint deadline) {
        eval::runBenchmark(benchmarks::getBenchmark("sym6_145"), opts,
                           deadline);
    });
}

} // namespace
