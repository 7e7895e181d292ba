/**
 * @file
 * Tests for the qpad::runtime parallel execution engine: thread pool
 * lifecycle, exception propagation, chunk coverage, seed splitting,
 * and the thread-count independence of the stochastic subsystems
 * built on top of it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/ibm.hh"
#include "design/anneal.hh"
#include "design/freq_alloc.hh"
#include "design/layout_design.hh"
#include "eval/experiment.hh"
#include "obs/metrics.hh"
#include "profile/coupling.hh"
#include "runtime/parallel.hh"
#include "runtime/seed_seq.hh"
#include "runtime/thread_pool.hh"
#include "yield/yield_sim.hh"

namespace
{

using namespace qpad;
using runtime::Options;
using runtime::SeedSequence;
using runtime::ThreadPool;

// --------------------------------------------------------------------
// ThreadPool
// --------------------------------------------------------------------

TEST(ThreadPool, StartupAndShutdown)
{
    for (std::size_t n : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(n);
        EXPECT_EQ(pool.size(), n);
    }
}

TEST(ThreadPool, DestructionAfterRegionRetiresIsClean)
{
    // A locally-constructed pool may be destroyed the moment its
    // caller returns from waitDone: the region is no longer counted
    // active, even though a late helper item may still be queued or
    // retiring (the destructor's join lets it retire harmlessly).
    ThreadPool pool(2);
    std::atomic<std::size_t> hits{0};
    auto state = std::make_shared<runtime::detail::RegionState>(
        4, [&](std::size_t) { ++hits; }, nullptr);
    pool.dispatchRegion(state, 1);
    EXPECT_EQ(pool.activeRegions(), 1u);
    state->runAs();
    state->waitDone();
    state->rethrowIfFailed();
    EXPECT_EQ(hits.load(), 4u);
    EXPECT_EQ(pool.activeRegions(), 0u);
    // No wait for the surplus offer: destructing through a late
    // helper is exactly the case the active-region tripwire permits.
}

TEST(ThreadPool, OfferWakesASleepingWorker)
{
    // The caller never runs the claim loop here, so only a worker
    // woken by the offer can finish the region: a lost wakeup hangs
    // this test (and the ctest TIMEOUT turns the hang into a
    // failure).
    ThreadPool pool(2);
    // Let both workers reach their condition-variable wait first.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::atomic<std::size_t> hits{0};
    auto state = std::make_shared<runtime::detail::RegionState>(
        3, [&](std::size_t) { ++hits; }, nullptr);
    pool.dispatchRegion(state, 1);
    state->waitDone();
    state->rethrowIfFailed();
    EXPECT_EQ(hits.load(), 3u);
    EXPECT_EQ(pool.activeRegions(), 0u);
}

TEST(ThreadPool, SurplusOffersRetireWithoutRunningChunks)
{
    // A two-thread region queues exactly one helper offer, so at
    // most two threads (caller + one helper) ever run its chunks,
    // however many workers the pool has. Offers an earlier region
    // left queued belong to that region and retire without running
    // any chunk of this one.
    constexpr std::size_t kChunks = 64;
    for (int round = 0; round < 20; ++round) {
        std::vector<std::atomic<int>> runs(kChunks);
        std::mutex runners_mutex;
        std::set<std::thread::id> runners;
        runtime::parallel_for(
            Options{2}, kChunks, 1,
            [&](std::size_t begin, std::size_t, std::size_t) {
                ++runs[begin];
                std::lock_guard<std::mutex> lock(runners_mutex);
                runners.insert(std::this_thread::get_id());
            });
        for (std::size_t c = 0; c < kChunks; ++c)
            EXPECT_EQ(runs[c].load(), 1) << "chunk " << c;
        EXPECT_GE(runners.size(), 1u);
        EXPECT_LE(runners.size(), 2u);
    }
}

TEST(ThreadPoolDeathTest, DestructionDuringActiveRegionAborts)
{
    // Tearing a pool down while a region helper is mid-chunk must be
    // the documented loud failure — message on stderr, then abort —
    // never a silent hang (the old failure mode: the destructor
    // joins workers that are blocked feeding a region whose caller
    // waits forever).
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ThreadPool pool(2);
            std::atomic<bool> started{false};
            auto state =
                std::make_shared<runtime::detail::RegionState>(
                    2,
                    [&](std::size_t) {
                        started.store(true);
                        for (;;)
                            std::this_thread::sleep_for(
                                std::chrono::hours(1));
                    },
                    nullptr);
            pool.dispatchRegion(state, 1);
            while (!started.load())
                std::this_thread::yield();
            // The pool destructor runs here, mid-chunk.
        },
        "ThreadPool destroyed while a parallel region");
}

// --------------------------------------------------------------------
// parallel_for / parallel_reduce
// --------------------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (std::size_t threads : {1u, 2u, 5u}) {
        const std::size_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        Options exec{threads};
        runtime::parallel_for(
            exec, n, 7,
            [&](std::size_t begin, std::size_t end, std::size_t) {
                for (std::size_t i = begin; i < end; ++i)
                    ++hits[i];
            });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ParallelFor, ChunkIndicesMatchBoundaries)
{
    const std::size_t n = 103, grain = 10;
    std::vector<std::pair<std::size_t, std::size_t>> ranges(11);
    runtime::parallel_for(
        Options{4}, n, grain,
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
            ranges[chunk] = {begin, end};
        });
    for (std::size_t c = 0; c < ranges.size(); ++c) {
        EXPECT_EQ(ranges[c].first, c * grain);
        EXPECT_EQ(ranges[c].second, std::min(c * grain + grain, n));
    }
}

TEST(ParallelFor, EmptyRangeIsANoop)
{
    bool called = false;
    runtime::parallel_for(Options{4}, 0, 8,
                          [&](std::size_t, std::size_t, std::size_t) {
                              called = true;
                          });
    EXPECT_FALSE(called);
}

TEST(ParallelFor, NestedRegionsDoNotDeadlock)
{
    // An outer multi-thread region whose chunks open inner
    // multi-thread regions: pool workers must keep draining queued
    // helper tasks while waiting (helping wait), or the pool
    // deadlocks as soon as it saturates.
    std::atomic<int> inner_hits{0};
    runtime::parallel_for(
        Options{4}, 4, 1,
        [&](std::size_t, std::size_t, std::size_t) {
            runtime::parallel_for(
                Options{4}, 100, 10,
                [&](std::size_t begin, std::size_t end, std::size_t) {
                    inner_hits += int(end - begin);
                });
        });
    EXPECT_EQ(inner_hits.load(), 400);
}

TEST(ParallelFor, PropagatesTaskException)
{
    for (std::size_t threads : {1u, 4u}) {
        EXPECT_THROW(
            runtime::parallel_for(
                Options{threads}, 100, 3,
                [](std::size_t begin, std::size_t, std::size_t) {
                    if (begin >= 30)
                        throw std::runtime_error("chunk failed");
                }),
            std::runtime_error);
    }
}

TEST(ParallelReduce, SumsMatchSequential)
{
    const std::size_t n = 12345;
    for (std::size_t threads : {1u, 3u, 8u}) {
        uint64_t sum = runtime::parallel_reduce(
            Options{threads}, n, 100, uint64_t{0},
            [](std::size_t begin, std::size_t end, std::size_t) {
                uint64_t s = 0;
                for (std::size_t i = begin; i < end; ++i)
                    s += i;
                return s;
            },
            [](uint64_t a, uint64_t b) { return a + b; });
        EXPECT_EQ(sum, uint64_t(n) * (n - 1) / 2);
    }
}

TEST(ParallelReduce, CombinesInChunkOrder)
{
    // A non-commutative combine (string concatenation) exposes any
    // scheduling-order dependence.
    auto run = [](std::size_t threads) {
        return runtime::parallel_reduce(
            Options{threads}, 26, 4, std::string{},
            [](std::size_t begin, std::size_t end, std::size_t) {
                std::string s;
                for (std::size_t i = begin; i < end; ++i)
                    s += char('a' + i);
                return s;
            },
            [](std::string acc, const std::string &x) {
                return acc + x;
            });
    };
    const std::string expect = "abcdefghijklmnopqrstuvwxyz";
    EXPECT_EQ(run(1), expect);
    EXPECT_EQ(run(4), expect);
    EXPECT_EQ(run(13), expect);
}

// --------------------------------------------------------------------
// Guided scheduling (grain = 0)
// --------------------------------------------------------------------

TEST(GuidedScheduling, CoversEveryIndexExactlyOnce)
{
    for (std::size_t threads : {1u, 2u, 5u}) {
        const std::size_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        runtime::parallel_for(
            Options{threads}, n, 0,
            [&](std::size_t begin, std::size_t end, std::size_t) {
                for (std::size_t i = begin; i < end; ++i)
                    ++hits[i];
            });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(GuidedScheduling, BoundariesAreAPureFunctionOfN)
{
    // grain = 0 means guided: chunk boundaries must depend on n
    // alone — never on the thread count — and form a contiguous
    // non-increasing size sequence starting at ceil(n / 8).
    const std::size_t n = 1237;
    auto boundaries = [&](std::size_t threads) {
        std::mutex m;
        std::vector<std::pair<std::size_t, std::size_t>> ranges;
        runtime::parallel_for(
            Options{threads}, n, 0,
            [&](std::size_t begin, std::size_t end, std::size_t c) {
                std::lock_guard<std::mutex> lock(m);
                if (ranges.size() <= c)
                    ranges.resize(c + 1);
                ranges[c] = {begin, end};
            });
        return ranges;
    };
    const auto seq = boundaries(1);
    ASSERT_FALSE(seq.empty());
    EXPECT_EQ(seq.front().first, 0u);
    EXPECT_EQ(seq.front().second, (n + 7) / 8);
    EXPECT_EQ(seq.back().second, n);
    for (std::size_t c = 1; c < seq.size(); ++c) {
        EXPECT_EQ(seq[c].first, seq[c - 1].second) << c;
        EXPECT_LE(seq[c].second - seq[c].first,
                  seq[c - 1].second - seq[c - 1].first)
            << c;
    }
    EXPECT_EQ(seq.back().second - seq.back().first, 1u);
    for (std::size_t threads : {2u, 4u, 16u})
        EXPECT_EQ(boundaries(threads), seq) << threads;
}

TEST(GuidedScheduling, OneRunnerClaimsLargestChunksFirst)
{
    // Claims come off one counter in ascending order, so a region
    // run by one thread with no dispatch executes chunk 0 first and
    // chunk n-1 last. Guided sizing relies on this: its largest
    // chunks are its first ones.
    const runtime::detail::ChunkPlan plan(1000, 0);
    std::vector<std::size_t> order;
    auto state = std::make_shared<runtime::detail::RegionState>(
        plan.chunks(), [&](std::size_t c) { order.push_back(c); },
        nullptr);
    state->runAs();
    state->waitDone();
    state->rethrowIfFailed();
    ASSERT_EQ(order.size(), plan.chunks());
    for (std::size_t c = 0; c < order.size(); ++c)
        EXPECT_EQ(order[c], c);
    for (std::size_t c = 1; c < order.size(); ++c) {
        const auto [b0, e0] = plan.bounds(order[c - 1]);
        const auto [b1, e1] = plan.bounds(order[c]);
        EXPECT_GE(e0 - b0, e1 - b1) << c;
    }
}

TEST(GuidedScheduling, ReduceCombinesInChunkOrder)
{
    // Non-commutative combine under guided sizing: the decreasing
    // chunk sizes and the concurrent runners must not disturb the
    // ascending fold.
    auto run = [](std::size_t threads) {
        return runtime::parallel_reduce(
            Options{threads}, 26, 0, std::string{},
            [](std::size_t begin, std::size_t end, std::size_t) {
                std::string s;
                for (std::size_t i = begin; i < end; ++i)
                    s += char('a' + i);
                return s;
            },
            [](std::string acc, const std::string &x) {
                return acc + x;
            });
    };
    const std::string expect = "abcdefghijklmnopqrstuvwxyz";
    EXPECT_EQ(run(1), expect);
    EXPECT_EQ(run(4), expect);
    EXPECT_EQ(run(13), expect);
}

TEST(GuidedScheduling, PropagatesTaskException)
{
    for (std::size_t threads : {1u, 4u}) {
        EXPECT_THROW(
            runtime::parallel_for(
                Options{threads}, 100, 0,
                [](std::size_t begin, std::size_t, std::size_t) {
                    if (begin >= 30)
                        throw std::runtime_error("guided chunk failed");
                }),
            std::runtime_error);
    }
}

// --------------------------------------------------------------------
// Thread-count validation and oversubscription
// --------------------------------------------------------------------

TEST(ThreadOptions, OversubscribedCountsMatchSequential)
{
    // num_threads far beyond the hardware must still cover the range
    // exactly once and reduce identically (runner count is clamped
    // to the pool, not rejected).
    const std::size_t n = 5000;
    const uint64_t expect = uint64_t(n) * (n - 1) / 2;
    for (std::size_t threads :
         {std::size_t(64), runtime::kMaxThreads}) {
        for (std::size_t grain : {std::size_t(7), std::size_t(0)}) {
            uint64_t sum = runtime::parallel_reduce(
                Options{threads}, n, grain, uint64_t{0},
                [](std::size_t begin, std::size_t end, std::size_t) {
                    uint64_t s = 0;
                    for (std::size_t i = begin; i < end; ++i)
                        s += i;
                    return s;
                },
                [](uint64_t a, uint64_t b) { return a + b; });
            EXPECT_EQ(sum, expect) << threads << "/" << grain;
        }
    }
}

TEST(ThreadOptions, RejectsCountsAboveCeiling)
{
    // Consistent with the bench drivers' QPAD_THREADS validation:
    // a count above kMaxThreads is a malformed configuration, not a
    // machine description, and must be rejected loudly.
    EXPECT_NO_THROW(
        runtime::resolveThreads(Options{runtime::kMaxThreads}));
    try {
        runtime::resolveThreads(Options{runtime::kMaxThreads + 1});
        FAIL() << "expected the thread ceiling to be enforced";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("ceiling"),
                  std::string::npos)
            << e.what();
    }
}

// --------------------------------------------------------------------
// Exceptions across runners
// --------------------------------------------------------------------

TEST(StealingExceptions, NestedRegionExceptionReachesOuterCaller)
{
    // A chunk of an outer multi-thread region opens an inner region
    // whose chunks throw: the inner region must rethrow in the outer
    // chunk, and the outer region must hand exactly that exception
    // (message intact) to the outermost caller — with several
    // runners and with oversubscribed runner counts.
    try {
        runtime::parallel_for(
            Options{8}, 8, 1,
            [&](std::size_t, std::size_t, std::size_t) {
                runtime::parallel_for(
                    Options{8}, 64, 0,
                    [&](std::size_t begin, std::size_t, std::size_t) {
                        if (begin >= 32)
                            throw std::runtime_error("inner boom");
                    });
            });
        FAIL() << "expected the nested exception to propagate";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "inner boom");
    }
}

TEST(StealingExceptions, FirstErrorWinsIsOneOfTheThrown)
{
    // Several chunks throw distinct exceptions; exactly one may
    // surface, and it must be one of the thrown ones — never a
    // mangled or default-constructed error.
    const std::set<std::string> thrown = {"err-10", "err-20",
                                          "err-30"};
    try {
        runtime::parallel_for(
            Options{4}, 40, 1,
            [&](std::size_t begin, std::size_t, std::size_t) {
                if (begin == 10 || begin == 20 || begin == 30)
                    throw std::runtime_error(
                        "err-" + std::to_string(begin));
            });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_TRUE(thrown.count(e.what())) << e.what();
    }
}

// --------------------------------------------------------------------
// Cooperative cancellation at chunk-claim boundaries
// --------------------------------------------------------------------

TEST(Cancellation, PreStoppedTokenRunsNoChunk)
{
    // A token that is already stopped fails the region before the
    // first chunk-claim, sequential and parallel alike.
    for (std::size_t threads : {1u, 4u}) {
        for (const bool deadline : {false, true}) {
            exec::CancelToken tok;
            if (deadline)
                tok.setDeadline(exec::now() -
                                std::chrono::nanoseconds(1));
            else
                tok.cancel();
            Options opts{threads};
            opts.cancel = &tok;
            std::atomic<std::size_t> executed{0};
            try {
                runtime::parallel_for(
                    opts, 100, 1,
                    [&](std::size_t, std::size_t, std::size_t) {
                        ++executed;
                    });
                FAIL() << "expected CancelledError";
            } catch (const exec::CancelledError &e) {
                EXPECT_EQ(e.reason(),
                          deadline
                              ? exec::StopReason::kDeadlineExceeded
                              : exec::StopReason::kCancelled);
            }
            EXPECT_EQ(executed.load(), 0u);
        }
    }
}

TEST(Cancellation, CancelFromInsideARegionSkipsTheRemainder)
{
    // The first executed chunk cancels the token; every later claim
    // observes the stop and is skipped, so the region unwinds with
    // CancelledError after a small fraction of the range.
    for (std::size_t threads : {1u, 4u}) {
        exec::CancelToken tok;
        Options opts{threads};
        opts.cancel = &tok;
        std::atomic<std::size_t> executed{0};
        try {
            runtime::parallel_for(
                opts, 1000, 1,
                [&](std::size_t, std::size_t, std::size_t) {
                    ++executed;
                    tok.cancel();
                });
            FAIL() << "expected CancelledError";
        } catch (const exec::CancelledError &e) {
            EXPECT_EQ(e.reason(), exec::StopReason::kCancelled);
        }
        // A chunk per runner can already be in flight when the stop
        // lands; each runner's next claim sees the stop its own
        // chunk raised, so no runner executes a second chunk.
        EXPECT_LE(executed.load(), threads) << threads;
    }
}

TEST(Cancellation, ExternalCancelRace)
{
    // TSan-stressed: another thread cancels while workers claim
    // chunks. Either outcome (completed or cancelled) is legal; the
    // invariants are no torn state and a correctly-typed error.
    for (int round = 0; round < 8; ++round) {
        exec::CancelToken tok;
        Options opts{4};
        opts.cancel = &tok;
        std::atomic<std::size_t> executed{0};
        std::thread canceller([&tok] { tok.cancel(); });
        bool cancelled = false;
        try {
            runtime::parallel_for(
                opts, 400, 1,
                [&](std::size_t, std::size_t, std::size_t) {
                    ++executed;
                });
        } catch (const exec::CancelledError &e) {
            cancelled = true;
            EXPECT_EQ(e.reason(), exec::StopReason::kCancelled);
        }
        canceller.join();
        if (!cancelled)
            EXPECT_EQ(executed.load(), 400u);
        else
            EXPECT_LE(executed.load(), 400u);
    }
}

TEST(Cancellation, BenignTokenLeavesResultsBitIdentical)
{
    // The determinism contract: a token that never stops must not
    // change a byte of the result at any thread count — the
    // non-commutative fold exposes any scheduling disturbance.
    exec::CancelToken tok;
    tok.setDeadline(exec::now() + std::chrono::hours(1));
    auto run = [&tok](std::size_t threads) {
        Options opts{threads};
        opts.cancel = &tok;
        return runtime::parallel_reduce(
            opts, 26, 0, std::string{},
            [](std::size_t begin, std::size_t end, std::size_t) {
                std::string s;
                for (std::size_t i = begin; i < end; ++i)
                    s += char('a' + i);
                return s;
            },
            [](std::string acc, const std::string &x) {
                return acc + x;
            });
    };
    const std::string expect = "abcdefghijklmnopqrstuvwxyz";
    EXPECT_EQ(run(1), expect);
    EXPECT_EQ(run(4), expect);
    EXPECT_EQ(run(13), expect);
}

// --------------------------------------------------------------------
// Wakeup latency (regression for the old 1 ms sleep-poll wait)
// --------------------------------------------------------------------

namespace
{

// GCC defines __SANITIZE_*__; Clang reports via __has_feature.
// Folded into a project-local macro — defining the reserved
// double-underscore names ourselves would be undefined behavior.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define QPAD_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define QPAD_SANITIZED 1
#endif
#endif

/** Sanitizer builds run 10-20x slower; scale the latency budgets. */
constexpr int
timingSlack()
{
#if defined(QPAD_SANITIZED)
    return 20;
#else
    return 4; // headroom for loaded CI machines
#endif
}

} // namespace

TEST(WakeupLatency, SmallRegionsCompleteWithoutMillisecondStalls)
{
    // The old helping wait polled helper futures with a 1 ms sleep,
    // so a run of tiny two-runner regions accumulated millisecond-
    // scale stalls. The condition-variable handshake must keep a
    // region's completion in the microsecond range.
    const int regions = 300;
    std::atomic<std::size_t> sum{0};
    // qpad-lint: allow(no-wallclock) "wakeup-latency regression
    // bound; timing never affects computed results"
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < regions; ++r) {
        runtime::parallel_for(
            Options{2}, 2, 1,
            [&](std::size_t begin, std::size_t, std::size_t) {
                sum += begin;
            });
    }
    // qpad-lint: allow(no-wallclock) "wakeup-latency regression
    // bound; timing never affects computed results"
    const double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_EQ(sum.load(), std::size_t(regions));
    // 1 ms-scale stalls would put this at >= regions * 1e-3 seconds.
    EXPECT_LT(elapsed, 0.5e-3 * regions * timingSlack());
}

// --------------------------------------------------------------------
// Region metrics (the runtime.* series, read as registry deltas)
// --------------------------------------------------------------------

TEST(RegionMetrics, CountsChunksAndCallerWait)
{
    const obs::Snapshot before = obs::snapshot();
    runtime::parallel_for(
        Options{4}, 1000, 10,
        [](std::size_t, std::size_t, std::size_t) {});
    const obs::Snapshot d = obs::deltaSince(before);
    EXPECT_EQ(obs::valueOf(d, "runtime.regions"), 1.0);
    EXPECT_EQ(obs::valueOf(d, "runtime.chunks"), 100.0);
    const obs::Sample *idle = obs::find(d, "runtime.region_idle_seconds");
    ASSERT_NE(idle, nullptr);
    EXPECT_EQ(idle->count, 1u);
    EXPECT_GE(idle->sum, 0.0);
}

TEST(RegionMetrics, SequentialRegionCountsNoParallelRegion)
{
    const obs::Snapshot before = obs::snapshot();
    uint64_t sum = runtime::parallel_reduce(
        Options{1}, 100, 0, uint64_t{0},
        [](std::size_t begin, std::size_t end, std::size_t) {
            uint64_t s = 0;
            for (std::size_t i = begin; i < end; ++i)
                s += i;
            return s;
        },
        [](uint64_t a, uint64_t b) { return a + b; });
    EXPECT_EQ(sum, 4950u);
    const obs::Snapshot d = obs::deltaSince(before);
    EXPECT_EQ(obs::valueOf(d, "runtime.seq_regions"), 1.0);
    EXPECT_EQ(obs::valueOf(d, "runtime.regions"), 0.0);
    EXPECT_EQ(obs::valueOf(d, "runtime.chunks"),
              double(runtime::detail::ChunkPlan(100, 0).chunks()));
}

// --------------------------------------------------------------------
// SeedSequence
// --------------------------------------------------------------------

TEST(SeedSequence, ChildSeedsAreDeterministic)
{
    SeedSequence a(99), b(99);
    for (uint64_t s = 0; s < 64; ++s)
        EXPECT_EQ(a.childSeed(s), b.childSeed(s));
}

TEST(SeedSequence, ChildStreamsDiverge)
{
    SeedSequence seq(7);
    Rng r0(seq.childSeed(0));
    Rng r1(seq.childSeed(1));
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += r0.next() == r1.next();
    EXPECT_LT(same, 3);
}

TEST(SeedSequence, DifferentBasesDiverge)
{
    SeedSequence a(1), b(2);
    int same = 0;
    for (uint64_t s = 0; s < 100; ++s)
        same += a.childSeed(s) == b.childSeed(s);
    EXPECT_LT(same, 3);
}

// --------------------------------------------------------------------
// Thread-count independence of the wired subsystems
// --------------------------------------------------------------------

TEST(Determinism, YieldBitIdenticalAcrossThreadCounts)
{
    auto arch = arch::ibm16Q(true);
    yield::YieldOptions opts;
    opts.trials = 10000;
    opts.seed = 2020;
    opts.collect_condition_stats = true;

    opts.exec.num_threads = 1;
    auto seq = yield::estimateYield(arch, opts);
    for (std::size_t threads : {2u, 4u, 7u}) {
        opts.exec.num_threads = threads;
        auto par = yield::estimateYield(arch, opts);
        EXPECT_EQ(par.successes, seq.successes) << threads;
        EXPECT_DOUBLE_EQ(par.yield, seq.yield) << threads;
        EXPECT_EQ(par.condition_trials, seq.condition_trials)
            << threads;
    }
}

TEST(Determinism, FreqAllocIdenticalAcrossThreadCounts)
{
    auto arch = arch::ibm16Q(true);
    design::FreqAllocOptions opts;
    opts.local_trials = 400;
    opts.refine_sweeps = 1;

    opts.exec.num_threads = 1;
    auto seq = design::allocateFrequencies(arch, opts);
    opts.exec.num_threads = 4;
    auto par = design::allocateFrequencies(arch, opts);
    EXPECT_EQ(seq.freqs, par.freqs);
    EXPECT_EQ(seq.order, par.order);
    EXPECT_EQ(seq.local_scores, par.local_scores);
}

TEST(Determinism, AnnealRestartsIdenticalAcrossThreadCounts)
{
    auto circ = benchmarks::getBenchmark("z4_268").generate();
    auto prof = profile::profileCircuit(circ);
    auto start = design::designLayout(prof);

    design::AnnealOptions opts;
    opts.iterations = 2000;
    opts.restarts = 4;

    opts.exec.num_threads = 1;
    auto seq = design::annealLayout(prof, start, opts);
    opts.exec.num_threads = 4;
    auto par = design::annealLayout(prof, start, opts);
    EXPECT_EQ(seq.final_cost, par.final_cost);
    EXPECT_EQ(seq.winning_chain, par.winning_chain);
    EXPECT_EQ(seq.layout.coord_of_logical,
              par.layout.coord_of_logical);
    // More chains can only improve on the single-chain result.
    design::AnnealOptions single = opts;
    single.restarts = 1;
    auto one = design::annealLayout(prof, start, single);
    EXPECT_LE(seq.final_cost, one.final_cost);
}

TEST(Determinism, AnnealAcceptsStartWithUnsetCost)
{
    // initial_cost must be derived from the start coordinates, not
    // trusted from the struct field, or the internal no-regression
    // assert fires on caller-built layouts.
    auto circ = benchmarks::getBenchmark("cm152a_212").generate();
    auto prof = profile::profileCircuit(circ);
    auto designed = design::designLayout(prof);
    design::LayoutResult bare;
    bare.coord_of_logical = designed.coord_of_logical;
    bare.layout = designed.layout; // placement_cost left at 0
    design::AnnealOptions opts;
    opts.iterations = 500;
    auto annealed = design::annealLayout(prof, bare, opts);
    EXPECT_EQ(annealed.initial_cost, designed.placement_cost);
    EXPECT_LE(annealed.final_cost, annealed.initial_cost);
}

TEST(Determinism, ExperimentIdenticalAcrossThreadCounts)
{
    auto info = benchmarks::getBenchmark("sym6_145");
    eval::ExperimentOptions opts;
    opts.yield_options.trials = 1000;
    opts.max_yield_trials = 10000;
    opts.freq_options.local_trials = 200;
    opts.freq_options.refine_sweeps = 0;
    opts.random_bus_samples = 2;

    opts.exec.num_threads = 1;
    auto seq = eval::runBenchmark(info, opts);
    opts.exec.num_threads = 4;
    auto par = eval::runBenchmark(info, opts);

    ASSERT_EQ(seq.points.size(), par.points.size());
    for (std::size_t i = 0; i < seq.points.size(); ++i) {
        EXPECT_EQ(seq.points[i].config, par.points[i].config) << i;
        EXPECT_EQ(seq.points[i].arch_name, par.points[i].arch_name)
            << i;
        EXPECT_EQ(seq.points[i].gate_count, par.points[i].gate_count)
            << i;
        EXPECT_DOUBLE_EQ(seq.points[i].yield, par.points[i].yield)
            << i;
    }
}

} // namespace
