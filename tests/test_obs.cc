/**
 * @file
 * Tests for qpad::obs: the metrics registry (counters, gauges,
 * timers, deterministic snapshots, deltas, exporters), the span
 * tracer (balanced Chrome trace-event output, the zero-cost disabled
 * path, and the bit-identity of traced vs untraced runs), the
 * warning line, the flight recorder, and the trace session's crash
 * and tripwire writes.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/ibm.hh"
#include "cache/fingerprint.hh"
#include "cache/store.hh"
#include "obs/flight.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/parallel.hh"
#include "runtime/region.hh"
#include "runtime/thread_pool.hh"
#include "yield/yield_sim.hh"

// --------------------------------------------------------------------
// Counting global allocator, for the disabled-span zero-alloc test.
// The default operator new[] / delete[] forward here, so array
// allocations are counted too. GCC cannot see that the replacement
// operator new below is malloc-backed, so its new/free pairing
// heuristic misfires — suppress it for this file.
// --------------------------------------------------------------------

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace
{
std::atomic<uint64_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace qpad;

std::string
tracePath(const std::string &name)
{
    return testing::TempDir() + "qpad_trace_" + name + ".json";
}

/** Braces and brackets balance and never go negative (names and
 * kinds are code-controlled, so no string literal holds either). */
void
expectBalancedJson(const std::string &text)
{
    int braces = 0, brackets = 0;
    for (char ch : text) {
        braces += ch == '{';
        braces -= ch == '}';
        brackets += ch == '[';
        brackets -= ch == ']';
        ASSERT_GE(braces, 0);
        ASSERT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

// --------------------------------------------------------------------
// Metric primitives
// --------------------------------------------------------------------

TEST(Metrics, CounterAccumulates)
{
    obs::Counter &c = obs::counter("test.counter_accumulates");
    const uint64_t before = c.value();
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), before + 42);
}

TEST(Metrics, CounterSumsAcrossThreads)
{
    obs::Counter &c = obs::counter("test.counter_threads");
    const uint64_t before = c.value();
    constexpr int kThreads = 8;
    constexpr uint64_t kAdds = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (uint64_t i = 0; i < kAdds; ++i)
                c.add();
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value(), before + kThreads * kAdds);
}

TEST(Metrics, GaugeMovesBothWays)
{
    obs::Gauge &g = obs::gauge("test.gauge");
    g.set(10);
    g.add(-25);
    EXPECT_EQ(g.value(), -15);
    g.add(15);
    EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, TimerCountsAndSums)
{
    obs::Timer &t = obs::timer("test.timer");
    t.observe(0.5);
    t.observe(2.0);
    EXPECT_EQ(t.count(), 2u);
    EXPECT_DOUBLE_EQ(t.sum(), 2.5);

    // valueOf reads the sum, and both writers print the count and
    // the sum under the timer kind.
    const obs::Snapshot snap = obs::snapshot();
    EXPECT_DOUBLE_EQ(obs::valueOf(snap, "test.timer"), 2.5);
    std::ostringstream table;
    obs::writeTable(table, snap, "test.timer");
    EXPECT_EQ(table.str(), "test.timer  count=2 sum=2.500e+00\n");
    const obs::Sample *s = obs::find(snap, "test.timer");
    ASSERT_NE(s, nullptr);
    std::ostringstream json;
    obs::writeJson(json, {*s});
    EXPECT_EQ(json.str(), "{\"metrics\":[\n{\"name\":\"test.timer\","
                          "\"kind\":\"timer\",\"count\":2,\"sum\":2.5}\n]}\n");
}

TEST(Metrics, RegistryReturnsSameInstance)
{
    obs::Counter &a = obs::counter("test.same_instance");
    obs::Counter &b = obs::counter("test.same_instance");
    EXPECT_EQ(&a, &b);
}

TEST(Metrics, KindMismatchPanics)
{
    obs::counter("test.kind_mismatch");
    EXPECT_THROW(obs::gauge("test.kind_mismatch"), std::logic_error);
    EXPECT_THROW(obs::timer("test.kind_mismatch"), std::logic_error);
}

// --------------------------------------------------------------------
// Snapshots
// --------------------------------------------------------------------

TEST(Metrics, SnapshotIsNameSorted)
{
    obs::counter("test.zzz_sorted");
    obs::counter("test.aaa_sorted");
    const obs::Snapshot snap = obs::snapshot();
    ASSERT_GE(snap.size(), 2u);
    for (std::size_t i = 1; i < snap.size(); ++i)
        EXPECT_LT(snap[i - 1].name, snap[i].name);
}

TEST(Metrics, SnapshotTotalsIndependentOfThreadCount)
{
    // The same instrumented workload must report identical totals at
    // every thread count: counts reflect work done, not scheduling.
    constexpr std::size_t kN = 1000;
    uint64_t totals[2];
    int slot = 0;
    for (std::size_t threads : {1u, 4u}) {
        obs::Counter &c = obs::counter("test.thread_independent");
        const uint64_t before = c.value();
        runtime::Options exec;
        exec.num_threads = threads;
        runtime::parallel_for(
            exec, kN, 8,
            [&c](std::size_t begin, std::size_t end, std::size_t) {
                c.add(end - begin);
            });
        totals[slot++] = c.value() - before;
    }
    EXPECT_EQ(totals[0], kN);
    EXPECT_EQ(totals[1], kN);
}

TEST(Metrics, DeltaSinceSubtractsCountersKeepsGauges)
{
    obs::Counter &c = obs::counter("test.delta_counter");
    obs::Gauge &g = obs::gauge("test.delta_gauge");
    obs::Timer &t = obs::timer("test.delta_timer");
    c.add(5);
    g.set(100);
    t.observe(1.0);
    const obs::Snapshot before = obs::snapshot();
    c.add(7);
    g.set(42);
    t.observe(2.0);
    const obs::Snapshot delta = obs::deltaSince(before);
    EXPECT_DOUBLE_EQ(obs::valueOf(delta, "test.delta_counter"), 7.0);
    // Gauges are levels: the delta keeps the current value.
    EXPECT_DOUBLE_EQ(obs::valueOf(delta, "test.delta_gauge"), 42.0);
    const obs::Sample *timer = obs::find(delta, "test.delta_timer");
    ASSERT_NE(timer, nullptr);
    EXPECT_EQ(timer->count, 1u);
    EXPECT_DOUBLE_EQ(timer->sum, 2.0);
}

TEST(Metrics, FindAndValueOf)
{
    obs::counter("test.value_of").add(9);
    const obs::Snapshot snap = obs::snapshot();
    EXPECT_EQ(obs::find(snap, "test.no_such_metric"), nullptr);
    EXPECT_DOUBLE_EQ(obs::valueOf(snap, "test.no_such_metric"), 0.0);
    EXPECT_GE(obs::valueOf(snap, "test.value_of"), 9.0);
}

TEST(Metrics, WritersProduceOutput)
{
    obs::counter("test.writer_counter").add(3);
    const obs::Snapshot snap = obs::snapshot();

    std::ostringstream table;
    obs::writeTable(table, snap, "test.writer_", "  ");
    EXPECT_NE(table.str().find("test.writer_counter"),
              std::string::npos);

    std::ostringstream json;
    obs::writeJson(json, snap);
    const std::string text = json.str();
    EXPECT_EQ(text.rfind("{\"metrics\":[", 0), 0u);
    expectBalancedJson(text);
}

// --------------------------------------------------------------------
// Instrumented subsystems publish into the registry
// --------------------------------------------------------------------

TEST(Metrics, RuntimeRegionsPublish)
{
    const obs::Snapshot before = obs::snapshot();
    runtime::Options exec;
    exec.num_threads = 4;
    std::atomic<std::size_t> sum{0};
    runtime::parallel_for(
        exec, 64, 1,
        [&sum](std::size_t begin, std::size_t, std::size_t) {
            sum.fetch_add(begin, std::memory_order_relaxed);
        });
    const obs::Snapshot delta = obs::deltaSince(before);
    // Grain 1 over 64 indices = 64 chunks, whether the region ran
    // parallel or degraded to sequential.
    EXPECT_DOUBLE_EQ(obs::valueOf(delta, "runtime.chunks"), 64.0);
    EXPECT_GE(obs::valueOf(delta, "runtime.regions") +
                  obs::valueOf(delta, "runtime.seq_regions"),
              1.0);
}

TEST(Metrics, CacheStorePublishesAndGaugesReturnToBaseline)
{
    const obs::Snapshot at_start = obs::snapshot();
    const double bytes0 = obs::valueOf(at_start, "cache.bytes");
    const double entries0 = obs::valueOf(at_start, "cache.entries");
    {
        cache::Store store;
        cache::Encoder enc;
        enc.str("obs.test.entry");
        const cache::Fingerprint key = enc.digest();
        using Bytes = std::vector<uint8_t>;
        store.put(key, Bytes{1, 2, 3});
        EXPECT_TRUE(store.get<Bytes>(key));
        enc.u64(99);
        EXPECT_FALSE(store.get<Bytes>(enc.digest()));

        const obs::Snapshot delta = obs::deltaSince(at_start);
        EXPECT_DOUBLE_EQ(obs::valueOf(delta, "cache.inserts"), 1.0);
        EXPECT_DOUBLE_EQ(obs::valueOf(delta, "cache.hits"), 1.0);
        EXPECT_DOUBLE_EQ(obs::valueOf(delta, "cache.misses"), 1.0);
        EXPECT_GT(obs::valueOf(delta, "cache.bytes"), bytes0);
        EXPECT_EQ(obs::valueOf(delta, "cache.entries"), entries0 + 1);
    }
    // The destroyed store returned its residency.
    const obs::Snapshot after = obs::snapshot();
    EXPECT_DOUBLE_EQ(obs::valueOf(after, "cache.bytes"), bytes0);
    EXPECT_DOUBLE_EQ(obs::valueOf(after, "cache.entries"), entries0);
}

// --------------------------------------------------------------------
// Span tracer
// --------------------------------------------------------------------

TEST(Trace, DisabledSpanDoesNotAllocate)
{
    if (obs::tracingEnabled())
        GTEST_SKIP() << "QPAD_TRACE is set; disabled path not active";
    { QPAD_SPAN("obs.test_warmup"); } // allocates this thread's ring
    const uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        QPAD_SPAN("obs.test_disabled");
    }
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before);
}

TEST(Trace, StartIsExclusive)
{
    if (obs::tracingEnabled())
        GTEST_SKIP() << "QPAD_TRACE is set; session already active";
    const std::string path = tracePath("exclusive");
    ASSERT_TRUE(obs::startTracing(path));
    EXPECT_FALSE(obs::startTracing(path));
    obs::stopTracing();
}

/** Parse the one-event-per-line trace the writer emits. */
struct ParsedEvent
{
    std::string name;
    char phase = '?';
    int tid = -1;
};

std::vector<ParsedEvent>
parseTrace(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing trace file " << path;
    std::vector<ParsedEvent> events;
    std::string line;
    while (std::getline(in, line)) {
        const auto name_at = line.find("\"name\":\"");
        if (name_at == std::string::npos)
            continue;
        ParsedEvent e;
        const auto name_begin = name_at + 8;
        e.name = line.substr(name_begin,
                             line.find('"', name_begin) - name_begin);
        const auto ph_at = line.find("\"ph\":\"");
        EXPECT_NE(ph_at, std::string::npos);
        e.phase = line[ph_at + 6];
        const auto tid_at = line.find("\"tid\":");
        EXPECT_NE(tid_at, std::string::npos);
        e.tid = std::atoi(line.c_str() + tid_at + 6);
        events.push_back(e);
    }
    return events;
}

TEST(Trace, EventsBalanceAndNestPerThread)
{
    if (obs::tracingEnabled())
        GTEST_SKIP() << "QPAD_TRACE is set; session already active";
    const std::string path = tracePath("balance");
    ASSERT_TRUE(obs::startTracing(path));
    {
        QPAD_SPAN("obs.test_outer");
        {
            QPAD_SPAN("obs.test_inner");
        }
    }
    // Spans from several threads land in distinct tid streams.
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([] {
            QPAD_SPAN("obs.test_worker");
            QPAD_SPAN("obs.test_worker_inner");
        });
    for (auto &t : threads)
        t.join();
    obs::stopTracing();

    const std::vector<ParsedEvent> events = parseTrace(path);
    // 2 main-thread spans + 2 spans x 4 threads, a B and an E each.
    EXPECT_EQ(events.size(), 2u * (2u + 2u * 4u));

    // Replay each tid's stream against a stack: every E must close
    // the innermost open B of the same name, and every stream must
    // end empty — proper nesting, not just balanced counts.
    std::map<int, std::vector<std::string>> stacks;
    for (const ParsedEvent &e : events) {
        ASSERT_TRUE(e.phase == 'B' || e.phase == 'E') << e.phase;
        auto &stack = stacks[e.tid];
        if (e.phase == 'B') {
            stack.push_back(e.name);
        } else {
            ASSERT_FALSE(stack.empty());
            EXPECT_EQ(stack.back(), e.name);
            stack.pop_back();
        }
    }
    for (const auto &[tid, stack] : stacks)
        EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
}

TEST(Trace, FileIsStructurallyValidJson)
{
    if (obs::tracingEnabled())
        GTEST_SKIP() << "QPAD_TRACE is set; session already active";
    const std::string path = tracePath("valid_json");
    ASSERT_TRUE(obs::startTracing(path));
    {
        QPAD_SPAN("obs.test_json");
    }
    obs::stopTracing();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    EXPECT_EQ(text.rfind("{\"displayTimeUnit\":\"ms\","
                         "\"traceEvents\":[",
                         0),
              0u);
    expectBalancedJson(text);
}

TEST(Trace, SessionsDoNotLeakEventsIntoEachOther)
{
    if (obs::tracingEnabled())
        GTEST_SKIP() << "QPAD_TRACE is set; session already active";
    const std::string first = tracePath("first_session");
    ASSERT_TRUE(obs::startTracing(first));
    {
        QPAD_SPAN("obs.test_first");
    }
    obs::stopTracing();

    const std::string second = tracePath("second_session");
    ASSERT_TRUE(obs::startTracing(second));
    {
        QPAD_SPAN("obs.test_second");
    }
    obs::stopTracing();

    for (const ParsedEvent &e : parseTrace(second))
        EXPECT_EQ(e.name, "obs.test_second");
}

/** Stack-replay each tid's stream: every E closes the innermost open
 * B of the same name, and every stream ends empty. */
void
expectNestedPerThread(const std::vector<ParsedEvent> &events)
{
    std::map<int, std::vector<std::string>> stacks;
    for (const ParsedEvent &e : events) {
        ASSERT_TRUE(e.phase == 'B' || e.phase == 'E') << e.phase;
        auto &stack = stacks[e.tid];
        if (e.phase == 'B') {
            stack.push_back(e.name);
        } else {
            ASSERT_FALSE(stack.empty()) << e.name;
            ASSERT_EQ(stack.back(), e.name);
            stack.pop_back();
        }
    }
    for (const auto &[tid, stack] : stacks)
        EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
}

/** Number of `phase` edges named `name`. */
std::size_t
countEdges(const std::vector<ParsedEvent> &events, const std::string &name,
           char phase)
{
    std::size_t n = 0;
    for (const ParsedEvent &e : events)
        n += e.name == name && e.phase == phase;
    return n;
}

TEST(Trace, SessionLongerThanTheRingKeepsEveryEdge)
{
    if (obs::tracingEnabled())
        GTEST_SKIP() << "QPAD_TRACE is set; session already active";
    // Two ring entries per span: the worker's ring wraps six times
    // inside the session.
    const std::size_t spans = 3 * obs::flight::kRingEvents + 7;
    const std::string path = tracePath("long_session");
    ASSERT_TRUE(obs::startTracing(path));
    std::thread worker([spans] {
        QPAD_SPAN("obs.test_long_outer");
        for (std::size_t i = 0; i < spans; ++i) {
            QPAD_SPAN("obs.test_long_span");
        }
    });
    worker.join();
    obs::stopTracing();

    const std::vector<ParsedEvent> events = parseTrace(path);
    expectNestedPerThread(events);
    EXPECT_EQ(countEdges(events, "obs.test_long_outer", 'B'), 1u);
    EXPECT_EQ(countEdges(events, "obs.test_long_outer", 'E'), 1u);
    EXPECT_EQ(countEdges(events, "obs.test_long_span", 'B'), spans);
    EXPECT_EQ(countEdges(events, "obs.test_long_span", 'E'), spans);
    EXPECT_EQ(events.size(), 2 * (spans + 1));
}

TEST(Trace, SpansStraddlingTheSessionStillBalance)
{
    if (obs::tracingEnabled())
        GTEST_SKIP() << "QPAD_TRACE is set; session already active";
    const std::string path = tracePath("straddle");
    {
        QPAD_SPAN("obs.test_straddle_before"); // closes in the session
        ASSERT_TRUE(obs::startTracing(path));
        QPAD_SPAN("obs.test_straddle_inside");
    }
    {
        QPAD_SPAN("obs.test_straddle_after"); // still open at the stop
        obs::stopTracing();
    }

    const std::vector<ParsedEvent> events = parseTrace(path);
    expectNestedPerThread(events);
    for (const char *name :
         {"obs.test_straddle_inside", "obs.test_straddle_after"}) {
        EXPECT_EQ(countEdges(events, name, 'B'), 1u) << name;
        EXPECT_EQ(countEdges(events, name, 'E'), 1u) << name;
    }
}

TEST(Trace, StopWhileAnotherThreadRecords)
{
    if (obs::tracingEnabled())
        GTEST_SKIP() << "QPAD_TRACE is set; session already active";
    const std::string path = tracePath("stop_while_recording");
    std::atomic<bool> done{false};
    std::atomic<std::size_t> iterations{0};
    auto waitFor = [&](std::size_t n) {
        while (iterations.load(std::memory_order_acquire) < n)
            std::this_thread::yield();
    };
    ASSERT_TRUE(obs::startTracing(path));
    std::thread worker([&] {
        while (!done.load(std::memory_order_acquire)) {
            QPAD_SPAN("obs.test_busy_outer");
            QPAD_SPAN("obs.test_busy_inner");
            iterations.fetch_add(1, std::memory_order_release);
        }
    });
    // Four edges per iteration: the ring wraps inside the session,
    // and again after it.
    waitFor(obs::flight::kRingEvents);
    obs::stopTracing();
    waitFor(iterations.load(std::memory_order_acquire) +
            obs::flight::kRingEvents);
    done.store(true, std::memory_order_release);
    worker.join();

    const std::vector<ParsedEvent> events = parseTrace(path);
    std::size_t begins = 0, ends = 0;
    for (const ParsedEvent &e : events) {
        begins += e.phase == 'B';
        ends += e.phase == 'E';
    }
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends);
    expectNestedPerThread(events);
}

// --------------------------------------------------------------------
// Observability never perturbs results
// --------------------------------------------------------------------

TEST(Trace, YieldEstimateBitIdenticalTracedVsUntraced)
{
    if (obs::tracingEnabled())
        GTEST_SKIP() << "QPAD_TRACE is set; session already active";
    auto arch = arch::ibm16Q(true);
    yield::YieldOptions opts;
    opts.trials = 4000;
    opts.sigma_ghz = 0.030;
    opts.seed = 2020;
    opts.collect_condition_stats = true;

    const yield::YieldResult plain = yield::estimateYield(arch, opts);

    ASSERT_TRUE(obs::startTracing(tracePath("bit_identity")));
    const yield::YieldResult traced = yield::estimateYield(arch, opts);
    obs::stopTracing();

    EXPECT_EQ(traced.successes, plain.successes);
    EXPECT_EQ(traced.trials, plain.trials);
    EXPECT_EQ(traced.condition_trials, plain.condition_trials);
    EXPECT_DOUBLE_EQ(traced.yield, plain.yield);
}

// --------------------------------------------------------------------
// Warnings
// --------------------------------------------------------------------

TEST(Log, TextLineKeepsFieldOrderAndEscapesStrings)
{
    testing::internal::CaptureStderr();
    obs::logWarn("obs.test_log_kept", {{"ratio", 3.5}, {"who", "q\"pad"}});
    // Fields print in the order written, strings quoted and escaped,
    // and no timestamp: the line is byte-stable across runs.
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "[warn] obs.test_log_kept ratio=3.5 who=\"q\\\"pad\"\n");
}

// --------------------------------------------------------------------
// Flight recorder, and the trace session's crash and tripwire writes
// --------------------------------------------------------------------

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(Flight, RecordIsZeroAllocOnceWarm)
{
    // Zero-alloc holds outside a trace session: a session's spill
    // allocates on the recording thread by design (flight.hh).
    if (obs::tracingEnabled())
        GTEST_SKIP() << "QPAD_TRACE is set; session already active";
    // First call pays the thread's one-time ring allocation.
    obs::flight::record("obs.test_flight_warmup", 'B');
    obs::flight::record("obs.test_flight_warmup", 'E');
    const uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 5000; ++i) {
        obs::flight::record("obs.test_flight_hot", 'B');
        obs::flight::record("obs.test_flight_hot", 'E');
    }
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before);
}

TEST(Flight, SignalSafeDumpIsStructurallyValidJson)
{
    obs::flight::record("obs.test_sigsafe", 'B');
    obs::flight::record("obs.test_sigsafe", 'E');
    const std::string path = tracePath("flight_sigsafe");
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    obs::flight::dumpSignalSafe(fd);
    ::close(fd);

    const std::string text = readFile(path);
    EXPECT_EQ(text.rfind("{\"displayTimeUnit\":\"ms\","
                         "\"traceEvents\":[",
                         0),
              0u);
    EXPECT_NE(text.find("\"name\":\"obs.test_sigsafe\""),
              std::string::npos);
    expectBalancedJson(text);
}

TEST(Flight, FormatEventPrintsTheSnprintfBytes)
{
    // The one event formatter writes ts with integers only; a session
    // file must keep the bytes that snprintf's "%.3f" of ns / 1000.0
    // gave, for span edges and for warning instants alike.
    for (const uint64_t ns :
         {uint64_t{0}, uint64_t{999}, uint64_t{1000}, uint64_t{1001},
          uint64_t{1} << 40}) {
        SCOPED_TRACE(ns);
        const double us = double(ns) / 1000.0;
        char expect[512];
        char line[obs::flight::kMaxEventLine];
        std::snprintf(expect, sizeof expect,
                      ",\n{\"name\":\"obs.test_format\",\"cat\":\"flight\","
                      "\"ph\":\"E\",\"pid\":1,\"tid\":7,\"ts\":%.3f}",
                      us);
        EXPECT_EQ(std::string(line, obs::flight::formatEvent(
                                        line, false, "obs.test_format",
                                        'E', 0, 7, ns)),
                  expect);
        std::snprintf(expect, sizeof expect,
                      "\n{\"name\":\"obs.test_format\",\"cat\":\"flight\","
                      "\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":7,"
                      "\"ts\":%.3f,\"args\":{\"level\":\"warn\"}}",
                      us);
        EXPECT_EQ(std::string(line,
                              obs::flight::formatEvent(
                                  line, true, "obs.test_format", 'L',
                                  uint8_t(obs::LogLevel::kWarn), 7, ns)),
                  expect);
    }
}

TEST(Trace, LogEventsAreInstantsWithLevel)
{
    if (obs::tracingEnabled())
        GTEST_SKIP() << "QPAD_TRACE is set; session already active";
    const std::string path = tracePath("log_instants");
    ASSERT_TRUE(obs::startTracing(path));
    testing::internal::CaptureStderr();
    obs::logWarn("obs.test_trace_log");
    testing::internal::GetCapturedStderr();
    obs::stopTracing();

    std::ifstream in(path);
    std::string line;
    std::size_t found = 0;
    while (std::getline(in, line)) {
        if (line.find("\"name\":\"obs.test_trace_log\"") ==
            std::string::npos)
            continue;
        ++found;
        EXPECT_NE(line.find("\"ph\":\"i\""), std::string::npos) << line;
        EXPECT_NE(line.find("\"args\":{\"level\":\"warn\"}"),
                  std::string::npos)
            << line;
    }
    EXPECT_EQ(found, 1u);
}

TEST(TraceDeathTest, FatalSignalWritesTheSessionPath)
{
    if (obs::tracingEnabled())
        GTEST_SKIP() << "QPAD_TRACE is set; session already active";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path = tracePath("crash");
    std::remove(path.c_str());
    EXPECT_EXIT(
        {
            obs::startTracing(path);
            QPAD_SPAN("obs.test_crash");
            std::raise(SIGSEGV);
        },
        ::testing::KilledBySignal(SIGSEGV), "");

    // The handler wrote the rings' tails before re-raising the
    // signal; the file must parse and hold the pre-crash event.
    const std::string text = readFile(path);
    ASSERT_FALSE(text.empty()) << "no crash write at " << path;
    EXPECT_NE(text.find("\"name\":\"obs.test_crash\""),
              std::string::npos);
    expectBalancedJson(text);
}

TEST(TraceDeathTest, PoolTripwireWritesTheBalancedSession)
{
    if (obs::tracingEnabled())
        GTEST_SKIP() << "QPAD_TRACE is set; session already active";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path = tracePath("tripwire");
    std::remove(path.c_str());
    EXPECT_DEATH(
        {
            obs::startTracing(path);
            QPAD_SPAN("obs.test_tripwire_open");
            runtime::ThreadPool pool(2);
            std::atomic<bool> started{false};
            auto state = std::make_shared<runtime::detail::RegionState>(
                2,
                [&](std::size_t) {
                    started.store(true, std::memory_order_seq_cst);
                    for (;;)
                        std::this_thread::sleep_for(
                            std::chrono::hours(1));
                },
                exec::kNoDeadline);
            pool.dispatchRegion(state, 1);
            while (!started.load(std::memory_order_seq_cst))
                std::this_thread::yield();
            // The pool destructor runs here, mid-chunk.
        },
        "ThreadPool destroyed while a parallel region");

    // The tripwire's stopTracing wrote the balanced session, which
    // closes the span still open at the abort; the SIGABRT handler
    // found the session closed and left the file alone (its write
    // would hold the span's 'B' only).
    const std::vector<ParsedEvent> events = parseTrace(path);
    EXPECT_EQ(countEdges(events, "obs.test_tripwire_open", 'B'), 1u);
    EXPECT_EQ(countEdges(events, "obs.test_tripwire_open", 'E'), 1u);
    expectNestedPerThread(events);
}

TEST(Trace, SpansFromEveryRunnerAreKept)
{
    if (obs::tracingEnabled())
        GTEST_SKIP() << "QPAD_TRACE is set; session already active";
    const std::string path = tracePath("runner_spans");
    ASSERT_TRUE(obs::startTracing(path));
    runtime::Options exec;
    exec.num_threads = 2;
    runtime::parallel_for(exec, 16, 1,
                          [](std::size_t, std::size_t, std::size_t) {
                              QPAD_SPAN("obs.test_runner_chunk");
                          });
    obs::stopTracing();

    // Every chunk span is in the file, whichever runner executed it.
    std::size_t chunk_spans = 0;
    for (const ParsedEvent &e : parseTrace(path))
        chunk_spans += e.name == "obs.test_runner_chunk";
    EXPECT_EQ(chunk_spans, 2u * 16u); // a B and an E per chunk
}

} // namespace
