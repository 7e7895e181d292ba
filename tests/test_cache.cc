/**
 * @file
 * Tests for qpad::cache: fingerprint stability and sensitivity, the
 * LRU store, and the cached front ends' bit-identity and
 * zero-recompute contracts. Cache traffic is read from the obs
 * registry's cache.* series, the store's one source of statistics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "arch/ibm.hh"
#include "benchmarks/suite.hh"
#include "cache/fingerprint.hh"
#include "cache/store.hh"
#include "cache/yield_cache.hh"
#include "eval/experiment.hh"
#include "obs/metrics.hh"
#include "runtime/parallel.hh"
#include "yield/yield_sim.hh"

namespace
{

using namespace qpad;

/** Fresh, memory-only global cache for one test. */
void
freshGlobalCache(std::size_t max_bytes = 64ull << 20)
{
    cache::CacheOptions options;
    options.max_bytes = max_bytes;
    cache::configureGlobalCache(options);
}

/**
 * How far the obs registry's cache.* series moved since construction.
 * Counters and the residency gauges subtract alike, so a test sees
 * its own traffic whatever other stores hold. Construct it after
 * replacing the global store: the replaced store's residency leaves
 * the gauges when it is destroyed.
 */
class CacheDelta
{
  public:
    CacheDelta() : before_(obs::snapshot()) {}

    int64_t
    operator()(std::string_view name) const
    {
        return int64_t(obs::valueOf(obs::snapshot(), name) -
                       obs::valueOf(before_, name));
    }

  private:
    obs::Snapshot before_;
};

cache::Fingerprint
keyOf(uint64_t i)
{
    cache::Encoder enc;
    enc.str("test.key");
    enc.u64(i);
    return enc.digest();
}

// --------------------------------------------------------------------
// Fingerprint
// --------------------------------------------------------------------

TEST(Fingerprint, DigestIsStableAndHexRenders)
{
    cache::Encoder a;
    a.str("hello");
    a.u64(42);
    a.f64(1.5);
    cache::Encoder b;
    b.str("hello");
    b.u64(42);
    b.f64(1.5);
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.digest().hex().size(), 32u);
    EXPECT_EQ(a.digest().hex(), b.digest().hex());
}

TEST(Fingerprint, TailLengthsAllDistinct)
{
    // Exercise every MurmurHash3 tail length (1..17 spans two
    // blocks) and make sure nothing degenerates.
    std::set<std::string> seen;
    std::vector<uint8_t> data(17, 0xa5);
    for (std::size_t len = 0; len <= data.size(); ++len)
        seen.insert(cache::hashBytes(data.data(), len).hex());
    EXPECT_EQ(seen.size(), data.size() + 1);
}

TEST(Fingerprint, EncoderIsPositionSensitive)
{
    cache::Encoder a;
    a.u32(1);
    a.u32(2);
    cache::Encoder b;
    b.u32(2);
    b.u32(1);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(Fingerprint, ArchitectureContentNotNameIsHashed)
{
    // Every architecture-keyed domain encodes the chip the same way;
    // the yield key shows it.
    const yield::YieldOptions options;
    const auto key = [&](const arch::Architecture &chip) {
        return cache::yieldKey(chip, options);
    };
    arch::Architecture a(arch::Layout::grid(2, 3), "first");
    arch::Architecture b(arch::Layout::grid(2, 3), "second");
    EXPECT_EQ(key(a), key(b));

    // Adding a bus, or assigning frequencies, changes the content.
    arch::Architecture bused(arch::Layout::grid(2, 3), "first");
    bused.addFourQubitBus({0, 0});
    EXPECT_NE(key(a), key(bused));

    arch::Architecture tuned(arch::Layout::grid(2, 3), "first");
    tuned.setAllFrequencies({5.0, 5.1, 5.2, 5.3, 5.0, 5.1});
    EXPECT_NE(key(a), key(tuned));

    arch::Architecture retuned(arch::Layout::grid(2, 3), "first");
    retuned.setAllFrequencies({5.0, 5.1, 5.2, 5.3, 5.0, 5.11});
    EXPECT_NE(key(tuned), key(retuned));
}

TEST(Fingerprint, YieldKeyTracksOptionsButNotExec)
{
    auto arch = arch::ibm16Q(false);
    yield::YieldOptions base;
    base.trials = 1000;

    const cache::Fingerprint k0 = cache::yieldKey(arch, base);

    yield::YieldOptions threaded = base;
    threaded.exec.num_threads = 7;
    EXPECT_EQ(k0, cache::yieldKey(arch, threaded))
        << "exec is bit-identical by contract and must not key";

    yield::YieldOptions more = base;
    more.trials = 10000;
    EXPECT_NE(k0, cache::yieldKey(arch, more));

    yield::YieldOptions reseeded = base;
    reseeded.seed = 2;
    EXPECT_NE(k0, cache::yieldKey(arch, reseeded));

    yield::YieldOptions noisier = base;
    noisier.sigma_ghz = 0.031;
    EXPECT_NE(k0, cache::yieldKey(arch, noisier));

    yield::YieldOptions stats = base;
    stats.collect_condition_stats = true;
    EXPECT_NE(k0, cache::yieldKey(arch, stats));

    yield::YieldOptions model = base;
    model.model.thr1 = 0.018;
    EXPECT_NE(k0, cache::yieldKey(arch, model));
}

TEST(Fingerprint, KeysMatchEarlierBuilds)
{
    // Captured from a build that still had a draw-order option: a
    // key that moves is an encoding change, and must say so by
    // bumping its domain tag instead.
    const auto arch = arch::ibm16Q(false);
    yield::YieldOptions yo;
    yo.trials = 1000;
    EXPECT_EQ(cache::yieldKey(arch, yo).hex(),
              "ab2ec6260f00571befe609a226196167");
    design::FreqAllocOptions fo;
    fo.local_trials = 300;
    fo.refine_sweeps = 1;
    EXPECT_EQ(cache::freqAllocKey(arch, fo).hex(),
              "d749a5c2b33bd81855d96c7619c1b3d8");
}

// --------------------------------------------------------------------
// Store
// --------------------------------------------------------------------

/** The value type the store tests cache. */
using Bytes = std::vector<uint8_t>;

TEST(Store, PutGetAndCounters)
{
    const CacheDelta moved;
    cache::Store store;
    EXPECT_FALSE(store.get<Bytes>(keyOf(1)));

    const Bytes payload = {1, 2, 3, 4};
    store.put(keyOf(1), payload);
    const auto blob = store.get<Bytes>(keyOf(1));
    ASSERT_TRUE(blob);
    EXPECT_EQ(*blob, payload);

    EXPECT_EQ(moved("cache.hits"), 1);
    EXPECT_EQ(moved("cache.misses"), 1);
    EXPECT_EQ(moved("cache.inserts"), 1);
    EXPECT_EQ(moved("cache.entries"), 1);
    EXPECT_GE(moved("cache.bytes"), int64_t(payload.size()));
}

TEST(Store, HitSharesTheStoredValue)
{
    const CacheDelta moved;
    cache::Store store;
    store.put(keyOf(2), Bytes(64, 0x5a));
    const auto first = store.get<Bytes>(keyOf(2));
    const auto second = store.get<Bytes>(keyOf(2));
    ASSERT_TRUE(first);
    EXPECT_EQ(first.get(), second.get()) << "a hit copies no value";
    EXPECT_EQ(moved("cache.hits"), 2);
}

TEST(Store, OverwriteKeepsOneEntry)
{
    const CacheDelta moved;
    cache::Store store;
    store.put(keyOf(9), Bytes(10, 0xaa));
    store.put(keyOf(9), Bytes(20, 0xbb));
    const auto blob = store.get<Bytes>(keyOf(9));
    ASSERT_TRUE(blob);
    EXPECT_EQ(*blob, Bytes(20, 0xbb));
    EXPECT_EQ(moved("cache.entries"), 1);
}

TEST(Store, LruEvictionRespectsBudgetAndRecency)
{
    // A ~10-entry budget of 100-byte payloads.
    cache::CacheOptions options;
    options.max_bytes = 2048;
    const CacheDelta moved;
    cache::Store store(options);

    const Bytes payload(100, 0x11);
    for (uint64_t i = 0; i < 10; ++i)
        store.put(keyOf(i), payload);
    EXPECT_EQ(moved("cache.evictions"), 0);

    // Touch key 0 so key 1 is now the coldest, then overflow.
    ASSERT_TRUE(store.get<Bytes>(keyOf(0)));
    store.put(keyOf(10), payload);

    EXPECT_GE(moved("cache.evictions"), 1);
    EXPECT_TRUE(store.get<Bytes>(keyOf(0))) << "recently used survives";
    EXPECT_FALSE(store.get<Bytes>(keyOf(1))) << "coldest is evicted";
    EXPECT_TRUE(store.get<Bytes>(keyOf(10)));
    EXPECT_LE(moved("cache.bytes"), int64_t(options.max_bytes));
}

TEST(Store, ConcurrentAccessUnderThreadPool)
{
    const CacheDelta moved;
    cache::Store store;

    constexpr uint64_t kKeys = 64;
    runtime::Options exec; // one worker per hardware thread
    runtime::parallel_for(
        exec, 2048, 1, [&](std::size_t b, std::size_t e, std::size_t) {
            for (std::size_t i = b; i < e; ++i) {
                const uint64_t k = uint64_t(i) % kKeys;
                if (const auto blob = store.get<Bytes>(keyOf(k))) {
                    // Payload is a pure function of the key.
                    ASSERT_EQ(blob->size(), 8 + k);
                    for (uint8_t byte : *blob)
                        ASSERT_EQ(byte, uint8_t(k));
                } else {
                    store.put(keyOf(k), Bytes(8 + k, uint8_t(k)));
                }
            }
        });

    for (uint64_t k = 0; k < kKeys; ++k) {
        const auto blob = store.get<Bytes>(keyOf(k));
        ASSERT_TRUE(blob);
        EXPECT_EQ(*blob, Bytes(8 + k, uint8_t(k)));
    }
    EXPECT_EQ(moved("cache.entries"), int64_t(kKeys));
    EXPECT_GE(moved("cache.inserts"), int64_t(kKeys));
}

// --------------------------------------------------------------------
// Store: in-flight dedup (getOrCompute)
// --------------------------------------------------------------------

TEST(StoreDedup, UncontendedOwnerPathMatchesReadThrough)
{
    // Without contention, getOrCompute must be counter-identical to
    // the classic get-miss / compute / put sequence, so the exact-
    // count assertions of the cached front-end tests keep holding.
    const CacheDelta moved;
    cache::Store store;
    int computes = 0;
    const auto compute = [&] {
        ++computes;
        return Bytes{1, 2, 3};
    };
    EXPECT_EQ(*store.getOrCompute<Bytes>(keyOf(1), compute),
              (Bytes{1, 2, 3}));
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(moved("cache.misses"), 1);
    EXPECT_EQ(moved("cache.inserts"), 1);
    EXPECT_EQ(moved("cache.hits"), 0);
    EXPECT_EQ(moved("cache.dedup_waits"), 0);

    EXPECT_EQ(*store.getOrCompute<Bytes>(keyOf(1), compute),
              (Bytes{1, 2, 3}));
    EXPECT_EQ(computes, 1) << "warm call must not recompute";
    EXPECT_EQ(moved("cache.hits"), 1);
    EXPECT_EQ(moved("cache.misses"), 1);
    EXPECT_EQ(moved("cache.inserts"), 1);
    EXPECT_EQ(moved("cache.dedup_waits"), 0);
}

TEST(StoreDedup, ConcurrentIdenticalRequestsComputeExactlyOnce)
{
    const CacheDelta moved;
    cache::Store store;
    constexpr std::size_t kWaiters = 3;
    std::atomic<int> computes{0};
    const auto key = keyOf(42);

    // The owner's computation stays open until every waiter has
    // registered on the in-flight entry (bounded at ~2 s so a
    // scheduling hiccup degrades the assertion, never hangs it).
    const auto compute = [&] {
        ++computes;
        for (int spin = 0;
             moved("cache.dedup_waits") < int64_t(kWaiters) &&
             spin < 2000;
             ++spin)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return Bytes{7, 7};
    };

    std::vector<Bytes> results(kWaiters + 1);
    std::thread owner(
        [&] { results[0] = *store.getOrCompute<Bytes>(key, compute); });
    while (computes.load() == 0)
        std::this_thread::yield();
    std::vector<std::thread> waiters;
    for (std::size_t i = 1; i <= kWaiters; ++i)
        waiters.emplace_back([&store, &results, &key, &compute, i] {
            results[i] = *store.getOrCompute<Bytes>(key, compute);
        });
    for (std::thread &t : waiters)
        t.join();
    owner.join();

    EXPECT_EQ(computes.load(), 1)
        << "identical concurrent requests must share one computation";
    for (const auto &r : results)
        EXPECT_EQ(r, (Bytes{7, 7}));
    EXPECT_EQ(moved("cache.inserts"), 1);
    EXPECT_EQ(moved("cache.dedup_waits"), int64_t(kWaiters));
}

TEST(StoreDedup, AWaiterPastItsDeadlineNeverDisturbsTheOwner)
{
    const CacheDelta moved;
    cache::Store store;
    std::atomic<int> computes{0};
    std::atomic<bool> waiter_unwound{false};
    const auto key = keyOf(9);

    std::thread owner([&] {
        const auto r = store.getOrCompute<Bytes>(key, [&] {
            ++computes;
            // Keep computing until the waiter has unwound (bounded,
            // so a waiter that ignores its deadline still fails the
            // test below rather than hanging it): the waiter's stop
            // is its own business.
            for (int spin = 0; !waiter_unwound.load() && spin < 2000;
                 ++spin)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            return Bytes{5};
        });
        EXPECT_EQ(*r, (Bytes{5}));
    });

    while (computes.load() == 0)
        std::this_thread::yield();
    bool waiter_stopped = false;
    try {
        store.getOrCompute<Bytes>(
            key,
            [&]() -> Bytes {
                ADD_FAILURE() << "the waiter must never compute";
                return {};
            },
            exec::deadlineAfter(std::chrono::milliseconds(20)));
    } catch (const exec::CancelledError &) {
        waiter_stopped = true;
    }
    waiter_unwound = true;
    owner.join();

    EXPECT_TRUE(waiter_stopped);
    EXPECT_EQ(moved("cache.dedup_waits"), 1);
    EXPECT_EQ(computes.load(), 1);
    const auto blob = store.get<Bytes>(key);
    EXPECT_TRUE(blob) << "the owner's result must land in the cache";
    EXPECT_EQ(blob ? *blob : Bytes{}, (Bytes{5}));
}

TEST(StoreDedup, OwnerFailurePromotesAWaiter)
{
    const CacheDelta moved;
    cache::Store store;
    std::atomic<int> attempts{0};
    const auto key = keyOf(13);

    std::thread owner([&] {
        EXPECT_THROW(
            store.getOrCompute<Bytes>(
                key,
                [&]() -> Bytes {
                    ++attempts;
                    for (int spin = 0; moved("cache.dedup_waits") < 1 &&
                                       spin < 2000;
                         ++spin)
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                    throw std::runtime_error("owner boom");
                }),
            std::runtime_error);
    });

    while (attempts.load() == 0)
        std::this_thread::yield();
    // The waiter outlives the owner's failure: it wakes, finds no
    // cached value, takes ownership, and computes.
    const auto r = store.getOrCompute<Bytes>(key, [&] {
        ++attempts;
        return Bytes{8, 8};
    });
    owner.join();

    EXPECT_EQ(*r, (Bytes{8, 8}));
    EXPECT_EQ(attempts.load(), 2);
    const auto blob = store.get<Bytes>(key);
    EXPECT_TRUE(blob);
    EXPECT_EQ(blob ? *blob : Bytes{}, (Bytes{8, 8}));
}

// --------------------------------------------------------------------
// Cached front ends
// --------------------------------------------------------------------

void
expectSameYield(const yield::YieldResult &a, const yield::YieldResult &b)
{
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.yield, b.yield); // exact: same division of same ints
    EXPECT_EQ(a.condition_trials, b.condition_trials);
}

TEST(CachedYield, BitIdenticalToUncachedAndZeroRecompute)
{
    freshGlobalCache();
    const CacheDelta moved;
    auto arch = arch::ibm16Q(false);
    yield::YieldOptions options;
    options.trials = 3000;

    const yield::YieldResult direct = yield::estimateYield(arch, options);
    const yield::YieldResult miss =
        cache::cachedEstimateYield(arch, options);
    expectSameYield(direct, miss);

    EXPECT_EQ(moved("cache.hits"), 0);
    EXPECT_EQ(moved("cache.misses"), 1);
    EXPECT_EQ(moved("cache.inserts"), 1);

    const yield::YieldResult hit =
        cache::cachedEstimateYield(arch, options);
    expectSameYield(direct, hit);

    EXPECT_EQ(moved("cache.hits"), 1);
    EXPECT_EQ(moved("cache.misses"), 1) << "warm lookup must not recompute";
    EXPECT_EQ(moved("cache.inserts"), 1);
}

TEST(CachedYield, ConditionStatsVariantIsItsOwnKey)
{
    freshGlobalCache();
    const CacheDelta moved;
    auto arch = arch::ibm16Q(true);
    yield::YieldOptions options;
    options.trials = 1500;

    yield::YieldOptions stats_options = options;
    stats_options.collect_condition_stats = true;

    const yield::YieldResult plain =
        cache::cachedEstimateYield(arch, options);
    const yield::YieldResult stats =
        cache::cachedEstimateYield(arch, stats_options);
    EXPECT_EQ(moved("cache.misses"), 2);

    // Same stream, same successes; only the tallies differ.
    EXPECT_EQ(plain.successes, stats.successes);
    std::size_t tallied = 0;
    for (std::size_t c : stats.condition_trials)
        tallied += c;
    EXPECT_GT(tallied, 0u) << "a bused 16q chip collides at 30 MHz";

    // Both variants replay from the cache, tallies included.
    expectSameYield(stats, cache::cachedEstimateYield(arch, stats_options));
    expectSameYield(plain, cache::cachedEstimateYield(arch, options));
    EXPECT_EQ(moved("cache.misses"), 2);
}

TEST(CachedYield, DisabledCachePassesThrough)
{
    cache::CacheOptions off;
    off.enabled = false;
    cache::configureGlobalCache(off);
    const CacheDelta moved;

    auto arch = arch::ibm16Q(false);
    yield::YieldOptions options;
    options.trials = 500;
    expectSameYield(yield::estimateYield(arch, options),
                    cache::cachedEstimateYield(arch, options));
    EXPECT_EQ(moved("cache.hits") + moved("cache.misses") +
                  moved("cache.inserts"),
              0);
    freshGlobalCache();
}

TEST(CachedFreqAlloc, BitIdenticalAndCached)
{
    freshGlobalCache();
    const CacheDelta moved;
    auto arch = arch::ibm16Q(true);
    design::FreqAllocOptions options;
    options.local_trials = 150;
    options.refine_sweeps = 1;

    const design::FreqAllocResult direct =
        design::allocateFrequencies(arch, options);
    const design::FreqAllocResult miss =
        cache::cachedAllocateFrequencies(arch, options);
    const design::FreqAllocResult hit =
        cache::cachedAllocateFrequencies(arch, options);

    EXPECT_EQ(direct.freqs, miss.freqs);
    EXPECT_EQ(direct.order, miss.order);
    EXPECT_EQ(direct.local_scores, miss.local_scores);
    EXPECT_EQ(direct.freqs, hit.freqs);
    EXPECT_EQ(direct.order, hit.order);
    EXPECT_EQ(direct.local_scores, hit.local_scores);

    EXPECT_EQ(moved("cache.hits"), 1);
    EXPECT_EQ(moved("cache.misses"), 1);
    // The entry is charged the allocation's vectors, not just its
    // fixed-size part.
    EXPECT_GE(moved("cache.bytes"),
              int64_t(direct.freqs.size() * sizeof(double) +
                      direct.order.size() * sizeof(arch::PhysQubit) +
                      direct.local_scores.size() * sizeof(double)));

    // The allocator ignores pre-assigned frequencies, so a re-tuned
    // copy of the same topology must share the key.
    auto retuned = arch;
    std::vector<double> flat(retuned.numQubits(), 5.2);
    retuned.setAllFrequencies(flat);
    EXPECT_EQ(cache::freqAllocKey(arch, options),
              cache::freqAllocKey(retuned, options));
}

// --------------------------------------------------------------------
// Experiment harness integration
// --------------------------------------------------------------------

eval::ExperimentOptions
smallExperiment()
{
    eval::ExperimentOptions options;
    options.yield_options.trials = 300;
    options.max_yield_trials = 3000;
    options.freq_options.local_trials = 120;
    options.freq_options.refine_sweeps = 1;
    options.random_bus_samples = 1;
    return options;
}

void
expectSamePoints(const eval::BenchmarkExperiment &a,
                 const eval::BenchmarkExperiment &b)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const eval::DataPoint &p = a.points[i];
        const eval::DataPoint &q = b.points[i];
        EXPECT_EQ(p.config, q.config);
        EXPECT_EQ(p.arch_name, q.arch_name);
        EXPECT_EQ(p.num_qubits, q.num_qubits);
        EXPECT_EQ(p.num_edges, q.num_edges);
        EXPECT_EQ(p.num_buses, q.num_buses);
        EXPECT_EQ(p.gate_count, q.gate_count);
        EXPECT_EQ(p.swaps, q.swaps);
        EXPECT_EQ(p.yield, q.yield) << "point " << i;
        EXPECT_EQ(p.yield_trials, q.yield_trials);
        EXPECT_EQ(p.norm_recip_gates, q.norm_recip_gates);
    }
}

TEST(CachedExperiment, WarmRunIsBitIdenticalWithZeroYieldWork)
{
    const auto &info = benchmarks::getBenchmark("sym6_145");

    // Reference run with the cache disabled entirely.
    cache::CacheOptions off;
    off.enabled = false;
    cache::configureGlobalCache(off);
    const eval::BenchmarkExperiment uncached =
        eval::runBenchmark(info, smallExperiment());

    freshGlobalCache();
    const eval::BenchmarkExperiment cold =
        eval::runBenchmark(info, smallExperiment());
    expectSamePoints(uncached, cold);
    EXPECT_GT(obs::valueOf(cold.metrics, "cache.misses"), 0.0);

    const eval::BenchmarkExperiment warm =
        eval::runBenchmark(info, smallExperiment());
    expectSamePoints(uncached, warm);
    EXPECT_EQ(obs::valueOf(warm.metrics, "cache.misses"), 0.0)
        << "a warm sweep performs zero estimateYield trial work";
    EXPECT_GT(obs::valueOf(warm.metrics, "cache.hits"), 0.0);
    EXPECT_EQ(obs::valueOf(warm.metrics, "cache.inserts"), 0.0);
    freshGlobalCache();
}

TEST(CachedExperiment, AdaptiveEscalationStepsAreCached)
{
    // The dense bused 20q baseline yields ~0 at 200 trials, forcing
    // escalation; every escalation step must be served from the
    // cache on the second measurement.
    freshGlobalCache();
    const CacheDelta moved;
    auto arch = arch::ibm20Q(true);
    auto circuit =
        benchmarks::getBenchmark("UCCSD_ansatz_8").generate();

    eval::ExperimentOptions options = smallExperiment();
    options.yield_options.trials = 200;
    options.max_yield_trials = 20000;

    const eval::DataPoint first =
        eval::measure("probe", arch, circuit, options);
    const int64_t first_misses = moved("cache.misses");
    const int64_t first_hits = moved("cache.hits");
    EXPECT_GT(first_misses, 1) << "escalation ran and cached";

    const eval::DataPoint second =
        eval::measure("probe", arch, circuit, options);
    EXPECT_EQ(second.yield, first.yield);
    EXPECT_EQ(second.yield_trials, first.yield_trials);
    EXPECT_EQ(moved("cache.misses"), first_misses);
    EXPECT_EQ(moved("cache.hits") - first_hits, first_misses);
    freshGlobalCache();
}

TEST(CachedExperiment, EscalationDrawsEachTrialOnce)
{
    // 200 -> 2,000 -> 20,000 trials on a chip that yields 0 at each
    // step: each step resumes where the one before it stopped, so the
    // cold measurement draws 20,000 trials, not 22,200, whether the
    // steps go through the store or straight to the estimator.
    auto arch = arch::ibm20Q(true);
    auto circuit =
        benchmarks::getBenchmark("UCCSD_ansatz_8").generate();
    eval::ExperimentOptions options = smallExperiment();
    options.yield_options.trials = 200;
    options.max_yield_trials = 20000;

    for (bool enabled : {true, false}) {
        SCOPED_TRACE(enabled ? "cache on" : "cache off");
        cache::CacheOptions store;
        store.enabled = enabled;
        cache::configureGlobalCache(store);
        const CacheDelta moved;
        const eval::DataPoint point =
            eval::measure("probe", arch, circuit, options);
        EXPECT_EQ(point.yield_trials, 20000u);
        EXPECT_EQ(moved("yield.escalations"), 2);
        EXPECT_EQ(moved("yield.trials"), int64_t(point.yield_trials));
    }
    freshGlobalCache();
}

} // namespace
