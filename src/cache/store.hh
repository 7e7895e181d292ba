/**
 * @file
 * Sharded in-memory result store with an LRU byte budget and
 * in-flight deduplication of identical computations.
 *
 * Concurrency: keys are distributed over independently locked shards
 * (mutex per shard), so concurrent lookups from the qpad::runtime
 * thread pool contend only when they hash to the same shard.
 *
 * Statistics live in the obs registry only: the cache.{hits, misses,
 * inserts, evictions, dedup_waits} counters and the cache.{bytes,
 * entries} residency gauges, summed over every Store instance (tests
 * construct locals; production uses the one global store).
 */

#ifndef QPAD_CACHE_STORE_HH
#define QPAD_CACHE_STORE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cache/fingerprint.hh"
#include "exec/cancel.hh"

namespace qpad::cache
{

/** Store configuration. */
struct CacheOptions
{
    /** Master switch consulted by the cached front ends. */
    bool enabled = true;
    /** In-memory LRU budget across all shards (bytes). */
    std::size_t max_bytes = 64ull << 20;
    /** Lock shards (rounded up to at least 1). */
    std::size_t shards = 16;
};

/** Content-addressed blob store (thread-safe). */
class Store
{
  public:
    explicit Store(const CacheOptions &options = {});
    ~Store();

    Store(const Store &) = delete;
    Store &operator=(const Store &) = delete;

    const CacheOptions &options() const { return options_; }

    /**
     * Look up `key`; on a hit copies the payload into `value`,
     * refreshes its LRU position, and returns true.
     */
    bool get(const Fingerprint &key, std::vector<uint8_t> &value);

    /**
     * Insert (or overwrite) `key`, then evict least-recently-used
     * entries of the same shard while over budget.
     */
    void put(const Fingerprint &key, const std::vector<uint8_t> &value);

    /**
     * Look up `key`; on a miss run `compute` and insert its result.
     * Concurrent callers with the same key deduplicate: exactly one
     * (the owner) runs `compute` while the others block until it
     * finishes, then read the inserted value — the owner's path is
     * byte-identical (and counter-identical: one miss, one insert)
     * to get()+put(), so uncontended callers cannot tell the
     * difference.
     *
     * `cancel` applies to the CALLER only. A waiter whose token fires
     * raises exec::CancelledError without disturbing the owner's
     * computation (other waiters and the owner proceed normally);
     * the owner runs `compute` under its own context, if any. If the
     * owner's compute throws, the owner rethrows and one waiter is
     * promoted to owner and retries.
     *
     * Returns the cached or freshly computed payload.
     */
    std::vector<uint8_t>
    getOrCompute(const Fingerprint &key,
                 const std::function<std::vector<uint8_t>()> &compute,
                 const exec::CancelToken *cancel = nullptr);

  private:
    struct Entry
    {
        Fingerprint key;
        std::vector<uint8_t> value;
    };
    using Lru = std::list<Entry>;

    struct Shard
    {
        std::mutex mutex;
        Lru lru; ///< front = most recently used
        std::unordered_map<Fingerprint, Lru::iterator, FingerprintHash>
            map;
        std::size_t bytes = 0;
    };

    /** One in-flight getOrCompute computation; waiters block on cv
     * until the owner sets done (after put() and map erase). */
    struct InFlight
    {
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
    };

    Shard &shardFor(const Fingerprint &key);

    CacheOptions options_;
    std::vector<Shard> shards_;
    std::size_t shard_budget_;

    /** Guards inflight_ (never held while computing or waiting). */
    std::mutex inflight_mutex_;
    std::unordered_map<Fingerprint, std::shared_ptr<InFlight>,
                       FingerprintHash>
        inflight_;
};

} // namespace qpad::cache

#endif // QPAD_CACHE_STORE_HH
