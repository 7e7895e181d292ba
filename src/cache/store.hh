/**
 * @file
 * Sharded in-memory result store with an LRU byte budget and
 * in-flight deduplication of identical computations.
 *
 * Each entry holds one value by type: a shared pointer to it, its
 * std::type_info, and the bytes it charges to the budget. A read
 * names the type it expects, and an entry of any other type is a
 * miss, so no value is ever read as the wrong type.
 *
 * Concurrency: keys are distributed over independently locked shards
 * (mutex per shard), so concurrent lookups from the qpad::runtime
 * thread pool contend only when they hash to the same shard. Stored
 * values are immutable and shared by every reader.
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
#include <typeinfo>
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

/**
 * Heap bytes a stored value owns beyond sizeof(T), charged to the
 * budget with it. A type that owns vectors overloads this in its own
 * namespace (found by argument-dependent lookup).
 */
template <class T>
std::size_t
heapBytes(const T &)
{
    return 0;
}

template <class T>
std::size_t
heapBytes(const std::vector<T> &v)
{
    return v.capacity() * sizeof(T);
}

/** Content-addressed store of typed values (thread-safe). */
class Store
{
  public:
    explicit Store(const CacheOptions &options = {});
    ~Store();

    Store(const Store &) = delete;
    Store &operator=(const Store &) = delete;

    const CacheOptions &options() const { return options_; }

    /**
     * Look up `key` as a T. A hit (an entry under `key` that holds a
     * T) refreshes its LRU position and returns the stored value
     * itself. No entry, or an entry of another type, is a miss and
     * returns null.
     */
    template <class T>
    std::shared_ptr<const T>
    get(const Fingerprint &key)
    {
        return std::static_pointer_cast<const T>(find(key, typeid(T)));
    }

    /**
     * Insert (or overwrite) `key` with `value`, charged sizeof(T)
     * plus heapBytes(value), then evict least-recently-used entries
     * of the same shard while over budget.
     */
    template <class T>
    void
    put(const Fingerprint &key, T value)
    {
        insert(makeEntry(key, std::move(value)));
    }

    /**
     * get<T>(key); on a miss run `compute` and put its result.
     * Concurrent callers with the same key deduplicate: exactly one
     * (the owner) runs `compute` while the others block until it
     * finishes, then read the inserted value — the owner's path is
     * counter-identical (one miss, one insert) to get()+put(), so
     * uncontended callers cannot tell the difference.
     *
     * `cancel` applies to the CALLER only. A waiter whose token fires
     * raises exec::CancelledError without disturbing the owner's
     * computation (other waiters and the owner proceed normally);
     * the owner runs `compute` under its own context, if any. If the
     * owner's compute throws, the owner rethrows and one waiter is
     * promoted to owner and retries.
     */
    template <class T, class Compute>
    std::shared_ptr<const T>
    getOrCompute(const Fingerprint &key, const Compute &compute,
                 const exec::CancelToken *cancel = nullptr)
    {
        return std::static_pointer_cast<const T>(findOrCompute(
            key, typeid(T), [&] { return makeEntry<T>(key, compute()); },
            cancel));
    }

  private:
    /** One stored value: its key, the value, its type, and the bytes
     * it charges to the budget. */
    struct Entry
    {
        Fingerprint key;
        std::shared_ptr<const void> value;
        const std::type_info *type = nullptr;
        std::size_t bytes = 0;
    };
    using Lru = std::list<Entry>;

    template <class T>
    static Entry
    makeEntry(const Fingerprint &key, T value)
    {
        const std::size_t bytes = sizeof(T) + heapBytes(value);
        return {key, std::make_shared<const T>(std::move(value)),
                &typeid(T), bytes};
    }

    std::shared_ptr<const void> find(const Fingerprint &key,
                                     const std::type_info &type);
    void insert(Entry entry);
    std::shared_ptr<const void>
    findOrCompute(const Fingerprint &key, const std::type_info &type,
                  const std::function<Entry()> &compute,
                  const exec::CancelToken *cancel);

    struct Shard
    {
        std::mutex mutex;
        Lru lru; ///< front = most recently used
        std::unordered_map<Fingerprint, Lru::iterator, FingerprintHash>
            map;
        std::size_t bytes = 0;
    };

    /** One in-flight getOrCompute computation; waiters block on cv
     * until the owner sets done (after insert() and map erase). */
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
