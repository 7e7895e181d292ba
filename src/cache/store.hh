/**
 * @file
 * In-memory result store with an LRU byte budget and in-flight
 * deduplication of identical computations.
 *
 * Each entry holds one value by type: a shared pointer to it, its
 * std::type_info, and the bytes it charges to the budget. A read
 * names the type it expects, and an entry of any other type is a
 * miss, so no value is ever read as the wrong type.
 *
 * Concurrency: one mutex guards the LRU list, the key map, the byte
 * count and the set of keys being computed, and one condition
 * variable wakes the callers waiting on those keys. A lookup and the
 * claim that follows its miss happen under one lock, as do an
 * owner's insert and its release of the key, so a key is computed at
 * most once at a time. No lock is held while a value is computed.
 * Stored values are immutable and shared by every reader.
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
#include <unordered_set>
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
    /** In-memory LRU budget (bytes), charged by every entry. */
    std::size_t max_bytes = 64ull << 20;
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
        std::lock_guard<std::mutex> lock(mutex_);
        return std::static_pointer_cast<const T>(find(key, typeid(T)));
    }

    /**
     * Insert (or overwrite) `key` with `value`, charged sizeof(T)
     * plus heapBytes(value), then evict least-recently-used entries
     * while over budget.
     */
    template <class T>
    void
    put(const Fingerprint &key, T value)
    {
        Entry entry = makeEntry(key, std::move(value));
        std::lock_guard<std::mutex> lock(mutex_);
        insert(std::move(entry));
    }

    /**
     * get<T>(key); on a miss run `compute` and put its result.
     * Concurrent callers with the same key share one computation:
     * the first (the owner) runs `compute` while the others wait for
     * it and then hit. The owner's counter trace (one miss, one
     * insert) is that of get() + put().
     *
     * `deadline` applies to the caller only: a waiter sleeps until
     * the owner releases the key or the deadline passes, and then
     * raises exec::CancelledError without disturbing the owner, which
     * runs `compute` under its own deadline, if any. If `compute`
     * throws, the owner rethrows and one waiter claims the key and
     * computes.
     */
    template <class T, class Compute>
    std::shared_ptr<const T>
    getOrCompute(const Fingerprint &key, const Compute &compute,
                 exec::TimePoint deadline = exec::kNoDeadline)
    {
        return std::static_pointer_cast<const T>(findOrCompute(
            key, typeid(T), [&] { return makeEntry<T>(key, compute()); },
            deadline));
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

    /** The lookup and the insertion; the caller holds mutex_. */
    std::shared_ptr<const void> find(const Fingerprint &key,
                                     const std::type_info &type);
    void insert(Entry entry);
    std::shared_ptr<const void>
    findOrCompute(const Fingerprint &key, const std::type_info &type,
                  const std::function<Entry()> &compute,
                  exec::TimePoint deadline);

    CacheOptions options_;

    /** Guards every member below; never held while computing. */
    std::mutex mutex_;
    /** Notified when a key leaves inflight_. */
    std::condition_variable released_;
    Lru lru_; ///< front = most recently used
    std::unordered_map<Fingerprint, Lru::iterator, FingerprintHash> map_;
    std::size_t bytes_ = 0;
    /** Keys whose getOrCompute owner is computing. */
    std::unordered_set<Fingerprint, FingerprintHash> inflight_;
};

} // namespace qpad::cache

#endif // QPAD_CACHE_STORE_HH
