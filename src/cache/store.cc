#include "cache/store.hh"

#include <cstdint>

#include "obs/metrics.hh"

namespace qpad::cache
{

namespace
{

// Process-wide cache metrics, aggregated over every Store instance.
// The residency gauges move by delta on insert/evict and a
// destructor returns a store's remaining residency, so the levels
// count live entries only.
obs::Counter &
hitMetric()
{
    static obs::Counter &c = obs::counter("cache.hits");
    return c;
}

obs::Counter &
missMetric()
{
    static obs::Counter &c = obs::counter("cache.misses");
    return c;
}

obs::Counter &
insertMetric()
{
    static obs::Counter &c = obs::counter("cache.inserts");
    return c;
}

obs::Counter &
evictionMetric()
{
    static obs::Counter &c = obs::counter("cache.evictions");
    return c;
}

obs::Gauge &
bytesMetric()
{
    static obs::Gauge &g = obs::gauge("cache.bytes");
    return g;
}

obs::Gauge &
entriesMetric()
{
    static obs::Gauge &g = obs::gauge("cache.entries");
    return g;
}

obs::Counter &
dedupMetric()
{
    static obs::Counter &c = obs::counter("cache.dedup_waits");
    return c;
}

/**
 * Fixed per-entry accounting overhead (key, LRU and map nodes) added
 * to the value's own charge.
 */
constexpr std::size_t kEntryOverhead = 72;

} // namespace

Store::Store(const CacheOptions &options) : options_(options) {}

Store::~Store()
{
    // Return this store's remaining residency so the process-wide
    // gauges track only live entries.
    std::lock_guard<std::mutex> lock(mutex_);
    bytesMetric().add(-std::int64_t(bytes_));
    entriesMetric().add(-std::int64_t(lru_.size()));
}

std::shared_ptr<const void>
Store::find(const Fingerprint &key, const std::type_info &type)
{
    auto it = map_.find(key);
    // An entry of another type (a key collision across domains) is a
    // miss; the caller's insert() then overwrites it.
    if (it == map_.end() || *it->second->type != type) {
        missMetric().add();
        return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    hitMetric().add();
    return it->second->value;
}

void
Store::insert(Entry entry)
{
    entry.bytes += kEntryOverhead;
    // Gauge movement is accumulated locally and applied once: fewer
    // atomic RMWs, and the gauges see one consistent step per call.
    std::int64_t byte_delta = std::int64_t(entry.bytes);
    std::int64_t entry_delta = 0;
    bytes_ += entry.bytes;
    auto it = map_.find(entry.key);
    if (it != map_.end()) {
        byte_delta -= std::int64_t(it->second->bytes);
        bytes_ -= it->second->bytes;
        *it->second = std::move(entry);
        lru_.splice(lru_.begin(), lru_, it->second);
    } else {
        lru_.push_front(std::move(entry));
        map_.emplace(lru_.front().key, lru_.begin());
        entry_delta = 1;
    }
    // Evict from the cold end while over budget; the entry just
    // touched is never evicted, so even an over-budget value is
    // served back at least until the next insertion.
    uint64_t evicted = 0;
    while (bytes_ > options_.max_bytes && lru_.size() > 1) {
        const Entry &victim = lru_.back();
        byte_delta -= std::int64_t(victim.bytes);
        entry_delta -= 1;
        bytes_ -= victim.bytes;
        map_.erase(victim.key);
        lru_.pop_back();
        ++evicted;
    }
    if (evicted > 0)
        evictionMetric().add(evicted);
    bytesMetric().add(byte_delta);
    entriesMetric().add(entry_delta);
    insertMetric().add();
}

std::shared_ptr<const void>
Store::findOrCompute(const Fingerprint &key, const std::type_info &type,
                     const std::function<Entry()> &compute,
                     exec::TimePoint deadline)
{
    std::unique_lock<std::mutex> lock(mutex_);
    // The lookup and the claim that follows a miss share one critical
    // section, and so do the owner's insert and its release of the
    // key: a caller either hits, joins the computation in flight, or
    // becomes its only owner.
    for (;;) {
        if (std::shared_ptr<const void> value = find(key, type))
            return value;
        if (inflight_.insert(key).second)
            break;

        // Waiter: sleep until the owner releases the key or this
        // caller's own deadline passes. The next lookup hits if the
        // owner succeeded; if it failed (or the value was evicted),
        // one waiter claims the key.
        dedupMetric().add();
        const auto released = [&] { return inflight_.count(key) == 0; };
        if (deadline == exec::kNoDeadline)
            released_.wait(lock, released);
        else if (!released_.wait_until(lock, deadline, released))
            exec::raiseStopped();
    }

    // Owner: find() + compute + insert(), the counter trace of the
    // classic read-through idiom, so uncontended callers see
    // identical stats.
    lock.unlock();
    std::shared_ptr<const void> value;
    std::exception_ptr error;
    try {
        Entry entry = compute();
        value = entry.value;
        lock.lock();
        insert(std::move(entry));
    } catch (...) {
        error = std::current_exception();
    }
    if (!lock.owns_lock())
        lock.lock();
    inflight_.erase(key);
    lock.unlock();
    released_.notify_all();
    if (error)
        std::rethrow_exception(error);
    return value;
}

} // namespace qpad::cache
