#include "cache/store.hh"

#include <algorithm>
#include <chrono>
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

Store::Store(const CacheOptions &options)
    : options_(options),
      shards_(std::max<std::size_t>(options.shards, 1)),
      shard_budget_(std::max<std::size_t>(
          options.max_bytes / std::max<std::size_t>(options.shards, 1),
          1))
{}

Store::~Store()
{
    // Return this store's remaining residency so the process-wide
    // gauges track only live entries.
    std::int64_t bytes = 0;
    std::int64_t entries = 0;
    for (Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        bytes += std::int64_t(shard.bytes);
        entries += std::int64_t(shard.lru.size());
    }
    bytesMetric().add(-bytes);
    entriesMetric().add(-entries);
}

Store::Shard &
Store::shardFor(const Fingerprint &key)
{
    return shards_[key.hi % shards_.size()];
}

std::shared_ptr<const void>
Store::find(const Fingerprint &key, const std::type_info &type)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    // An entry of another type (a key collision across domains) is a
    // miss; the caller's insert() then overwrites it.
    if (it == shard.map.end() || *it->second->type != type) {
        missMetric().add();
        return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hitMetric().add();
    return it->second->value;
}

void
Store::insert(Entry entry)
{
    entry.bytes += kEntryOverhead;
    Shard &shard = shardFor(entry.key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Gauge movement is accumulated locally and applied once: fewer
    // atomic RMWs, and the gauges see one consistent step per call.
    std::int64_t byte_delta = std::int64_t(entry.bytes);
    std::int64_t entry_delta = 0;
    shard.bytes += entry.bytes;
    auto it = shard.map.find(entry.key);
    if (it != shard.map.end()) {
        byte_delta -= std::int64_t(it->second->bytes);
        shard.bytes -= it->second->bytes;
        *it->second = std::move(entry);
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
        shard.lru.push_front(std::move(entry));
        shard.map.emplace(shard.lru.front().key, shard.lru.begin());
        entry_delta = 1;
    }
    // Evict from the cold end while over budget; the entry just
    // touched is never evicted, so even an over-budget value is
    // served back at least until the next insertion.
    uint64_t evicted = 0;
    while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
        const Entry &victim = shard.lru.back();
        byte_delta -= std::int64_t(victim.bytes);
        entry_delta -= 1;
        shard.bytes -= victim.bytes;
        shard.map.erase(victim.key);
        shard.lru.pop_back();
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
                     const exec::CancelToken *cancel)
{
    for (;;) {
        if (std::shared_ptr<const void> value = find(key, type))
            return value;

        // Miss: claim ownership of the key's computation, or join an
        // existing one. The map lock covers only the claim — never
        // the compute or the wait.
        std::shared_ptr<InFlight> flight;
        bool owner = false;
        {
            std::lock_guard<std::mutex> lock(inflight_mutex_);
            auto it = inflight_.find(key);
            if (it == inflight_.end()) {
                flight = std::make_shared<InFlight>();
                inflight_.emplace(key, flight);
                owner = true;
            } else {
                flight = it->second;
            }
        }

        if (owner) {
            // The owner's path is find() + compute + insert():
            // exactly the counter trace of the classic read-through
            // idiom, so uncontended callers see identical stats.
            std::shared_ptr<const void> value;
            std::exception_ptr error;
            try {
                Entry entry = compute();
                value = entry.value;
                insert(std::move(entry));
            } catch (...) {
                error = std::current_exception();
            }
            // Erase BEFORE signalling done: on success a late
            // arrival now hits in find(); on failure it starts a
            // fresh computation instead of joining a dead one.
            {
                std::lock_guard<std::mutex> lock(inflight_mutex_);
                inflight_.erase(key);
            }
            {
                std::lock_guard<std::mutex> lock(flight->mutex);
                flight->done = true;
            }
            flight->cv.notify_all();
            if (error)
                std::rethrow_exception(error);
            return value;
        }

        // Waiter: block until the owner finishes, polling the
        // caller's OWN token — a cancelled waiter leaves without
        // touching the owner or the other waiters. On wakeup the
        // outer loop re-runs find(): a successful owner turns it
        // into a hit, a failed (or evicted) one promotes some waiter
        // to owner on the next claim.
        dedupMetric().add();
        {
            std::unique_lock<std::mutex> lock(flight->mutex);
            while (!flight->done) {
                exec::throwIfStopped(cancel);
                flight->cv.wait_for(lock,
                                    std::chrono::milliseconds(10));
            }
        }
    }
}

} // namespace qpad::cache
