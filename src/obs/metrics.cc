#include "obs/metrics.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/logging.hh"
#include "obs/log.hh"

namespace qpad::obs
{

namespace detail
{

void
addDouble(std::atomic<double> &target, double v)
{
    double cur = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed))
        ;
}

void
maxDouble(std::atomic<double> &target, double v)
{
    double cur = target.load(std::memory_order_relaxed);
    while (cur < v &&
           !target.compare_exchange_weak(cur, v,
                                         std::memory_order_relaxed))
        ;
}

} // namespace detail

// ---------------------------------------------------------------------
// Counter / Histogram
// ---------------------------------------------------------------------

uint64_t
Counter::value() const
{
    uint64_t total = 0;
    for (const detail::Cell &cell : cells_)
        total += cell.value.load(std::memory_order_relaxed);
    return total;
}

std::vector<double>
Histogram::defaultLatencyBounds()
{
    return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds))
{
    qpad_assert(std::is_sorted(bounds_.begin(), bounds_.end()),
                "histogram bounds must be ascending");
    stripes_ = std::vector<Stripe>(detail::kStripes);
    for (Stripe &s : stripes_)
        s.buckets =
            std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
}

void
Histogram::observe(double v)
{
    Stripe &s = stripes_[detail::threadStripe()];
    const std::size_t b =
        std::lower_bound(bounds_.begin(), bounds_.end(), v) -
        bounds_.begin();
    s.buckets[b].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    detail::addDouble(s.sum, v);
    detail::maxDouble(s.max, v);
}

uint64_t
Histogram::count() const
{
    uint64_t total = 0;
    for (const Stripe &s : stripes_)
        total += s.count.load(std::memory_order_relaxed);
    return total;
}

double
Histogram::sum() const
{
    double total = 0.0;
    for (const Stripe &s : stripes_)
        total += s.sum.load(std::memory_order_relaxed);
    return total;
}

double
Histogram::max() const
{
    double m = 0.0;
    for (const Stripe &s : stripes_)
        m = std::max(m, s.max.load(std::memory_order_relaxed));
    return m;
}

std::vector<uint64_t>
Histogram::bucketCounts() const
{
    std::vector<uint64_t> counts(bounds_.size() + 1, 0);
    for (const Stripe &s : stripes_)
        for (std::size_t b = 0; b < counts.size(); ++b)
            counts[b] += s.buckets[b].load(std::memory_order_relaxed);
    return counts;
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

namespace
{

class Registry
{
  public:
    /** Leaked on purpose: handles must stay valid through static
     * destruction (the global cache store publishes from its
     * destructor). Reachable via this pointer, so LeakSanitizer does
     * not report it. */
    static Registry &
    instance()
    {
        static Registry *registry = new Registry;
        return *registry;
    }

    Counter &
    counter(std::string_view name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Entry &e = entryFor(name, Sample::Kind::Counter);
        if (!e.counter)
            e.counter = std::make_unique<Counter>();
        return *e.counter;
    }

    Gauge &
    gauge(std::string_view name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Entry &e = entryFor(name, Sample::Kind::Gauge);
        if (!e.gauge)
            e.gauge = std::make_unique<Gauge>();
        return *e.gauge;
    }

    Histogram &
    histogram(std::string_view name, std::vector<double> bounds)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Entry &e = entryFor(name, Sample::Kind::Histogram);
        if (!e.histogram)
            e.histogram =
                std::make_unique<Histogram>(std::move(bounds));
        return *e.histogram;
    }

    Snapshot
    snapshot()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Snapshot snap;
        snap.reserve(entries_.size());
        // std::map iterates in key order, so the snapshot is
        // name-sorted by construction — deterministic regardless of
        // registration or thread interleaving.
        for (const auto &[name, e] : entries_) {
            Sample s;
            s.name = name;
            s.kind = e.kind;
            switch (e.kind) {
              case Sample::Kind::Counter:
                s.value = double(e.counter->value());
                break;
              case Sample::Kind::Gauge:
                s.value = double(e.gauge->value());
                break;
              case Sample::Kind::Histogram:
                s.count = e.histogram->count();
                s.sum = e.histogram->sum();
                s.max = e.histogram->max();
                s.bounds = e.histogram->bounds();
                s.buckets = e.histogram->bucketCounts();
                break;
            }
            snap.push_back(std::move(s));
        }
        return snap;
    }

  private:
    struct Entry
    {
        Sample::Kind kind = Sample::Kind::Counter;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry &
    entryFor(std::string_view name, Sample::Kind kind)
    {
        auto it = entries_.find(name);
        if (it == entries_.end())
            it = entries_
                     .emplace(std::string(name), Entry{kind, {}, {}, {}})
                     .first;
        qpad_assert(it->second.kind == kind, "metric '", name,
                    "' already registered as a different kind");
        return it->second;
    }

    std::mutex mutex_;
    std::map<std::string, Entry, std::less<>> entries_;
};

const char *
kindName(Sample::Kind kind)
{
    switch (kind) {
      case Sample::Kind::Counter: return "counter";
      case Sample::Kind::Gauge: return "gauge";
      case Sample::Kind::Histogram: return "histogram";
    }
    return "?";
}

/** One sample as a JSON object: the element writeJson emits. */
void
writeSampleJson(std::ostream &out, const Sample &s)
{
    // Metric names are code-controlled identifiers
    // ([a-z0-9._-]), so no JSON string escaping is needed.
    out << "{\"name\":\"" << s.name << "\",\"kind\":\""
        << kindName(s.kind) << "\"";
    std::ostringstream num;
    num << std::setprecision(17);
    switch (s.kind) {
      case Sample::Kind::Counter:
        out << ",\"value\":" << uint64_t(s.value);
        break;
      case Sample::Kind::Gauge:
        out << ",\"value\":" << int64_t(s.value);
        break;
      case Sample::Kind::Histogram:
        num << ",\"count\":" << s.count << ",\"sum\":" << s.sum
            << ",\"max\":" << s.max
            << ",\"p50\":" << samplePercentile(s, 0.50)
            << ",\"p95\":" << samplePercentile(s, 0.95)
            << ",\"p99\":" << samplePercentile(s, 0.99)
            << ",\"bounds\":[";
        for (std::size_t b = 0; b < s.bounds.size(); ++b)
            num << (b ? "," : "") << s.bounds[b];
        num << "],\"buckets\":[";
        for (std::size_t b = 0; b < s.buckets.size(); ++b)
            num << (b ? "," : "") << s.buckets[b];
        num << "]";
        out << num.str();
        break;
    }
    out << "}";
}

/** QPAD_METRICS destination captured at startup ("" = disabled). */
std::string &
metricsDestination()
{
    static std::string destination;
    return destination;
}

void
dumpMetricsAtExit()
{
    const std::string &dest = metricsDestination();
    if (dest.empty())
        return;
    const Snapshot snap = snapshot();
    if (dest == "stderr") {
        // qpad-lint: allow(rawlog) "sanctioned exporter: the user
        // chose stderr as the QPAD_METRICS destination"
        std::cerr << "qpad metrics:\n";
        // qpad-lint: allow(rawlog) "sanctioned exporter, same
        // stderr destination as the header line above"
        writeTable(std::cerr, snap, {}, "  ");
        return;
    }
    std::ofstream out(dest, std::ios::trunc);
    if (!out) {
        logWarn("obs.metrics_write_failed", {{"path", dest}});
        return;
    }
    writeJson(out, snap);
}

/** Reads QPAD_METRICS once at static init (env is set before main)
 * and schedules the exit dump. */
struct MetricsEnvInit
{
    MetricsEnvInit()
    {
        const char *dest = std::getenv("QPAD_METRICS");
        if (!dest || !*dest)
            return;
        metricsDestination() = dest;
        std::atexit(dumpMetricsAtExit);
    }
} g_metrics_env_init;

} // namespace

Counter &
counter(std::string_view name)
{
    return Registry::instance().counter(name);
}

Gauge &
gauge(std::string_view name)
{
    return Registry::instance().gauge(name);
}

Histogram &
histogram(std::string_view name, std::vector<double> bounds)
{
    return Registry::instance().histogram(name, std::move(bounds));
}

Snapshot
snapshot()
{
    return Registry::instance().snapshot();
}

Snapshot
deltaSince(const Snapshot &before)
{
    Snapshot now = snapshot();
    for (Sample &s : now) {
        const Sample *prev = find(before, s.name);
        if (!prev || prev->kind != s.kind)
            continue;
        switch (s.kind) {
          case Sample::Kind::Counter:
            s.value -= prev->value;
            break;
          case Sample::Kind::Gauge:
            break; // levels do not delta
          case Sample::Kind::Histogram:
            s.count -= prev->count;
            s.sum -= prev->sum;
            // max stays absolute (a delta of a maximum is undefined)
            if (s.buckets.size() == prev->buckets.size())
                for (std::size_t b = 0; b < s.buckets.size(); ++b)
                    s.buckets[b] -= prev->buckets[b];
            break;
        }
    }
    return now;
}

double
samplePercentile(const Sample &s, double q)
{
    if (s.kind != Sample::Kind::Histogram || s.count == 0 ||
        s.buckets.empty())
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    uint64_t total = 0;
    for (uint64_t c : s.buckets)
        total += c;
    if (total == 0)
        return 0.0;
    const double target = q * double(total);
    double cumulative = 0.0;
    for (std::size_t b = 0; b < s.buckets.size(); ++b) {
        const double in_bucket = double(s.buckets[b]);
        if (in_bucket == 0.0)
            continue;
        if (cumulative + in_bucket >= target) {
            // Bucket b spans (lo, hi]: lo is the previous bound (0
            // for the first), hi the bucket's own bound — the +inf
            // bucket tops out at the observed max.
            const double lo = b == 0 ? 0.0 : s.bounds[b - 1];
            const double hi = b < s.bounds.size()
                                  ? s.bounds[b]
                                  : std::max(s.max, lo);
            const double frac =
                std::clamp((target - cumulative) / in_bucket, 0.0, 1.0);
            return std::min(lo + frac * (hi - lo), s.max);
        }
        cumulative += in_bucket;
    }
    return s.max;
}

const Sample *
find(const Snapshot &snap, std::string_view name)
{
    // Snapshots are name-sorted, so binary search applies.
    auto it = std::lower_bound(
        snap.begin(), snap.end(), name,
        [](const Sample &s, std::string_view n) { return s.name < n; });
    if (it == snap.end() || it->name != name)
        return nullptr;
    return &*it;
}

double
valueOf(const Snapshot &snap, std::string_view name)
{
    const Sample *s = find(snap, name);
    if (!s)
        return 0.0;
    return s->kind == Sample::Kind::Histogram ? s->sum : s->value;
}

void
writeTable(std::ostream &out, const Snapshot &snap,
           std::string_view prefix, std::string_view indent)
{
    std::size_t width = 0;
    for (const Sample &s : snap)
        if (s.name.starts_with(prefix))
            width = std::max(width, s.name.size());
    for (const Sample &s : snap) {
        if (!s.name.starts_with(prefix))
            continue;
        out << indent << std::left << std::setw(int(width) + 2)
            << s.name << std::right;
        switch (s.kind) {
          case Sample::Kind::Counter:
            out << uint64_t(s.value);
            break;
          case Sample::Kind::Gauge:
            out << int64_t(s.value);
            break;
          case Sample::Kind::Histogram: {
            std::ostringstream hist;
            hist << "count=" << s.count << " sum=" << std::scientific
                 << std::setprecision(3) << s.sum << " max=" << s.max
                 << " p50=" << samplePercentile(s, 0.50)
                 << " p95=" << samplePercentile(s, 0.95)
                 << " p99=" << samplePercentile(s, 0.99);
            out << hist.str();
            break;
          }
        }
        out << "\n";
    }
}

void
writeJson(std::ostream &out, const Snapshot &snap)
{
    out << "{\"metrics\":[";
    bool first = true;
    for (const Sample &s : snap) {
        out << (first ? "\n" : ",\n");
        first = false;
        writeSampleJson(out, s);
    }
    out << "\n]}\n";
}

} // namespace qpad::obs
