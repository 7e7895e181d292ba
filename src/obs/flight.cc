#include "obs/flight.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <vector>

#include "exec/cancel.hh"
#include "obs/log.hh"
#include "obs/trace.hh"

namespace qpad::obs::flight
{

namespace
{

/**
 * One ring slot. Every field is an individual relaxed atomic so the
 * dumper (possibly a signal handler on another thread) can read a
 * slot mid-overwrite without a data race; `seq` carries the event's
 * global per-thread sequence number (index + 1; 0 = never written or
 * being rewritten) and is published with a release store after the
 * fields, so a reader that observes it also observes the fields.
 */
struct Slot
{
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<const char *> name{nullptr};
    std::atomic<uint8_t> phase{0};
    std::atomic<uint8_t> level{0};
};

/** A consistent copy of one published slot (false = empty slot or
 * torn by a concurrent overwrite). */
struct EventCopy
{
    uint64_t seq;
    uint64_t ts_ns;
    const char *name;
    char phase;
    uint8_t level;
    uint32_t tid;
};

struct Ring
{
    std::atomic<uint64_t> head{0}; // next sequence number to write
    uint32_t tid = 0;
    Slot slots[kRingEvents];
    // Trace-session drain state, guarded by the session mutex: the
    // first index not yet drained (earlier ones are in `spill` or
    // predate the session), and the session's span edges copied out
    // before the ring overwrote them.
    uint64_t drained = 0;
    std::vector<EventCopy> spill;
};

/** Upper bound on recording threads; later threads still run, their
 * events just stay out of dumps and trace files. */
constexpr std::size_t kMaxRings = 512;

std::atomic<Ring *> g_rings[kMaxRings];
std::atomic<uint32_t> g_ring_count{0};

/** Armed dump destination (fixed storage: read by the signal
 * handler, which cannot touch std::string). Empty = unarmed. */
char g_armed_path[4096] = {0};
std::atomic<bool> g_armed{false};
std::atomic<bool> g_dumped{false};

thread_local Ring *t_ring = nullptr;

/** Monotonic nanoseconds, from exec::now(). */
uint64_t
nowNs()
{
    return uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            exec::now().time_since_epoch())
            .count());
}

/**
 * The trace session (startTracing/stopTracing). Leaked, so the
 * at-exit stopTracing never meets a destroyed mutex. `active`, the
 * path and every ring's drain state are read and written under
 * `mutex` only; `g_tracing` is the recording hot path's hint that
 * the mutex is worth taking.
 */
struct Session
{
    std::mutex mutex;
    std::string path;
    bool active = false;
};

Session &
session()
{
    static Session *s = new Session;
    return *s;
}

std::atomic<bool> g_tracing{false};

/** First-use ring setup: the one allocation a thread ever pays.
 * Leaked deliberately — a crash handler must be able to walk rings
 * of threads that already exited. Reachable via g_rings, so
 * LeakSanitizer stays quiet. */
Ring *
initRing()
{
    Ring *ring = new Ring;
    const uint32_t i =
        g_ring_count.fetch_add(1, std::memory_order_relaxed);
    ring->tid = i;
    if (i < kMaxRings)
        g_rings[i].store(ring, std::memory_order_release);
    t_ring = ring;
    return ring;
}

/** Visit every published ring. Threads past kMaxRings have no slot
 * in g_rings, so dumps and trace files both leave them out. */
template <class F>
void
forEachRing(F &&visit)
{
    const uint32_t rings = std::min<uint32_t>(
        g_ring_count.load(std::memory_order_acquire), kMaxRings);
    for (uint32_t r = 0; r < rings; ++r)
        if (Ring *ring = g_rings[r].load(std::memory_order_acquire))
            visit(*ring);
}

bool
readSlot(const Slot &slot, uint32_t tid, EventCopy &out)
{
    const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == 0)
        return false;
    out.seq = s1;
    out.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    out.name = slot.name.load(std::memory_order_relaxed);
    out.phase = char(slot.phase.load(std::memory_order_relaxed));
    out.level = slot.level.load(std::memory_order_relaxed);
    out.tid = tid;
    const uint64_t s2 = slot.seq.load(std::memory_order_acquire);
    return s1 == s2 && out.name != nullptr;
}

bool
isSpanEdge(const EventCopy &e)
{
    return e.phase == 'B' || e.phase == 'E';
}

/** Append the ring's published events that `keep` accepts, in
 * recording order. */
template <class Keep>
void
appendRing(const Ring &ring, std::vector<EventCopy> &out, Keep keep)
{
    const std::size_t from = out.size();
    for (const Slot &slot : ring.slots) {
        EventCopy e;
        if (readSlot(slot, ring.tid, e) && keep(e))
            out.push_back(e);
    }
    std::sort(out.begin() + std::ptrdiff_t(from), out.end(),
              [](const EventCopy &a, const EventCopy &b) {
                  return a.seq < b.seq;
              });
}

/**
 * The owner's half of a trace session: index `end` is about to
 * overwrite the ring-full [end - kRingEvents, end), so copy the span
 * edges of it that belong to the session into the spill. Only the
 * owner writes these slots, so every one reads back whole.
 */
void
spill(Ring &ring, uint64_t end)
{
    if (ring.tid >= kMaxRings)
        return; // never drained, so never spilled
    Session &s = session();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.active || ring.drained >= end)
        return; // no session, or it began after index `end`
    for (uint64_t k = std::max(ring.drained, end - kRingEvents); k < end;
         ++k) {
        EventCopy e;
        if (readSlot(ring.slots[k & (kRingEvents - 1)], ring.tid, e) &&
            isSpanEdge(e))
            ring.spill.push_back(e);
    }
    ring.drained = end;
}

void
appendEventJson(std::string &out, const EventCopy &e, uint64_t t0,
                bool first)
{
    char line[320];
    const double ts = double(e.ts_ns - t0) / 1000.0;
    // Span/event names are code-controlled literals ([a-z0-9._-]),
    // so no JSON escaping is needed.
    int n;
    if (e.phase == 'L') {
        n = std::snprintf(
            line, sizeof line,
            "%s{\"name\":\"%s\",\"cat\":\"flight\",\"ph\":\"i\","
            "\"s\":\"t\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
            "\"args\":{\"level\":\"%s\"}}",
            first ? "\n" : ",\n", e.name, e.tid, ts,
            logLevelName(LogLevel(e.level)));
    } else {
        n = std::snprintf(
            line, sizeof line,
            "%s{\"name\":\"%s\",\"cat\":\"flight\",\"ph\":\"%c\","
            "\"pid\":1,\"tid\":%u,\"ts\":%.3f}",
            first ? "\n" : ",\n", e.name, e.phase, e.tid, ts);
    }
    out.append(line, std::size_t(std::max(n, 0)));
}

constexpr char kHeader[] =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
constexpr char kFooter[] = "\n]}\n";

/**
 * The Chrome-trace writer of dumps and trace sessions: one event per
 * line, each thread's events in recording order, ts in microseconds
 * from the earliest event. Balanced replay: a stream may hold an 'E'
 * whose 'B' was overwritten or predates the session, or a 'B' whose
 * span is still open. The missing edges are synthesized (at the
 * thread's first and last timestamps) so every stream nests.
 */
bool
writeBalanced(const std::string &path,
              const std::vector<std::vector<EventCopy>> &per_thread)
{
    uint64_t t0 = UINT64_MAX;
    for (const auto &events : per_thread)
        for (const EventCopy &e : events)
            t0 = std::min(t0, e.ts_ns);
    if (t0 == UINT64_MAX)
        t0 = 0;

    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << kHeader;
    bool first = true;
    std::string body;
    for (const auto &events : per_thread) {
        body.clear();
        const uint64_t first_ts = events.front().ts_ns;
        const uint64_t last_ts = events.back().ts_ns;
        std::vector<EventCopy> opens; // synthetic leading 'B's
        std::vector<EventCopy> stack; // currently open spans
        for (const EventCopy &e : events) {
            if (e.phase == 'B') {
                stack.push_back(e);
            } else if (e.phase == 'E') {
                if (!stack.empty()) {
                    stack.pop_back();
                } else {
                    EventCopy open = e;
                    open.phase = 'B';
                    open.ts_ns = first_ts;
                    opens.push_back(open);
                }
            }
        }
        // Outermost synthetic open first: the last orphan close seen
        // is the outermost span.
        for (auto it = opens.rbegin(); it != opens.rend(); ++it) {
            appendEventJson(body, *it, t0, first);
            first = false;
        }
        for (const EventCopy &e : events) {
            appendEventJson(body, e, t0, first);
            first = false;
        }
        // Innermost unclosed span closes first (stack order).
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            EventCopy close = *it;
            close.phase = 'E';
            close.ts_ns = last_ts;
            appendEventJson(body, close, t0, first);
            first = false;
        }
        out << body;
    }
    out << kFooter;
    return bool(out);
}

// -----------------------------------------------------------------
// Async-signal-safe path
// -----------------------------------------------------------------

void
writeAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::write(fd, data, len);
        if (n <= 0)
            return;
        data += n;
        len -= std::size_t(n);
    }
}

std::size_t
fmtU64(char *out, uint64_t v)
{
    char tmp[20];
    std::size_t n = 0;
    do {
        tmp[n++] = char('0' + v % 10);
        v /= 10;
    } while (v != 0);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = tmp[n - 1 - i];
    return n;
}

std::size_t
append(char *buf, std::size_t pos, const char *s)
{
    const std::size_t n = std::strlen(s);
    std::memcpy(buf + pos, s, n);
    return pos + n;
}

/** Install-once guard for the atexit hook. */
std::atomic<bool> g_exit_hook{false};

void
onFatalSignal(int sig)
{
    // At most one dump per process: an explicit tripwire dump (or a
    // first fatal signal) wins over the SIGABRT that follows it.
    if (!g_dumped.exchange(true, std::memory_order_seq_cst)) {
        const int fd = ::open(g_armed_path,
                              O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            dumpSignalSafe(fd);
            ::close(fd);
        }
    }
    // SA_RESETHAND restored the default disposition, so re-raising
    // terminates the process with the original signal.
    ::raise(sig);
}

} // namespace

void
record(const char *name, char phase, uint8_t level)
{
    Ring *ring = t_ring;
    if (!ring)
        ring = initRing();
    // seq_cst pairs with startTracing, which raises g_tracing before
    // it reads the heads: a record that misses the raised flag took
    // its index before the session's first one, so it has nothing to
    // spill.
    const uint64_t i =
        ring->head.fetch_add(1, std::memory_order_seq_cst);
    if ((i & (kRingEvents - 1)) == 0 && i != 0 &&
        g_tracing.load(std::memory_order_seq_cst))
        spill(*ring, i);
    Slot &slot = ring->slots[i & (kRingEvents - 1)];
    slot.seq.store(0, std::memory_order_relaxed);
    slot.ts_ns.store(nowNs(), std::memory_order_relaxed);
    slot.name.store(name, std::memory_order_relaxed);
    slot.phase.store(uint8_t(phase), std::memory_order_relaxed);
    slot.level.store(level, std::memory_order_relaxed);
    slot.seq.store(i + 1, std::memory_order_release);
}

void
arm(const std::string &path)
{
    if (path.empty() || path.size() >= sizeof g_armed_path)
        return;
    std::memcpy(g_armed_path, path.c_str(), path.size() + 1);
    g_armed.store(true, std::memory_order_release);
    g_dumped.store(false, std::memory_order_relaxed);

    struct sigaction action = {};
    action.sa_handler = onFatalSignal;
    action.sa_flags = SA_RESETHAND;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGSEGV, &action, nullptr);
    ::sigaction(SIGABRT, &action, nullptr);

    if (!g_exit_hook.exchange(true, std::memory_order_seq_cst))
        std::atexit([] { dumpNow(); });
}

bool
armed()
{
    return g_armed.load(std::memory_order_acquire);
}

bool
dumpNow()
{
    if (!armed() || g_dumped.exchange(true, std::memory_order_seq_cst))
        return false;
    return dumpTo(g_armed_path);
}

bool
dumpTo(const std::string &path)
{
    // A consistent copy of every ring, newest kRingEvents per thread,
    // ordered by each thread's sequence numbers.
    std::vector<std::vector<EventCopy>> per_thread;
    forEachRing([&](const Ring &ring) {
        std::vector<EventCopy> events;
        appendRing(ring, events, [](const EventCopy &) { return true; });
        if (!events.empty())
            per_thread.push_back(std::move(events));
    });
    if (writeBalanced(path, per_thread))
        return true;
    logWarn("obs.flight_write_failed", {{"path", path}});
    return false;
}

void
dumpSignalSafe(int fd)
{
    writeAll(fd, kHeader, sizeof kHeader - 1);
    bool first = true;
    forEachRing([&](const Ring &ring) {
        for (const Slot &slot : ring.slots) {
            const uint64_t seq =
                slot.seq.load(std::memory_order_acquire);
            const char *name =
                slot.name.load(std::memory_order_relaxed);
            if (seq == 0 || name == nullptr)
                continue;
            const char phase =
                char(slot.phase.load(std::memory_order_relaxed));
            char buf[384];
            std::size_t pos = 0;
            buf[pos++] = first ? '\n' : ',';
            if (!first)
                buf[pos++] = '\n';
            first = false;
            pos = append(buf, pos, "{\"name\":\"");
            // Names are literals; cap the copy so a corrupted
            // pointer cannot overrun the buffer.
            for (const char *c = name; *c && pos < 200; ++c)
                buf[pos++] = *c;
            pos = append(buf, pos, "\",\"cat\":\"flight\",\"ph\":\"");
            buf[pos++] = phase == 'L' ? 'i' : phase;
            pos = append(buf, pos, "\"");
            if (phase == 'L')
                pos = append(buf, pos, ",\"s\":\"t\"");
            pos = append(buf, pos, ",\"pid\":1,\"tid\":");
            pos += fmtU64(buf + pos, ring.tid);
            pos = append(buf, pos, ",\"ts\":");
            pos += fmtU64(
                buf + pos,
                slot.ts_ns.load(std::memory_order_relaxed) / 1000);
            pos = append(buf, pos, "}");
            writeAll(fd, buf, pos);
        }
    });
    writeAll(fd, kFooter, sizeof kFooter - 1);
}

} // namespace qpad::obs::flight

namespace qpad::obs
{

bool
tracingEnabled()
{
    return flight::g_tracing.load(std::memory_order_relaxed);
}

bool
startTracing(const std::string &path)
{
    flight::Session &s = flight::session();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.active)
        return false;
    s.active = true;
    s.path = path;
    // Raise the flag before reading the heads (see flight::record).
    flight::g_tracing.store(true, std::memory_order_seq_cst);
    flight::forEachRing([](flight::Ring &ring) {
        ring.drained = ring.head.load(std::memory_order_seq_cst);
    });
    return true;
}

void
stopTracing()
{
    std::vector<std::vector<flight::EventCopy>> per_thread;
    std::string path;
    {
        flight::Session &s = flight::session();
        std::lock_guard<std::mutex> lock(s.mutex);
        if (!s.active)
            return;
        s.active = false;
        path.swap(s.path);
        // Each ring's spill, then its undrained tail [drained, head):
        // the flag is still up, so an owner about to overwrite the
        // tail blocks on this mutex first.
        flight::forEachRing([&](flight::Ring &ring) {
            std::vector<flight::EventCopy> events;
            events.swap(ring.spill);
            const uint64_t head =
                ring.head.load(std::memory_order_seq_cst);
            flight::appendRing(
                ring, events, [&](const flight::EventCopy &e) {
                    return e.seq > ring.drained && e.seq <= head &&
                           flight::isSpanEdge(e);
                });
            if (!events.empty())
                per_thread.push_back(std::move(events));
        });
        flight::g_tracing.store(false, std::memory_order_seq_cst);
    }
    if (!flight::writeBalanced(path, per_thread))
        logWarn("obs.trace_write_failed", {{"path", path}});
}

namespace
{

/** Reads QPAD_FLIGHT and QPAD_TRACE once at static init (env is set
 * before main). The trace file is written at exit; rings outlive
 * their threads, so it holds the spans of pool workers joined
 * before then too. */
struct EnvInit
{
    EnvInit()
    {
        const char *dump = std::getenv("QPAD_FLIGHT");
        if (dump && *dump)
            flight::arm(dump);
        const char *trace = std::getenv("QPAD_TRACE");
        if (trace && *trace && startTracing(trace))
            std::atexit([] { stopTracing(); });
    }
} g_env_init;

} // namespace

} // namespace qpad::obs
