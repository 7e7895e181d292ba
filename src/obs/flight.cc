#include "obs/flight.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream> // std::cerr is built before g_env_init may warn
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
    // predate the session), and the session's events copied out
    // before the ring overwrote them.
    uint64_t drained = 0;
    std::vector<EventCopy> spill;
};

/** Upper bound on recording threads; later threads still run, their
 * events just stay out of trace files. */
constexpr std::size_t kMaxRings = 512;

std::atomic<Ring *> g_rings[kMaxRings];
std::atomic<uint32_t> g_ring_count{0};

/** The session's path in fixed storage, for the fatal-signal
 * handler, which cannot touch std::string. Empty = no crash write. */
char g_crash_path[4096] = {0};

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
 * in g_rings, so trace files leave them out. */
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

/** Append the ring's published events with sequence numbers in
 * (after, upto], in recording order. */
void
appendRing(const Ring &ring, uint64_t after, uint64_t upto,
           std::vector<EventCopy> &out)
{
    const std::size_t from = out.size();
    for (const Slot &slot : ring.slots) {
        EventCopy e;
        if (readSlot(slot, ring.tid, e) && e.seq > after && e.seq <= upto)
            out.push_back(e);
    }
    std::sort(out.begin() + std::ptrdiff_t(from), out.end(),
              [](const EventCopy &a, const EventCopy &b) {
                  return a.seq < b.seq;
              });
}

/**
 * The owner's half of a trace session: index `end` is about to
 * overwrite the ring-full [end - kRingEvents, end), so copy the
 * events of it that belong to the session into the spill. Only the
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
        if (readSlot(ring.slots[k & (kRingEvents - 1)], ring.tid, e))
            ring.spill.push_back(e);
    }
    ring.drained = end;
}

/** formatEvent of a copied event, `t0` being the file's first ts. */
std::size_t
formatCopy(char *buf, bool first, const EventCopy &e, uint64_t t0)
{
    return formatEvent(buf, first, e.name, e.phase, e.level, e.tid,
                       e.ts_ns - std::min(t0, e.ts_ns));
}

constexpr char kHeader[] =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
constexpr char kFooter[] = "\n]}\n";

/**
 * The trace session's Chrome-trace writer: one event per line, each
 * thread's events in recording order, ts in microseconds from the
 * earliest event. Balanced replay: a stream may hold an 'E' whose 'B'
 * predates the session, or a 'B' whose span is still open. The
 * missing edges are synthesized (at the thread's first and last
 * timestamps) so every stream nests.
 */
bool
writeBalanced(const std::string &path,
              const std::vector<std::vector<EventCopy>> &per_thread)
{
    uint64_t t0 = UINT64_MAX;
    for (const auto &events : per_thread)
        for (const EventCopy &e : events)
            t0 = std::min(t0, e.ts_ns);

    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << kHeader;
    bool first = true;
    std::string body;
    auto emit = [&](const EventCopy &e) {
        char line[kMaxEventLine];
        body.append(line, formatCopy(line, first, e, t0));
        first = false;
    };
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
        for (auto it = opens.rbegin(); it != opens.rend(); ++it)
            emit(*it);
        for (const EventCopy &e : events)
            emit(e);
        // Innermost unclosed span closes first (stack order).
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            EventCopy close = *it;
            close.phase = 'E';
            close.ts_ns = last_ts;
            emit(close);
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

void
onFatalSignal(int sig)
{
    // Only an open session's file is written: a session that
    // stopTracing closed (the pool tripwire does so before it aborts)
    // has already written its balanced file.
    if (g_tracing.load(std::memory_order_seq_cst)) {
        const int fd = ::open(g_crash_path,
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

std::size_t
formatEvent(char *buf, bool first, const char *name, char phase,
            uint8_t level, uint32_t tid, uint64_t ts_ns)
{
    std::size_t pos = append(buf, 0, first ? "\n" : ",\n");
    pos = append(buf, pos, "{\"name\":\"");
    // Names are code-controlled literals ([a-z0-9._-]), so no JSON
    // escaping is needed; the copy is capped so a corrupted pointer
    // read by the crash write cannot overrun the buffer.
    for (const char *c = name; *c && pos < 200; ++c)
        buf[pos++] = *c;
    pos = append(buf, pos, "\",\"cat\":\"flight\",\"ph\":\"");
    buf[pos++] = phase == 'L' ? 'i' : phase;
    pos = append(buf, pos, phase == 'L' ? "\",\"s\":\"t\"" : "\"");
    pos = append(buf, pos, ",\"pid\":1,\"tid\":");
    pos += fmtU64(buf + pos, tid);
    // Microseconds and three decimals in integers only: the bytes of
    // "%.3f" of ts_ns / 1000.0 below 2^43 us (~100 days).
    pos = append(buf, pos, ",\"ts\":");
    pos += fmtU64(buf + pos, ts_ns / 1000);
    buf[pos++] = '.';
    buf[pos++] = char('0' + ts_ns % 1000 / 100);
    buf[pos++] = char('0' + ts_ns % 100 / 10);
    buf[pos++] = char('0' + ts_ns % 10);
    if (phase == 'L') {
        pos = append(buf, pos, ",\"args\":{\"level\":\"");
        pos = append(buf, pos, logLevelName(LogLevel(level)));
        pos = append(buf, pos, "\"}");
    }
    buf[pos++] = '}';
    return pos;
}

void
dumpSignalSafe(int fd)
{
    // Timestamps count from the earliest event written, as in a
    // session's own file.
    uint64_t t0 = UINT64_MAX;
    forEachRing([&](const Ring &ring) {
        for (const Slot &slot : ring.slots) {
            EventCopy e;
            if (readSlot(slot, ring.tid, e))
                t0 = std::min(t0, e.ts_ns);
        }
    });
    writeAll(fd, kHeader, sizeof kHeader - 1);
    bool first = true;
    forEachRing([&](const Ring &ring) {
        for (const Slot &slot : ring.slots) {
            EventCopy e;
            if (!readSlot(slot, ring.tid, e))
                continue;
            char line[kMaxEventLine];
            writeAll(fd, line, formatCopy(line, first, e, t0));
            first = false;
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
    const bool crash_write = path.size() < sizeof flight::g_crash_path;
    {
        flight::Session &s = flight::session();
        std::lock_guard<std::mutex> lock(s.mutex);
        if (s.active)
            return false;
        s.active = true;
        s.path = path;
        // The flag is down, so the signal handler reads no path yet.
        if (crash_write)
            std::memcpy(flight::g_crash_path, path.c_str(),
                        path.size() + 1);
        else
            flight::g_crash_path[0] = '\0';
        struct sigaction action = {};
        action.sa_handler = flight::onFatalSignal;
        action.sa_flags = SA_RESETHAND;
        sigemptyset(&action.sa_mask);
        ::sigaction(SIGSEGV, &action, nullptr);
        ::sigaction(SIGABRT, &action, nullptr);
        // Raise the flag before reading the heads (see flight::record).
        flight::g_tracing.store(true, std::memory_order_seq_cst);
        flight::forEachRing([](flight::Ring &ring) {
            ring.drained = ring.head.load(std::memory_order_seq_cst);
        });
    }
    if (!crash_write)
        logWarn("obs.trace_crash_path_too_long",
                {{"bytes", double(path.size())}});
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
            flight::appendRing(ring, ring.drained,
                               ring.head.load(std::memory_order_seq_cst),
                               events);
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

/** Reads QPAD_TRACE once at static init (env is set before main).
 * The trace file is written at exit; rings outlive their threads,
 * so it holds the spans of pool workers joined before then too. */
struct EnvInit
{
    EnvInit()
    {
        const char *trace = std::getenv("QPAD_TRACE");
        if (trace && *trace && startTracing(trace))
            std::atexit([] { stopTracing(); });
    }
} g_env_init;

} // namespace

} // namespace qpad::obs
