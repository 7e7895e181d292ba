/**
 * @file
 * Always-on flight recorder: a fixed-size per-thread ring of recent
 * span edges and log events, dumpable as Chrome trace-event JSON
 * when something goes wrong. It is the one place a span edge is
 * recorded.
 *
 * The recorder never turns off: every QPAD_SPAN begin/end and every
 * emitted log event lands in the calling thread's ring, overwriting
 * the oldest entry once the ring is full. The hot path is relaxed
 * atomic stores plus one release publish into preallocated slots —
 * no locks, no allocation (the ring itself is allocated once per
 * thread on first use and leaked so a crash handler can still read
 * it after thread exit). Recording never feeds back into any
 * computation: results are byte-identical with the recorder armed
 * or not.
 *
 * A trace session (obs/trace.hh) drains the rings: while one is
 * active, a thread about to overwrite its oldest ring-full first
 * copies the span edges in it into a per-ring spill under the
 * session mutex, so a session keeps every edge however long it
 * runs. That copy, once per kRingEvents records and only during a
 * session, is the only lock or allocation a warm thread takes.
 *
 * Dump triggers:
 *   - QPAD_FLIGHT=<path> arms the recorder: the rings are dumped to
 *     `path` at normal process exit (covering deadline-exceeded
 *     bench exits) and from an async-signal-safe SIGSEGV/SIGABRT
 *     handler (covering crashes and the ThreadPool tripwire abort,
 *     which also dumps explicitly before raising).
 *   - dumpTo() / dumpNow() for tests and embedders.
 *
 * The normal dump replays each thread's events into balanced B/E
 * pairs (synthesizing opens for entries whose begin was overwritten
 * and closes for spans still running), so the file loads in
 * chrome://tracing / Perfetto. The signal-path dump writes the same
 * JSON shape with write(2) and hand-rolled formatting only — headers
 * are pre-serialized when the recorder is armed — and skips the
 * balancing pass; it is still valid JSON (json.tool-parseable).
 *
 * Event names must be string literals: the ring stores pointers.
 */

#ifndef QPAD_OBS_FLIGHT_HH
#define QPAD_OBS_FLIGHT_HH

#include <cstdint>
#include <string>

namespace qpad::obs::flight
{

/** Events retained per thread (power of two; 32 KiB of slots). */
constexpr std::size_t kRingEvents = 1024;

/** Monotonic nanoseconds (exec::now()); shared by log timestamps. */
uint64_t nowNs();

/**
 * Record one event into the calling thread's ring. `phase` is 'B' /
 * 'E' for span edges, 'L' for a log event (with `level` carrying its
 * obs::LogLevel). `name` must be a string literal. Zero-alloc and
 * lock-free after the thread's first call while no trace session
 * is active.
 */
void record(const char *name, char phase, uint8_t level = 0);

/**
 * Arm crash dumping to `path`: pre-serializes the signal-path JSON
 * header, installs SIGSEGV/SIGABRT handlers, and registers the
 * at-exit dump. Called automatically when QPAD_FLIGHT is set; tests
 * call it directly (idempotent; the latest path wins).
 */
void arm(const std::string &path);

/** Is a dump path armed? */
bool armed();

/** Balanced-replay dump of every thread's ring to `path`. */
bool dumpTo(const std::string &path);

/**
 * Dump to the armed path, at most once per process (so the explicit
 * tripwire dump and the SIGABRT handler it triggers do not race each
 * other). Returns false when unarmed or already dumped.
 */
bool dumpNow();

/**
 * Async-signal-safe dump to an open file descriptor: write(2) and
 * integer formatting only, no allocation, no locks, no stdio. Used
 * by the fatal-signal handler; exposed for tests.
 */
void dumpSignalSafe(int fd);

} // namespace qpad::obs::flight

#endif // QPAD_OBS_FLIGHT_HH
