/**
 * @file
 * Always-on flight recorder: a fixed-size per-thread ring of recent
 * span edges and warnings. It is the one place a span edge is
 * recorded, and a trace session (obs/trace.hh) is its one exporter.
 *
 * The recorder never turns off: every QPAD_SPAN begin/end and every
 * obs/log.hh event lands in the calling thread's ring, overwriting
 * the oldest entry once the ring is full. The hot path is relaxed
 * atomic stores plus one release publish into preallocated slots —
 * no locks, no allocation (the ring itself is allocated once per
 * thread on first use and leaked so a crash handler can still read
 * it after thread exit). Recording never feeds back into any
 * computation: results are byte-identical with a session open or
 * not.
 *
 * A trace session drains the rings: while one is active, a thread
 * about to overwrite its oldest ring-full first copies the events in
 * it into a per-ring spill under the session mutex, so a session
 * keeps every event however long it runs. That copy, once per
 * kRingEvents records and only during a session, is the only lock
 * or allocation a warm thread takes.
 *
 * While a session is open, an async-signal-safe SIGSEGV/SIGABRT
 * handler writes the rings' tails to the session's path with
 * dumpSignalSafe(). Both writes format each event with formatEvent(),
 * so the crash write has the session file's lines (span edges as B/E
 * events, each log event as an instant with its level, ts from the
 * earliest event written); it only skips the session writer's
 * balancing pass, and is still valid JSON.
 *
 * Event names must be string literals: the ring stores pointers.
 */

#ifndef QPAD_OBS_FLIGHT_HH
#define QPAD_OBS_FLIGHT_HH

#include <cstddef>
#include <cstdint>

namespace qpad::obs::flight
{

/** Events retained per thread (power of two; 32 KiB of slots). */
constexpr std::size_t kRingEvents = 1024;

/**
 * Record one event into the calling thread's ring. `phase` is 'B' /
 * 'E' for span edges, 'L' for a log event (with `level` carrying its
 * obs::LogLevel). `name` must be a string literal. Zero-alloc and
 * lock-free after the thread's first call while no trace session
 * is active.
 */
void record(const char *name, char phase, uint8_t level = 0);

/** Bytes formatEvent may write. */
constexpr std::size_t kMaxEventLine = 384;

/**
 * Write one event as a trace-file line (`\n` before a file's first
 * event, `,\n` before the others) into `buf`; returns its length.
 * `ts_ns` prints as microseconds with three decimals. Integer
 * formatting and memcpy only, so async-signal-safe.
 */
std::size_t formatEvent(char *buf, bool first, const char *name,
                        char phase, uint8_t level, uint32_t tid,
                        uint64_t ts_ns);

/**
 * Async-signal-safe write of every ring's tail to an open file
 * descriptor as Chrome trace JSON: write(2) and integer formatting
 * only, no allocation, no locks, no stdio. Used by the fatal-signal
 * handler; exposed for tests.
 */
void dumpSignalSafe(int fd);

} // namespace qpad::obs::flight

#endif // QPAD_OBS_FLIGHT_HH
