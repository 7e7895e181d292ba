/**
 * @file
 * RAII spans and trace sessions with Chrome trace-event JSON output.
 *
 * Usage: `QPAD_SPAN("yield.estimate");` opens a span that closes at
 * scope exit. Spans nest naturally (they are stack objects) and
 * carry the recording thread's id, so a trace file renders as a
 * per-thread flame graph in chrome://tracing or Perfetto
 * (https://ui.perfetto.dev, "Open trace file").
 *
 * Cost contract: a span edge is one write into the calling thread's
 * flight recorder ring (obs/flight.hh: one clock read plus relaxed
 * stores into a preallocated slot — no locks, no allocation once the
 * thread is warm), with or without a trace session. Spans never
 * feed back into any computation: results are bit-identical with
 * tracing on or off, and the test suite pins that invariant.
 *
 * A trace session is a drain of the rings. While one is active, a
 * thread about to overwrite its oldest ring-full first copies the
 * events in it out (under the session mutex, once per
 * flight::kRingEvents records); stopTracing() writes those copies
 * plus each ring's unspilled tail. Files hold span edges and each
 * warning as an instant with its level, per thread id, and always
 * nest: an edge whose partner lies outside the session gets a
 * synthetic partner at the thread's first or last timestamp.
 * Threads past the recorder's ring limit stay out of trace files.
 *
 * While a session is open, a fatal SIGSEGV or SIGABRT writes the
 * rings' tails to the session's path instead (flight::dumpSignalSafe:
 * valid JSON, not balanced); a path too long for the handler's fixed
 * buffer logs one warning and leaves the session without that write.
 * The ThreadPool tripwire calls stopTracing() before it aborts, so
 * its file is the balanced one.
 *
 * Enable with QPAD_TRACE=<path> (written at process exit) or
 * programmatically with startTracing()/stopTracing(). Span names
 * must be string literals: the ring stores the pointer, never a
 * copy.
 */

#ifndef QPAD_OBS_TRACE_HH
#define QPAD_OBS_TRACE_HH

#include <string>

#include "obs/flight.hh"

namespace qpad::obs
{

/** Is a trace session active? */
bool tracingEnabled();

/** RAII scope; prefer the QPAD_SPAN macro. */
class Span
{
  public:
    explicit Span(const char *name) : name_(name)
    {
        flight::record(name, 'B');
    }

    ~Span() { flight::record(name_, 'E'); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
};

/**
 * Begin a trace session writing to `path` on stopTracing(), or from
 * the fatal-signal handler it installs. Only events recorded from
 * now on belong to it. Returns false (and changes nothing) if a
 * session is already active.
 */
bool startTracing(const std::string &path);

/**
 * End the session and write its events as Chrome trace-event JSON,
 * balanced per thread. No-op when no session is active. Safe while
 * other threads still record.
 */
void stopTracing();

} // namespace qpad::obs

#define QPAD_OBS_CONCAT2(a, b) a##b
#define QPAD_OBS_CONCAT(a, b) QPAD_OBS_CONCAT2(a, b)

/** Open a trace span for the rest of the enclosing scope. */
#define QPAD_SPAN(name)                                                 \
    ::qpad::obs::Span QPAD_OBS_CONCAT(qpad_obs_span_, __LINE__)(name)

#endif // QPAD_OBS_TRACE_HH
