/**
 * @file
 * Request-scoped execution context.
 *
 * A `Context` is what one request carries through every layer of
 * the system: a shared cancellation token (explicit cancel + an
 * absolute steady-clock deadline, see exec/cancel.hh). A
 * `RequestScope` adds the request's telemetry: its latency, stop
 * reason and metric deltas. The compute entry points —
 * `estimateYield`, `allocateFrequencies`, `annealLayout`,
 * `designArchitecture`, `mapping::mapCircuit` / `countMapping`,
 * `eval::measure` / `runBenchmark`, and the cached front ends — all
 * take a trailing `const Context&` defaulting to `Context::none()`,
 * so existing call sites keep compiling and pay nothing.
 *
 * Determinism contract: a context decides only *whether* a result
 * exists, never its bytes. Any run that completes under a context is
 * bit-identical to the no-context run at every thread count;
 * cancellation unwinds as `exec::CancelledError` instead.
 */

#ifndef QPAD_EXEC_CONTEXT_HH
#define QPAD_EXEC_CONTEXT_HH

#include <chrono>
#include <memory>
#include <string>

#include "exec/cancel.hh"
#include "obs/request_report.hh"
#include "runtime/parallel.hh"

namespace qpad::exec
{

/** Copyable handle to one request's shared cancellation state. */
class Context
{
  public:
    /** A fresh, independent context: no deadline, not cancelled. */
    Context() : state_(std::make_shared<CancelToken>()) {}

    /**
     * The shared no-limit context used as the default argument of
     * every ctx-threaded entry point. Its token is never cancelled
     * and carries no deadline, so polling it is always a no-op.
     */
    static const Context &none();

    /** The underlying token (never null); what Options::cancel
     * points at after apply(). */
    CancelToken *token() const { return state_.get(); }

    /** Request a stop; sticky, visible to every copy. */
    void cancel() const { state_->cancel(); }

    bool cancelRequested() const { return state_->cancelRequested(); }

    /** Arm an absolute deadline on the shared token. */
    void setDeadline(TimePoint deadline) const
    {
        state_->setDeadline(deadline);
    }

    /** Convenience: deadline = exec::now() + budget, saturating: a
     * budget past the clock's range never fires. */
    void setDeadlineAfter(std::chrono::nanoseconds budget) const
    {
        const TimePoint start = now();
        state_->setDeadline(budget >= TimePoint::max() - start
                                ? TimePoint::max()
                                : start + budget);
    }

    StopReason stopReason() const { return state_->stopReason(); }

    /** Raise CancelledError if this context has stopped. */
    void throwIfStopped() const
    {
        exec::throwIfStopped(state_.get());
    }

    /**
     * Attach this context's token to a callee's runtime options. An
     * already-attached token (a nested call that was handed explicit
     * options) is left alone — innermost wins.
     */
    runtime::Options apply(runtime::Options base) const
    {
        if (base.cancel == nullptr)
            base.cancel = state_.get();
        return base;
    }

  private:
    std::shared_ptr<CancelToken> state_;
};

/**
 * RAII observability scope for one request. On entry it counts
 * `exec.requests` and snapshots the metrics registry. On exit — or
 * an explicit finish() — it observes the wall time into the
 * `exec.request_seconds` histogram (via exec::now(), the sanctioned
 * clock) and produces an obs::RequestReport: name, latency,
 * StopReason, and the name-sorted metric deltas attributed to the
 * request; the report is appended to the QPAD_REQUEST_REPORT
 * destination when that is set, and a stopped request additionally
 * emits an `exec.request_stopped` warning. Purely observational —
 * it never feeds back.
 */
class RequestScope
{
  public:
    /** Legacy form: scope over the shared no-limit context. */
    RequestScope() : RequestScope(Context::none()) {}

    explicit RequestScope(const Context &ctx,
                          std::string name = "request");
    ~RequestScope();

    /**
     * Close the scope now and return its report (name, wall latency,
     * stop reason, metric deltas). Callable once; the destructor
     * finishes implicitly — exporting but discarding the report —
     * when it was never called.
     */
    obs::RequestReport finish();

    RequestScope(const RequestScope &) = delete;
    RequestScope &operator=(const RequestScope &) = delete;

  private:
    Context ctx_;
    std::string name_;
    TimePoint start_;
    obs::Snapshot before_;
    bool finished_ = false;
};

} // namespace qpad::exec

#endif // QPAD_EXEC_CONTEXT_HH
