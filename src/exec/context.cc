#include "exec/context.hh"

#include "obs/log.hh"
#include "obs/metrics.hh"

namespace qpad::exec
{

const Context &
Context::none()
{
    // Leaked Meyers singleton (same pattern as the obs registry):
    // default arguments bind references to it from any thread at any
    // point of process teardown, so it must never be destroyed.
    static const Context &ctx = *new Context;
    return ctx;
}

RequestScope::RequestScope(const Context &ctx, std::string name)
    : ctx_(ctx), name_(std::move(name)), start_(now()),
      before_(obs::snapshot())
{
    static obs::Counter &requests = obs::counter("exec.requests");
    requests.add();
}

obs::RequestReport
RequestScope::finish()
{
    finished_ = true;
    static obs::Histogram &seconds =
        obs::histogram("exec.request_seconds");
    obs::RequestReport report;
    report.name = name_;
    report.wall_seconds =
        std::chrono::duration<double>(now() - start_).count();
    report.stop = ctx_.stopReason();
    seconds.observe(report.wall_seconds);
    // Attribute to the request only the series that moved while the
    // scope was open (idle counters and foreign gauges would bury
    // the signal; deltaSince already name-sorts).
    for (obs::Sample &s : obs::deltaSince(before_)) {
        const bool moved =
            s.kind == obs::Sample::Kind::Histogram
                ? s.count != 0
                : s.value != 0.0;
        if (moved)
            report.metrics.push_back(std::move(s));
    }
    if (report.stop != StopReason::kNone)
        obs::logWarn("exec.request_stopped",
                     {{"reason", stopReasonName(report.stop)},
                      {"wall_seconds", report.wall_seconds}});
    obs::exportRequestReport(report);
    return report;
}

RequestScope::~RequestScope()
{
    if (finished_)
        return;
    try {
        finish();
    } catch (...) {
        // Reporting must never tear down an unwinding caller.
    }
}

} // namespace qpad::exec
