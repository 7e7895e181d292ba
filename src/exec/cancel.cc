#include "exec/cancel.hh"

#include "obs/metrics.hh"

namespace qpad::exec
{

TimePoint
now()
{
    // The sanctioned steady-clock read: allowlisted as
    // "cancel.cc:now" under [wallclock] in qpad_lint.toml. Deadlines
    // decide only *whether* a result exists — a run that completes
    // is bit-identical regardless of when this was read.
    return std::chrono::steady_clock::now();
}

TimePoint
deadlineAfter(std::chrono::nanoseconds budget)
{
    const TimePoint start = now();
    return budget >= kNoDeadline - start ? kNoDeadline : start + budget;
}

CancelledError::CancelledError()
    : std::runtime_error("exec: request deadline exceeded")
{
}

void
noteStopped()
{
    static obs::Counter &c = obs::counter("exec.deadline_exceeded");
    c.add();
}

void
raiseStopped()
{
    noteStopped();
    throw CancelledError();
}

} // namespace qpad::exec
