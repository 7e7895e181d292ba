/**
 * @file
 * Request deadlines: the one stop signal of long-running work.
 *
 * A request's stop signal is a plain value, a steady-clock
 * `TimePoint` deadline, passed by value to every entry point that
 * can run long (`kNoDeadline`, the default, never passes). The work
 * polls it at chunk boundaries. Stopping is *cooperative*: nothing
 * is interrupted mid-chunk, so any run that completes is
 * bit-identical to a run without a deadline; a deadline only decides
 * whether a result exists, never its bytes.
 *
 * Deadlines are read through `exec::now()`, the one sanctioned
 * steady-clock helper (see `[wallclock]` in
 * `tools/qpad-lint/qpad_lint.toml`): qpad-lint's no-wallclock rule
 * stays meaningful because every other clock read in a compute path
 * is still a finding.
 *
 * This header is dependency-free on purpose (only the standard
 * library) so `runtime/parallel.hh` can take a deadline without an
 * include cycle.
 */

#ifndef QPAD_EXEC_CANCEL_HH
#define QPAD_EXEC_CANCEL_HH

#include <chrono>
#include <stdexcept>

namespace qpad::exec
{

/** Steady (monotonic) time point; never wall-clock time-of-day. */
using TimePoint = std::chrono::steady_clock::time_point;

/**
 * The sanctioned steady-clock read. Every deadline comparison goes
 * through this helper; a direct `steady_clock::now()` anywhere else
 * in a compute path is a no-wallclock lint finding.
 */
TimePoint now();

/** The deadline that never passes: the default of every entry
 * point, and what polls compare against before reading the clock. */
inline constexpr TimePoint kNoDeadline = TimePoint::max();

/** now() + budget, saturating: a budget past the clock's range
 * gives kNoDeadline instead of overflowing into the past. */
TimePoint deadlineAfter(std::chrono::nanoseconds budget);

/** Whether `deadline` has passed (reads no clock for kNoDeadline). */
inline bool
passed(TimePoint deadline)
{
    return deadline != kNoDeadline && now() >= deadline;
}

/** Thrown when work unwinds past its deadline; a stopped parallel
 * region skips its unclaimed chunks and rethrows it at the caller. */
class CancelledError : public std::runtime_error
{
  public:
    CancelledError();
};

/**
 * Count a stop in the `exec.deadline_exceeded` counter. Called where
 * a stop *wins* (first-error capture, or the throw site), not on
 * every poll, so the counter approximates stopped requests rather
 * than poll frequency.
 */
void noteStopped();

/** noteStopped + throw CancelledError. */
[[noreturn]] void raiseStopped();

/** Raise CancelledError if `deadline` has passed: what sequential
 * loops call at their boundaries. */
inline void
throwIfPassed(TimePoint deadline)
{
    if (passed(deadline))
        raiseStopped();
}

} // namespace qpad::exec

#endif // QPAD_EXEC_CANCEL_HH
