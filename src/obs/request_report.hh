/**
 * @file
 * Per-request telemetry summary.
 *
 * An `exec::RequestScope` produces one `RequestReport` when it
 * closes: the request's name, wall latency, how it stopped, and the
 * name-sorted metric deltas attributed to the request
 * (Snapshot::deltaSince between scope entry and exit, filtered to
 * the series that actually moved). `requestReportJson` renders the
 * report as one JSON object.
 *
 * QPAD_REQUEST_REPORT=stderr|<path> exports every report as one JSON
 * line (appended, so a multi-request process accumulates a JSONL
 * stream). Purely observational: reports never feed back into any
 * computation.
 */

#ifndef QPAD_OBS_REQUEST_REPORT_HH
#define QPAD_OBS_REQUEST_REPORT_HH

#include <iosfwd>
#include <string>

#include "exec/cancel.hh"
#include "obs/metrics.hh"

namespace qpad::obs
{

struct RequestReport
{
    /** Caller-supplied scope name ("request" by default). */
    std::string name;
    /** Wall latency of the scope, via exec::now(). */
    double wall_seconds = 0.0;
    /** How the request ended (kNone = ran to completion). */
    exec::StopReason stop = exec::StopReason::kNone;
    /** Name-sorted metric deltas that moved during the request. */
    Snapshot metrics;
};

/** The report as one JSON object (no trailing newline). */
void writeRequestReportJson(std::ostream &out,
                            const RequestReport &report);
std::string requestReportJson(const RequestReport &report);

/**
 * Append the report to the QPAD_REQUEST_REPORT destination (one JSON
 * line); no-op when the variable is unset or empty.
 */
void exportRequestReport(const RequestReport &report);

} // namespace qpad::obs

#endif // QPAD_OBS_REQUEST_REPORT_HH
