#include "obs/request_report.hh"

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string_view>

#include "obs/log.hh"

namespace qpad::obs
{

namespace
{

const char *
stopName(exec::StopReason reason)
{
    switch (reason) {
      case exec::StopReason::kNone: return "none";
      case exec::StopReason::kCancelled: return "cancelled";
      case exec::StopReason::kDeadlineExceeded: return "deadline";
    }
    return "?";
}

} // namespace

void
writeRequestReportJson(std::ostream &out, const RequestReport &report)
{
    std::ostringstream num;
    num << std::setprecision(17) << report.wall_seconds;
    out << "{\"request\":{\"name\":\"" << report.name
        << "\",\"wall_seconds\":" << num.str()
        << ",\"stop\":\"" << stopName(report.stop)
        << "\",\"metrics\":[";
    bool first = true;
    for (const Sample &s : report.metrics) {
        out << (first ? "" : ",");
        first = false;
        writeSampleJson(out, s);
    }
    out << "]}}";
}

std::string
requestReportJson(const RequestReport &report)
{
    std::ostringstream out;
    writeRequestReportJson(out, report);
    return out.str();
}

void
exportRequestReport(const RequestReport &report)
{
    // Read lazily (not at static init): reports are produced during
    // the run, and tests may setenv before creating a scope.
    const char *dest = std::getenv("QPAD_REQUEST_REPORT");
    if (!dest || !*dest)
        return;
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    if (std::string_view(dest) == "stderr") {
        // qpad-lint: allow(rawlog) "sanctioned exporter: the user
        // chose stderr as the QPAD_REQUEST_REPORT destination"
        std::cerr << requestReportJson(report) << "\n";
        return;
    }
    std::ofstream out(dest, std::ios::app);
    if (!out) {
        logWarn("obs.report_write_failed", {{"path", dest}});
        return;
    }
    out << requestReportJson(report) << "\n";
}

} // namespace qpad::obs
