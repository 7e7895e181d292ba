#include "obs/log.hh"

#include <cstdio>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "obs/flight.hh"

namespace qpad::obs
{

namespace
{

/** Serializes stderr lines. Leaked on purpose (same pattern as the
 * metrics registry): events may be emitted from worker threads
 * during static destruction, after any destructor it could have
 * had. */
std::mutex &
sinkMutex()
{
    static std::mutex *m = new std::mutex;
    return *m;
}

void
appendEscaped(std::string &out, std::string_view s)
{
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              unsigned(static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

} // namespace

const char *
logLevelName(LogLevel level)
{
    return level == LogLevel::kError ? "error" : "warn";
}

void
logEvent(LogLevel level, const char *event,
         std::initializer_list<LogField> fields)
{
    flight::record(event, 'L', uint8_t(level));

    std::string line = "[";
    line += logLevelName(level);
    line += "] ";
    line += event;
    for (const LogField &f : fields) {
        line += ' ';
        line += f.key;
        line += '=';
        if (f.value.isString()) {
            line += '"';
            appendEscaped(line, f.value.str());
            line += '"';
        } else {
            std::ostringstream num;
            num << f.value.number();
            line += num.str();
        }
    }
    line += '\n';
    std::lock_guard<std::mutex> lock(sinkMutex());
    // qpad-lint: allow(rawlog) "the log sink itself: every warn and
    // error line is written here"
    std::cerr << line;
}

} // namespace qpad::obs

// ---------------------------------------------------------------------
// common/logging.hh entry points: an error line, then the throw.
// ---------------------------------------------------------------------

namespace qpad::detail
{

namespace
{

std::string
sourceAt(const char *file, int line)
{
    return std::string(file) + ":" + std::to_string(line);
}

} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    obs::logEvent(obs::LogLevel::kError, "log.panic",
                  {{"msg", msg}, {"at", sourceAt(file, line)}});
    // Throwing (instead of abort()) keeps panics testable; the type is
    // logic_error because a panic always indicates a qpad bug.
    throw std::logic_error("panic: " + msg);
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    obs::logEvent(obs::LogLevel::kError, "log.fatal",
                  {{"msg", msg}, {"at", sourceAt(file, line)}});
    throw std::runtime_error("fatal: " + msg);
}

} // namespace qpad::detail
