/**
 * @file
 * Warnings and errors: one text line on stderr per event.
 *
 * An event is a literal name plus ordered key-value fields:
 *
 *     obs::logWarn("obs.metrics_write_failed", {{"path", dest}});
 *
 * prints `[warn] obs.metrics_write_failed path="..."`. Fields print
 * in the order written, strings quoted and escaped, and no line
 * carries a timestamp, so two runs that emit the same events print
 * the same bytes. Lines are written under one lock, which is leaked
 * because events may fire during static destruction. Every event is
 * also recorded in the calling thread's flight ring (obs/flight.hh)
 * as an instant carrying its level.
 *
 * Event names must be string literals in the metric-name grammar
 * ([a-z0-9._-]): the flight recorder stores the pointer, never a
 * copy. qpad_panic/fatal/assert (common/logging.hh) emit their
 * `log.panic` / `log.fatal` errors here before throwing; logging
 * never feeds back into any computation.
 */

#ifndef QPAD_OBS_LOG_HH
#define QPAD_OBS_LOG_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace qpad::obs
{

enum class LogLevel : uint8_t
{
    kWarn,
    kError,
};

/** "warn" / "error". */
const char *logLevelName(LogLevel level);

/** One field value, a string or a number; never owns memory. String
 * values must outlive the logEvent() call (they are formatted
 * synchronously, so temporaries at the call site are fine). */
class LogValue
{
  public:
    LogValue(const char *v) : str_(v), is_string_(true) {}
    LogValue(std::string_view v) : str_(v), is_string_(true) {}
    LogValue(const std::string &v) : str_(v), is_string_(true) {}
    LogValue(double v) : num_(v) {}

    bool isString() const { return is_string_; }
    std::string_view str() const { return str_; }
    double number() const { return num_; }

  private:
    std::string_view str_;
    double num_ = 0.0;
    bool is_string_ = false;
};

/** One key-value pair; the key must be a string literal. */
struct LogField
{
    std::string_view key;
    LogValue value;
};

/**
 * Emit one event: a line on stderr and an instant in the flight
 * ring. `event` must be a string literal ([a-z0-9._-]); fields print
 * in the order given.
 */
void logEvent(LogLevel level, const char *event,
              std::initializer_list<LogField> fields = {});

inline void
logWarn(const char *event, std::initializer_list<LogField> fields = {})
{
    logEvent(LogLevel::kWarn, event, fields);
}

} // namespace qpad::obs

#endif // QPAD_OBS_LOG_HH
