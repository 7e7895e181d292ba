#include "check.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "eval/report.hh"

namespace qpad::perfbench
{

namespace
{

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/** Does row `i` of `rows` equal row `i` of `expected`? */
bool
sameRow(const std::vector<std::string> &rows,
        const std::vector<std::string> &expected, std::size_t i)
{
    return i < rows.size() && i < expected.size() &&
           rows[i] == expected[i];
}

/** Rows of `csv` after its header. */
std::size_t
dataRows(const std::vector<std::string> &csv)
{
    return csv.empty() ? 0 : csv.size() - 1;
}

} // namespace

std::string
sweepCsv(const Sweep &sweep)
{
    std::ostringstream out;
    bool header = true;
    for (const eval::BenchmarkExperiment &experiment : sweep) {
        eval::printExperimentCsv(out, experiment, header);
        header = false;
    }
    return out.str();
}

std::string
pointProblem(const eval::DataPoint &point,
             const eval::ExperimentOptions &options)
{
    if (!std::isfinite(point.yield) || point.yield < 0.0 ||
        point.yield > 1.0)
        return "yield " + std::to_string(point.yield) +
               " outside [0, 1]";
    const std::size_t budget = options.yield_options.trials;
    const std::size_t cap = options.adaptive_yield_trials
                                ? std::max(budget, options.max_yield_trials)
                                : budget;
    if (point.yield_trials < budget || point.yield_trials > cap)
        return "yield_trials " + std::to_string(point.yield_trials) +
               " outside [" + std::to_string(budget) + ", " +
               std::to_string(cap) + "]";
    if (point.gate_count == 0)
        return "zero post-mapping gate count";
    return "";
}

Checker::Checker(eval::ExperimentOptions options,
                 std::string reference_csv)
    : options_(std::move(options)),
      reference_rows_(splitLines(reference_csv))
{
}

std::size_t
Checker::check(const Sweep &sweep)
{
    const std::vector<std::string> rows = splitLines(sweepCsv(sweep));
    // Row 0 is the header: if it changed, no row can be trusted.
    const bool header_ok =
        (!have_first_ || sameRow(rows, first_rows_, 0)) &&
        (reference_rows_.empty() || sameRow(rows, reference_rows_, 0));

    std::size_t points = 0, bad = 0;
    for (const eval::BenchmarkExperiment &experiment : sweep) {
        for (const eval::DataPoint &p : experiment.points) {
            const std::size_t row = ++points;
            std::string why = pointProblem(p, options_);
            if (why.empty() && !header_ok)
                why = "CSV header differs";
            if (why.empty() && have_first_ &&
                !sameRow(rows, first_rows_, row))
                why = "CSV row differs from the run's first sweep";
            if (why.empty() && !reference_rows_.empty() &&
                !sameRow(rows, reference_rows_, row))
                why = "CSV row differs from the reference";
            if (!why.empty()) {
                ++bad;
                note(experiment.benchmark + "/" + p.arch_name + ": " +
                     why);
            }
        }
    }
    // Points the first sweep (or the reference) had but this sweep
    // lacks are failures too.
    const std::size_t expected =
        std::max({points, dataRows(first_rows_), dataRows(reference_rows_)});
    if (expected > points)
        note(std::to_string(expected - points) + " points missing");
    bad += expected - points;

    if (!have_first_) {
        first_rows_ = rows;
        have_first_ = true;
    }
    attempted_ += expected;
    failed_ += bad;
    return bad;
}

void
Checker::fail(std::size_t n, const std::string &why)
{
    failed_ += n;
    note(why);
}

void
Checker::note(const std::string &why)
{
    if (problems_.size() < 20)
        problems_.push_back(why);
}

} // namespace qpad::perfbench
