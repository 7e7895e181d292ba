/**
 * @file
 * Experiment E5 (paper Figure 10): the main result. For each of the
 * twelve benchmarks, prints the yield vs normalized-reciprocal-gate-
 * count series of all five experiment configurations (ibm, eff-full,
 * eff-5-freq, eff-rd-bus, eff-layout-only).
 *
 * The paper's reading: eff-full points sit up and to the right of
 * the ibm baselines (better Pareto front); ising_model_16 collapses
 * to a vertical line (Section 5.3.1); qft_16's bus selection behaves
 * like random selection (Section 5.4.2).
 *
 * Set QPAD_FIG10_CSV=1 to additionally emit machine-readable CSV,
 * or QPAD_FIG10_CSV=only for CSV alone (no report text — the CSV is
 * then byte-identical with the cache on or off, which the
 * qpad_golden test checks; the report would differ in its cache-
 * statistics line). Unset, empty or 0 prints the report alone; any
 * other value exits 2. QPAD_DEADLINE_MS=<millis> sets the sweep's
 * deadline; if it passes the run stops within one chunk of work,
 * prints one `[warn] exec.request_stopped` line on stderr and exits
 * 4 (CI gates on both the exit code and the stop latency).
 * QPAD_FIG10_SUITE=<substring>[,<substring>...] restricts the sweep
 * to matching benchmark names; a filter that matches none exits 2
 * before any work.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_common.hh"
#include "benchmarks/suite.hh"
#include "eval/experiment.hh"
#include "eval/report.hh"
#include "exec/cancel.hh"

using namespace qpad;

namespace
{

/** Does `name` match the QPAD_FIG10_SUITE `filter` (empty = all)? */
bool
suiteSelected(const std::string &filter, const std::string &name)
{
    if (filter.empty())
        return true;
    for (std::size_t pos = 0; pos < filter.size();) {
        std::size_t comma = filter.find(',', pos);
        if (comma == std::string::npos)
            comma = filter.size();
        const std::string item = filter.substr(pos, comma - pos);
        if (!item.empty() && name.find(item) != std::string::npos)
            return true;
        pos = comma + 1;
    }
    return false;
}

} // namespace

int
main()
{
    const char *csv_env = std::getenv("QPAD_FIG10_CSV");
    const std::string csv_mode = csv_env ? csv_env : "";
    if (csv_mode != "" && csv_mode != "0" && csv_mode != "1" &&
        csv_mode != "only")
        bench::dieOnEnv("QPAD_FIG10_CSV", csv_env,
                        "expected 0, 1 or only");
    const bool csv = csv_mode == "1" || csv_mode == "only";
    const bool csv_only = csv_mode == "only";

    // A filter that selects nothing would print nothing and exit 0,
    // so a typo in it would pass any check that compares outputs.
    const char *suite_env = std::getenv("QPAD_FIG10_SUITE");
    const std::string suite = suite_env ? suite_env : "";
    const auto &paper = benchmarks::paperSuite();
    if (std::none_of(paper.begin(), paper.end(), [&](const auto &info) {
            return suiteSelected(suite, info.name);
        }))
        bench::dieOnEnv("QPAD_FIG10_SUITE", suite_env,
                        "matches no benchmark name");

    auto options = bench::paperOptions();
    const exec::TimePoint deadline = bench::requestDeadline();
    if (!csv_only) {
        eval::printHeader(std::cout,
                          "Figure 10: yield vs normalized "
                          "1/gate-count, five configurations");
        std::cout << "yield trials = " << options.yield_options.trials
                  << ", sigma = "
                  << options.yield_options.sigma_ghz * 1000
                  << " MHz\n\n";
    }

    bool csv_header = true;
    try {
        for (const auto &info : paper) {
            if (!suiteSelected(suite, info.name))
                continue;
            auto experiment = eval::runBenchmark(info, options, deadline);
            if (!csv_only)
                eval::printExperiment(std::cout, experiment);
            if (csv) {
                eval::printExperimentCsv(std::cout, experiment,
                                         csv_header);
                csv_header = false;
            }
            if (csv_only)
                continue;

            // Per-benchmark headline, matching Section 5.3: the most
            // simplified eff design against ibm(1), and the richest
            // eff design against ibm(4).
            const eval::DataPoint *ibm1 = nullptr, *ibm4 = nullptr;
            for (const auto &p : experiment.points) {
                if (p.arch_name == "ibm-16q-2qbus")
                    ibm1 = &p;
                if (p.arch_name == "ibm-20q-4qbus")
                    ibm4 = &p;
            }
            auto eff = experiment.config("eff-full");
            if (ibm1 && ibm4 && !eff.empty()) {
                const auto *eff_min = eff.front();
                const auto *eff_max = eff.back();
                auto ratio_cell = [](double num,
                                     const eval::DataPoint *den) {
                    double floor = den->yield_trials > 0
                                       ? 1.0 / double(den->yield_trials)
                                       : 1e-7;
                    std::string prefix = den->yield > 0 ? "" : ">=";
                    return prefix +
                           eval::formatFixed(
                               num / std::max(den->yield, floor), 1) +
                           "x";
                };
                std::cout
                    << "  summary: eff-min vs ibm(1): yield "
                    << ratio_cell(eff_min->yield, ibm1) << ", gates "
                    << eval::formatFixed(double(eff_min->gate_count) /
                                             ibm1->gate_count,
                                         3)
                    << ";  eff-max vs ibm(4): yield "
                    << ratio_cell(eff_max->yield, ibm4) << ", gates "
                    << eval::formatFixed(double(eff_max->gate_count) /
                                             ibm4->gate_count,
                                         3)
                    << "\n";
            }
            std::cout << "\n";
        }
    } catch (const exec::CancelledError &) {
        return bench::requestStopped();
    }
    return 0;
}
