/**
 * @file
 * Experiment E8 (paper Section 5.4.1): effect of the layout design
 * subroutine. eff-layout-only (Algorithm 1 layout, baseline buses
 * and 5-frequency scheme) vs the ibm general-purpose designs: the
 * 2-qubit-bus-only layout point should offer comparable-or-better
 * performance than ibm(2) at ~35x (paper average) higher yield.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hh"
#include "benchmarks/suite.hh"
#include "eval/experiment.hh"
#include "eval/report.hh"

using namespace qpad;
using eval::formatFixed;
using eval::formatYield;

int
main()
{
    auto options = bench::paperOptions();
    options.run_eff_full = false;
    options.run_eff_5_freq = false;
    options.run_eff_rd_bus = false;
    const exec::TimePoint deadline = bench::requestDeadline();

    eval::printHeader(std::cout,
                      "Section 5.4.1: layout design effect "
                      "(eff-layout-only vs ibm)");
    std::cout << "bench             variant       Q conn  gates   "
              << "yield      vs ibm(2): perf, yield\n";

    std::vector<double> yield_ratios;
    std::vector<double> perf_ratios;
    for (const auto &info : benchmarks::paperSuite()) {
        eval::BenchmarkExperiment e;
        try {
            e = eval::runBenchmark(info, options, deadline);
        } catch (const exec::CancelledError &) {
            return bench::requestStopped();
        }
        const eval::DataPoint *ibm2 = nullptr;
        for (const auto &p : e.points)
            if (p.arch_name == "ibm-16q-4qbus")
                ibm2 = &p;
        for (const auto *p : e.config("eff-layout-only")) {
            bool two_q = p->arch_name.find("-2q") != std::string::npos;
            std::cout << "  " << info.name;
            for (std::size_t pad = info.name.size(); pad < 16; ++pad)
                std::cout << ' ';
            std::cout << (two_q ? "2q-bus only " : "max 4q-bus  ")
                      << p->num_qubits << " " << p->num_edges << "   "
                      << p->gate_count << "   "
                      << formatYield(p->yield);
            if (two_q && ibm2) {
                double perf =
                    double(ibm2->gate_count) / p->gate_count - 1.0;
                perf_ratios.push_back(perf);
                std::cout << "   " << formatFixed(100 * perf, 1) << "%";
                double floor = ibm2->yield_trials > 0
                                   ? 1.0 / double(ibm2->yield_trials)
                                   : 1e-7;
                double denom = std::max(ibm2->yield, floor);
                if (p->yield > 0) {
                    double yr = p->yield / denom;
                    yield_ratios.push_back(yr);
                    std::cout << ", "
                              << (ibm2->yield > 0 ? "" : ">=")
                              << formatFixed(yr, 1) << "x";
                } else {
                    // Both chips below the Monte Carlo floor: the
                    // ratio is genuinely unresolved.
                    std::cout << ", n/a (both below MC floor)";
                }
            }
            std::cout << "\n";
        }
    }
    std::cout << "\ngeomean yield gain of the 2q-only optimized "
              << "layout over ibm(2), over the\n"
              << yield_ratios.size()
              << " benchmarks where both yields are measurable: "
              << formatFixed(eval::geomean(yield_ratios), 1)
              << "x  (paper: ~35x average)\n";
    double mean_perf = 0;
    for (double p : perf_ratios)
        mean_perf += p;
    if (!perf_ratios.empty())
        mean_perf /= perf_ratios.size();
    std::cout << "mean performance delta vs ibm(2): "
              << formatFixed(100 * mean_perf, 1)
              << "%  (paper: better or comparable most of the time)\n";
    return 0;
}
