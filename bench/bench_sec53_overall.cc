/**
 * @file
 * Experiment E6 (paper Section 5.3): headline Pareto comparisons.
 *
 * Paper claims reproduced in shape:
 *  - the most simplified eff-full design beats ibm(1) (16q, 2-qubit
 *    buses) in BOTH performance (~7.7%) and yield (~4x);
 *  - against ibm(2) (16q + four 4-qubit buses): orders of magnitude
 *    yield gain with small (<~1%) performance loss;
 *  - against ibm(4) (20q + six 4-qubit buses): ~1000x yield gain for
 *    a few percent performance loss;
 *  - controllability: varying K trades ~10-50x yield for 10-33%
 *    performance.
 *
 * QPAD_DEADLINE_MS=<millis> arms a deadline on the run's request
 * context; if it expires the run stops within one chunk of work or
 * between two yield-escalation steps, keeps the stdout printed so
 * far, prints one `[warn] exec.request_stopped` line on stderr and
 * exits 4.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hh"
#include "benchmarks/suite.hh"
#include "eval/experiment.hh"
#include "eval/report.hh"
#include "exec/cancel.hh"

using namespace qpad;
using eval::formatFixed;
using eval::formatYield;

namespace
{

struct Row
{
    std::string benchmark;
    double perf_vs_ibm1 = 0;  // gates(ibm1) / gates(eff-min) - 1
    double yield_vs_ibm1 = 0; // yield(eff-min) / yield(ibm1)
    double perf_vs_ibm2 = 0;  // gates(eff-min) / gates(ibm2) - 1
    double yield_vs_ibm2 = 0;
    double perf_vs_ibm4 = 0;  // gates(eff-max) / gates(ibm4) - 1
    double yield_vs_ibm4 = 0;
    double ctrl_yield = 0;    // yield range within eff-full
    double ctrl_perf = 0;     // perf range within eff-full
};

const eval::DataPoint *
byName(const eval::BenchmarkExperiment &e, const std::string &name)
{
    for (const auto &p : e.points)
        if (p.arch_name == name)
            return &p;
    return nullptr;
}

} // namespace

int
main()
{
    auto options = bench::paperOptions();
    options.run_eff_rd_bus = false;
    options.run_eff_5_freq = false;
    options.run_eff_layout_only = false;
    const exec::Context ctx = bench::requestContext();

    eval::printHeader(std::cout,
                      "Section 5.3: overall improvement vs IBM "
                      "baselines");

    std::vector<Row> rows;
    for (const auto &info : benchmarks::paperSuite()) {
        eval::BenchmarkExperiment e;
        try {
            e = eval::runBenchmark(info, options, ctx);
        } catch (const exec::CancelledError &stop) {
            return bench::requestStopped(stop);
        }
        auto eff = e.config("eff-full");
        if (eff.empty())
            continue;
        const auto *eff_min = eff.front(); // K = 0
        const auto *eff_max = eff.back();  // max beneficial K
        const auto *ibm1 = byName(e, "ibm-16q-2qbus");
        const auto *ibm2 = byName(e, "ibm-16q-4qbus");
        const auto *ibm4 = byName(e, "ibm-20q-4qbus");

        Row row;
        row.benchmark = info.name;
        // When the baseline yield is below the Monte Carlo floor,
        // clamp the denominator at 1/trials: the reported ratio is
        // then a conservative LOWER bound on the true gain.
        auto safe_ratio = [](double a, const eval::DataPoint *p) {
            double floor = p->yield_trials > 0
                               ? 1.0 / double(p->yield_trials)
                               : 1e-7;
            return a / std::max(p->yield, floor);
        };
        if (ibm1) {
            row.perf_vs_ibm1 =
                double(ibm1->gate_count) / eff_min->gate_count - 1.0;
            row.yield_vs_ibm1 = safe_ratio(eff_min->yield, ibm1);
        }
        if (ibm2) {
            row.perf_vs_ibm2 =
                double(eff_min->gate_count) / ibm2->gate_count - 1.0;
            row.yield_vs_ibm2 = safe_ratio(eff_min->yield, ibm2);
        }
        if (ibm4) {
            row.perf_vs_ibm4 =
                double(eff_max->gate_count) / ibm4->gate_count - 1.0;
            row.yield_vs_ibm4 = safe_ratio(eff_max->yield, ibm4);
        }
        double min_y = 1e18, max_y = 0, min_g = 1e18, max_g = 0;
        for (const auto *p : eff) {
            min_y = std::min(min_y, p->yield);
            max_y = std::max(max_y, p->yield);
            min_g = std::min(min_g, double(p->gate_count));
            max_g = std::max(max_g, double(p->gate_count));
        }
        row.ctrl_yield = min_y > 0 ? max_y / min_y : 0.0;
        row.ctrl_perf = max_g / min_g - 1.0;
        rows.push_back(row);

        std::cout << info.name << ":\n"
                  << "  eff-min vs ibm(1): perf "
                  << formatFixed(100 * row.perf_vs_ibm1, 1)
                  << "% better, yield "
                  << formatFixed(row.yield_vs_ibm1, 1) << "x\n"
                  << "  eff-min vs ibm(2): perf loss "
                  << formatFixed(100 * row.perf_vs_ibm2, 1)
                  << "%, yield " << formatFixed(row.yield_vs_ibm2, 0)
                  << "x\n"
                  << "  eff-max vs ibm(4): perf loss "
                  << formatFixed(100 * row.perf_vs_ibm4, 1)
                  << "%, yield " << formatFixed(row.yield_vs_ibm4, 0)
                  << "x\n"
                  << "  controllability inside eff-full: "
                  << formatFixed(row.ctrl_yield, 1)
                  << "x yield range for "
                  << formatFixed(100 * row.ctrl_perf, 1)
                  << "% gate-count range\n";
    }

    // Aggregate (geometric means; paper reports averages).
    std::vector<double> y1, y2, y4, p1, p2, p4;
    for (const auto &r : rows) {
        if (r.yield_vs_ibm1 > 0)
            y1.push_back(r.yield_vs_ibm1);
        if (r.yield_vs_ibm2 > 0)
            y2.push_back(r.yield_vs_ibm2);
        if (r.yield_vs_ibm4 > 0)
            y4.push_back(r.yield_vs_ibm4);
        p1.push_back(r.perf_vs_ibm1);
        p2.push_back(r.perf_vs_ibm2);
        p4.push_back(r.perf_vs_ibm4);
    }
    auto mean = [](const std::vector<double> &v) {
        double s = 0;
        for (double x : v)
            s += x;
        return v.empty() ? 0.0 : s / v.size();
    };
    std::cout << "\n=== aggregate (paper Section 5.3 claims) ===\n";
    std::cout << "geomean yield gain vs ibm(1): "
              << formatFixed(eval::geomean(y1), 1)
              << "x  (paper: ~4x);  mean perf gain: "
              << formatFixed(100 * mean(p1), 1)
              << "%  (paper: ~7.7%)\n";
    std::cout << "geomean yield gain vs ibm(2): "
              << formatFixed(eval::geomean(y2), 0)
              << "x  (paper: >100x);  mean perf loss: "
              << formatFixed(100 * mean(p2), 1)
              << "%  (paper: <1%)\n";
    std::cout << "geomean yield gain vs ibm(4): "
              << formatFixed(eval::geomean(y4), 0)
              << "x  (paper: ~1000x);  mean perf loss: "
              << formatFixed(100 * mean(p4), 1)
              << "%  (paper: ~3.5%)\n";
    return 0;
}
