/**
 * @file
 * Experiment E10 (paper Section 5.4.3): frequency-allocation gain.
 * eff-full vs eff-5-freq at matched layout/bus configurations; the
 * paper reports ~10x average yield improvement, smaller when the
 * 5-frequency yield is already high (sym6, UCCSD).
 */

#include <algorithm>
#include <iostream>
#include <map>

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
    options.run_ibm = false;
    options.run_eff_rd_bus = false;
    options.run_eff_layout_only = false;
    const exec::Context ctx = bench::requestContext();

    eval::printHeader(std::cout,
                      "Section 5.4.3: optimized frequency allocation "
                      "vs 5-frequency scheme");
    std::cout << "bench             K  five-freq   optimized   gain\n";

    std::vector<double> gains;
    for (const auto &info : benchmarks::paperSuite()) {
        eval::BenchmarkExperiment e;
        try {
            e = eval::runBenchmark(info, options, ctx);
        } catch (const exec::CancelledError &stop) {
            return bench::requestStopped(stop);
        }
        // Index the eff-5-freq points by bus count.
        std::map<std::size_t, const eval::DataPoint *> five;
        for (const auto *p : e.config("eff-5-freq"))
            five[p->num_buses] = p;
        for (const auto *p : e.config("eff-full")) {
            auto it = five.find(p->num_buses);
            if (it == five.end())
                continue;
            double floor = it->second->yield_trials > 0
                               ? 1.0 / double(it->second->yield_trials)
                               : 1e-7;
            // Lower-bound the gain when the 5-frequency yield is
            // below the Monte Carlo floor.
            double gain = p->yield > 0
                              ? p->yield /
                                    std::max(it->second->yield, floor)
                              : 0.0;
            std::cout << "  " << info.name;
            for (std::size_t pad = info.name.size(); pad < 16; ++pad)
                std::cout << ' ';
            std::cout << p->num_buses << "  "
                      << formatYield(it->second->yield) << "   "
                      << formatYield(p->yield) << "   ";
            if (gain > 0)
                std::cout << formatFixed(gain, 1) << "x";
            else if (p->yield > 0)
                std::cout << "inf";
            else
                std::cout << "-";
            std::cout << "\n";
            if (gain > 0)
                gains.push_back(gain);
        }
    }
    std::cout << "\ngeomean yield gain of Algorithm 3 over the "
              << "5-frequency scheme: "
              << formatFixed(eval::geomean(gains), 1)
              << "x  (paper: ~10x average)\n";
    return 0;
}
