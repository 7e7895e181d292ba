/**
 * @file
 * Experiment E9 (paper Section 5.4.2): quality of the weighted
 * 4-qubit bus selection. eff-full's (yield, gates) points are
 * compared against random bus placements with the same bus count:
 * the weighted choice should dominate or match the random samples'
 * envelope — except for qft_16, whose uniform coupling pattern
 * makes weighted selection equivalent to random (paper's noted
 * worst case), and the small benchmarks where the option space is
 * tiny.
 */

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
    options.run_eff_5_freq = false;
    options.run_eff_layout_only = false;
    options.random_bus_samples =
        bench::fastMode() ? 3 : 8; // scatter like Figure 10
    const exec::Context ctx = bench::requestContext();

    eval::printHeader(std::cout,
                      "Section 5.4.2: weighted vs random 4-qubit bus "
                      "selection");

    for (const auto &info : benchmarks::paperSuite()) {
        eval::BenchmarkExperiment e;
        try {
            e = eval::runBenchmark(info, options, ctx);
        } catch (const exec::CancelledError &stop) {
            return bench::requestStopped(stop);
        }
        auto eff = e.config("eff-full");
        auto rd = e.config("eff-rd-bus");
        if (eff.size() <= 1) {
            std::cout << info.name
                      << ": no 4-qubit bus is beneficial (chain "
                      << "pattern) - weighted selection adds none\n";
            continue;
        }
        std::cout << info.name << ":\n";
        std::cout << "  weighted (eff-full):";
        for (const auto *p : eff)
            std::cout << "  [" << p->num_buses << " buses: "
                      << p->gate_count << " gates, "
                      << formatYield(p->yield) << "]";
        std::cout << "\n  random   (eff-rd-bus):";
        for (const auto *p : rd)
            std::cout << "  [" << p->num_buses << " buses: "
                      << p->gate_count << " gates, "
                      << formatYield(p->yield) << "]";
        std::cout << "\n";

        // Compare at matched bus count: weighted gates must be <=
        // the random mean (performance is what bus selection buys).
        std::map<std::size_t, std::pair<double, int>> random_gates;
        for (const auto *p : rd) {
            auto &[sum, count] = random_gates[p->num_buses];
            sum += double(p->gate_count);
            ++count;
        }
        for (const auto *p : eff) {
            auto it = random_gates.find(p->num_buses);
            if (it == random_gates.end() || p->num_buses == 0)
                continue;
            double mean = it->second.first / it->second.second;
            std::cout << "  at " << p->num_buses
                      << " buses: weighted " << p->gate_count
                      << " gates vs random mean "
                      << formatFixed(mean, 0) << " ("
                      << formatFixed(100 * (mean / p->gate_count - 1),
                                     1)
                      << "% worse than weighted)\n";
        }
    }
    std::cout << "\nExpected shape: weighted selection <= random mean "
              << "gates at equal bus count\nfor the structured "
              << "benchmarks; qft_16 shows no advantage (uniform "
              << "pattern).\n";
    return 0;
}
