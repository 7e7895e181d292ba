/**
 * @file
 * Experiment E1 (paper Figure 3): the seven frequency-collision
 * conditions. Prints the condition/threshold table and, as a
 * behavioural check of the yield model, the fraction of Monte Carlo
 * fabrication attempts in which each condition fires on the IBM
 * baseline chips.
 */

#include <iostream>

#include "arch/ibm.hh"
#include "bench_common.hh"
#include "cache/yield_cache.hh"
#include "eval/report.hh"
#include "yield/yield_sim.hh"

using namespace qpad;

int
main()
{
    eval::printHeader(std::cout,
                      "Figure 3: frequency collision conditions");

    yield::CollisionModel model;
    std::cout << "condition  relation                     threshold\n";
    std::cout << "1          f_j ~ f_k                    +-"
              << model.thr1 * 1000 << " MHz\n";
    std::cout << "2          f_j ~ f_k - delta/2          +-"
              << model.thr2 * 1000 << " MHz\n";
    std::cout << "3          f_j ~ f_k - delta            +-"
              << model.thr3 * 1000 << " MHz\n";
    std::cout << "4          f_j >  f_k - delta           (none)\n";
    std::cout << "5          f_i ~ f_k    (common j)      +-"
              << model.thr5 * 1000 << " MHz\n";
    std::cout << "6          f_i ~ f_k - delta (common j) +-"
              << model.thr6 * 1000 << " MHz\n";
    std::cout << "7          2f_j + delta ~ f_k + f_i     +-"
              << model.thr7 * 1000 << " MHz\n";
    std::cout << "delta (anharmonicity) = " << model.delta * 1000
              << " MHz, band = ["
              << arch::DeviceConstants::freq_min_ghz << ", "
              << arch::DeviceConstants::freq_max_ghz << "] GHz\n\n";

    auto opts = bench::paperOptions().yield_options;
    opts.collect_condition_stats = true;

    std::cout << "Per-condition incidence (fraction of fabrication "
              << "attempts with >= 1 hit),\nsigma = "
              << opts.sigma_ghz * 1000 << " MHz, " << opts.trials
              << " trials:\n\n";
    std::cout << "architecture     yield      c1     c2     c3     c4"
              << "     c5     c6     c7\n";
    for (const auto &arch : arch::ibmBaselines()) {
        // Cached front end: condition statistics are part of the
        // key, so these never alias the plain estimates of the
        // same chips.
        auto r = cache::cachedEstimateYield(arch, opts);
        std::cout << "  " << arch.name();
        for (std::size_t pad = arch.name().size(); pad < 15; ++pad)
            std::cout << ' ';
        std::cout << eval::formatYield(r.yield);
        for (int c = 1; c <= 7; ++c)
            std::cout << "  "
                      << eval::formatFixed(
                             double(r.condition_trials[c]) / r.trials,
                             3);
        std::cout << "\n";
    }
    std::cout << "\nExpected shape: conditions with wide thresholds "
              << "(1, 3, 5, 6) dominate;\nchips with 4-qubit buses "
              << "(more edges and triples) fail more often.\n";
    return 0;
}
