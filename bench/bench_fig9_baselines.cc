/**
 * @file
 * Experiment E4 (paper Figure 9): IBM's four general-purpose
 * baseline designs — layouts, 5-frequency tilings, bus placements —
 * and their simulated yields.
 *
 * Yield estimates go through cache::cachedEstimateYield; stdout is
 * byte-identical with the cache on or off (QPAD_CACHE=0), which the
 * qpad_golden test checks. QPAD_DEADLINE_MS=<millis> arms a deadline
 * on the run's request context; if it expires the run stops within
 * one chunk of work, keeps the stdout printed so far, prints one
 * `[warn] exec.request_stopped` line on stderr and exits 4.
 */

#include <iostream>

#include "arch/ibm.hh"
#include "bench_common.hh"
#include "cache/yield_cache.hh"
#include "eval/report.hh"
#include "exec/cancel.hh"
#include "yield/yield_sim.hh"

using namespace qpad;

int
main()
{
    eval::printHeader(std::cout, "Figure 9: IBM baseline designs");
    auto yopts = bench::paperOptions().yield_options;
    const exec::Context ctx = bench::requestContext();
    try {
        int label = 1;
        for (const auto &arch : arch::ibmBaselines()) {
            std::cout << "(" << label++ << ") " << arch.str();
            // Frequency tiling as 1..5 indices, matching the figure.
            const auto &values = arch::fiveFrequencyValues();
            std::cout << "frequency tiling (1..5):\n";
            for (int r = arch.layout().minRow();
                 r <= arch.layout().maxRow(); ++r) {
                std::cout << "  ";
                for (int c = arch.layout().minCol();
                     c <= arch.layout().maxCol(); ++c) {
                    auto q = arch.layout().qubitAt({r, c});
                    if (!q) {
                        std::cout << ". ";
                        continue;
                    }
                    for (std::size_t k = 0; k < values.size(); ++k)
                        if (std::abs(arch.frequency(*q) - values[k]) < 1e-9)
                            std::cout << (k + 1) << " ";
                }
                std::cout << "\n";
            }
            auto r = cache::cachedEstimateYield(arch, yopts, ctx);
            std::cout << "simulated yield (sigma = "
                      << yopts.sigma_ghz * 1000 << " MHz, " << yopts.trials
                      << " trials): " << eval::formatYield(r.yield)
                      << " +- " << eval::formatYield(r.stderrEstimate())
                      << "\n\n";
        }
    } catch (const exec::CancelledError &e) {
        return bench::requestStopped(e);
    }
    std::cout << "Expected shape: yield drops monotonically with "
              << "connection count\n(16q-2qbus > 16q-4qbus, "
              << "20q-2qbus > 20q-4qbus).\n";
    return 0;
}
