/**
 * @file
 * Experiment E4 (paper Figure 9): IBM's four general-purpose
 * baseline designs — layouts, 5-frequency tilings, bus placements —
 * and their simulated yields.
 *
 * Yield estimates go through cache::cachedEstimateYield; stdout is
 * byte-identical with the cache on or off (QPAD_CACHE=0), which the
 * qpad_golden test checks.
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
    eval::printHeader(std::cout, "Figure 9: IBM baseline designs");
    auto yopts = bench::paperOptions().yield_options;
    // Request-scoped telemetry: spans, log events, and flight-
    // recorder entries of the whole run carry this request's id, and
    // QPAD_REQUEST_REPORT gets one report on exit. Observability
    // only — stdout stays byte-identical with or without it.
    const exec::Context ctx = bench::requestContext();
    exec::RequestScope scope(ctx, "fig9_baselines");

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
    std::cout << "Expected shape: yield drops monotonically with "
              << "connection count\n(16q-2qbus > 16q-4qbus, "
              << "20q-2qbus > 20q-4qbus).\n";
    return 0;
}
