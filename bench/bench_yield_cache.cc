/**
 * @file
 * Microbenchmark of the yield-estimate cache: a sweep of
 * estimateYield calls over the IBM baselines plus a designed chip,
 * run cold (empty cache) and warm (same keys again). The warm sweep
 * must be pure hash lookups — the bench asserts bit-identical
 * results, zero warm recomputation, and a >= 10x warm speedup, so CI
 * catches a silently disabled or miskeyed cache as a failure.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "arch/ibm.hh"
#include "bench_common.hh"
#include "cache/yield_cache.hh"
#include "design/design_flow.hh"
#include "eval/report.hh"
#include "profile/coupling.hh"

using namespace qpad;

namespace
{

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** The sweep working set: every baseline plus one designed chip. */
std::vector<arch::Architecture>
sweepArchitectures(const eval::ExperimentOptions &opts)
{
    std::vector<arch::Architecture> archs = arch::ibmBaselines();
    auto circuit = benchmarks::getBenchmark("sym6_145").generate();
    profile::CouplingProfile prof = profile::profileCircuit(circuit);
    design::DesignFlowOptions flow;
    flow.freq_options = opts.freq_options;
    archs.push_back(
        design::designArchitecture(prof, flow, "eff-sym6").architecture);
    return archs;
}

int
runMicrobench(bench::BenchJson *json)
{
    eval::printHeader(std::cout,
                      "Yield-estimate cache: cold vs warm sweep");

    eval::ExperimentOptions opts = bench::paperOptions();
    // An enabled default store whatever the environment configured,
    // reset again after the design flow so the timed sweeps start
    // from an empty store.
    cache::configureGlobalCache({});
    const std::vector<arch::Architecture> archs =
        sweepArchitectures(opts);
    cache::configureGlobalCache({});
    // Two sigma points per architecture, as a frequency-allocation
    // style sweep would revisit them.
    const std::vector<double> sigmas = {0.030, 0.025};

    yield::YieldOptions yopts = opts.yield_options;
    using clock = std::chrono::steady_clock;

    auto sweep = [&] {
        // Fold the results so the work cannot be optimized away.
        double acc = 0.0;
        for (const arch::Architecture &arch : archs) {
            for (double sigma : sigmas) {
                yield::YieldOptions y = yopts;
                y.sigma_ghz = sigma;
                acc += cache::cachedEstimateYield(arch, y).yield;
            }
        }
        return acc;
    };

    const obs::Snapshot cold_before = obs::snapshot();
    const auto c0 = clock::now();
    const double cold_acc = sweep();
    const auto c1 = clock::now();
    const obs::Snapshot warm_before = obs::snapshot();
    const double warm_acc = sweep();
    const auto c2 = clock::now();
    const obs::Snapshot warm_delta = obs::deltaSince(warm_before);
    // Both sweeps' cache traffic; the residency gauges are levels,
    // and the store was empty before the cold sweep.
    const obs::Snapshot delta = obs::deltaSince(cold_before);
    const auto hits = uint64_t(obs::valueOf(delta, "cache.hits"));
    const auto misses = uint64_t(obs::valueOf(delta, "cache.misses"));
    const auto bytes = uint64_t(obs::valueOf(delta, "cache.bytes"));
    const auto entries = uint64_t(obs::valueOf(delta, "cache.entries"));

    const double cold_s = seconds(c0, c1);
    const double warm_s = seconds(c1, c2);
    const std::size_t keys = archs.size() * sigmas.size();

    std::printf("architectures: %zu, sigma points: %zu, trials/key: "
                "%zu\n",
                archs.size(), sigmas.size(), yopts.trials);
    std::printf("%-12s %12s %12s\n", "sweep", "seconds", "yield sum");
    std::printf("%-12s %12.4f %12.6f\n", "cold", cold_s, cold_acc);
    std::printf("%-12s %12.4f %12.6f\n", "warm", warm_s, warm_acc);
    std::printf("speedup: %.1fx, cache: %llu hits / %llu misses, "
                "%llu bytes in %llu entries\n",
                cold_s / warm_s, (unsigned long long)hits,
                (unsigned long long)misses, (unsigned long long)bytes,
                (unsigned long long)entries);

    int rc = 0;
    if (warm_acc != cold_acc) {
        std::fprintf(stderr, "FAIL: warm sweep changed the results\n");
        rc = 1;
    }
    if (misses != keys || hits != keys) {
        std::fprintf(stderr,
                     "FAIL: expected %zu misses + %zu hits, got "
                     "%llu + %llu\n",
                     keys, keys, (unsigned long long)misses,
                     (unsigned long long)hits);
        rc = 1;
    }
    if (cold_s < warm_s * 10.0) {
        std::fprintf(stderr,
                     "FAIL: warm sweep must be >= 10x faster "
                     "(cold %.4fs, warm %.4fs)\n",
                     cold_s, warm_s);
        rc = 1;
    }
    // Zero-recompute contract: a fully warm sweep is pure hash
    // lookups, so the expensive-work counters must not move at all.
    // Timing alone would let a 10x-faster-but-still-recomputing
    // regression slip through; the metric deltas cannot.
    for (const char *counter :
         {"design.flows", "yield.estimates", "eval.measurements"}) {
        const double moved = obs::valueOf(warm_delta, counter);
        if (moved != 0.0) {
            std::fprintf(stderr,
                         "FAIL: warm sweep recomputed work: %s "
                         "advanced by %.0f\n",
                         counter, moved);
            rc = 1;
        }
    }
    if (rc == 0)
        std::printf("\nwarm sweep served entirely from the cache\n");
    if (json) {
        json->config("architectures", archs.size());
        json->config("sigma_points", sigmas.size());
        json->config("trials_per_key", yopts.trials);
        json->metric("cold_seconds", cold_s);
        json->metric("warm_seconds", warm_s);
        json->metric("warm_speedup", cold_s / warm_s);
        json->metric("hits", hits);
        json->metric("misses", misses);
        json->metric("cache_ok", rc == 0);
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
            return 2;
        }
    }
    bench::BenchJson json("yield_cache");
    bench::BenchJson *jp = json_path.empty() ? nullptr : &json;
    const int rc = runMicrobench(jp);
    if (jp)
        json.writeTo(json_path);
    return rc;
}
