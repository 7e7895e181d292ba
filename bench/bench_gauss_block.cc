/**
 * @file
 * Microbenchmark of Gaussian sampling for the yield Monte Carlo:
 * scalar Rng::gaussian() filling SoA trial blocks trial by trial
 * versus the lane-parallel GaussianBlockSampler filling them
 * directly, plus the end-to-end estimateYield cost per trial,
 * single-threaded so the sampler itself is what is measured.
 *
 * The bench also asserts the determinism contract on every run —
 * bit-identical estimateYield tallies across thread counts — and
 * exits nonzero on any violation. QPAD_FAST reduces the budgets.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "arch/ibm.hh"
#include "bench_common.hh"
#include "common/gauss_block.hh"
#include "common/rng.hh"
#include "eval/report.hh"
#include "yield/yield_sim.hh"

using namespace qpad;

namespace
{

constexpr std::size_t B = GaussianBlockSampler::kLanes;

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * ns per deviate for both samplers filling `reps` SoA blocks of
 * nq qubits by 8 lanes (the estimateYield inner loop with the
 * collision check removed).
 */
void
benchFill(std::size_t nq, std::size_t reps, bench::BenchJson *json)
{
    std::vector<double> means(nq);
    for (std::size_t q = 0; q < nq; ++q)
        means[q] = 5.0 + 0.01 * double(q % 34);
    std::vector<double> block(nq * B);
    const double sigma = 0.030;
    using clock = std::chrono::steady_clock;

    Rng rng(1);
    double sink = 0.0;
    const auto s0 = clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
        for (std::size_t l = 0; l < B; ++l)
            for (std::size_t q = 0; q < nq; ++q)
                block[q * B + l] = rng.gaussian(means[q], sigma);
        sink += block[0];
    }
    const auto s1 = clock::now();

    GaussianBlockSampler sampler(1);
    const auto b0 = clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
        sampler.fillAffine(block.data(), means.data(), sigma, nq);
        sink += block[0];
    }
    const auto b1 = clock::now();

    const double deviates = double(reps) * double(nq) * double(B);
    const double scalar_ns = seconds(s0, s1) / deviates * 1e9;
    const double lane_ns = seconds(b0, b1) / deviates * 1e9;
    std::printf("%-22s %11.2f %11.2f %9.2fx   (sink %.3g)\n",
                nq == 16 ? "fill 16q blocks" : "fill 32q blocks",
                scalar_ns, lane_ns, scalar_ns / lane_ns, sink);
    if (json) {
        const std::string prefix = "fill" + std::to_string(nq) + "q_";
        json->metric(prefix + "scalar_ns", scalar_ns);
        json->metric(prefix + "lanes_ns", lane_ns);
        json->metric(prefix + "speedup", scalar_ns / lane_ns);
    }
}

/** us per trial of estimateYield. */
double
timeYield(const arch::Architecture &arch, std::size_t trials,
          std::size_t &successes)
{
    yield::YieldOptions opts;
    opts.trials = trials;
    opts.seed = 11;
    opts.sigma_ghz = 0.030;
    opts.exec.num_threads = 1;
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const auto r = yield::estimateYield(arch, opts);
    const auto t1 = clock::now();
    successes = r.successes;
    return seconds(t0, t1) / double(trials) * 1e6;
}

/** Thread-count identity check; returns 0 when it holds. */
int
checkDeterminism(const arch::Architecture &arch, std::size_t trials)
{
    yield::YieldOptions opts;
    opts.trials = trials + 3; // force a remainder batch
    opts.seed = 2020;
    opts.exec.num_threads = 1;
    const auto seq = yield::estimateYield(arch, opts);
    opts.exec.num_threads = 4;
    const auto par = yield::estimateYield(arch, opts);
    if (seq.successes == par.successes)
        return 0;
    std::printf("DETERMINISM VIOLATION: threads 1 vs 4: %zu != %zu\n",
                seq.successes, par.successes);
    return 1;
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
            std::fprintf(stderr, "usage: %s [--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    bench::BenchJson json("gauss_block");
    bench::BenchJson *jp = json_path.empty() ? nullptr : &json;

    eval::printHeader(std::cout,
                      "Gaussian sampling: scalar Rng vs lane-parallel "
                      "block sampler");

    const std::size_t reps = bench::fastMode() ? 20000 : 200000;
    std::printf("%zu blocks of 8 lanes per pass\n\n", reps);
    std::printf("%-22s %11s %11s %10s\n", "workload", "scalar ns",
                "lanes ns", "speedup");
    if (jp)
        jp->config("reps", reps);
    benchFill(16, reps, jp);
    benchFill(32, reps, jp);

    const std::size_t trials = bench::fastMode() ? 40000 : 200000;
    auto arch = arch::ibm16Q(false);
    std::size_t successes = 0;
    const double us = timeYield(arch, trials, successes);
    std::printf("\nestimateYield (16q, sigma 30 MHz, %zu trials, "
                "1 thread): %.3f us/trial (yield %.4f)\n",
                trials, us, double(successes) / double(trials));

    const int rc = checkDeterminism(arch, bench::fastMode() ? 5000
                                                            : 20000);
    if (rc == 0)
        std::printf("\ndeterminism contract holds (threads, "
                    "remainders)\n");
    if (jp) {
        jp->config("yield_trials", trials);
        jp->metric("yield_us_per_trial", us);
        jp->metric("determinism_ok", rc == 0);
        json.writeTo(json_path);
    }
    return rc;
}
