/**
 * @file
 * Workload definitions of qpad-bench: the seed -> options derivation,
 * the hermetic-environment guard, and the configuration stamp that
 * goes with every result.
 *
 * Every workload is the paper's twelve-program Figure 10 sweep
 * (eval::runBenchmark over benchmarks::paperSuite()). The options are
 * built here from public structs only; no QPAD_* variable is read.
 */

#ifndef QPAD_PERFBENCH_CONFIG_HH
#define QPAD_PERFBENCH_CONFIG_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "eval/experiment.hh"

namespace qpad::perfbench
{

/** Both start every sweep from a fresh in-memory result cache. */
enum class Workload
{
    Paper, ///< paper budgets
    Fast,  ///< QPAD_FAST budgets
};

std::optional<Workload> parseWorkload(const std::string &name);
const char *workloadName(Workload workload);

/**
 * Options of one sweep. Budgets follow bench_common.hh's paperOptions()
 * (fast budgets for Workload::Fast, paper budgets otherwise); `threads`
 * goes to the data-point, yield and freq-alloc runtimes alike.
 *
 * Seed 0 keeps the library's default RNG seeds, so its sweep is byte
 * for byte the fig10 bench's CSV. Any other seed derives each RNG seed
 * (yield, freq-alloc, mapping, random-bus base) from it by SplitMix64,
 * one stream per consumer.
 */
eval::ExperimentOptions sweepOptions(Workload workload, uint64_t seed,
                                     std::size_t threads);

/** CPUs this process may run on (what `nproc` prints). */
std::size_t availableCpus();

/**
 * The QPAD_* variables among `environment` ("NAME=value" entries) that
 * change what the library computes or what it costs: QPAD_FAST,
 * QPAD_THREADS, QPAD_CACHE*, QPAD_RNG_V1, QPAD_SCALAR_KERNEL,
 * QPAD_FAILPOINTS, QPAD_DEADLINE_MS, QPAD_TRACE, QPAD_METRICS,
 * QPAD_LOG* and QPAD_REQUEST_REPORT. Set at all counts as set, even
 * empty. The benchmark refuses to run when this is non-empty.
 */
std::vector<std::string>
forbiddenEnv(const std::vector<std::string> &environment);

/** The process environment as "NAME=value" entries. */
std::vector<std::string> processEnvironment();

/** What a result was measured with; printed beside every result. */
struct Stamp
{
    std::string git_sha;       ///< "unknown" outside a git checkout
    std::string source_digest; ///< digest of the built sources
    std::string workload;
    uint64_t seed = 0;
    std::size_t threads = 0;
    std::size_t nproc = 0;
    std::size_t yield_trials = 0;
    std::size_t max_yield_trials = 0;
    std::size_t local_trials = 0;
    unsigned refine_sweeps = 0;
    std::size_t random_bus_samples = 0;
};

/** One-line JSON object: the stamp plus compiler, build type,
 * batched-kernel selection and the host's AVX2 / AVX-512F flags. */
std::string stampJson(const Stamp &stamp);

} // namespace qpad::perfbench

#endif // QPAD_PERFBENCH_CONFIG_HH
