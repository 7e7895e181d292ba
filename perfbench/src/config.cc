#include "config.hh"

#include <sched.h>

#include <array>
#include <sstream>
#include <string_view>
#include <thread>

#include "yield/collision_batch.hh"

extern char **environ;

#ifndef QPAD_BENCH_COMPILER
#define QPAD_BENCH_COMPILER "unknown"
#endif
#ifndef QPAD_BENCH_BUILD_TYPE
#define QPAD_BENCH_BUILD_TYPE "unknown"
#endif

namespace qpad::perfbench
{

namespace
{

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Seed of consumer `stream` (1-based) under workload seed `seed`. */
uint64_t
derivedSeed(uint64_t seed, uint64_t stream)
{
    return splitmix64(splitmix64(seed) + stream);
}

std::string
quoted(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + '"';
}

} // namespace

std::optional<Workload>
parseWorkload(const std::string &name)
{
    for (Workload w : {Workload::Paper, Workload::Fast})
        if (name == workloadName(w))
            return w;
    return std::nullopt;
}

const char *
workloadName(Workload workload)
{
    switch (workload) {
      case Workload::Paper:
        return "paper";
      case Workload::Fast:
        return "fast";
    }
    return "?";
}

eval::ExperimentOptions
sweepOptions(Workload workload, uint64_t seed, std::size_t threads)
{
    eval::ExperimentOptions opts;
    if (workload == Workload::Fast) {
        opts.yield_options.trials = 1000;
        opts.max_yield_trials = 100000;
        opts.freq_options.local_trials = 300;
        opts.freq_options.refine_sweeps = 1;
        opts.random_bus_samples = 3;
    } else {
        opts.yield_options.trials = 10000;
        opts.freq_options.local_trials = 8000;
        opts.random_bus_samples = 5;
    }
    opts.yield_options.sigma_ghz = 0.030;
    opts.exec.num_threads = threads;
    opts.yield_options.exec = opts.exec;
    opts.freq_options.exec = opts.exec;
    if (seed != 0) {
        opts.yield_options.seed = derivedSeed(seed, 1);
        opts.freq_options.seed = derivedSeed(seed, 2);
        opts.mapping_options.seed = derivedSeed(seed, 3);
        opts.seed = derivedSeed(seed, 4);
    }
    return opts;
}

std::size_t
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
        return std::size_t(CPU_COUNT(&set));
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::vector<std::string>
forbiddenEnv(const std::vector<std::string> &environment)
{
    static constexpr std::array<std::string_view, 9> kExact = {
        "QPAD_FAST",        "QPAD_THREADS",    "QPAD_RNG_V1",
        "QPAD_SCALAR_KERNEL", "QPAD_FAILPOINTS", "QPAD_DEADLINE_MS",
        "QPAD_TRACE",       "QPAD_METRICS",    "QPAD_REQUEST_REPORT"};
    static constexpr std::array<std::string_view, 2> kPrefix = {
        "QPAD_CACHE", "QPAD_LOG"};
    std::vector<std::string> found;
    for (const std::string &entry : environment) {
        const std::string_view name =
            std::string_view(entry).substr(0, entry.find('='));
        bool bad = false;
        for (std::string_view exact : kExact)
            bad = bad || name == exact;
        for (std::string_view prefix : kPrefix)
            bad = bad || name.starts_with(prefix);
        if (bad)
            found.emplace_back(name);
    }
    return found;
}

std::vector<std::string>
processEnvironment()
{
    std::vector<std::string> out;
    for (char **e = environ; e && *e; ++e)
        out.emplace_back(*e);
    return out;
}

std::string
stampJson(const Stamp &s)
{
    __builtin_cpu_init();
    const bool avx2 = __builtin_cpu_supports("avx2");
    const bool avx512f = __builtin_cpu_supports("avx512f");
    std::ostringstream out;
    out << "{\"git_sha\":" << quoted(s.git_sha)
        << ",\"source_digest\":" << quoted(s.source_digest)
        << ",\"compiler\":" << quoted(QPAD_BENCH_COMPILER)
        << ",\"build_type\":" << quoted(QPAD_BENCH_BUILD_TYPE)
        << ",\"workload\":" << quoted(s.workload)
        << ",\"seed\":" << s.seed << ",\"threads\":" << s.threads
        << ",\"nproc\":" << s.nproc
        << ",\"yield_trials\":" << s.yield_trials
        << ",\"max_yield_trials\":" << s.max_yield_trials
        << ",\"local_trials\":" << s.local_trials
        << ",\"refine_sweeps\":" << s.refine_sweeps
        << ",\"random_bus_samples\":" << s.random_bus_samples
        << ",\"batched_kernel\":"
        << (yield::useBatchedKernel() ? "true" : "false")
        << ",\"host_avx2\":" << (avx2 ? "true" : "false")
        << ",\"host_avx512f\":" << (avx512f ? "true" : "false") << "}";
    return out.str();
}

} // namespace qpad::perfbench
