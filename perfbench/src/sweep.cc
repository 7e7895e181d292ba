#include "sweep.hh"

#include <sys/resource.h>

#include "benchmarks/suite.hh"
#include "cache/yield_cache.hh"

namespace qpad::perfbench
{

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto seconds = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

SweepRun
runSweep(const eval::ExperimentOptions &options)
{
    cache::configureGlobalCache(cache::CacheOptions{});
    SweepRun run;
    const obs::Snapshot before = obs::snapshot();
    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();
    for (const benchmarks::BenchmarkInfo &info : benchmarks::paperSuite()) {
        const Clock::time_point p0 = Clock::now();
        run.programs.push_back(eval::runBenchmark(info, options));
        run.program_s.push_back(secondsSince(p0));
    }

    run.wall_s = secondsSince(t0);
    run.cpu_s = cpuSeconds() - cpu0;
    run.delta = obs::deltaSince(before);
    return run;
}

} // namespace qpad::perfbench
