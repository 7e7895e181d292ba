/**
 * @file
 * One untraced Figure 10 sweep, timed the way a user would see it,
 * plus the process clocks the benchmark reads.
 */

#ifndef QPAD_PERFBENCH_SWEEP_HH
#define QPAD_PERFBENCH_SWEEP_HH

#include <chrono>
#include <vector>

#include "check.hh"
#include "obs/metrics.hh"

namespace qpad::perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Process CPU time (user + system, all threads) so far. */
double cpuSeconds();

/** Peak resident set of the process so far, in MiB. */
double peakRssMb();

struct SweepRun
{
    Sweep programs;
    /** runBenchmark wall time per program, in suite order. */
    std::vector<double> program_s;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    /** Every metric the sweep moved (obs::deltaSince). */
    obs::Snapshot delta;
};

/**
 * Replace the global result cache by a fresh in-memory store, then
 * run eval::runBenchmark over benchmarks::paperSuite() on the clock.
 */
SweepRun runSweep(const eval::ExperimentOptions &options);

} // namespace qpad::perfbench

#endif // QPAD_PERFBENCH_SWEEP_HH
