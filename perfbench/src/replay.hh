/**
 * @file
 * The traced sweep of qpad-bench: eval::runBenchmark's work replayed
 * call by call through the public layer functions, each call timed
 * from outside (no span inside the library is read).
 *
 * The replay enumerates each program's data points in runBenchmark's
 * order and makes the calls runBenchmark's jobs make: profileCircuit,
 * designLayout, the bus schemes, cachedAllocateFrequencies or the
 * 5-frequency tiling, mapCircuit, and cachedEstimateYield with the
 * same adaptive escalation. It runs one point at a time, so its counts
 * repeat exactly. Its DataPoints must equal runBenchmark's bit for bit
 * (firstDifference), which is what lets its times describe the sweep.
 */

#ifndef QPAD_PERFBENCH_REPLAY_HH
#define QPAD_PERFBENCH_REPLAY_HH

#include <cstdint>
#include <string>

#include "check.hh"

namespace qpad::perfbench
{

/** Outside-in time of one layer's calls. */
struct LayerTime
{
    double seconds = 0.0;
    double max_seconds = 0.0;
    uint64_t calls = 0;

    void add(double s);
};

struct ReplayRun
{
    Sweep programs;
    double wall_s = 0.0;
    LayerTime generate;   ///< benchmarks: circuit generation
    LayerTime profile;    ///< profile::profileCircuit
    LayerTime layout;     ///< Algorithm 1
    LayerTime bus_select; ///< Algorithm 2 and the baseline schemes
    LayerTime freq_alloc; ///< Algorithm 3 or the 5-frequency tiling
    LayerTime map;        ///< SABRE
    LayerTime yield;      ///< Monte Carlo, through the result cache
    uint64_t swaps = 0;
    uint64_t escalations = 0;
    /** Monte Carlo trials actually simulated (cache hits run none). */
    uint64_t yield_trials = 0;
    /** Mapped circuits with a CX between uncoupled qubits. */
    uint64_t coupling_violations = 0;
};

/** Replay a sweep from a fresh in-memory store. */
ReplayRun replaySweep(const eval::ExperimentOptions &options);

/**
 * The first field where two sweeps differ ("" when bit-identical):
 * names, counts, integers, and the IEEE-754 bits of every double.
 */
std::string firstDifference(const Sweep &expected, const Sweep &actual);

} // namespace qpad::perfbench

#endif // QPAD_PERFBENCH_REPLAY_HH
