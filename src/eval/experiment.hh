/**
 * @file
 * Experiment harness reproducing the paper's evaluation (Section 5):
 * the five configurations, the yield / post-mapping-gate-count
 * metrics, and the Pareto series of Figure 10.
 */

#ifndef QPAD_EVAL_EXPERIMENT_HH
#define QPAD_EVAL_EXPERIMENT_HH

#include <string>
#include <vector>

#include "arch/architecture.hh"
#include "benchmarks/suite.hh"
#include "cache/fingerprint.hh"
#include "design/design_flow.hh"
#include "exec/cancel.hh"
#include "mapping/sabre.hh"
#include "obs/metrics.hh"
#include "runtime/parallel.hh"
#include "yield/yield_sim.hh"

namespace qpad::eval
{

/** One (architecture, benchmark) measurement: a dot in Figure 10. */
struct DataPoint
{
    std::string config;    ///< ibm / eff-full / eff-5-freq / ...
    std::string arch_name; ///< e.g. "ibm-16q-4qbus", "eff-full-k3"
    std::size_t num_qubits = 0;
    std::size_t num_edges = 0;
    std::size_t num_buses = 0;
    std::size_t gate_count = 0; ///< post-mapping total gate count
    std::size_t swaps = 0;
    double yield = 0.0;
    /** Trials actually used (grows under adaptive escalation). */
    std::size_t yield_trials = 0;
    /** max gate count across the benchmark / this gate count. */
    double norm_recip_gates = 0.0;
};

/** Harness configuration. */
struct ExperimentOptions
{
    yield::YieldOptions yield_options = {};
    /**
     * When a yield estimate comes back 0 (below the Monte Carlo
     * floor), retry with 10x the trials until a success is seen or
     * max_yield_trials is reached. Needed to resolve the ~1e-5..1e-6
     * yields of the densest baselines that the paper's ratio claims
     * divide by.
     */
    bool adaptive_yield_trials = true;
    std::size_t max_yield_trials = 2000000;
    mapping::MappingOptions mapping_options = {};
    design::FreqAllocOptions freq_options = {};
    /** Random bus-selection samples for eff-rd-bus. */
    std::size_t random_bus_samples = 5;
    /** Base seed feeding the per-sample random bus seeds. */
    uint64_t seed = 2020;
    /** Which configurations to run (all by default). */
    bool run_ibm = true;
    bool run_eff_full = true;
    bool run_eff_5_freq = true;
    bool run_eff_rd_bus = true;
    bool run_eff_layout_only = true;
    /**
     * Parallel evaluation of the per-configuration data points
     * (design + mapping + yield per point). Every point derives its
     * seeds from the options alone, so the report is identical for
     * any thread count; points keep their sequential order.
     */
    runtime::Options exec = {};
};

/** All points for one benchmark (one subplot of Figure 10). */
struct BenchmarkExperiment
{
    std::string benchmark;
    std::size_t logical_qubits = 0;
    std::size_t original_gates = 0;
    std::vector<DataPoint> points;

    /**
     * Process-metrics delta over this run (obs::deltaSince of a
     * snapshot taken before the first job): every runtime.*, cache.*,
     * design.*, yield.* and eval.* series the run moved. Purely
     * informational — the DataPoints themselves are bit-identical
     * with and without the cache.
     */
    obs::Snapshot metrics;

    /** Points of one configuration, in insertion order. */
    std::vector<const DataPoint *>
    config(const std::string &name) const;

    /** Best (max) yield among a configuration's points. */
    double bestYield(const std::string &config) const;

    /** Smallest gate count among a configuration's points. */
    std::size_t bestGates(const std::string &config) const;
};

/**
 * Evaluate one architecture against one circuit. The routing counts
 * (gate_count, swaps) come from mapping::countMapping, which builds
 * no mapped circuit, through the global cache under mappingKey, so
 * chips that share a coupling graph are routed once. A passed
 * `deadline` raises exec::CancelledError before each routing pass,
 * between the adaptive yield-escalation steps and inside the yield
 * estimate's parallel region; a completed measurement is
 * bit-identical to one without a deadline or cache.
 */
DataPoint measure(const std::string &config,
                  const arch::Architecture &arch,
                  const circuit::Circuit &circuit,
                  const ExperimentOptions &options,
                  exec::TimePoint deadline = exec::kNoDeadline);

/**
 * Cache key of measure()'s routing counts: the chip's coupling graph
 * as the router reads it (its width and sorted edge list; never its
 * coordinates, bus order, name or frequencies), the circuit's gate
 * kinds and operands, and every MappingOptions field. Tagged
 * "qpad.mapping/v2".
 */
cache::Fingerprint mappingKey(const arch::Architecture &arch,
                              const circuit::Circuit &circuit,
                              const mapping::MappingOptions &options);

/**
 * Run the requested configurations for one benchmark. Each data
 * point runs its design flow (the eff-* configurations) and
 * measure(); their frequency allocations, routing counts and yield
 * estimates go through the global cache, so points that share one
 * compute it once. A passed `deadline` stops the run at job
 * boundaries (plus the finer-grained polls inside design, mapping
 * and yield); a completed run is bit-identical at every thread
 * count, with or without a deadline, and with the cache cold, warm
 * or off.
 */
BenchmarkExperiment
runBenchmark(const benchmarks::BenchmarkInfo &info,
             const ExperimentOptions &options,
             exec::TimePoint deadline = exec::kNoDeadline);

/** Fill norm_recip_gates = max gate count / gate count. */
void normalize(BenchmarkExperiment &experiment);

} // namespace qpad::eval

#endif // QPAD_EVAL_EXPERIMENT_HH
