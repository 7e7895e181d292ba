#include "eval/experiment.hh"

#include <algorithm>
#include <functional>

#include "arch/ibm.hh"
#include "cache/yield_cache.hh"
#include "common/logging.hh"
#include "obs/trace.hh"
#include "profile/coupling.hh"

namespace qpad::eval
{

using arch::Architecture;
using circuit::Circuit;

namespace
{

/**
 * countMapping through the global cache. Designs that share a
 * coupling graph (eff-full and eff-5-freq at one K, eff-layout-only-2q
 * and K = 0, and any two bus sets that couple the same qubits) route
 * the circuit identically, so only the first routes.
 */
mapping::MappingCounts
routingCounts(const Architecture &arch, const Circuit &circuit,
              const mapping::MappingOptions &options,
              exec::TimePoint deadline)
{
    return cache::memoized<mapping::MappingCounts>(
        mappingKey(arch, circuit, options), deadline, [&] {
            return mapping::countMapping(circuit, arch, options, deadline);
        });
}

} // namespace

std::vector<const DataPoint *>
BenchmarkExperiment::config(const std::string &name) const
{
    std::vector<const DataPoint *> out;
    for (const auto &p : points)
        if (p.config == name)
            out.push_back(&p);
    return out;
}

double
BenchmarkExperiment::bestYield(const std::string &config_name) const
{
    double best = 0.0;
    for (const auto *p : config(config_name))
        best = std::max(best, p->yield);
    return best;
}

std::size_t
BenchmarkExperiment::bestGates(const std::string &config_name) const
{
    std::size_t best = SIZE_MAX;
    for (const auto *p : config(config_name))
        best = std::min(best, p->gate_count);
    return best;
}

cache::Fingerprint
mappingKey(const Architecture &arch, const Circuit &circuit,
           const mapping::MappingOptions &options)
{
    cache::Encoder enc;
    enc.str("qpad.mapping/v2");
    // The router reads the chip's width and its sorted edges (and the
    // distances they fix), not the coordinates or the bus order.
    enc.u64(arch.numQubits());
    enc.u64(arch.edges().size());
    for (const auto &[a, b] : arch.edges()) {
        enc.u32(a);
        enc.u32(b);
    }
    // Parameters, classical bits and the name never steer routing.
    enc.u64(circuit.numQubits());
    enc.u64(circuit.size());
    for (const circuit::Gate &g : circuit.gates()) {
        enc.u8(uint8_t(g.kind));
        enc.u32(uint32_t(g.qubits.size()));
        for (circuit::Qubit q : g.qubits)
            enc.u32(q);
    }
    enc.f64(options.extended_weight);
    enc.u64(options.extended_set_size);
    enc.f64(options.decay_delta);
    enc.u32(options.initial_mapping_rounds);
    enc.u8(options.sabre_initial_mapping ? 1 : 0);
    enc.u64(options.seed);
    return enc.digest();
}

DataPoint
measure(const std::string &config, const Architecture &arch,
        const Circuit &circuit, const ExperimentOptions &options,
        exec::TimePoint deadline)
{
    QPAD_SPAN("eval.measure");
    // A request past its deadline does no work: warm mapping and
    // yield caches would otherwise let it run to completion without
    // reaching a poll.
    exec::throwIfPassed(deadline);
    static obs::Counter &measurements =
        obs::counter("eval.measurements");
    measurements.add();

    DataPoint point;
    point.config = config;
    point.arch_name = arch.name();
    point.num_qubits = arch.numQubits();
    point.num_edges = arch.numEdges();
    point.num_buses = arch.fourQubitBuses().size();

    const mapping::MappingCounts routed =
        routingCounts(arch, circuit, options.mapping_options, deadline);
    point.gate_count = routed.total_gates;
    point.swaps = routed.swaps;

    // Every estimate goes through the result cache — including each
    // adaptive-escalation step, whose (arch, trials) pair is its own
    // key holding the full-budget value. A step resumes from the one
    // before it: the first N trials of a 10N-trial estimate are the
    // N-trial estimate, so a missed step draws only trials [N, 10N).
    yield::YieldOptions yopts = options.yield_options;
    yield::YieldResult yr =
        cache::cachedEstimateYield(arch, yopts, deadline);
    while (options.adaptive_yield_trials && yr.successes == 0 &&
           yopts.trials < options.max_yield_trials) {
        // Stop between escalation steps: each step multiplies the
        // trial budget tenfold, so this is the last cheap exit
        // before a much longer estimate.
        exec::throwIfPassed(deadline);
        static obs::Counter &escalations =
            obs::counter("yield.escalations");
        escalations.add();
        yopts.trials = std::min(options.max_yield_trials,
                                yopts.trials * 10);
        yr = cache::cachedEstimateYield(arch, yopts, deadline, yr);
    }
    point.yield = yr.yield;
    point.yield_trials = yr.trials;
    return point;
}

BenchmarkExperiment
runBenchmark(const benchmarks::BenchmarkInfo &info,
             const ExperimentOptions &options,
             exec::TimePoint deadline)
{
    QPAD_SPAN("eval.run_benchmark");
    static obs::Counter &benchmarks = obs::counter("eval.benchmarks");
    benchmarks.add();

    // A request past its deadline does no work at all.
    exec::throwIfPassed(deadline);

    BenchmarkExperiment experiment;
    experiment.benchmark = info.name;

    Circuit circuit = info.generate();
    experiment.logical_qubits = circuit.numQubits();
    experiment.original_gates = circuit.unitaryGateCount();

    profile::CouplingProfile prof = profile::profileCircuit(circuit);

    // Every data point (design + mapping + yield) is an independent,
    // fully seeded job. Jobs are enumerated in the legacy sequential
    // order, then evaluated under options.exec; slot i of the job
    // list is slot i of experiment.points, so the report is the same
    // for any thread count.
    std::vector<std::function<DataPoint()>> jobs;

    // --- ibm: the four general-purpose baselines -------------------
    if (options.run_ibm) {
        for (Architecture &baseline : arch::ibmBaselines()) {
            if (baseline.numQubits() < circuit.numQubits())
                continue;
            jobs.push_back([baseline, &circuit, &options, deadline] {
                return measure("ibm", baseline, circuit, options, deadline);
            });
        }
    }

    // Shared flow pieces.
    design::DesignFlowOptions flow;
    flow.freq_options = options.freq_options;

    // How many weighted buses are worth adding at all.
    design::LayoutResult layout = design::designLayout(prof);
    Architecture bare(layout.layout, "eff-bare");
    design::BusSelectionResult all_weighted =
        design::selectBuses(bare, prof, SIZE_MAX);
    const std::size_t beneficial = all_weighted.selected.size();

    // Each flow job captures its own copy of `flow` with the fields
    // of that configuration baked in.
    auto flowJob = [&](design::DesignFlowOptions job_flow,
                       std::string config, std::string arch_name) {
        jobs.push_back([job_flow, config = std::move(config),
                        arch_name = std::move(arch_name), &prof,
                        &circuit, &options, deadline] {
            auto outcome = design::designArchitecture(prof, job_flow,
                                                      arch_name, deadline);
            return measure(config, outcome.architecture, circuit,
                           options, deadline);
        });
    };

    // --- eff-full: Algorithm 1 + 2 + 3, sweeping K -----------------
    if (options.run_eff_full) {
        for (std::size_t k = 0; k <= beneficial; ++k) {
            flow.bus_scheme = design::BusScheme::Weighted;
            flow.max_buses = k;
            flow.freq_scheme = design::FreqScheme::Optimized;
            flowJob(flow, "eff-full",
                    "eff-full-k" + std::to_string(k));
        }
    }

    // --- eff-5-freq: layout + buses, IBM frequency tiling ----------
    if (options.run_eff_5_freq) {
        for (std::size_t k = 0; k <= beneficial; ++k) {
            flow.bus_scheme = design::BusScheme::Weighted;
            flow.max_buses = k;
            flow.freq_scheme = design::FreqScheme::FiveFrequency;
            flowJob(flow, "eff-5-freq",
                    "eff-5-freq-k" + std::to_string(k));
        }
    }

    // --- eff-rd-bus: random bus placement samples ------------------
    if (options.run_eff_rd_bus) {
        const std::size_t max_any = design::maxPlaceableBuses(bare);
        for (std::size_t s = 0; s < options.random_bus_samples; ++s) {
            if (max_any == 0)
                break;
            flow.bus_scheme = design::BusScheme::Random;
            flow.max_buses = 1 + s % max_any;
            flow.freq_scheme = design::FreqScheme::Optimized;
            flow.bus_seed = options.seed * 7919 + s;
            flowJob(flow, "eff-rd-bus",
                    "eff-rd-bus-s" + std::to_string(s));
        }
    }

    // --- eff-layout-only: layout + {no, max} buses, 5-freq ---------
    if (options.run_eff_layout_only) {
        for (bool max_buses : {false, true}) {
            flow.bus_scheme = max_buses ? design::BusScheme::Max
                                        : design::BusScheme::None;
            flow.max_buses = SIZE_MAX;
            flow.freq_scheme = design::FreqScheme::FiveFrequency;
            flowJob(flow, "eff-layout-only",
                    max_buses ? "eff-layout-only-max"
                              : "eff-layout-only-2q");
        }
    }

    const obs::Snapshot before = obs::snapshot();

    experiment.points.resize(jobs.size());
    // Guided sizing (grain 0): adaptive yield escalation makes some
    // data points ~100x dearer than others, so fixed chunks would
    // park a worker on whichever chunk drew the expensive points.
    // Guided chunks are claimed largest first and shrink toward the
    // tail, so the last claims even out the runners; safe here
    // because each job derives its seeds from the options alone,
    // never from the chunk index.
    runtime::parallel_for(
        options.exec, jobs.size(), 0,
        [&](std::size_t begin, std::size_t end, std::size_t) {
            static obs::Counter &data_points =
                obs::counter("eval.data_points");
            for (std::size_t i = begin; i < end; ++i) {
                QPAD_SPAN("eval.data_point");
                data_points.add();
                experiment.points[i] = jobs[i]();
            }
        },
        deadline);

    // Surface this run's activity in the report: the metrics delta
    // carries every series the run moved.
    experiment.metrics = obs::deltaSince(before);
    normalize(experiment);
    return experiment;
}

void
normalize(BenchmarkExperiment &experiment)
{
    std::size_t max_gates = 0;
    for (const auto &p : experiment.points)
        max_gates = std::max(max_gates, p.gate_count);
    for (auto &p : experiment.points) {
        qpad_assert(p.gate_count > 0, "zero post-mapping gate count");
        p.norm_recip_gates = double(max_gates) / double(p.gate_count);
    }
}

} // namespace qpad::eval
