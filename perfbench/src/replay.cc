#include "replay.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>

#include "arch/ibm.hh"
#include "benchmarks/suite.hh"
#include "cache/yield_cache.hh"
#include "common/rng.hh"
#include "design/design_flow.hh"
#include "mapping/sabre.hh"
#include "profile/coupling.hh"
#include "sweep.hh"

namespace qpad::perfbench
{

using arch::Architecture;
using design::BusScheme;
using design::FreqScheme;

void
LayerTime::add(double s)
{
    seconds += s;
    max_seconds = std::max(max_seconds, s);
    ++calls;
}

namespace
{

/** Run `f`, charging its wall time to `layer`. */
template <class F>
decltype(auto)
timed(LayerTime &layer, F &&f)
{
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
        f();
        layer.add(secondsSince(t0));
    } else {
        auto result = f();
        layer.add(secondsSince(t0));
        return result;
    }
}

/** What runBenchmark computes per program before any job runs. */
struct Prologue
{
    circuit::Circuit circuit;
    profile::CouplingProfile prof;
    Architecture bare;
    std::size_t beneficial = 0; ///< weighted buses worth adding
    std::size_t max_any = 0;    ///< buses any selection could place
};

Prologue
prologue(const benchmarks::BenchmarkInfo &info,
         const eval::ExperimentOptions &options, ReplayRun &run)
{
    Prologue p;
    p.circuit = timed(run.generate, [&] { return info.generate(); });
    p.prof = timed(run.profile,
                   [&] { return profile::profileCircuit(p.circuit); });
    const design::LayoutResult layout =
        timed(run.layout, [&] { return design::designLayout(p.prof); });
    p.bare = Architecture(layout.layout, "eff-bare");
    p.beneficial = timed(run.bus_select, [&] {
                       return design::selectBuses(p.bare, p.prof, SIZE_MAX);
                   }).selected.size();
    if (options.run_eff_rd_bus)
        p.max_any = timed(run.bus_select,
                          [&] { return design::maxPlaceableBuses(p.bare); });
    return p;
}

/** eval::measure, call by call. */
eval::DataPoint
measureJob(const std::string &config, const Architecture &arch,
           const circuit::Circuit &circuit,
           const eval::ExperimentOptions &options, ReplayRun &run)
{
    eval::DataPoint point;
    point.config = config;
    point.arch_name = arch.name();
    point.num_qubits = arch.numQubits();
    point.num_edges = arch.numEdges();
    point.num_buses = arch.fourQubitBuses().size();

    const mapping::MappingResult mapped = timed(run.map, [&] {
        return mapping::mapCircuit(circuit, arch, options.mapping_options);
    });
    if (!mapping::respectsCoupling(mapped.mapped, arch))
        ++run.coupling_violations;
    point.gate_count = mapped.total_gates;
    point.swaps = mapped.swaps;
    run.swaps += mapped.swaps;

    yield::YieldOptions yopts = options.yield_options;
    auto estimate = [&] {
        return timed(run.yield,
                     [&] { return cache::cachedEstimateYield(arch, yopts); });
    };
    yield::YieldResult yr = estimate();
    while (options.adaptive_yield_trials && yr.successes == 0 &&
           yopts.trials < options.max_yield_trials) {
        ++run.escalations;
        yopts.trials = std::min(options.max_yield_trials, yopts.trials * 10);
        yr = estimate();
    }
    point.yield = yr.yield;
    point.yield_trials = yr.trials;
    return point;
}

/** design::designArchitecture, stage by stage, then the measurement. */
eval::DataPoint
flowJob(const Prologue &p, const design::DesignFlowOptions &flow,
        const std::string &config, const std::string &arch_name,
        const eval::ExperimentOptions &options, ReplayRun &run)
{
    const design::LayoutResult layout =
        timed(run.layout, [&] { return design::designLayout(p.prof); });
    Architecture arch(layout.layout, arch_name);

    timed(run.bus_select, [&] {
        switch (flow.bus_scheme) {
          case BusScheme::Weighted:
            design::applyBusSelection(
                arch, design::selectBuses(arch, p.prof, flow.max_buses));
            break;
          case BusScheme::Random: {
            Rng rng(flow.bus_seed);
            design::applyBusSelection(
                arch,
                design::selectBusesRandom(arch, flow.max_buses, rng));
            break;
          }
          case BusScheme::None:
            break;
          case BusScheme::Max:
            for (const arch::SquareInfo &sq : arch.eligibleSquares())
                if (arch.canAddFourQubitBus(sq.origin))
                    arch.addFourQubitBus(sq.origin);
            break;
        }
    });

    timed(run.freq_alloc, [&] {
        switch (flow.freq_scheme) {
          case FreqScheme::Optimized:
            arch.setAllFrequencies(
                cache::cachedAllocateFrequencies(arch, flow.freq_options)
                    .freqs);
            break;
          case FreqScheme::FiveFrequency:
            arch::applyFiveFrequencyScheme(arch);
            break;
        }
    });

    return measureJob(config, arch, p.circuit, options, run);
}

/** runBenchmark's job list for one program, executed in order. */
eval::BenchmarkExperiment
replayProgram(const benchmarks::BenchmarkInfo &info,
              const eval::ExperimentOptions &options, ReplayRun &run)
{
    const Prologue p = prologue(info, options, run);
    eval::BenchmarkExperiment experiment;
    experiment.benchmark = info.name;
    experiment.logical_qubits = p.circuit.numQubits();
    experiment.original_gates = p.circuit.unitaryGateCount();
    auto &points = experiment.points;

    if (options.run_ibm)
        for (const Architecture &baseline : arch::ibmBaselines())
            if (baseline.numQubits() >= p.circuit.numQubits())
                points.push_back(
                    measureJob("ibm", baseline, p.circuit, options, run));

    design::DesignFlowOptions flow;
    flow.freq_options = options.freq_options;
    auto sweepK = [&](FreqScheme freq, const std::string &config) {
        for (std::size_t k = 0; k <= p.beneficial; ++k) {
            flow.bus_scheme = BusScheme::Weighted;
            flow.max_buses = k;
            flow.freq_scheme = freq;
            points.push_back(flowJob(p, flow, config,
                                     config + "-k" + std::to_string(k),
                                     options, run));
        }
    };
    if (options.run_eff_full)
        sweepK(FreqScheme::Optimized, "eff-full");
    if (options.run_eff_5_freq)
        sweepK(FreqScheme::FiveFrequency, "eff-5-freq");
    if (options.run_eff_rd_bus) {
        for (std::size_t s = 0;
             s < options.random_bus_samples && p.max_any > 0; ++s) {
            flow.bus_scheme = BusScheme::Random;
            flow.max_buses = 1 + s % p.max_any;
            flow.freq_scheme = FreqScheme::Optimized;
            flow.bus_seed = options.seed * 7919 + s;
            points.push_back(flowJob(p, flow, "eff-rd-bus",
                                     "eff-rd-bus-s" + std::to_string(s),
                                     options, run));
        }
    }
    if (options.run_eff_layout_only) {
        for (bool max_buses : {false, true}) {
            flow.bus_scheme = max_buses ? BusScheme::Max : BusScheme::None;
            flow.max_buses = SIZE_MAX;
            flow.freq_scheme = FreqScheme::FiveFrequency;
            points.push_back(flowJob(p, flow, "eff-layout-only",
                                     max_buses ? "eff-layout-only-max"
                                               : "eff-layout-only-2q",
                                     options, run));
        }
    }
    eval::normalize(experiment);
    return experiment;
}

std::string
pointDifference(const eval::DataPoint &a, const eval::DataPoint &b)
{
    auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    if (a.config != b.config)
        return "config";
    if (a.arch_name != b.arch_name)
        return "arch_name";
    if (a.num_qubits != b.num_qubits)
        return "num_qubits";
    if (a.num_edges != b.num_edges)
        return "num_edges";
    if (a.num_buses != b.num_buses)
        return "num_buses";
    if (a.gate_count != b.gate_count)
        return "gate_count";
    if (a.swaps != b.swaps)
        return "swaps";
    if (bits(a.yield) != bits(b.yield))
        return "yield";
    if (a.yield_trials != b.yield_trials)
        return "yield_trials";
    if (bits(a.norm_recip_gates) != bits(b.norm_recip_gates))
        return "norm_recip_gates";
    return "";
}

} // namespace

ReplayRun
replaySweep(const eval::ExperimentOptions &options)
{
    cache::configureGlobalCache(cache::CacheOptions{});
    ReplayRun run;
    const obs::Snapshot before = obs::snapshot();
    const Clock::time_point t0 = Clock::now();
    for (const benchmarks::BenchmarkInfo &info : benchmarks::paperSuite())
        run.programs.push_back(replayProgram(info, options, run));
    run.wall_s = secondsSince(t0);
    run.yield_trials =
        uint64_t(obs::valueOf(obs::deltaSince(before), "yield.trials"));
    return run;
}

std::string
firstDifference(const Sweep &expected, const Sweep &actual)
{
    if (expected.size() != actual.size())
        return "program count " + std::to_string(expected.size()) +
               " vs " + std::to_string(actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const eval::BenchmarkExperiment &a = expected[i], &b = actual[i];
        if (a.benchmark != b.benchmark ||
            a.logical_qubits != b.logical_qubits ||
            a.original_gates != b.original_gates ||
            a.points.size() != b.points.size())
            return a.benchmark + ": program header or point count";
        for (std::size_t j = 0; j < a.points.size(); ++j) {
            const std::string field = pointDifference(a.points[j], b.points[j]);
            if (!field.empty())
                return a.benchmark + "/" + a.points[j].arch_name + ": " +
                       field;
        }
    }
    return "";
}

} // namespace qpad::perfbench
