/**
 * @file
 * Tests for the experiment harness and reporting helpers.
 */

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <set>
#include <sstream>
#include <tuple>

#include "arch/ibm.hh"
#include "benchmarks/suite.hh"
#include "cache/yield_cache.hh"
#include "design/design_flow.hh"
#include "eval/experiment.hh"
#include "eval/report.hh"
#include "obs/metrics.hh"
#include "profile/coupling.hh"

namespace
{

using namespace qpad;
using namespace qpad::eval;

ExperimentOptions
fastOptions()
{
    ExperimentOptions opts;
    opts.yield_options.trials = 400;
    opts.freq_options.local_trials = 200;
    opts.freq_options.refine_sweeps = 1;
    opts.random_bus_samples = 2;
    return opts;
}

TEST(Experiment, AllConfigurationsPresent)
{
    auto exp = runBenchmark(benchmarks::getBenchmark("UCCSD_ansatz_8"),
                            fastOptions());
    EXPECT_EQ(exp.benchmark, "UCCSD_ansatz_8");
    EXPECT_EQ(exp.logical_qubits, 8u);
    EXPECT_FALSE(exp.config("ibm").empty());
    EXPECT_FALSE(exp.config("eff-full").empty());
    EXPECT_FALSE(exp.config("eff-5-freq").empty());
    EXPECT_FALSE(exp.config("eff-layout-only").empty());
    // ibm always contributes its four baselines for an 8q program.
    EXPECT_EQ(exp.config("ibm").size(), 4u);
    // eff-layout-only contributes the 2q-only and max-bus variants.
    EXPECT_EQ(exp.config("eff-layout-only").size(), 2u);
}

TEST(Experiment, NormalizationAnchorsWorstAtOne)
{
    auto exp = runBenchmark(benchmarks::getBenchmark("UCCSD_ansatz_8"),
                            fastOptions());
    double min_norm = 1e9;
    std::size_t max_gates = 0;
    for (const auto &p : exp.points) {
        min_norm = std::min(min_norm, p.norm_recip_gates);
        max_gates = std::max(max_gates, p.gate_count);
    }
    EXPECT_DOUBLE_EQ(min_norm, 1.0);
    for (const auto &p : exp.points)
        EXPECT_NEAR(p.norm_recip_gates,
                    double(max_gates) / p.gate_count, 1e-12);
}

TEST(Experiment, EffFullUsesProgramSizedChips)
{
    auto exp = runBenchmark(benchmarks::getBenchmark("sym6_145"),
                            fastOptions());
    for (const auto *p : exp.config("eff-full"))
        EXPECT_EQ(p->num_qubits, 7u);
    for (const auto *p : exp.config("ibm"))
        EXPECT_GE(p->num_qubits, 16u);
}

TEST(Experiment, IsingSpecialCaseSingleEffFullDesign)
{
    // Section 5.3.1: a chain program needs no 4-qubit buses, so the
    // eff-full sweep collapses to the single K = 0 design.
    auto exp = runBenchmark(benchmarks::getBenchmark("ising_model_16"),
                            fastOptions());
    auto eff = exp.config("eff-full");
    ASSERT_EQ(eff.size(), 1u);
    EXPECT_EQ(eff[0]->num_buses, 0u);
}

TEST(Experiment, ConfigFiltersWork)
{
    ExperimentOptions opts = fastOptions();
    opts.run_ibm = false;
    opts.run_eff_rd_bus = false;
    opts.run_eff_5_freq = false;
    auto exp = runBenchmark(benchmarks::getBenchmark("sym6_145"), opts);
    EXPECT_TRUE(exp.config("ibm").empty());
    EXPECT_TRUE(exp.config("eff-rd-bus").empty());
    EXPECT_FALSE(exp.config("eff-full").empty());
}

TEST(Experiment, BestAccessors)
{
    auto exp = runBenchmark(benchmarks::getBenchmark("sym6_145"),
                            fastOptions());
    double best_yield = exp.bestYield("eff-full");
    std::size_t best_gates = exp.bestGates("eff-full");
    for (const auto *p : exp.config("eff-full")) {
        EXPECT_LE(p->yield, best_yield);
        EXPECT_GE(p->gate_count, best_gates);
    }
}

TEST(Experiment, MeasureFillsAllFields)
{
    auto arch = arch::ibm16Q(false);
    auto circ = benchmarks::getBenchmark("UCCSD_ansatz_8").generate();
    auto p = measure("probe", arch, circ, fastOptions());
    EXPECT_EQ(p.config, "probe");
    EXPECT_EQ(p.arch_name, "ibm-16q-2qbus");
    EXPECT_EQ(p.num_qubits, 16u);
    EXPECT_EQ(p.num_edges, 22u);
    EXPECT_EQ(p.num_buses, 0u);
    EXPECT_GT(p.gate_count, 0u);
}

// --------------------------------------------------------------------
// Cancellation
// --------------------------------------------------------------------

TEST(ExecCancel, ExpiredDeadlineStopsRunBenchmark)
{
    EXPECT_THROW(runBenchmark(benchmarks::getBenchmark("sym6_145"),
                              fastOptions(),
                              exec::deadlineAfter(std::chrono::nanoseconds(0))),
                 exec::CancelledError);
}

TEST(ExecCancel, PassedDeadlineStopsMeasure)
{
    auto arch = arch::ibm16Q(false);
    auto circ = benchmarks::getBenchmark("UCCSD_ansatz_8").generate();
    EXPECT_THROW(measure("probe", arch, circ, fastOptions(),
                         exec::now() - std::chrono::nanoseconds(1)),
                 exec::CancelledError);
}

// --------------------------------------------------------------------
// Mapping memo
// --------------------------------------------------------------------

/** Install a fresh in-memory global cache (enabled or not) for one
 * test, and a default one again when it ends. */
struct ScopedGlobalCache
{
    explicit ScopedGlobalCache(bool enabled)
    {
        cache::CacheOptions options;
        options.enabled = enabled;
        cache::configureGlobalCache(options);
    }
    ~ScopedGlobalCache() { cache::configureGlobalCache({}); }
};

TEST(MappingMemo, RoutesEachTopologyOnce)
{
    // sym6_145 without the random-bus samples, whose bus seeds the
    // topology count below would have to repeat.
    const auto &info = benchmarks::getBenchmark("sym6_145");
    ExperimentOptions opts = fastOptions();
    opts.run_eff_rd_bus = false;

    // The chips runBenchmark measures, by coupling graph: the IBM
    // baselines and the designed layout at every bus count K, with
    // none and with the maximum number of buses (frequencies are
    // irrelevant).
    const circuit::Circuit circ = info.generate();
    const profile::CouplingProfile prof = profile::profileCircuit(circ);
    std::set<std::pair<std::size_t,
                       std::vector<std::pair<arch::PhysQubit,
                                             arch::PhysQubit>>>>
        topologies;
    auto add = [&](const arch::Architecture &a) {
        topologies.emplace(a.numQubits(), a.edges());
    };
    for (const arch::Architecture &a : arch::ibmBaselines())
        if (a.numQubits() >= circ.numQubits())
            add(a);
    const arch::Architecture bare(design::designLayout(prof).layout);
    const std::size_t beneficial =
        design::selectBuses(bare, prof, SIZE_MAX).selected.size();
    design::DesignFlowOptions flow;
    flow.freq_scheme = design::FreqScheme::FiveFrequency;
    for (std::size_t k = 0; k <= beneficial; ++k) {
        flow.max_buses = k;
        add(design::designArchitecture(prof, flow).architecture);
    }
    flow.max_buses = SIZE_MAX;
    for (auto scheme : {design::BusScheme::None, design::BusScheme::Max}) {
        flow.bus_scheme = scheme;
        add(design::designArchitecture(prof, flow).architecture);
    }

    BenchmarkExperiment off;
    {
        ScopedGlobalCache cache(false);
        off = runBenchmark(info, opts);
    }
    ScopedGlobalCache cache(true);
    const BenchmarkExperiment on = runBenchmark(info, opts);

    auto count = [](const BenchmarkExperiment &exp, const char *name) {
        return obs::valueOf(exp.metrics, name);
    };
    EXPECT_EQ(count(off, "mapping.calls"), double(off.points.size()));
    EXPECT_EQ(count(on, "eval.measurements"), double(on.points.size()));
    EXPECT_EQ(count(on, "mapping.calls"), double(topologies.size()));
    EXPECT_LT(count(on, "mapping.calls"), count(on, "eval.measurements"));

    // The cached run's points are the uncached ones, bit for bit.
    auto bytes = [](const DataPoint &p) {
        return std::make_tuple(p.config, p.arch_name, p.num_qubits,
                               p.num_edges, p.num_buses, p.gate_count,
                               p.swaps, std::bit_cast<uint64_t>(p.yield),
                               p.yield_trials,
                               std::bit_cast<uint64_t>(p.norm_recip_gates));
    };
    ASSERT_EQ(on.points.size(), off.points.size());
    for (std::size_t i = 0; i < on.points.size(); ++i)
        EXPECT_EQ(bytes(on.points[i]), bytes(off.points[i]))
            << on.points[i].arch_name;
}

TEST(MappingMemo, RecordOfAnotherTypeIsRecomputed)
{
    const auto arch = arch::ibm16Q(false);
    const auto circ =
        benchmarks::getBenchmark("UCCSD_ansatz_8").generate();
    const ExperimentOptions opts = fastOptions();
    const mapping::MappingResult routed =
        mapping::mapCircuit(circ, arch, opts.mapping_options);
    const cache::Fingerprint key =
        mappingKey(arch, circ, opts.mapping_options);

    // A record of another type under the mapping key (a key
    // collision across domains) is a miss: measure() routes again
    // and overwrites it.
    using Planted = std::vector<uint8_t>;
    ScopedGlobalCache cache(true);
    cache::globalStore().put(key, Planted{1, 2, 3});
    const obs::Snapshot before = obs::snapshot();
    const DataPoint p = measure("probe", arch, circ, opts);
    const obs::Snapshot moved = obs::deltaSince(before);
    EXPECT_EQ(p.gate_count, routed.total_gates);
    EXPECT_EQ(p.swaps, routed.swaps);
    EXPECT_EQ(obs::valueOf(moved, "mapping.calls"), 1.0);
    EXPECT_EQ(obs::valueOf(moved, "cache.hits"), 0.0);
    EXPECT_FALSE(cache::globalStore().get<Planted>(key));
}

TEST(MappingMemo, KeyCoversRoutingInputsOnly)
{
    circuit::Circuit circ(3, 3, "probe");
    circ.h(0);
    circ.cx(0, 2);
    circ.cx(2, 1);
    circ.measure(1, 0);
    const mapping::MappingOptions mo;
    const arch::Architecture chip = arch::ibm16Q(false);
    const cache::Fingerprint key = mappingKey(chip, circ, mo);

    // Name and frequencies do not route.
    arch::Architecture renamed = chip;
    renamed.setName("renamed");
    renamed.setAllFrequencies(
        std::vector<double>(chip.numQubits(), 5.1));
    EXPECT_EQ(mappingKey(renamed, circ, mo), key);
    circuit::Circuit named = circ;
    named.setName("other");
    EXPECT_EQ(mappingKey(chip, named, mo), key);

    // Buses, gates and every option do.
    EXPECT_NE(mappingKey(arch::ibm16Q(true), circ, mo), key);
    circuit::Circuit longer = circ;
    longer.cx(1, 0);
    EXPECT_NE(mappingKey(chip, longer, mo), key);
    circuit::Circuit moved(3, 3, "probe");
    moved.h(0);
    moved.cx(0, 2);
    moved.cx(2, 0);
    moved.measure(1, 0);
    EXPECT_NE(mappingKey(chip, moved, mo), key);
    std::vector<mapping::MappingOptions> variants(6, mo);
    variants[0].extended_weight = 0.25;
    variants[1].extended_set_size = 10;
    variants[2].decay_delta = 0.002;
    variants[3].initial_mapping_rounds = 2;
    variants[4].sabre_initial_mapping = false;
    variants[5].seed = 8;
    for (std::size_t i = 0; i < variants.size(); ++i)
        EXPECT_NE(mappingKey(chip, circ, variants[i]), key) << i;
}

TEST(MappingMemo, ChipsWithOneCouplingGraphShareARecord)
{
    // ibm16Q(true)'s buses added in the opposite order: other bus
    // bytes, the same coupling graph, so the same routing.
    const arch::Architecture chip = arch::ibm16Q(true);
    arch::Architecture reordered(chip.layout(), "reordered");
    const auto &buses = chip.fourQubitBuses();
    ASSERT_GT(buses.size(), 1u);
    for (auto it = buses.rbegin(); it != buses.rend(); ++it)
        reordered.addFourQubitBus(*it);
    reordered.setAllFrequencies(chip.frequencies());
    ASSERT_NE(reordered.fourQubitBuses(), buses);
    ASSERT_EQ(reordered.edges(), chip.edges());

    const auto circ =
        benchmarks::getBenchmark("UCCSD_ansatz_8").generate();
    ExperimentOptions opts = fastOptions();
    opts.adaptive_yield_trials = false;
    EXPECT_EQ(mappingKey(reordered, circ, opts.mapping_options),
              mappingKey(chip, circ, opts.mapping_options));

    // The second chip's routing is a hit. Its yield is keyed by the
    // whole architecture, bus order included, so it is a miss.
    ScopedGlobalCache cache(true);
    const DataPoint first = measure("probe", chip, circ, opts);
    const obs::Snapshot before = obs::snapshot();
    const DataPoint second = measure("probe", reordered, circ, opts);
    const obs::Snapshot moved = obs::deltaSince(before);
    EXPECT_EQ(obs::valueOf(moved, "mapping.calls"), 0.0);
    EXPECT_EQ(obs::valueOf(moved, "cache.hits"), 1.0);
    EXPECT_EQ(second.gate_count, first.gate_count);
    EXPECT_EQ(second.swaps, first.swaps);
}

TEST(MappingMemo, KeyMatchesEarlierBuilds)
{
    // Captured when the key was introduced and again when it became
    // the coupling graph's edge list ("qpad.mapping/v2"): a key that
    // moves is an encoding change, and must say so by bumping its
    // domain tag.
    circuit::Circuit circ(3, 3, "probe");
    circ.h(0);
    circ.cx(0, 2);
    circ.cx(2, 1);
    circ.measure(1, 0);
    EXPECT_EQ(mappingKey(arch::ibm16Q(false), circ, {}).hex(),
              "6faf9d927e872fdeb97d5c798c2a3363");
}

TEST(Report, FormatYieldScientific)
{
    EXPECT_EQ(formatYield(0.0123), "1.23e-02");
    EXPECT_EQ(formatYield(1.0), "1.00e+00");
    EXPECT_EQ(formatYield(0.0), "0.00e+00");
}

TEST(Report, FormatFixed)
{
    EXPECT_EQ(formatFixed(1.23456, 2), "1.23");
    EXPECT_EQ(formatFixed(2.0, 3), "2.000");
}

TEST(Report, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}, 1e-12), 6.0);
    EXPECT_DOUBLE_EQ(geomean({}, 1e-12), 0.0);
    // Zeros are clamped, not fatal.
    EXPECT_GT(geomean({0.0, 1.0}, 1e-12), 0.0);
}

TEST(Report, TableAndCsvRender)
{
    auto exp = runBenchmark(benchmarks::getBenchmark("sym6_145"),
                            fastOptions());
    std::ostringstream table;
    printExperiment(table, exp);
    EXPECT_NE(table.str().find("sym6_145"), std::string::npos);
    EXPECT_NE(table.str().find("eff-full"), std::string::npos);

    std::ostringstream csv;
    printExperimentCsv(csv, exp, true);
    std::string text = csv.str();
    EXPECT_NE(text.find("benchmark,config"), std::string::npos);
    // Row count = points + header.
    std::size_t rows = std::count(text.begin(), text.end(), '\n');
    EXPECT_EQ(rows, exp.points.size() + 1);
}

TEST(Report, HeaderBox)
{
    std::ostringstream out;
    printHeader(out, "Title");
    EXPECT_NE(out.str().find("= Title ="), std::string::npos);
}

} // namespace
