/**
 * @file
 * Tests for the SABRE mapper: coupling legality, gate-count
 * accounting, classical (permutation-level) semantic equivalence,
 * pinned routing decisions, the counts-only entry point against the
 * mapped circuit, option validation, cancellation, and behaviour on
 * the paper's special cases.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>

#include "arch/ibm.hh"
#include "benchmarks/generators.hh"
#include "benchmarks/suite.hh"
#include "cache/fingerprint.hh"
#include "common/rng.hh"
#include "design/design_flow.hh"
#include "mapping/sabre.hh"
#include "obs/metrics.hh"
#include "profile/coupling.hh"
#include "revsynth/mct.hh"

namespace
{

using namespace qpad;
using arch::Architecture;
using arch::Layout;
using circuit::Circuit;
using mapping::mapCircuit;
using mapping::MappingOptions;

TEST(Sabre, AdjacentGatesNeedNoSwaps)
{
    // A chain circuit on a path architecture with a perfect initial
    // mapping available: routing must find a zero-swap solution.
    Architecture path(Layout::grid(1, 4), "path4");
    Circuit c(4);
    c.cx(0, 1);
    c.cx(1, 2);
    c.cx(2, 3);
    auto r = mapCircuit(c, path);
    EXPECT_EQ(r.swaps, 0u);
    EXPECT_EQ(r.total_gates, 3u);
}

TEST(Sabre, TiedStartsKeepTheIdentity)
{
    // Without a two-qubit gate the identity and the SABRE start (a
    // random permutation no pass moves) both route with 0 SWAPs. The
    // strict-< choice keeps the first candidate, the identity.
    Circuit c(4);
    for (circuit::Qubit q = 0; q < 4; ++q)
        c.h(q);
    const auto r = mapCircuit(c, arch::ibm16Q(false));
    EXPECT_EQ(r.swaps, 0u);
    EXPECT_EQ(r.initial_mapping,
              (std::vector<arch::PhysQubit>{0, 1, 2, 3}));
}

TEST(Sabre, DistantGateForcesSwaps)
{
    Architecture path(Layout::grid(1, 5), "path5");
    Circuit c(5);
    // Force interactions that no linear order satisfies: a 5-clique.
    for (circuit::Qubit i = 0; i < 5; ++i)
        for (circuit::Qubit j = i + 1; j < 5; ++j)
            c.cx(i, j);
    auto r = mapCircuit(c, path);
    EXPECT_GT(r.swaps, 0u);
    EXPECT_EQ(r.total_gates, 10u + 3 * r.swaps);
    EXPECT_TRUE(mapping::respectsCoupling(r.mapped, path));
}

TEST(Sabre, GateCountAccounting)
{
    auto circ = benchmarks::qft(8);
    auto arch = arch::ibm16Q(false);
    auto r = mapCircuit(circ, arch);
    EXPECT_EQ(r.total_gates,
              circ.unitaryGateCount() + 3 * r.swaps);
    EXPECT_EQ(r.two_qubit_gates,
              circ.twoQubitGateCount() + 3 * r.swaps);
}

TEST(Sabre, MeasurementsFollowFinalMapping)
{
    Circuit c(3, 3);
    c.cx(0, 2);
    c.measure(0, 0);
    c.measure(1, 1);
    c.measure(2, 2);
    Architecture path(Layout::grid(1, 3), "path3");
    auto r = mapCircuit(c, path);
    std::size_t measures = 0;
    for (const auto &g : r.mapped.gates()) {
        if (g.kind == circuit::GateKind::Measure) {
            EXPECT_EQ(g.qubits[0], r.final_mapping[g.clbit]);
            ++measures;
        }
    }
    EXPECT_EQ(measures, 3u);
}

TEST(Sabre, DeterministicForEqualSeeds)
{
    auto circ = benchmarks::qft(10);
    auto arch = arch::ibm16Q(true);
    auto a = mapCircuit(circ, arch);
    auto b = mapCircuit(circ, arch);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.initial_mapping, b.initial_mapping);
}

TEST(Sabre, SeedsProduceLegalAlternatives)
{
    auto circ = benchmarks::qft(10);
    auto arch = arch::ibm16Q(false);
    MappingOptions opts;
    opts.seed = 1;
    auto a = mapCircuit(circ, arch, opts);
    opts.seed = 2;
    auto b = mapCircuit(circ, arch, opts);
    // Different seeds explore different random starts; both must be
    // legal (they may or may not coincide after refinement).
    EXPECT_TRUE(mapping::respectsCoupling(a.mapped, arch));
    EXPECT_TRUE(mapping::respectsCoupling(b.mapped, arch));
}

TEST(Sabre, RejectsTooSmallChip)
{
    auto circ = benchmarks::qft(8);
    Architecture tiny(Layout::grid(2, 2), "tiny");
    EXPECT_THROW(mapCircuit(circ, tiny), std::logic_error);
}

TEST(Sabre, RejectsCompositeGates)
{
    Circuit c(3);
    c.swap(0, 1);
    Architecture path(Layout::grid(1, 3), "path3");
    EXPECT_THROW(mapCircuit(c, path), std::logic_error);
}

TEST(Sabre, RejectsDisconnectedArchitecture)
{
    Layout l;
    l.addQubit({0, 0});
    l.addQubit({0, 2});
    Architecture arch(l, "split");
    Circuit c(2);
    c.cx(0, 1);
    EXPECT_THROW(mapCircuit(c, arch), std::logic_error);
}

TEST(Sabre, RejectsInvalidOptions)
{
    // A negative or non-finite lookahead weight or decay makes the
    // swap cost meaningless: the router could swap until its stall
    // bound and then panic as if qpad had a bug.
    auto circ = benchmarks::qft(8);
    auto arch = arch::ibm16Q(false);
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {std::nan(""), -5.0, inf, -inf}) {
        MappingOptions opts;
        opts.extended_weight = bad;
        EXPECT_THROW(mapCircuit(circ, arch, opts), std::runtime_error)
            << "extended_weight " << bad;
        opts = {};
        opts.decay_delta = bad;
        EXPECT_THROW(mapCircuit(circ, arch, opts), std::runtime_error)
            << "decay_delta " << bad;
    }
    MappingOptions zero;
    zero.extended_weight = 0.0;
    zero.decay_delta = 0.0;
    EXPECT_TRUE(mapping::respectsCoupling(
        mapCircuit(circ, arch, zero).mapped, arch));
}

TEST(Sabre, PassedDeadlineStopsMapping)
{
    EXPECT_THROW(mapCircuit(benchmarks::qft(8), arch::ibm16Q(false),
                            MappingOptions{},
                            exec::now() - std::chrono::nanoseconds(1)),
                 exec::CancelledError);
}

TEST(Sabre, FutureDeadlineLeavesMappingUnchanged)
{
    auto circ = benchmarks::qft(10);
    auto arch = arch::ibm16Q(true);
    const exec::TimePoint deadline =
        exec::deadlineAfter(std::chrono::hours(1));
    const auto plain = mapCircuit(circ, arch);
    const auto polled =
        mapCircuit(circ, arch, MappingOptions{}, deadline);
    EXPECT_EQ(polled.swaps, plain.swaps);
    EXPECT_EQ(polled.total_gates, plain.total_gates);
    EXPECT_EQ(polled.two_qubit_gates, plain.two_qubit_gates);
    EXPECT_EQ(polled.initial_mapping, plain.initial_mapping);
    EXPECT_EQ(polled.final_mapping, plain.final_mapping);
    EXPECT_EQ(polled.mapped, plain.mapped);
}

TEST(Sabre, PassedDeadlineStopsCounting)
{
    auto circ = benchmarks::qft(10);
    auto arch = arch::ibm16Q(true);
    EXPECT_THROW(
        mapping::countMapping(circ, arch, MappingOptions{},
                              exec::now() - std::chrono::nanoseconds(1)),
        exec::CancelledError);

    // A deadline that never passes leaves the counts as they are.
    const auto plain = mapping::countMapping(circ, arch);
    const auto polled = mapping::countMapping(
        circ, arch, MappingOptions{},
        exec::deadlineAfter(std::chrono::hours(1)));
    EXPECT_EQ(polled.swaps, plain.swaps);
    EXPECT_EQ(polled.total_gates, plain.total_gates);
}

/**
 * Classical equivalence: for X/CX-only circuits the mapped circuit
 * must implement the same permutation of basis states, up to the
 * initial and final logical-to-physical relabelings.
 */
void
checkClassicalEquivalence(const Circuit &logical,
                          const Architecture &arch, uint64_t seed)
{
    auto r = mapCircuit(logical, arch);
    ASSERT_TRUE(mapping::respectsCoupling(r.mapped, arch));

    qpad::Rng rng(seed);
    for (int round = 0; round < 32; ++round) {
        uint64_t in = rng.next() &
                      ((uint64_t{1} << logical.numQubits()) - 1);
        uint64_t logical_out =
            revsynth::simulateClassical(logical, in);

        uint64_t phys_in = 0;
        for (std::size_t l = 0; l < logical.numQubits(); ++l)
            if (in >> l & 1)
                phys_in |= uint64_t{1} << r.initial_mapping[l];
        uint64_t phys_out =
            revsynth::simulateClassical(r.mapped, phys_in);

        for (std::size_t l = 0; l < logical.numQubits(); ++l)
            ASSERT_EQ((phys_out >> r.final_mapping[l]) & 1,
                      (logical_out >> l) & 1)
                << "round " << round << " logical qubit " << l;
    }
}

TEST(Sabre, ClassicalEquivalenceOnRandomCxCircuits)
{
    qpad::Rng rng(99);
    auto arch = arch::ibm16Q(true);
    for (int round = 0; round < 5; ++round) {
        Circuit c(12, 12, "random_cx");
        for (int g = 0; g < 150; ++g) {
            auto a = circuit::Qubit(rng.below(12));
            auto b = circuit::Qubit(rng.below(12));
            if (a == b)
                continue;
            if (rng.chance(0.2))
                c.x(a);
            c.cx(a, b);
        }
        checkClassicalEquivalence(c, arch, 1000 + round);
    }
}

TEST(Sabre, ClassicalEquivalenceOnCxFanout)
{
    // A pure X/CX fan-out circuit (classically simulable) routed on
    // a small grid.
    Circuit c(10, 10, "fanout");
    c.x(0);
    for (circuit::Qubit q = 0; q + 1 < 10; ++q)
        c.cx(q, q + 1);
    for (circuit::Qubit q = 0; q < 5; ++q)
        c.cx(q, 9 - q);
    Architecture arch(Layout::grid(2, 5), "grid2x5");
    checkClassicalEquivalence(c, arch, 7);
}

TEST(Sabre, MappedCircuitsOfAllBenchmarksAreLegal)
{
    auto arch = arch::ibm20Q(true);
    for (const auto &info : benchmarks::paperSuite()) {
        auto circ = info.generate();
        auto r = mapCircuit(circ, arch);
        EXPECT_TRUE(mapping::respectsCoupling(r.mapped, arch))
            << info.name;
        EXPECT_GE(r.total_gates, circ.unitaryGateCount()) << info.name;
    }
}

TEST(Sabre, DenserConnectivityNeedsFewerSwapsOnAverage)
{
    // Compare total swaps across the suite: the 20q chip with six
    // 4-qubit buses should not lose to the bare 20q chip in
    // aggregate (the headline hardware-design premise).
    auto plain = arch::ibm20Q(false);
    auto bused = arch::ibm20Q(true);
    std::size_t swaps_plain = 0, swaps_bused = 0;
    for (const char *name : {"qft_16", "misex1_241", "rd84_142"}) {
        auto circ = benchmarks::getBenchmark(name).generate();
        swaps_plain += mapCircuit(circ, plain).swaps;
        swaps_bused += mapCircuit(circ, bused).swaps;
    }
    EXPECT_LT(swaps_bused, swaps_plain);
}

/** Digest of everything routing decides: swaps, both mappings and
 * every mapped gate's kind, operands and classical bit. */
void
encodeRouting(cache::Encoder &enc, const mapping::MappingResult &r)
{
    enc.u64(r.swaps);
    for (const auto *mapping : {&r.initial_mapping, &r.final_mapping}) {
        enc.u64(mapping->size());
        for (arch::PhysQubit q : *mapping)
            enc.u32(q);
    }
    enc.u64(r.mapped.size());
    for (const circuit::Gate &g : r.mapped.gates()) {
        enc.u8(uint8_t(g.kind));
        enc.u64(g.qubits.size());
        for (circuit::Qubit q : g.qubits)
            enc.u32(q);
        enc.u32(g.clbit);
    }
}

TEST(Sabre, RoutingMatchesPinnedDigests)
{
    // Captured from the router that walked circuit::Gate operands and
    // rebuilt the dependency DAG per pass. The goldens and reference
    // CSVs pin only gate and swap counts; these pin every routing
    // decision, so a byte-preserving router change must leave them
    // untouched. One digest per program covers ibm16Q(false) and
    // ibm20Q(true) at mapping seeds 7 and 1, in that order.
    const std::vector<std::pair<const char *, const char *>> pinned = {
        {"qft_16", "4f2ff7a241b3dd8355b7d896e955b668"},
        {"ising_model_16", "a391e7feda9efb319d61c8408fef6ca6"},
        {"UCCSD_ansatz_8", "3cf3ddecbd95f0c4eb121720dbfc1252"},
        {"sym6_145", "92a238e77778273411d7d03a5efdac71"},
        {"dc1_220", "7471fc5061ef81ced729b463ca009b93"},
        {"z4_268", "4f7620fb037d314e3fada692b4511c25"},
        {"cm152a_212", "52252c529089a65ae0e153d9a59f323d"},
        {"adr4_197", "0dc7f37739e2bfad098ccf2b8419b14c"},
        {"radd_250", "af41dd42d883e9d119c2284318ff6593"},
        {"rd84_142", "a6dd9048360f49e997e1045b1726a882"},
        {"misex1_241", "f9db3ce6ff73b23c11a58af5cf16e501"},
        {"square_root_7", "0a7f784279b3f8027bf8de00d411fe9d"},
    };
    const arch::Architecture chips[] = {arch::ibm16Q(false),
                                        arch::ibm20Q(true)};
    ASSERT_EQ(benchmarks::paperSuite().size(), pinned.size());
    for (std::size_t i = 0; i < pinned.size(); ++i) {
        const auto &info = benchmarks::paperSuite()[i];
        ASSERT_EQ(info.name, pinned[i].first);
        const Circuit circ = info.generate();
        cache::Encoder enc;
        for (const arch::Architecture &chip : chips) {
            for (uint64_t seed : {7, 1}) {
                MappingOptions opts;
                opts.seed = seed;
                encodeRouting(enc, mapCircuit(circ, chip, opts));
            }
        }
        EXPECT_EQ(enc.digest().hex(), pinned[i].second) << info.name;
    }
}

/** A random 12-qubit {1q, CX} circuit that also carries barriers,
 * resets and mid-circuit measurements, which no suite program has. */
Circuit
randomCircuitWithNonUnitaries(uint64_t seed)
{
    qpad::Rng rng(seed);
    Circuit c(12, 12, "offsuite_" + std::to_string(seed));
    for (int g = 0; g < 160; ++g) {
        const auto a = circuit::Qubit(rng.below(12));
        const auto b = circuit::Qubit((a + 1 + rng.below(11)) % 12);
        const uint64_t pick = rng.below(20);
        if (pick < 9)
            c.cx(a, b);
        else if (pick < 13)
            c.h(a);
        else if (pick < 16)
            c.rz(0.125 * double(pick), a);
        else if (pick < 17)
            c.barrier();
        else if (pick < 18)
            c.add({circuit::GateKind::Reset, {a}});
        else
            c.measure(a, b);
    }
    return c;
}

TEST(Sabre, RoutingMatchesPinnedDigestsOffTheSuite)
{
    // Inputs the paper suite never routes: barriers (whose span
    // includes the chip's 4 idle qubits), resets and mid-circuit
    // measurements, over lookahead windows from empty to wider than
    // the default. Captured from the router that routed widened and
    // reversed Circuit copies, once its DAG counted indegrees after
    // dropping repeated links (before, a barrier followed by a CX on
    // two of its qubits left one gate's indegree too high, and these
    // inputs panicked with "router dropped gates"). One digest per
    // circuit covers default options, extended_set_size 0, 1, 7 and
    // 40, and extended_weight 0, in that order.
    const std::pair<uint64_t, const char *> pinned[] = {
        {11, "e478a3e6cdfb1a5d1c9e3812f12c13b5"},
        {12, "8bd73e0e5f84f222ef9fc6ccc960294c"},
        {13, "4255e441f0724e92b864d0670f1f0932"},
    };
    std::vector<MappingOptions> variants(1);
    for (std::size_t size : {0, 1, 7, 40}) {
        variants.emplace_back();
        variants.back().extended_set_size = size;
    }
    variants.emplace_back();
    variants.back().extended_weight = 0.0;
    const arch::Architecture chip = arch::ibm16Q(true);
    for (const auto &[seed, digest] : pinned) {
        const Circuit circ = randomCircuitWithNonUnitaries(seed);
        cache::Encoder enc;
        for (const MappingOptions &opts : variants) {
            const auto r = mapCircuit(circ, chip, opts);
            ASSERT_TRUE(mapping::respectsCoupling(r.mapped, chip));
            encodeRouting(enc, r);
        }
        EXPECT_EQ(enc.digest().hex(), digest) << circ.name();
    }
}

TEST(Sabre, CountsMatchMapCircuit)
{
    // Every input of the two pinned-digest tests: countMapping's
    // counts are those of mapCircuit's replayed circuit, and the two
    // entry points move the mapping counters alike.
    std::size_t inputs = 0;
    auto check = [&inputs](const Circuit &circ, const Architecture &chip,
                           const MappingOptions &opts) {
        const obs::Snapshot before_map = obs::snapshot();
        const mapping::MappingResult mapped = mapCircuit(circ, chip, opts);
        const obs::Snapshot by_map = obs::deltaSince(before_map);
        const obs::Snapshot before_count = obs::snapshot();
        const mapping::MappingCounts counted =
            mapping::countMapping(circ, chip, opts);
        const obs::Snapshot by_count = obs::deltaSince(before_count);
        EXPECT_EQ(counted.swaps, mapped.swaps) << circ.name();
        EXPECT_EQ(counted.total_gates, mapped.total_gates) << circ.name();
        EXPECT_EQ(obs::valueOf(by_count, "mapping.calls"), 1.0);
        for (const char *name : {"mapping.calls", "mapping.swaps"})
            EXPECT_EQ(obs::valueOf(by_count, name),
                      obs::valueOf(by_map, name))
                << circ.name() << ' ' << name;
        ++inputs;
    };

    const Architecture chips[] = {arch::ibm16Q(false), arch::ibm20Q(true)};
    for (const auto &info : benchmarks::paperSuite()) {
        const Circuit circ = info.generate();
        for (const Architecture &chip : chips) {
            for (uint64_t seed : {7, 1}) {
                MappingOptions opts;
                opts.seed = seed;
                check(circ, chip, opts);
            }
        }
    }
    std::vector<MappingOptions> variants(1);
    for (std::size_t size : {0, 1, 7, 40}) {
        variants.emplace_back();
        variants.back().extended_set_size = size;
    }
    variants.emplace_back();
    variants.back().extended_weight = 0.0;
    const Architecture chip = arch::ibm16Q(true);
    for (uint64_t seed : {11, 12, 13}) {
        const Circuit circ = randomCircuitWithNonUnitaries(seed);
        for (const MappingOptions &opts : variants)
            check(circ, chip, opts);
    }
    EXPECT_EQ(inputs, benchmarks::paperSuite().size() * 4 + 3 * 6);
}

TEST(Sabre, PerfectChainMappingForIsing)
{
    // Section 5.3.1: the chain program on its own designed layout
    // admits a perfect initial mapping with zero swaps.
    auto circ = benchmarks::isingModel(16, 3);
    auto prof = profile::profileCircuit(circ);
    design::DesignFlowOptions opts;
    opts.freq_scheme = design::FreqScheme::FiveFrequency;
    auto outcome = design::designArchitecture(prof, opts, "ising-chain");
    auto r = mapCircuit(circ, outcome.architecture);
    EXPECT_EQ(r.swaps, 0u);
}

} // namespace
