/**
 * @file
 * Tests for the Section 6 extensions: auxiliary routing qubits and
 * temporal profiling.
 */

#include <gtest/gtest.h>

#include "arch/ibm.hh"
#include "benchmarks/suite.hh"
#include "design/auxiliary.hh"
#include "design/design_flow.hh"
#include "mapping/sabre.hh"
#include "profile/temporal.hh"

namespace
{

using namespace qpad;

// --------------------------------------------------------------------
// Auxiliary qubits
// --------------------------------------------------------------------

TEST(Auxiliary, PreservesOriginalIds)
{
    auto circ = benchmarks::getBenchmark("misex1_241").generate();
    auto prof = profile::profileCircuit(circ);
    auto layout = design::designLayout(prof);
    auto aux = design::addAuxiliaryQubits(layout.layout, prof, 2);
    ASSERT_GE(aux.layout.numQubits(), layout.layout.numQubits());
    for (arch::PhysQubit q = 0; q < layout.layout.numQubits(); ++q)
        EXPECT_EQ(aux.layout.coord(q), layout.layout.coord(q));
    EXPECT_EQ(aux.layout.numQubits(),
              layout.layout.numQubits() + aux.added.size());
}

TEST(Auxiliary, StopsWhenNoShortcutExists)
{
    // A 2-qubit program: every coupled pair is already adjacent, so
    // no auxiliary qubit can shorten anything.
    circuit::Circuit c(2);
    c.cx(0, 1);
    auto prof = profile::profileCircuit(c);
    auto layout = design::designLayout(prof);
    auto aux = design::addAuxiliaryQubits(layout.layout, prof, 5);
    EXPECT_TRUE(aux.added.empty());
}

TEST(Auxiliary, ScoresAreDecreasingAndPositive)
{
    auto circ = benchmarks::getBenchmark("qft_16").generate();
    auto prof = profile::profileCircuit(circ);
    auto layout = design::designLayout(prof);
    auto aux = design::addAuxiliaryQubits(layout.layout, prof, 4);
    for (std::size_t i = 0; i < aux.scores.size(); ++i) {
        EXPECT_GT(aux.scores[i], 0u);
        if (i > 0) {
            EXPECT_LE(aux.scores[i], aux.scores[i - 1] * 2)
                << "scores should not explode between rounds";
        }
    }
}

TEST(Auxiliary, ExtendedChipStillMapsTheProgram)
{
    auto circ = benchmarks::getBenchmark("cm152a_212").generate();
    auto prof = profile::profileCircuit(circ);
    auto layout = design::designLayout(prof);
    auto aux = design::addAuxiliaryQubits(layout.layout, prof, 2);
    arch::Architecture chip(aux.layout, "with-aux");
    ASSERT_TRUE(chip.isConnectedGraph());
    auto mapped = mapping::mapCircuit(circ, chip);
    EXPECT_TRUE(mapping::respectsCoupling(mapped.mapped, chip));
}

// --------------------------------------------------------------------
// Temporal profiling
// --------------------------------------------------------------------

TEST(Temporal, WindowsPartitionTheGates)
{
    auto circ = benchmarks::getBenchmark("UCCSD_ansatz_8").generate();
    auto prof = profile::profileTemporal(circ, 8);
    std::size_t total = 0;
    for (const auto &w : prof.windows)
        total += w.two_qubit_gates;
    EXPECT_EQ(total, circ.twoQubitGateCount());
    EXPECT_LE(prof.windows.size(), 8u);
}

TEST(Temporal, DecayOneMatchesPlainProfileShape)
{
    auto circ = benchmarks::getBenchmark("sym6_145").generate();
    auto plain = profile::profileCircuit(circ);
    auto weighted = profile::profileTemporal(circ, 8).weighted(1.0, 1);
    ASSERT_EQ(weighted.num_qubits, plain.num_qubits);
    for (std::size_t i = 0; i < plain.num_qubits; ++i)
        for (std::size_t j = i + 1; j < plain.num_qubits; ++j)
            EXPECT_EQ(weighted.strength(i, j), plain.strength(i, j));
    EXPECT_EQ(weighted.degree_list, plain.degree_list);
}

TEST(Temporal, DecayEmphasizesEarlyWindows)
{
    // A circuit whose early half couples (0,1) and late half (2,3):
    // with strong decay the (0,1) pair must dominate the weighted
    // profile even though both pairs have equal raw counts.
    circuit::Circuit c(4);
    for (int k = 0; k < 10; ++k)
        c.cx(0, 1);
    for (int k = 0; k < 10; ++k)
        c.cx(2, 3);
    auto temporal = profile::profileTemporal(c, 4);
    auto weighted = temporal.weighted(0.25, 64);
    EXPECT_GT(weighted.strength(0, 1), weighted.strength(2, 3));
}

TEST(Temporal, PairReuseExtremes)
{
    // Static coupling: one pair used in every window -> high reuse.
    circuit::Circuit stat(2);
    for (int k = 0; k < 32; ++k)
        stat.cx(0, 1);
    EXPECT_GT(profile::profileTemporal(stat, 8).pairReuse(), 0.8);

    // Rotating coupling: a fresh pair per window -> zero reuse.
    circuit::Circuit rot(16);
    for (circuit::Qubit q = 0; q + 1 < 16; q += 2)
        rot.cx(q, q + 1);
    EXPECT_DOUBLE_EQ(profile::profileTemporal(rot, 8).pairReuse(), 0.0);
}

TEST(Temporal, EmptyCircuitIsHandled)
{
    circuit::Circuit c(3);
    auto prof = profile::profileTemporal(c, 4);
    EXPECT_EQ(prof.pairReuse(), 0.0);
    auto weighted = prof.weighted(0.5);
    EXPECT_EQ(weighted.total_two_qubit_gates, 0u);
}

} // namespace
