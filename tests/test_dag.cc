/**
 * @file
 * Tests for the gate dependency DAG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "circuit/dag.hh"
#include "common/rng.hh"

namespace
{

using namespace qpad::circuit;

TEST(Dag, IndependentGatesAreAllRoots)
{
    Circuit c(3);
    c.h(0);
    c.h(1);
    c.h(2);
    DependencyDag dag(c);
    EXPECT_EQ(dag.roots().size(), 3u);
    EXPECT_EQ(dag.asapDepth(), 1u);
}

TEST(Dag, SerialChainHasOneRoot)
{
    Circuit c(1);
    c.h(0);
    c.t(0);
    c.h(0);
    DependencyDag dag(c);
    EXPECT_EQ(dag.roots().size(), 1u);
    EXPECT_EQ(dag.asapDepth(), 3u);
    EXPECT_EQ(dag.successors(0).size(), 1u);
    EXPECT_EQ(dag.successors(0)[0], 1u);
}

TEST(Dag, TwoQubitGateJoinsChains)
{
    Circuit c(2);
    c.h(0);    // 0
    c.h(1);    // 1
    c.cx(0, 1); // 2 depends on 0 and 1
    DependencyDag dag(c);
    EXPECT_EQ(dag.indegree(2), 2u);
    EXPECT_EQ(dag.asapDepth(), 2u);
}

TEST(Dag, BackToBackCxSamePairSingleEdge)
{
    Circuit c(2);
    c.cx(0, 1); // 0
    c.cx(0, 1); // 1 shares both qubits with 0
    DependencyDag dag(c);
    // The duplicate edge must be coalesced.
    EXPECT_EQ(dag.successors(0).size(), 1u);
    EXPECT_EQ(dag.indegree(1), 1u);
    EXPECT_EQ(dag.asapDepth(), 2u);
}

TEST(Dag, BarrierSynchronizesEverything)
{
    Circuit c(3);
    c.h(0);     // 0
    c.barrier(); // 1
    c.h(1);     // 2: must depend on the barrier
    DependencyDag dag(c);
    EXPECT_EQ(dag.indegree(2), 1u);
    EXPECT_EQ(dag.successors(1).size(), 1u);
    EXPECT_EQ(dag.asapDepth(), 3u);
}

TEST(Dag, MeasureParticipatesInDependencies)
{
    Circuit c(1, 1);
    c.h(0);
    c.measure(0, 0);
    DependencyDag dag(c);
    EXPECT_EQ(dag.indegree(1), 1u);
}

TEST(Dag, RootsMatchIndegreeZero)
{
    Circuit c(4);
    c.cx(0, 1);
    c.cx(2, 3);
    c.cx(1, 2);
    DependencyDag dag(c);
    auto roots = dag.roots();
    ASSERT_EQ(roots.size(), 2u);
    EXPECT_EQ(roots[0], 0u);
    EXPECT_EQ(roots[1], 1u);
    EXPECT_EQ(dag.indegree(2), 2u);
}

TEST(Dag, AsapDepthMatchesCircuitDepthForUnitaries)
{
    Circuit c(5);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.h(3);
    c.cx(3, 4);
    c.cx(2, 3);
    DependencyDag dag(c);
    EXPECT_EQ(dag.asapDepth(), c.depth());
}

/** Random gates over `width` qubits: 1q, CX, measure, reset and
 * barrier. */
Circuit
randomCircuitWithBarriers(uint64_t seed, std::size_t width)
{
    qpad::Rng rng(seed);
    Circuit c(width, width);
    for (int g = 0; g < 60; ++g) {
        const auto a = Qubit(rng.below(width));
        const uint64_t pick = rng.below(10);
        if (pick < 4 && width > 1)
            c.cx(a, Qubit((a + 1 + rng.below(width - 1)) % width));
        else if (pick < 6)
            c.h(a);
        else if (pick < 7)
            c.measure(a, a);
        else if (pick < 8)
            c.add({GateKind::Reset, {a}});
        else
            c.barrier();
    }
    return c;
}

bool
touches(const Gate &g, Qubit q)
{
    return g.kind == GateKind::Barrier ||
           std::find(g.qubits.begin(), g.qubits.end(), q) !=
               g.qubits.end();
}

TEST(Dag, MatchesNextGateOracle)
{
    // A gate's successors are the first later gate on each of its
    // qubits (every qubit, for a barrier), ascending and distinct.
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        const std::size_t width = 1 + seed % 6;
        const Circuit c = randomCircuitWithBarriers(seed, width);
        const DependencyDag dag(c);
        ASSERT_EQ(dag.numGates(), c.size());
        std::vector<std::size_t> indegree(c.size(), 0);
        for (std::size_t i = 0; i < c.size(); ++i) {
            std::set<std::size_t> next;
            for (Qubit q = 0; q < width; ++q) {
                if (!touches(c.gate(i), q))
                    continue;
                for (std::size_t j = i + 1; j < c.size(); ++j) {
                    if (touches(c.gate(j), q)) {
                        next.insert(j);
                        break;
                    }
                }
            }
            for (std::size_t j : next)
                ++indegree[j];
            const auto succ = dag.successors(i);
            EXPECT_EQ(std::vector<std::size_t>(succ.begin(), succ.end()),
                      std::vector<std::size_t>(next.begin(), next.end()))
                << "seed " << seed << " gate " << i;
        }
        for (std::size_t j = 0; j < c.size(); ++j)
            EXPECT_EQ(dag.indegree(j), indegree[j])
                << "seed " << seed << " gate " << j;
    }
}

TEST(Dag, BarrierSpansTheGivenWidth)
{
    // Built over 3 qubits, two barriers around a gate on qubit 0:
    // qubits 1 and 2 are idle between them, so barrier -> barrier.
    Circuit c(1);
    c.barrier(); // 0
    c.h(0);      // 1
    c.barrier(); // 2
    const std::vector<const Gate *> gates = {&c.gate(0), &c.gate(1),
                                             &c.gate(2)};
    const DependencyDag wide(gates, 3);
    const auto succ = wide.successors(0);
    EXPECT_EQ(std::vector<uint32_t>(succ.begin(), succ.end()),
              (std::vector<uint32_t>{1, 2}));
    EXPECT_EQ(wide.indegree(2), 2u);

    // Over the circuit's own width the gate is the only link.
    const DependencyDag narrow(c);
    ASSERT_EQ(narrow.successors(0).size(), 1u);
    EXPECT_EQ(narrow.indegree(2), 1u);
}

TEST(Dag, EmptyCircuit)
{
    Circuit c(3);
    DependencyDag dag(c);
    EXPECT_EQ(dag.numGates(), 0u);
    EXPECT_TRUE(dag.roots().empty());
    EXPECT_EQ(dag.asapDepth(), 0u);
}

} // namespace
