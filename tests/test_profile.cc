/**
 * @file
 * Tests for the program profiler, anchored on the paper's Figure 4
 * worked example.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "benchmarks/generators.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "profile/coupling.hh"

namespace
{

using namespace qpad;
using profile::profileCircuit;

TEST(Profile, Figure4Example)
{
    auto prof = profileCircuit(benchmarks::profilingExample());
    ASSERT_EQ(prof.num_qubits, 5u);

    // Strength matrix of Figure 4 (c).
    EXPECT_EQ(prof.strength(0, 4), 2u);
    EXPECT_EQ(prof.strength(4, 0), 2u);
    EXPECT_EQ(prof.strength(0, 1), 1u);
    EXPECT_EQ(prof.strength(1, 4), 1u);
    EXPECT_EQ(prof.strength(2, 4), 1u);
    EXPECT_EQ(prof.strength(3, 4), 1u);
    EXPECT_EQ(prof.strength(0, 2), 0u);
    EXPECT_EQ(prof.strength(1, 2), 0u);

    // Coupling degrees of Figure 4 (d): q4=5, q0=3, q1=2, q2=1, q3=1.
    EXPECT_EQ(prof.degrees[4], 5u);
    EXPECT_EQ(prof.degrees[0], 3u);
    EXPECT_EQ(prof.degrees[1], 2u);
    EXPECT_EQ(prof.degrees[2], 1u);
    EXPECT_EQ(prof.degrees[3], 1u);

    // Degree list sorted descending, ties by id.
    ASSERT_EQ(prof.degree_list.size(), 5u);
    EXPECT_EQ(prof.degree_list[0], 4u);
    EXPECT_EQ(prof.degree_list[1], 0u);
    EXPECT_EQ(prof.degree_list[2], 1u);
    EXPECT_EQ(prof.degree_list[3], 2u);
    EXPECT_EQ(prof.degree_list[4], 3u);

    EXPECT_EQ(prof.total_two_qubit_gates, 6u);
}

TEST(Profile, IgnoresSingleQubitGatesAndMeasurement)
{
    circuit::Circuit c(2, 2);
    c.h(0);
    c.x(1);
    c.rz(0.3, 0);
    c.measure(0, 0);
    c.measure(1, 1);
    auto prof = profileCircuit(c);
    EXPECT_EQ(prof.total_two_qubit_gates, 0u);
    EXPECT_EQ(prof.degrees[0], 0u);
    EXPECT_EQ(prof.strength(0, 1), 0u);
}

TEST(Profile, SymmetricMatrix)
{
    auto prof = profileCircuit(benchmarks::qft(6));
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 6; ++j)
            EXPECT_EQ(prof.strength(i, j), prof.strength(j, i));
}

TEST(Profile, DegreeIsRowSum)
{
    auto prof = profileCircuit(benchmarks::uccsdAnsatz(8));
    for (std::size_t q = 0; q < 8; ++q) {
        uint32_t sum = 0;
        for (std::size_t o = 0; o < 8; ++o)
            if (o != q)
                sum += prof.strength(q, o);
        EXPECT_EQ(prof.degrees[q], sum);
    }
}

TEST(Profile, DegreeSumIsTwiceGateCount)
{
    auto prof = profileCircuit(benchmarks::qft(8));
    uint64_t sum = 0;
    for (auto d : prof.degrees)
        sum += d;
    EXPECT_EQ(sum, 2 * prof.total_two_qubit_gates);
}

TEST(Profile, EdgesEnumeratesPositivePairs)
{
    auto prof = profileCircuit(benchmarks::profilingExample());
    auto edges = prof.edges();
    EXPECT_EQ(edges.size(), 5u); // 04, 01, 14, 24, 34
    for (auto [i, j] : edges) {
        EXPECT_LT(i, j);
        EXPECT_GT(prof.strength(i, j), 0u);
    }
}

TEST(Profile, ChainDetection)
{
    auto ising = profileCircuit(benchmarks::isingModel(10, 3));
    EXPECT_TRUE(ising.isChain());

    auto ghz = profileCircuit(benchmarks::ghz(6));
    EXPECT_TRUE(ghz.isChain());

    auto qft = profileCircuit(benchmarks::qft(4));
    EXPECT_FALSE(qft.isChain()); // complete graph

    auto star = profileCircuit(benchmarks::profilingExample());
    EXPECT_FALSE(star.isChain()); // q4 has degree 4
}

TEST(Profile, QftUniformPattern)
{
    // Every qubit pair in our QFT interacts exactly twice (the
    // controlled-phase lowering), the property Section 5.4.2 calls
    // out as the bus-selection worst case.
    auto prof = profileCircuit(benchmarks::qft(16));
    for (std::size_t i = 0; i < 16; ++i)
        for (std::size_t j = i + 1; j < 16; ++j)
            EXPECT_EQ(prof.strength(i, j), 2u);
}

TEST(Profile, UccsdChainDominantPattern)
{
    // Figure 5 (left): adjacent-index pairs dominate.
    auto prof = profileCircuit(benchmarks::uccsdAnsatz(8));
    uint64_t chain = 0, off_chain = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t j = i + 1; j < 8; ++j) {
            if (j == i + 1)
                chain += prof.strength(i, j);
            else
                off_chain += prof.strength(i, j);
        }
    }
    EXPECT_GT(chain, 2 * off_chain);
}

TEST(Profile, StrengthTableRendersAllRows)
{
    auto prof = profileCircuit(benchmarks::ghz(3));
    std::string table = prof.strengthTable();
    EXPECT_NE(table.find("q0"), std::string::npos);
    EXPECT_NE(table.find("q2"), std::string::npos);
}

TEST(Profile, EachCallIsOneSpanAndOneCount)
{
    if (obs::tracingEnabled())
        GTEST_SKIP() << "QPAD_TRACE is set; session already active";
    const obs::Counter &circuits = obs::counter("profile.circuits");
    const uint64_t before = circuits.value();
    const std::string path =
        testing::TempDir() + "qpad_trace_profile_circuit.json";
    ASSERT_TRUE(obs::startTracing(path));
    profileCircuit(benchmarks::ghz(3));
    profileCircuit(benchmarks::qft(4));
    obs::stopTracing();
    EXPECT_EQ(circuits.value(), before + 2);

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::size_t edges = 0;
    for (std::string line; std::getline(in, line);)
        edges += line.find("\"name\":\"profile.circuit\"") !=
                 std::string::npos;
    EXPECT_EQ(edges, 2u * 2u); // a B and an E per call
}

} // namespace
