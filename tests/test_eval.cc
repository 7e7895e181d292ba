/**
 * @file
 * Tests for the experiment harness and reporting helpers.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>

#include "arch/ibm.hh"
#include "benchmarks/suite.hh"
#include "eval/experiment.hh"
#include "eval/report.hh"

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
    exec::Context ctx;
    ctx.setDeadlineAfter(std::chrono::nanoseconds(0));
    try {
        runBenchmark(benchmarks::getBenchmark("sym6_145"),
                     fastOptions(), ctx);
        FAIL() << "expected CancelledError";
    } catch (const exec::CancelledError &e) {
        EXPECT_EQ(e.reason(), exec::StopReason::kDeadlineExceeded);
    }
}

TEST(ExecCancel, CancelledContextStopsMeasure)
{
    exec::Context ctx;
    ctx.cancel();
    auto arch = arch::ibm16Q(false);
    auto circ = benchmarks::getBenchmark("UCCSD_ansatz_8").generate();
    EXPECT_THROW(measure("probe", arch, circ, fastOptions(), ctx),
                 exec::CancelledError);
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
