/**
 * @file
 * Unit tests of qpad-bench's own logic: the seed -> options
 * derivation, the output checker, and the environment guard. Plain
 * checks, no framework; exits nonzero on the first failed group.
 *
 * Run with `python3 perfbench/run.py --self-test`.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "check.hh"
#include "config.hh"

using namespace qpad;
using namespace qpad::perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

void
testSeedZeroKeepsLibraryDefaults()
{
    const eval::ExperimentOptions defaults;
    for (Workload w : {Workload::Paper, Workload::Fast}) {
        const eval::ExperimentOptions o = sweepOptions(w, 0, 4);
        expect(o.yield_options.seed == defaults.yield_options.seed,
               "seed 0: yield seed is the default");
        expect(o.freq_options.seed == defaults.freq_options.seed,
               "seed 0: freq-alloc seed is the default");
        expect(o.mapping_options.seed == defaults.mapping_options.seed,
               "seed 0: mapping seed is the default");
        expect(o.seed == defaults.seed, "seed 0: random-bus base is the default");
    }
}

void
testSeedDerivationIsDeterministic()
{
    const eval::ExperimentOptions a = sweepOptions(Workload::Paper, 17, 4);
    const eval::ExperimentOptions b = sweepOptions(Workload::Paper, 17, 1);
    const eval::ExperimentOptions c = sweepOptions(Workload::Paper, 18, 4);
    expect(a.yield_options.seed == b.yield_options.seed &&
               a.freq_options.seed == b.freq_options.seed &&
               a.mapping_options.seed == b.mapping_options.seed &&
               a.seed == b.seed,
           "same seed gives the same RNG seeds, whatever the threads");
    expect(a.yield_options.seed != c.yield_options.seed &&
               a.freq_options.seed != c.freq_options.seed &&
               a.mapping_options.seed != c.mapping_options.seed &&
               a.seed != c.seed,
           "another seed changes every RNG seed");
    expect(a.yield_options.seed != a.freq_options.seed &&
               a.freq_options.seed != a.mapping_options.seed,
           "each consumer gets its own stream");
    const eval::ExperimentOptions fast = sweepOptions(Workload::Fast, 17, 4);
    expect(fast.yield_options.seed == a.yield_options.seed,
           "the seed derivation does not depend on the budgets");
    expect(fast.yield_options.trials == 1000 &&
               fast.freq_options.local_trials == 300 &&
               a.yield_options.trials == 10000 &&
               a.freq_options.local_trials == 8000,
           "fast and paper budgets");
}

/** Two programs, three points, all valid at paper budgets. */
Sweep
sampleSweep()
{
    eval::DataPoint p;
    p.config = "ibm";
    p.arch_name = "ibm-16q-2qbus";
    p.num_qubits = 16;
    p.num_edges = 22;
    p.gate_count = 832;
    p.swaps = 72;
    p.yield = 0.0177;
    p.yield_trials = 10000;
    p.norm_recip_gates = 1.0613;
    eval::BenchmarkExperiment a, b;
    a.benchmark = "qft_16";
    a.points = {p, p};
    a.points[1].arch_name = "ibm-16q-4qbus";
    b.benchmark = "sym9_146";
    b.points = {p};
    return {a, b};
}

void
testCheckerAcceptsRepeatedSweeps()
{
    const Sweep sweep = sampleSweep();
    Checker checker(sweepOptions(Workload::Paper, 0, 1), sweepCsv(sweep));
    expect(checker.check(sweep) == 0, "a sweep equal to its reference passes");
    expect(checker.check(sweep) == 0, "an identical second sweep passes");
    expect(checker.attempted() == 6 && checker.failed() == 0,
           "attempted counts every point of every sweep");
}

void
testCheckerFlagsOneByteCsvChange()
{
    const Sweep sweep = sampleSweep();
    Sweep changed = sweep;
    changed[0].points[1].gate_count = 833; // "832" -> "833": one byte
    expect(sweepCsv(changed).size() == sweepCsv(sweep).size(),
           "the change is one byte");

    Checker across_sweeps(sweepOptions(Workload::Paper, 0, 1), "");
    across_sweeps.check(sweep);
    expect(across_sweeps.check(changed) == 1,
           "a one-byte change against the first sweep fails its point");

    std::string reference = sweepCsv(sweep);
    reference[reference.find("832")] = '9';
    Checker against_reference(sweepOptions(Workload::Paper, 0, 1), reference);
    expect(against_reference.check(sweep) == 1,
           "a one-byte difference from the reference fails its point");

    Sweep shorter = sweep;
    shorter[1].points.clear();
    Checker missing(sweepOptions(Workload::Paper, 0, 1), "");
    missing.check(sweep);
    expect(missing.check(shorter) == 1 && missing.attempted() == 6,
           "a point missing from a later sweep counts as failed");
}

void
testCheckerFlagsYieldAboveOne()
{
    Sweep sweep = sampleSweep();
    sweep[1].points[0].yield = 1.5;
    Checker checker(sweepOptions(Workload::Paper, 0, 1), "");
    expect(checker.check(sweep) == 1, "yield > 1 fails its point");
    expect(!pointProblem(sweep[1].points[0],
                         sweepOptions(Workload::Paper, 0, 1))
                .empty(),
           "pointProblem names yield > 1");

    eval::DataPoint p = sampleSweep()[0].points[0];
    const eval::ExperimentOptions paper = sweepOptions(Workload::Paper, 0, 1);
    p.yield_trials = 999;
    expect(!pointProblem(p, paper).empty(), "trials below the budget fail");
    p.yield_trials = 2000001;
    expect(!pointProblem(p, paper).empty(), "trials above the cap fail");
    p.yield_trials = 2000000;
    expect(pointProblem(p, paper).empty(), "trials at the cap pass");
    p.gate_count = 0;
    expect(!pointProblem(p, paper).empty(), "zero gates fail");
}

void
testEnvGuard()
{
    expect(forbiddenEnv({"QPAD_RNG_V1=1"}) ==
               std::vector<std::string>{"QPAD_RNG_V1"},
           "QPAD_RNG_V1 is rejected");
    expect(forbiddenEnv({"QPAD_RNG_V1="}).size() == 1,
           "an empty value still counts as set");
    expect(forbiddenEnv({"QPAD_CACHE_DIR=/x", "QPAD_LOG_LEVEL=debug",
                         "QPAD_FAST=0", "QPAD_THREADS=1"})
                   .size() == 4,
           "prefix and exact names are rejected");
    expect(forbiddenEnv({"PATH=/bin", "QPAD_FIG10_SUITE=qft",
                         "HOME=/home/x"})
               .empty(),
           "unrelated variables pass");
}

} // namespace

int
main()
{
    testSeedZeroKeepsLibraryDefaults();
    testSeedDerivationIsDeterministic();
    testCheckerAcceptsRepeatedSweeps();
    testCheckerFlagsOneByteCsvChange();
    testCheckerFlagsYieldAboveOne();
    testEnvGuard();
    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("qpad_bench_test: all checks passed\n");
    return 0;
}
