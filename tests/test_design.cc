/**
 * @file
 * Tests for the three design subroutines (Algorithms 1-3) and the
 * end-to-end design flow.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "arch/ibm.hh"
#include "benchmarks/generators.hh"
#include "benchmarks/suite.hh"
#include "design/design_flow.hh"
#include "design/freq_sweep.hh"
#include "obs/metrics.hh"
#include "profile/coupling.hh"
#include "yield/yield_sim.hh"

namespace
{

using namespace qpad;
using namespace qpad::design;
using arch::Architecture;
using arch::Coord;
using arch::Layout;

// --------------------------------------------------------------------
// Algorithm 1: layout design
// --------------------------------------------------------------------

TEST(LayoutDesign, Figure6StarExample)
{
    auto prof = profile::profileCircuit(benchmarks::profilingExample());
    LayoutResult r = designLayout(prof);
    ASSERT_EQ(r.layout.numQubits(), 5u);

    // q4 is placed first (highest degree); the heavy q0-q4 pair must
    // be lattice-adjacent.
    EXPECT_EQ(Coord::manhattan(r.coord_of_logical[0],
                               r.coord_of_logical[4]), 1);
    // Star around q4: an optimal plus-shape costs 7
    // (edges to q4: 2+1+1+1, plus q0-q1 at distance 2).
    EXPECT_LE(r.placement_cost, 8u);
}

TEST(LayoutDesign, ChainProgramGetsPerfectChainPlacement)
{
    auto prof = profile::profileCircuit(benchmarks::isingModel(16, 5));
    ASSERT_TRUE(prof.isChain());
    LayoutResult r = designLayout(prof);
    // Every logical edge must land on lattice-adjacent nodes: the
    // cost equals the plain sum of edge strengths.
    uint64_t strength_sum = 0;
    for (auto [i, j] : prof.edges())
        strength_sum += prof.strength(i, j);
    EXPECT_EQ(r.placement_cost, strength_sum);
}

TEST(LayoutDesign, PlacesEveryQubitOnce)
{
    for (const char *name : {"qft_16", "misex1_241", "adr4_197"}) {
        auto circ = benchmarks::getBenchmark(name).generate();
        auto prof = profile::profileCircuit(circ);
        LayoutResult r = designLayout(prof);
        EXPECT_EQ(r.layout.numQubits(), prof.num_qubits) << name;
        // Layout::addQubit would have thrown on duplicate coords;
        // verify id <-> coordinate consistency instead.
        for (circuit::Qubit q = 0; q < prof.num_qubits; ++q)
            EXPECT_EQ(*r.layout.qubitAt(r.coord_of_logical[q]), q);
    }
}

TEST(LayoutDesign, LayoutIsContiguous)
{
    auto prof = profile::profileCircuit(benchmarks::uccsdAnsatz(8));
    LayoutResult r = designLayout(prof);
    Architecture arch(r.layout);
    EXPECT_TRUE(arch.isConnectedGraph());
}

TEST(LayoutDesign, NormalizedToOrigin)
{
    auto prof = profile::profileCircuit(benchmarks::qft(9));
    LayoutResult r = designLayout(prof);
    EXPECT_EQ(r.layout.minRow(), 0);
    EXPECT_EQ(r.layout.minCol(), 0);
}

TEST(LayoutDesign, CostBeatsRowMajorPackingOnStructuredPrograms)
{
    // The whole point of Algorithm 1: locality-aware placement must
    // not be worse than naive row-major packing into a near-square.
    for (const char *name : {"UCCSD_ansatz_8", "misex1_241"}) {
        auto circ = benchmarks::getBenchmark(name).generate();
        auto prof = profile::profileCircuit(circ);
        LayoutResult r = designLayout(prof);

        std::vector<Coord> naive(prof.num_qubits);
        int cols = 4;
        for (std::size_t q = 0; q < prof.num_qubits; ++q)
            naive[q] = {int(q) / cols, int(q) % cols};
        EXPECT_LE(r.placement_cost, placementCost(prof, naive))
            << name;
    }
}

TEST(LayoutDesign, HandlesIsolatedQubits)
{
    // A program whose qubit 2 never touches a two-qubit gate.
    circuit::Circuit c(3, 3);
    c.cx(0, 1);
    c.h(2);
    auto prof = profile::profileCircuit(c);
    LayoutResult r = designLayout(prof);
    EXPECT_EQ(r.layout.numQubits(), 3u);
}

// --------------------------------------------------------------------
// Algorithm 2: bus selection
// --------------------------------------------------------------------

profile::CouplingProfile
syntheticProfile(std::size_t n,
                 const std::vector<std::tuple<int, int, int>> &edges)
{
    circuit::Circuit c(n);
    for (auto [a, b, w] : edges)
        for (int k = 0; k < w; ++k)
            c.cx(a, b);
    return profile::profileCircuit(c);
}

TEST(BusSelection, PicksTheHeavyDiagonal)
{
    // 2x2 grid, logical ids = grid ids; diagonal (0,3) heavy.
    auto prof = syntheticProfile(
        4, {{0, 1, 1}, {2, 3, 1}, {0, 3, 10}});
    Architecture arch(Layout::grid(2, 2));
    auto sel = selectBuses(arch, prof, 5);
    ASSERT_EQ(sel.selected.size(), 1u);
    EXPECT_EQ(sel.selected[0], (Coord{0, 0}));
    EXPECT_EQ(sel.weights[0], 10u);
}

TEST(BusSelection, ZeroWeightSquaresNeverSelected)
{
    // Chain coupling on a 2x3 grid: no diagonal demand at all.
    auto prof = syntheticProfile(
        6, {{0, 1, 5}, {1, 2, 5}, {3, 4, 5}, {4, 5, 5}});
    Architecture arch(Layout::grid(2, 3));
    auto sel = selectBuses(arch, prof, 10);
    EXPECT_TRUE(sel.selected.empty());
}

TEST(BusSelection, ProhibitedConditionRespected)
{
    // All diagonals attractive on a 2x8 grid: selection must stay an
    // independent set of squares.
    std::vector<std::tuple<int, int, int>> edges;
    for (int c = 0; c < 7; ++c) {
        edges.push_back({c, 9 + c, 3});     // diag tl-br
        edges.push_back({c + 1, 8 + c, 3}); // diag tr-bl
    }
    auto prof = syntheticProfile(16, edges);
    Architecture arch(Layout::grid(2, 8));
    auto sel = selectBuses(arch, prof, 100);
    EXPECT_LE(sel.selected.size(), 4u);
    Architecture check(Layout::grid(2, 8));
    applyBusSelection(check, sel); // throws on violation
    EXPECT_EQ(check.fourQubitBuses().size(), sel.selected.size());
}

TEST(BusSelection, FilteredWeightPrefersIsolatedHeavySquare)
{
    // Squares at origins (0,0), (0,1), (0,2) on a 2x4 grid with
    // weights 6, 7, 6: raw greedy would take the middle (7) and
    // block both neighbours (total 7); the filter starts from an
    // edge square and achieves 6 + 6.
    auto prof = syntheticProfile(8, {{0, 5, 6},   // diag of square 0
                                     {1, 6, 7},   // diag of square 1
                                     {2, 7, 6}}); // diag of square 2
    Architecture arch(Layout::grid(2, 4));
    auto sel = selectBuses(arch, prof, 10);
    uint64_t total = 0;
    for (auto w : sel.weights)
        total += w;
    EXPECT_EQ(sel.selected.size(), 2u);
    EXPECT_EQ(total, 12u);
}

TEST(BusSelection, RespectsMaxBusesK)
{
    auto prof = profile::profileCircuit(benchmarks::qft(16));
    LayoutResult lay = designLayout(prof);
    Architecture arch(lay.layout);
    auto sel1 = selectBuses(arch, prof, 1);
    EXPECT_LE(sel1.selected.size(), 1u);
    auto sel3 = selectBuses(arch, prof, 3);
    EXPECT_LE(sel3.selected.size(), 3u);
    EXPECT_GE(sel3.selected.size(), sel1.selected.size());
}

TEST(BusSelection, RandomSelectionHonoursConstraints)
{
    Architecture arch(Layout::grid(4, 5));
    Rng rng(123);
    for (int round = 0; round < 10; ++round) {
        auto sel = selectBusesRandom(arch, 4, rng);
        EXPECT_LE(sel.selected.size(), 4u);
        Architecture check(Layout::grid(4, 5));
        applyBusSelection(check, sel);
    }
}

TEST(BusSelection, RandomSelectionVariesWithSeed)
{
    Architecture arch(Layout::grid(4, 5));
    Rng rng_a(1), rng_b(2);
    auto a = selectBusesRandom(arch, 6, rng_a);
    auto b = selectBusesRandom(arch, 6, rng_b);
    EXPECT_TRUE(a.selected != b.selected);
}

TEST(BusSelection, MaxPlaceableMatchesKnownGrids)
{
    Architecture a16(Layout::grid(2, 8));
    EXPECT_EQ(maxPlaceableBuses(a16), 4u);
    Architecture a20(Layout::grid(4, 5));
    EXPECT_EQ(maxPlaceableBuses(a20), 6u);
}

// --------------------------------------------------------------------
// Algorithm 3: frequency allocation
// --------------------------------------------------------------------

TEST(FreqAlloc, CenterQubitOfGrids)
{
    // 1x3 path: the middle qubit is the centroid.
    EXPECT_EQ(centerQubit(Layout::grid(1, 3)), 1u);
    // 3x3: the true centre.
    EXPECT_EQ(centerQubit(Layout::grid(3, 3)), 4u);
}

TEST(FreqAlloc, SeedQubitGetsBandMiddle)
{
    Architecture arch(Layout::grid(3, 3));
    FreqAllocOptions opts;
    opts.local_trials = 200;
    auto r = allocateFrequencies(arch, opts);
    EXPECT_EQ(r.order.front(), 4u);
    EXPECT_NEAR(r.freqs[4], 5.17, 0.051); // may move in refinement
}

TEST(FreqAlloc, AllFrequenciesInsideAllowedBand)
{
    Architecture arch(Layout::grid(2, 4));
    FreqAllocOptions opts;
    opts.local_trials = 300;
    auto r = allocateFrequencies(arch, opts);
    for (double f : r.freqs) {
        EXPECT_GE(f, arch::DeviceConstants::freq_min_ghz - 1e-9);
        EXPECT_LE(f, arch::DeviceConstants::freq_max_ghz + 1e-9);
    }
}

TEST(FreqAlloc, VisitsEveryQubitOnce)
{
    Architecture arch(Layout::grid(3, 4));
    FreqAllocOptions opts;
    opts.local_trials = 100;
    auto r = allocateFrequencies(arch, opts);
    ASSERT_EQ(r.order.size(), 12u);
    std::vector<bool> seen(12, false);
    for (auto q : r.order) {
        EXPECT_FALSE(seen[q]);
        seen[q] = true;
    }
}

TEST(FreqAlloc, OrderIsBreadthFirstFromCenter)
{
    Architecture arch(Layout::grid(3, 3));
    FreqAllocOptions opts;
    opts.local_trials = 100;
    auto r = allocateFrequencies(arch, opts);
    const auto &d = arch.distances();
    // BFS property: distances from the centre are non-decreasing
    // along the visit order.
    for (std::size_t i = 1; i < r.order.size(); ++i)
        EXPECT_LE(d(r.order.front(), r.order[i - 1]),
                  d(r.order.front(), r.order[i]) + 0);
}

TEST(FreqAlloc, DeterministicForEqualSeeds)
{
    Architecture arch(Layout::grid(2, 4));
    FreqAllocOptions opts;
    opts.local_trials = 300;
    auto a = allocateFrequencies(arch, opts);
    auto b = allocateFrequencies(arch, opts);
    EXPECT_EQ(a.freqs, b.freqs);
}

TEST(FreqAlloc, RejectsDegenerateGridSteps)
{
    // A zero, negative or tiny step never carries `f += step` past
    // the top of the band, so the grid grew until memory ran out; NaN
    // or infinity made a meaningless one-candidate grid.
    Architecture arch(Layout::grid(2, 2));
    FreqAllocOptions opts;
    opts.local_trials = 10;
    for (double step : {0.0, -0.01, std::nan(""),
                        std::numeric_limits<double>::infinity(),
                        1e-300}) {
        opts.grid_step_ghz = step;
        EXPECT_THROW(allocateFrequencies(arch, opts),
                     std::runtime_error)
            << step;
    }
}

TEST(FreqAlloc, BeatsFiveFrequencySchemeOnDesignedLayout)
{
    // The headline Section 5.4.3 property on one concrete design.
    auto prof = profile::profileCircuit(benchmarks::uccsdAnsatz(8));
    DesignFlowOptions flow;
    flow.max_buses = 2;

    flow.freq_scheme = FreqScheme::Optimized;
    auto optimized = designArchitecture(prof, flow, "opt");
    flow.freq_scheme = FreqScheme::FiveFrequency;
    auto five = designArchitecture(prof, flow, "five");

    yield::YieldOptions yo;
    yo.trials = 20000;
    double y_opt = yield::estimateYield(optimized.architecture, yo).yield;
    double y_five = yield::estimateYield(five.architecture, yo).yield;
    EXPECT_GT(y_opt, y_five);
}

TEST(FreqAlloc, RefinementSweepsHelpOrAreNeutral)
{
    auto prof = profile::profileCircuit(benchmarks::uccsdAnsatz(8));
    LayoutResult lay = designLayout(prof);
    Architecture arch(lay.layout);

    FreqAllocOptions plain;
    plain.refine_sweeps = 0;
    plain.local_trials = 2000;
    FreqAllocOptions refined = plain;
    refined.refine_sweeps = 2;

    Architecture a = arch, b = arch;
    a.setAllFrequencies(allocateFrequencies(arch, plain).freqs);
    b.setAllFrequencies(allocateFrequencies(arch, refined).freqs);

    yield::YieldOptions yo;
    yo.trials = 20000;
    double y_plain = yield::estimateYield(a, yo).yield;
    double y_refined = yield::estimateYield(b, yo).yield;
    // Refinement should not lose more than noise allows.
    EXPECT_GE(y_refined, 0.7 * y_plain);
}

// --------------------------------------------------------------------
// Algorithm 3's candidate sweep vs brute force
// --------------------------------------------------------------------

/**
 * Brute-force oracle, scanning every candidate in every trial:
 * candidate c survives trial t iff no pair or triple condition fires
 * with q (local index 0) at grid[c] + q_noise[t].
 */
std::vector<std::size_t>
bruteForceSurvivors(const sweep::LocalTerms &terms,
                    const sweep::CandidateGrid &grid,
                    const std::vector<double> &post,
                    const std::vector<double> &q_noise,
                    const yield::CollisionModel &model)
{
    const std::size_t n_inv = terms.involved.size();
    std::vector<std::size_t> survivors(grid.freqs.size(), 0);
    for (std::size_t c = 0; c < grid.freqs.size(); ++c) {
        for (std::size_t t = 0; t < q_noise.size(); ++t) {
            const double *row = &post[t * n_inv];
            const double qv = grid.freqs[c] + q_noise[t];
            auto at = [&](std::size_t idx) {
                return idx == 0 ? qv : row[idx];
            };
            bool failed = false;
            for (const auto &p : terms.pairs)
                failed = failed || yield::pairConditionMask(
                                       model, at(p.a), at(p.b)) != 0;
            for (const auto &tr : terms.triples)
                failed = failed ||
                         yield::tripleConditionMask(model, at(tr.j),
                                                    at(tr.k),
                                                    at(tr.i)) != 0;
            survivors[c] += !failed;
        }
    }
    return survivors;
}

/** One qubit visit: its terms and a CRN table around chosen means. */
struct Visit
{
    sweep::LocalTerms terms;
    std::vector<double> post, q_noise;
};

/**
 * A random visit state on `arch`: random q, each other qubit assigned
 * with probability 3/4, partner means drawn from the grid, and
 * Gaussian noise of `sigma` (0 gives every trial the means exactly).
 */
Visit
randomVisit(const Architecture &arch, const sweep::CandidateGrid &grid,
            std::size_t trials, double sigma, Rng &rng)
{
    const auto q = arch::PhysQubit(rng.below(arch.numQubits()));
    std::vector<bool> assigned(arch.numQubits());
    for (std::size_t x = 0; x < assigned.size(); ++x)
        assigned[x] = x != q && rng.chance(0.75);
    Visit v;
    v.terms = sweep::localTerms(arch, q, assigned);
    const std::size_t n_inv = v.terms.involved.size();
    std::vector<double> means(n_inv);
    for (double &m : means)
        m = grid.freqs[rng.below(grid.freqs.size())];
    v.post.resize(trials * n_inv);
    v.q_noise.resize(trials);
    for (std::size_t t = 0; t < trials; ++t) {
        for (std::size_t idx = 0; idx < n_inv; ++idx)
            v.post[t * n_inv + idx] =
                means[idx] + sigma * rng.gaussian();
        v.q_noise[t] = sigma * rng.gaussian();
    }
    return v;
}

std::vector<std::size_t>
sweepSurvivors(const Visit &v, const sweep::CandidateGrid &grid,
               const yield::CollisionModel &model, std::size_t threads)
{
    runtime::Options exec;
    exec.num_threads = threads;
    return sweep::survivorCounts(v.terms, grid, v.post, v.q_noise,
                                 model, exec);
}

TEST(FreqSweep, GridSizes)
{
    EXPECT_EQ(sweep::candidateGrid(0.02).freqs.size(), 18u);
    EXPECT_EQ(sweep::candidateGrid(0.01).freqs.size(), 35u);
    EXPECT_EQ(sweep::candidateGrid(0.005).freqs.size(), 69u);
    EXPECT_EQ(sweep::candidateGrid(0.0025).freqs.size(), 137u);
    EXPECT_EQ(sweep::candidateGrid(0.00535).freqs.size(), 64u);
    EXPECT_EQ(sweep::candidateGrid(0.5).freqs.size(), 1u);
}

TEST(FreqSweep, MatchesBruteForceOnRandomNeighbourhoods)
{
    // Exact survivor counts, not just the argmax, on chips with and
    // without 4-qubit buses. 0.005 GHz (69 candidates) and 0.0025 GHz
    // (137) cross one and two bitset word boundaries, 0.00535 GHz
    // fills one word exactly and 0.5 GHz leaves one candidate; 2000
    // and 4097 trials span two and five 1024-trial chunks.
    const yield::CollisionModel model;
    for (const Architecture &chip :
         {arch::ibm16Q(false), arch::ibm16Q(true)}) {
        for (uint64_t seed : {1u, 2u, 3u}) {
            Rng rng(seed);
            for (double step : {0.02, 0.01, 0.005, 0.0025, 0.00535, 0.5}) {
                const auto grid = sweep::candidateGrid(step);
                for (std::size_t trials :
                     {1u, 7u, 8u, 301u, 2000u, 4097u}) {
                    const Visit v =
                        randomVisit(chip, grid, trials, 0.03, rng);
                    const auto expect = bruteForceSurvivors(
                        v.terms, grid, v.post, v.q_noise, model);
                    for (std::size_t threads : {1u, 2u, 3u, 4u})
                        ASSERT_EQ(
                            sweepSurvivors(v, grid, model, threads),
                            expect)
                            << chip.name() << " seed " << seed
                            << " step " << step << " trials " << trials
                            << " threads " << threads;
                }
            }
        }
    }
}

TEST(FreqSweep, SettlesRangeEndsOnGridPoints)
{
    // Zero noise puts q and every partner exactly on grid points, and
    // thresholds and delta that are differences of grid points put
    // range ends on grid points too: only evaluating the conditions
    // there decides them, and some |x - b| < thr comparisons are
    // exact ties. Noise of a whole number of steps shifts q along the
    // grid up to rounding.
    for (double step : {0.02, 0.01, 0.005}) {
        const auto grid = sweep::candidateGrid(step);
        auto gap = [&](std::size_t n) {
            return grid.freqs[n] - grid.freqs[0];
        };
        yield::CollisionModel model;
        model.delta = -gap(8);
        model.thr1 = gap(2);
        model.thr2 = gap(1);
        model.thr3 = gap(3);
        model.thr5 = gap(2);
        model.thr6 = gap(3);
        model.thr7 = gap(2);
        Rng rng(7);
        for (const Architecture &chip :
             {arch::ibm16Q(false), arch::ibm16Q(true)}) {
            for (int round = 0; round < 40; ++round) {
                Visit v = randomVisit(chip, grid, 16, 0.0, rng);
                if (round % 2 == 1)
                    for (double &noise : v.q_noise)
                        noise = double(rng.range(-3, 3)) * step;
                const auto expect = bruteForceSurvivors(
                    v.terms, grid, v.post, v.q_noise, model);
                for (std::size_t threads : {1u, 4u})
                    ASSERT_EQ(sweepSurvivors(v, grid, model, threads),
                              expect)
                        << "step " << step << " round " << round;
            }
        }
    }
}

/** A grid-aligned model: thresholds and delta are differences of
 * grid points, so range ends fall on grid points. */
yield::CollisionModel
gridAlignedModel(const sweep::CandidateGrid &grid)
{
    auto gap = [&](std::size_t n) {
        return grid.freqs[n] - grid.freqs[0];
    };
    yield::CollisionModel model;
    model.delta = -gap(8);
    model.thr1 = gap(2);
    model.thr2 = gap(1);
    model.thr3 = gap(3);
    model.thr5 = gap(2);
    model.thr6 = gap(3);
    model.thr7 = gap(2);
    return model;
}

TEST(FreqSweep, GridAlignedEndsAreSettledByTheScalarSweep)
{
    // Zero noise on a grid-aligned model puts range ends on grid
    // points, inside their settle zones: on grids of one word the
    // lane sweep must hand those lanes to the scalar sweep, which
    // design.freq_settled_lanes counts, and the counts must still be
    // the brute-force ones.
    obs::Counter &settled = obs::counter("design.freq_settled_lanes");
    for (double step : {0.02, 0.01}) {
        const auto grid = sweep::candidateGrid(step);
        const yield::CollisionModel model = gridAlignedModel(grid);
        Rng rng(5);
        const uint64_t before = settled.value();
        for (int round = 0; round < 10; ++round) {
            const Visit v =
                randomVisit(arch::ibm16Q(true), grid, 16, 0.0, rng);
            ASSERT_EQ(sweepSurvivors(v, grid, model, 1),
                      bruteForceSurvivors(v.terms, grid, v.post,
                                          v.q_noise, model))
                << "step " << step << " round " << round;
        }
        EXPECT_GT(settled.value(), before) << "step " << step;
    }
}

TEST(FreqSweep, SettlesEachConditionOnBothSidesOfATie)
{
    // One zero-noise visit per settle predicate on the 10 MHz grid,
    // each with one term and every threshold 0 but the tested one
    // (condition 4 has none; delta keeps it off the ties). A range end
    // of the tested condition falls on grid point `f(n)`. Nudging the
    // threshold (delta for condition 4) by +-1e-13 GHz, far above the
    // rounding of the frequencies and well inside the ~1e-11 GHz
    // settle zone, moves that point into or out of the range, and only
    // the predicate the scalar sweep evaluates there decides which: an
    // operand in the wrong slot or a swapped orientation fails one of
    // the two sides.
    const auto grid = sweep::candidateGrid(0.01);
    auto f = [&](std::size_t n) { return grid.freqs[n]; };
    auto gap = [&](std::size_t n) { return f(n) - f(0); };
    const double half_step = grid.step / 2;
    obs::Counter &settled = obs::counter("design.freq_settled_lanes");

    struct TieVisit
    {
        const char *what;
        sweep::LocalTerms terms;
        std::vector<double> row; // column 0, q's own, is never read
        double delta, thr;
        double yield::CollisionModel::*knob;
    };
    using Model = yield::CollisionModel;
    auto pair = [](double b) {
        sweep::LocalTerms t;
        t.involved = {0, 1};
        t.pairs = {{0, 1}};
        return std::pair{t, std::vector<double>{0.0, b}};
    };
    // q as k (as_i false) or as i of a triple centred on j.
    auto outer = [](double j, double o, bool as_i) {
        sweep::LocalTerms t;
        t.involved = {0, 1, 2};
        t.triples = {as_i ? yield::CollisionChecker::TripleTerm{1, 2, 0}
                          : yield::CollisionChecker::TripleTerm{1, 0, 2}};
        return std::pair{t, std::vector<double>{0.0, j, o}};
    };
    auto centre = [](double k, double i) {
        sweep::LocalTerms t;
        t.involved = {0, 1, 2};
        t.triples = {{0, 1, 2}};
        return std::pair{t, std::vector<double>{0.0, k, i}};
    };
    std::vector<TieVisit> visits;
    auto add = [&](const char *what, auto visit, double delta, double thr,
                   double Model::*knob) {
        visits.push_back(
            {what, visit.first, visit.second, delta, thr, knob});
    };
    // c1 at f(10) +- gap(2): ties at f(8) and f(12).
    add("c1", pair(f(10)), -1.0, gap(2), &Model::thr1);
    // c2 at f(17) -+ delta / 2 = f(27), f(7), +- gap(1).
    add("c2", pair(f(17)), -gap(20), gap(1), &Model::thr2);
    // c3 at f(17) -+ delta = f(27.5), f(6.5), +- 1.5 steps: ties at
    // f(26) and f(8); condition 4 fires past f(27.5) and below f(6.5).
    add("c3", pair(f(17)), -(gap(10) + half_step), 3 * half_step,
        &Model::thr3);
    // c4 above f(10) - delta = f(20) and below f(10) + delta = f(0).
    add("c4", pair(f(10)), -gap(10), 0.0, &Model::delta);
    for (bool as_i : {false, true}) {
        // c5 at f(10) +- gap(2).
        add(as_i ? "c5 q as i" : "c5 q as k", outer(f(20), f(10), as_i),
            -1.0, gap(2), &Model::thr5);
        // c6 at f(17) +- delta = f(7), f(27), +- gap(2).
        add(as_i ? "c6 q as i" : "c6 q as k", outer(f(20), f(17), as_i),
            -gap(10), gap(2), &Model::thr6);
        // c7 at 2 f(20) + delta - f(10) = f(25), +- gap(1).
        add(as_i ? "c7 q as i" : "c7 q as k", outer(f(20), f(10), as_i),
            -gap(5), gap(1), &Model::thr7);
    }
    // c7 with q as j: at (f(10) + f(20) - delta) / 2 = f(25), +- gap(1).
    add("c7 q as j", centre(f(10), f(20)), -gap(20), gap(2), &Model::thr7);

    constexpr std::size_t kTrials = 8;
    runtime::Options exec;
    exec.num_threads = 1;
    for (const TieVisit &v : visits) {
        std::vector<std::size_t> sides[2];
        for (int side = 0; side < 2; ++side) {
            Model model;
            model.delta = v.delta;
            model.thr1 = model.thr2 = model.thr3 = 0.0;
            model.thr5 = model.thr6 = model.thr7 = 0.0;
            model.*v.knob = (v.knob == &Model::delta ? v.delta : v.thr) +
                            (side == 0 ? -1e-13 : 1e-13);
            std::vector<double> post;
            for (std::size_t t = 0; t < kTrials; ++t)
                post.insert(post.end(), v.row.begin(), v.row.end());
            const std::vector<double> q_noise(kTrials, 0.0);
            const uint64_t before = settled.value();
            sides[side] = bruteForceSurvivors(v.terms, grid, post,
                                              q_noise, model);
            EXPECT_EQ(sweep::survivorCounts(v.terms, grid, post, q_noise,
                                            model, exec),
                      sides[side])
                << v.what << " side " << side;
            EXPECT_GT(settled.value(), before)
                << v.what << " side " << side;
        }
        // The nudge moves a grid point across the range end.
        EXPECT_NE(sides[0], sides[1]) << v.what;
    }
}

/**
 * The CRN table of one visit drawn as allocateFrequencies drew it
 * ahead of the sweep: block after block of `sampler`'s fillAffine
 * stream, the involved qubits at `means` and then q's noise at 0,
 * trial t0 + l reading lane l of the block starting at t0.
 */
void
tableFromSampler(GaussianBlockSampler sampler,
                 const std::vector<double> &means, double sigma,
                 std::size_t trials, std::vector<double> &post,
                 std::vector<double> &q_noise)
{
    constexpr std::size_t B = GaussianBlockSampler::kLanes;
    const std::size_t n_inv = means.size();
    std::vector<double> row_means(means);
    row_means.push_back(0.0);
    post.assign(trials * n_inv, 0.0);
    q_noise.assign(trials, 0.0);
    std::vector<double> z((n_inv + 1) * B);
    for (std::size_t t0 = 0; t0 < trials; t0 += B) {
        const std::size_t active = std::min(B, trials - t0);
        sampler.fillAffine(z.data(), row_means.data(), sigma, n_inv + 1);
        for (std::size_t l = 0; l < active; ++l) {
            for (std::size_t idx = 0; idx < n_inv; ++idx)
                post[(t0 + l) * n_inv + idx] = z[idx * B + l];
            q_noise[t0 + l] = z[n_inv * B + l];
        }
    }
}

TEST(FreqSweep, SampledMatchesTableAtChunkEdges)
{
    // The sampler-fed sweep starts each 1024-trial chunk from its own
    // sampler copy, advanced by discard, and draws the chunk's blocks
    // itself. It must see exactly the draws of one sequential fill:
    // trial counts straddle block and chunk edges, and visits with an
    // odd and an even number of rows per block (n_inv + 1) leave a
    // Box-Muller partner pending between blocks or not.
    const yield::CollisionModel model;
    const double sigma = 0.03;
    const Architecture chip = arch::ibm16Q(true);
    Rng rng(19);
    std::vector<sweep::LocalTerms> visits;
    bool have_parity[2] = {false, false};
    while (!have_parity[0] || !have_parity[1]) {
        const auto q = arch::PhysQubit(rng.below(chip.numQubits()));
        std::vector<bool> assigned(chip.numQubits());
        for (std::size_t x = 0; x < assigned.size(); ++x)
            assigned[x] = x != q && rng.chance(0.75);
        sweep::LocalTerms terms = sweep::localTerms(chip, q, assigned);
        const std::size_t parity = (terms.involved.size() + 1) % 2;
        if (!terms.pairs.empty() && !have_parity[parity]) {
            have_parity[parity] = true;
            visits.push_back(std::move(terms));
        }
    }
    for (const sweep::LocalTerms &terms : visits) {
        for (double step : {0.01, 0.005}) {
            const auto grid = sweep::candidateGrid(step);
            for (std::size_t trials :
                 {1u, 7u, 8u, 300u, 1023u, 1024u, 1025u, 2049u, 8000u}) {
                std::vector<double> means(terms.involved.size());
                for (double &m : means)
                    m = grid.freqs[rng.below(grid.freqs.size())];
                const GaussianBlockSampler sampler(rng.next());
                std::vector<double> post, q_noise;
                tableFromSampler(sampler, means, sigma, trials, post,
                                 q_noise);
                runtime::Options exec;
                exec.num_threads = 1;
                const auto expect = sweep::survivorCounts(
                    terms, grid, post, q_noise, model, exec);
                for (std::size_t threads : {1u, 2u, 3u, 4u}) {
                    exec.num_threads = threads;
                    ASSERT_EQ(sweep::survivorCounts(terms, grid, sampler,
                                                    means, sigma, trials,
                                                    model, exec),
                              expect)
                        << "rows " << terms.involved.size() + 1
                        << " step " << step << " trials " << trials
                        << " threads " << threads;
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// End-to-end flow
// --------------------------------------------------------------------

TEST(DesignFlow, ProducesCompleteArchitecture)
{
    auto prof = profile::profileCircuit(benchmarks::qft(8));
    DesignFlowOptions opts;
    opts.max_buses = 2;
    opts.freq_options.local_trials = 300;
    auto outcome = designArchitecture(prof, opts, "flow-test");
    EXPECT_EQ(outcome.architecture.name(), "flow-test");
    EXPECT_EQ(outcome.architecture.numQubits(), 8u);
    EXPECT_TRUE(outcome.architecture.frequenciesAssigned());
    EXPECT_TRUE(outcome.architecture.isConnectedGraph());
    EXPECT_LE(outcome.architecture.fourQubitBuses().size(), 2u);
}

TEST(DesignFlow, BusSchemesBehave)
{
    auto prof = profile::profileCircuit(benchmarks::qft(9));
    DesignFlowOptions opts;
    opts.freq_scheme = FreqScheme::FiveFrequency;

    opts.bus_scheme = BusScheme::None;
    auto none = designArchitecture(prof, opts, "none");
    EXPECT_TRUE(none.architecture.fourQubitBuses().empty());

    opts.bus_scheme = BusScheme::Max;
    auto max = designArchitecture(prof, opts, "max");
    EXPECT_GT(max.architecture.fourQubitBuses().size(), 0u);
    EXPECT_GT(max.architecture.numEdges(), none.architecture.numEdges());

    opts.bus_scheme = BusScheme::Weighted;
    opts.max_buses = 1;
    auto one = designArchitecture(prof, opts, "one");
    EXPECT_LE(one.architecture.fourQubitBuses().size(), 1u);
}

TEST(DesignFlow, IsingNeedsNoBuses)
{
    // Section 5.3.1: chain programs derive no benefit from 4-qubit
    // buses, so the weighted selector must pick none.
    auto prof = profile::profileCircuit(benchmarks::isingModel(16, 5));
    DesignFlowOptions opts;
    opts.freq_scheme = FreqScheme::FiveFrequency;
    opts.max_buses = 100;
    auto outcome = designArchitecture(prof, opts, "ising");
    EXPECT_TRUE(outcome.architecture.fourQubitBuses().empty());
}

TEST(DesignFlow, MoreBusesMoreEdges)
{
    auto prof = profile::profileCircuit(benchmarks::qft(12));
    DesignFlowOptions opts;
    opts.freq_scheme = FreqScheme::FiveFrequency;
    std::size_t prev_edges = 0;
    for (std::size_t k : {0u, 1u, 2u, 3u}) {
        opts.max_buses = k;
        auto outcome = designArchitecture(prof, opts, "sweep");
        if (k > 0) {
            EXPECT_GE(outcome.architecture.numEdges(), prev_edges);
        }
        prev_edges = outcome.architecture.numEdges();
    }
}

} // namespace
