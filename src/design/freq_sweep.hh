/**
 * @file
 * Candidate scoring for Algorithm 3: the exact interval sweep behind
 * allocateFrequencies. Internal; exposed so its property tests can
 * compare it with a brute-force scan.
 *
 * A qubit visit scores every grid candidate c for qubit q by its
 * survivor count: the number of common-random-numbers (CRN) trials in
 * which none of q's collision terms fires when q sits at
 * grid[c] + q_noise[t]. Scanning every candidate costs
 * O(trials x terms x candidates); survivorCounts() returns the same
 * integers in O(trials x (terms + candidates / 64)):
 *
 *  - Fix one trial. The partners' frequencies are constants, and q's
 *    frequency x_c = grid[c] + noise is monotone in c: the grid
 *    ascends and IEEE addition is monotone.
 *  - Every condition of yield::Conditions is a chain of IEEE add/sub
 *    (and x2) on x_c, so it is monotone in c too, and |y| < thr is
 *    y < thr && -y < thr. Each condition therefore fires on one index
 *    range [lo, hi) of the grid; condition 4's two halves give a
 *    prefix and a suffix. When q is the shared neighbour j of a
 *    triple, conditions 5-6 do not involve q at all and condition 7
 *    has slope 2.
 *  - Each range end is solved linearly in index units. An end farther
 *    than a rounding bound (freq_sweep.cc) from every grid point is
 *    exact as solved; the grid points within the bound are settled by
 *    evaluating the condition, from yield::Conditions, there.
 *  - The ranges are OR-ed into a per-trial dead bitset of
 *    ceil(C / 64) words, and survivors are counted per fixed
 *    1024-trial chunk.
 *
 * Trials are swept eight at a time, in 8-trial blocks laid out as the
 * Gaussian block sampler writes them (common/gauss_block.hh). On grids
 * of at most 64 candidates (35 at the paper's 10 MHz step) one vector
 * pass solves a window's range ends for all eight trials, ORs each
 * range into that trial's one-word dead set, and feeds per-lane
 * bit-sliced counters. A trial with a range end near a grid point,
 * and every trial on a wider grid, runs the scalar sweep instead;
 * the design.freq_settled_lanes counter counts the trials the vector
 * pass hands over. Both sweeps solve their windows with one set of
 * term templates, so they compute every range end alike.
 *
 * The counts are integers, so scores, the argmax, and every output
 * byte are those of the brute-force scan at every thread count.
 */

#ifndef QPAD_DESIGN_FREQ_SWEEP_HH
#define QPAD_DESIGN_FREQ_SWEEP_HH

#include <cstddef>
#include <vector>

#include "arch/architecture.hh"
#include "common/gauss_block.hh"
#include "runtime/parallel.hh"
#include "yield/collision.hh"

namespace qpad::design::sweep
{

/** Candidate frequencies freq_min, freq_min + step, ... (GHz). */
struct CandidateGrid
{
    double step = 0.0;
    /** Ascending; each entry is the previous one plus `step`. */
    std::vector<double> freqs;
};

/** Finest accepted grid step (1 kHz, 340,001 candidates). */
constexpr double kMinGridStepGhz = 1e-6;

/**
 * The grid across the allowed band. Fatal unless `step` is a finite
 * number of at least kMinGridStepGhz: `f += step` never passes the
 * top of the band when the step is zero, negative or below half an
 * ulp of f, a step just above that would exhaust memory first, and
 * NaN or infinity would give a meaningless one-candidate grid.
 */
CandidateGrid candidateGrid(double step);

/** The collision terms of one qubit visit, in local indices. */
struct LocalTerms
{
    /** Index 0 is q itself, then its term partners. */
    std::vector<arch::PhysQubit> involved;
    /** Conditions 1-4 on q's edges to assigned qubits; a == 0. */
    std::vector<yield::CollisionChecker::PairTerm> pairs;
    /** Conditions 5-7 whose j, k or i is q (index 0). */
    std::vector<yield::CollisionChecker::TripleTerm> triples;
};

/** The terms whose value depends on f(q), among assigned qubits. */
LocalTerms localTerms(const arch::Architecture &arch, arch::PhysQubit q,
                      const std::vector<bool> &assigned);

/**
 * Survivor count of every grid candidate over a CRN table of
 * `q_noise.size()` trials: trial t survives candidate c iff no
 * condition of any term fires with q at grid.freqs[c] + q_noise[t] and
 * every partner x at post[t * terms.involved.size() + x] (column 0 is
 * never read). A passed `deadline` raises exec::CancelledError at the
 * next chunk claim.
 */
std::vector<std::size_t>
survivorCounts(const LocalTerms &terms, const CandidateGrid &grid,
               const std::vector<double> &post,
               const std::vector<double> &q_noise,
               const yield::CollisionModel &model,
               const runtime::Options &exec,
               exec::TimePoint deadline = exec::kNoDeadline);

/**
 * The same counts over `trials` CRN trials drawn inside the sweep,
 * with no table: trial t is lane t % 8 of block t / 8 of `sampler`'s
 * fillAffine stream, each block n_inv + 1 rows: the involved qubits
 * at `means` (one per terms.involved entry; q's own row is drawn and
 * never read), then q's noise at mean 0. Equal to the table-fed
 * survivorCounts over the table those fills give. Each 1024-trial
 * chunk starts from its own copy of `sampler`, advanced past the
 * chunks before it with GaussianBlockSampler::discard, and draws its
 * own blocks. The deadline is polled as above.
 */
std::vector<std::size_t>
survivorCounts(const LocalTerms &terms, const CandidateGrid &grid,
               const GaussianBlockSampler &sampler,
               const std::vector<double> &means, double sigma,
               std::size_t trials, const yield::CollisionModel &model,
               const runtime::Options &exec,
               exec::TimePoint deadline = exec::kNoDeadline);

} // namespace qpad::design::sweep

#endif // QPAD_DESIGN_FREQ_SWEEP_HH
