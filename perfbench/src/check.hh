/**
 * @file
 * Output check of qpad-bench: every data point of every sweep is
 * either good or counted as failed.
 *
 * A point fails when
 *  - its own invariants break: yield outside [0, 1] or not finite,
 *    yield_trials outside [budget, max_yield_trials], gate_count 0;
 *  - its CSV row differs from the same row of the run's first sweep
 *    (so every sweep of a run must produce the same CSV bytes);
 *  - a reference CSV is given and its row differs from the reference.
 */

#ifndef QPAD_PERFBENCH_CHECK_HH
#define QPAD_PERFBENCH_CHECK_HH

#include <string>
#include <vector>

#include "eval/experiment.hh"

namespace qpad::perfbench
{

using Sweep = std::vector<eval::BenchmarkExperiment>;

/** The sweep as the fig10 bench prints it with QPAD_FIG10_CSV=only. */
std::string sweepCsv(const Sweep &sweep);

/** Why `point` is invalid under `options`; empty when it is valid. */
std::string pointProblem(const eval::DataPoint &point,
                         const eval::ExperimentOptions &options);

class Checker
{
  public:
    /** `reference_csv` empty = no reference to compare with. */
    Checker(eval::ExperimentOptions options, std::string reference_csv);

    /** Check one sweep; returns how many of its points failed. */
    std::size_t check(const Sweep &sweep);

    /** Count `n` more failed points found by another check (the
     * replay's coupling and fidelity checks). */
    void fail(std::size_t n, const std::string &why);

    std::size_t attempted() const { return attempted_; }
    std::size_t failed() const { return failed_; }
    /** The first few failure reasons, for stderr. */
    const std::vector<std::string> &problems() const { return problems_; }

  private:
    void note(const std::string &why);

    eval::ExperimentOptions options_;
    std::vector<std::string> reference_rows_;
    std::vector<std::string> first_rows_;
    bool have_first_ = false;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::vector<std::string> problems_;
};

} // namespace qpad::perfbench

#endif // QPAD_PERFBENCH_CHECK_HH
