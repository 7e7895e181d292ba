/**
 * @file
 * The qpad-lint rule engine.
 *
 * Rules enforce the repo's determinism and concurrency invariants —
 * the ones every PR description restates and no compiler checks:
 *
 *   no-rand               ambient entropy (std::rand, srand,
 *                         random_device, drand48, rand_r)
 *   no-wallclock          wall-clock reads (time(), clock::now(),
 *                         gettimeofday, ...) outside the sanctioned
 *                         exec::now() helper and benches
 *   no-uninit             uninitialized-read idioms in compute paths
 *                         (malloc/realloc/alloca, raw new T[n] of
 *                         arithmetic type)
 *   rng-draw-site         direct Rng draw calls in the Monte Carlo
 *                         paths (src/yield/, freq_alloc,
 *                         gauss_block) outside sanctioned helpers —
 *                         a new draw site changes every seeded
 *                         result and must justify itself
 *   unordered-iter        range-for / .begin() iteration over
 *                         std::unordered_{map,set} in files whose
 *                         output order matters (reports,
 *                         fingerprints, cache encodings, design
 *                         decisions)
 *   atomic-implicit-order atomic load/store/RMW without an explicit
 *                         memory_order argument
 *   atomic-relaxed        memory_order_relaxed outside src/obs/ and
 *                         logging — relaxed is correct for stats,
 *                         suspicious for synchronization, so it
 *                         needs a per-site justification
 *   metric-name           QPAD_SPAN / obs::counter / obs::gauge /
 *                         obs::histogram names must be string
 *                         literals matching the `family.name`
 *                         grammar so metric exports stay
 *                         deterministic and greppable
 *   rawlog                raw stderr writes (std::cerr, fprintf /
 *                         fputs to stderr) outside the log sink:
 *                         diagnostics go through obs::logWarn so
 *                         they share one line format and land in
 *                         the flight recorder; the sink itself,
 *                         sanctioned stderr exporters, and abort
 *                         paths justify themselves inline
 *
 * Meta rules (always on, not suppressible):
 *
 *   suppression-justification  an allow() comment without a quoted
 *                              justification string
 *   suppression-unused         an allow() comment whose rule did not
 *                              fire on the covered lines (stale or
 *                              misplaced)
 *
 * Suppression syntax, same line or the line above the finding:
 *
 *     // qpad-lint: allow(atomic-relaxed) "stat counter, no ordering"
 */

#ifndef QPAD_LINT_RULES_HH
#define QPAD_LINT_RULES_HH

#include <string>
#include <string_view>
#include <vector>

#include "config.hh"
#include "lexer.hh"

namespace qlint
{

struct Finding
{
    std::string file; // repo-relative path
    int line = 0;
    std::string rule;
    std::string message;
    bool suppressed = false;
    std::string justification; // when suppressed
};

struct SuppressionRecord
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string justification;
};

struct FileReport
{
    std::vector<Finding> findings;
    std::vector<SuppressionRecord> suppressions;
};

/**
 * For each token, the name of the innermost *named function* whose
 * body contains it ("" at namespace/class scope). Lambdas and local
 * scopes inside a function keep the function's name; member
 * functions report the unqualified name; constructor member-init
 * lists (including brace-init members) are handled.
 */
std::vector<std::string>
enclosingFunctions(const std::vector<Token> &toks);

/** True iff `name` matches the `family.name` metric grammar. */
bool validMetricName(std::string_view name);

/** Run every configured rule over one file's contents. */
FileReport analyzeFile(const std::string &relpath,
                       std::string_view content, const Config &cfg);

/**
 * Render the --json document: {"findings": [...], "summary": {...}}.
 * Lives in the core library (not the driver) so tests can pin the
 * output shape.
 */
std::string renderJson(const std::vector<Finding> &findings,
                       std::size_t files,
                       std::size_t suppression_count);

} // namespace qlint

#endif // QPAD_LINT_RULES_HH
