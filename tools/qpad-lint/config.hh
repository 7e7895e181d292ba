/**
 * @file
 * Checked-in configuration for qpad-lint.
 *
 * The config is a small TOML subset — sections, strings, booleans,
 * and (possibly multi-line) string arrays — enough to express per
 * rule path policies and the RNG sanctioned-helper allowlist without
 * pulling in a dependency:
 *
 *     [lint]
 *     roots = ["src", "tests", "bench"]
 *     extensions = [".cc", ".hh"]
 *
 *     [rule.no-wallclock]
 *     include = ["src/", "tests/"]
 *     exclude = ["src/obs/"]
 *
 *     [rng]
 *     sanctioned = ["freq_alloc.cc:allocateFrequencies"]
 *
 *     [wallclock]
 *     sanctioned = ["cancel.cc:now"]
 *
 * A rule runs on a file iff its section exists, the file's
 * repo-relative path starts with one of `include` (empty include =
 * everywhere under the scanned roots), and starts with none of
 * `exclude`. Paths use forward slashes.
 */

#ifndef QPAD_LINT_CONFIG_HH
#define QPAD_LINT_CONFIG_HH

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace qlint
{

struct RulePolicy
{
    std::vector<std::string> include;
    std::vector<std::string> exclude;
};

struct Config
{
    std::vector<std::string> roots;
    std::vector<std::string> extensions;
    std::map<std::string, RulePolicy> rules;
    /** "file-basename:function" pairs allowed to draw from Rng. */
    std::vector<std::string> sanctioned;
    /** "file-basename:function" pairs allowed to read the clock
     * (the exec::now() helper; everything else must go through
     * it). */
    std::vector<std::string> wallclock_sanctioned;

    bool ok = false;
    std::string error;

    /** True iff rule `rule` applies to repo-relative path `path`. */
    bool appliesTo(const std::string &rule,
                   const std::string &path) const;
};

/** Parse config text; on error `ok` is false and `error` says why. */
Config parseConfig(std::string_view text);

} // namespace qlint

#endif // QPAD_LINT_CONFIG_HH
