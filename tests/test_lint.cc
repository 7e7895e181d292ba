/**
 * @file
 * qpad-lint self-tests: the lexer, the suppression parser, and every
 * rule, each driven on embedded good/bad snippets. The lint gate is
 * only trustworthy if each rule provably fires on known-bad code and
 * stays silent on known-good code — including the classic scanner
 * traps (violations quoted in comments, strings, and raw strings).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "config.hh"
#include "lexer.hh"
#include "rules.hh"

using qlint::Config;
using qlint::FileReport;
using qlint::Finding;
using qlint::LexResult;
using qlint::Tok;
using qlint::Token;

namespace
{

/** All rules on everywhere, with one sanctioned RNG helper. */
Config
testConfig()
{
    Config cfg = qlint::parseConfig(R"(
[lint]
roots = ["src"]
extensions = [".cc", ".hh"]

[rule.no-rand]
[rule.no-wallclock]
[rule.no-uninit]
[rule.rng-draw-site]
[rule.unordered-iter]
[rule.atomic-implicit-order]
[rule.atomic-relaxed]
[rule.metric-name]
[rule.rawlog]

[rng]
sanctioned = ["test.cc:sanctionedHelper"]

[wallclock]
sanctioned = ["test.cc:sanctionedNow"]
)");
    EXPECT_TRUE(cfg.ok) << cfg.error;
    return cfg;
}

FileReport
analyze(const std::string &src, const std::string &path = "test.cc")
{
    static const Config cfg = testConfig();
    return qlint::analyzeFile(path, src, cfg);
}

std::size_t
countRule(const FileReport &rep, const std::string &rule,
          bool suppressed_too = true)
{
    std::size_t n = 0;
    for (const Finding &f : rep.findings)
        if (f.rule == rule && (suppressed_too || !f.suppressed))
            ++n;
    return n;
}

std::size_t
unsuppressed(const FileReport &rep)
{
    std::size_t n = 0;
    for (const Finding &f : rep.findings)
        if (!f.suppressed)
            ++n;
    return n;
}

bool
hasIdent(const LexResult &lx, const std::string &text)
{
    return std::any_of(lx.tokens.begin(), lx.tokens.end(),
                       [&](const Token &t) {
                           return t.kind == Tok::kIdent &&
                                  t.text == text;
                       });
}

} // namespace

// --------------------------------------------------------------------
// Lexer
// --------------------------------------------------------------------

TEST(LintLexer, CommentsAreNotTokens)
{
    const LexResult lx =
        qlint::lex("int x = 0; // never call std::rand()\n"
                   "/* or time(nullptr) either */ int y = 1;\n");
    EXPECT_FALSE(hasIdent(lx, "rand"));
    EXPECT_FALSE(hasIdent(lx, "time"));
    EXPECT_TRUE(hasIdent(lx, "x"));
    EXPECT_TRUE(hasIdent(lx, "y"));
    ASSERT_EQ(lx.comments.size(), 2u);
    EXPECT_TRUE(lx.comments[0].code_before);
    EXPECT_NE(lx.comments[0].text.find("std::rand()"),
              std::string::npos);
}

TEST(LintLexer, BlockCommentSpansLines)
{
    const LexResult lx = qlint::lex("/* a\n b\n c */ int x;\n");
    ASSERT_EQ(lx.comments.size(), 1u);
    EXPECT_EQ(lx.comments[0].line, 1);
    EXPECT_EQ(lx.comments[0].end_line, 3);
    ASSERT_FALSE(lx.tokens.empty());
    EXPECT_EQ(lx.tokens[0].line, 3); // `int` starts on line 3
}

TEST(LintLexer, StringContentsAreOpaque)
{
    const LexResult lx =
        qlint::lex("const char *s = \"std::rand() \\\" time(0)\";\n");
    EXPECT_FALSE(hasIdent(lx, "rand"));
    EXPECT_FALSE(hasIdent(lx, "time"));
    const auto it = std::find_if(
        lx.tokens.begin(), lx.tokens.end(),
        [](const Token &t) { return t.kind == Tok::kString; });
    ASSERT_NE(it, lx.tokens.end());
    // Escapes are kept unprocessed; the escaped quote does not end
    // the literal.
    EXPECT_EQ(it->text, "std::rand() \\\" time(0)");
}

TEST(LintLexer, RawStringsWithCustomDelimiter)
{
    const LexResult lx = qlint::lex(
        "auto s = R\"xy(std::rand(); )\" still inside)xy\";\n"
        "auto t = u8R\"(time(nullptr))\";\n"
        "int z = 0;\n");
    EXPECT_FALSE(hasIdent(lx, "rand"));
    EXPECT_FALSE(hasIdent(lx, "time"));
    EXPECT_TRUE(hasIdent(lx, "z"));
    const auto it = std::find_if(
        lx.tokens.begin(), lx.tokens.end(),
        [](const Token &t) { return t.kind == Tok::kString; });
    ASSERT_NE(it, lx.tokens.end());
    // The fake `)"` inside does not terminate an R"xy( literal.
    EXPECT_EQ(it->text, "std::rand(); )\" still inside");
}

TEST(LintLexer, CharLiteralsAndCombinedPunct)
{
    const LexResult lx =
        qlint::lex("char c = '\\''; a->b; std::x;\n");
    const auto ch = std::find_if(
        lx.tokens.begin(), lx.tokens.end(),
        [](const Token &t) { return t.kind == Tok::kChar; });
    ASSERT_NE(ch, lx.tokens.end());
    EXPECT_EQ(ch->text, "\\'");
    const auto arrow = std::find_if(
        lx.tokens.begin(), lx.tokens.end(), [](const Token &t) {
            return t.kind == Tok::kPunct && t.text == "->";
        });
    EXPECT_NE(arrow, lx.tokens.end());
    const auto scope = std::find_if(
        lx.tokens.begin(), lx.tokens.end(), [](const Token &t) {
            return t.kind == Tok::kPunct && t.text == "::";
        });
    EXPECT_NE(scope, lx.tokens.end());
}

TEST(LintLexer, LineNumbersAreOneBased)
{
    const LexResult lx = qlint::lex("int a;\n\nint b;\n");
    ASSERT_GE(lx.tokens.size(), 6u);
    EXPECT_EQ(lx.tokens[0].line, 1);
    EXPECT_EQ(lx.tokens[3].line, 3); // `int` of b
}

// --------------------------------------------------------------------
// Config
// --------------------------------------------------------------------

TEST(LintConfig, ParsesSectionsAndMultiLineArrays)
{
    const Config cfg = qlint::parseConfig(R"(
[lint]
roots = ["src", "tests"]
extensions = [".cc",
              ".hh"]

[rule.no-rand]
include = ["src/"]
exclude = ["src/obs/"]

[rng]
sanctioned = ["a.cc:f",
              "b.cc:g"]
)");
    ASSERT_TRUE(cfg.ok) << cfg.error;
    EXPECT_EQ(cfg.roots, (std::vector<std::string>{"src", "tests"}));
    EXPECT_EQ(cfg.extensions,
              (std::vector<std::string>{".cc", ".hh"}));
    ASSERT_EQ(cfg.sanctioned.size(), 2u);
    EXPECT_TRUE(cfg.appliesTo("no-rand", "src/yield/x.cc"));
    EXPECT_FALSE(cfg.appliesTo("no-rand", "src/obs/trace.cc"));
    EXPECT_FALSE(cfg.appliesTo("no-rand", "bench/b.cc"));
    // No section for this rule: it runs nowhere.
    EXPECT_FALSE(cfg.appliesTo("no-wallclock", "src/yield/x.cc"));
}

TEST(LintConfig, EmptyRuleSectionAppliesEverywhere)
{
    const Config cfg = qlint::parseConfig(
        "[lint]\nroots = [\"src\"]\nextensions = [\".cc\"]\n"
        "[rule.no-rand]\n");
    ASSERT_TRUE(cfg.ok) << cfg.error;
    EXPECT_TRUE(cfg.appliesTo("no-rand", "src/a.cc"));
    EXPECT_TRUE(cfg.appliesTo("no-rand", "tests/t.cc"));
}

TEST(LintConfig, UnknownKeysFailLoudly)
{
    const Config cfg = qlint::parseConfig(
        "[lint]\nroots = [\"src\"]\nextensions = [\".cc\"]\n"
        "typo_key = [\"x\"]\n");
    EXPECT_FALSE(cfg.ok);
    EXPECT_FALSE(cfg.error.empty());
}

// --------------------------------------------------------------------
// Rules: determinism sources
// --------------------------------------------------------------------

TEST(LintNoRand, FiresOnAmbientEntropy)
{
    EXPECT_EQ(countRule(analyze("int x = std::rand();\n"), "no-rand"),
              1u);
    EXPECT_EQ(countRule(analyze("srand(42);\n"), "no-rand"), 1u);
    EXPECT_EQ(
        countRule(analyze("std::random_device rd;\n"), "no-rand"),
        1u);
}

TEST(LintNoRand, SilentOnMembersCommentsAndStrings)
{
    EXPECT_EQ(countRule(analyze("double v = dist.rand();\n"),
                        "no-rand"),
              0u);
    EXPECT_EQ(countRule(analyze("// std::rand() is banned\n"
                                "const char *s = \"rand()\";\n"),
                        "no-rand"),
              0u);
}

TEST(LintNoWallclock, FiresOnClockReads)
{
    EXPECT_EQ(countRule(analyze("auto t = steady_clock::now();\n"),
                        "no-wallclock"),
              1u);
    EXPECT_EQ(countRule(analyze("auto t = clock::now();\n"),
                        "no-wallclock"),
              1u);
    EXPECT_EQ(countRule(analyze("time_t t = time(nullptr);\n"),
                        "no-wallclock"),
              1u);
}

TEST(LintNoWallclock, SilentOnMembersAndOtherNames)
{
    EXPECT_EQ(countRule(analyze("double s = span.time();\n"),
                        "no-wallclock"),
              0u);
    EXPECT_EQ(countRule(analyze("auto x = timer();\n"),
                        "no-wallclock"),
              0u);
}

TEST(LintNoWallclock, SanctionedHelperIsSilent)
{
    // The [wallclock] allowlist mirrors the RNG one: clock reads in
    // "file:function" entries are policy, not findings. This is how
    // exec::now() (the deadline clock) passes the gate.
    const FileReport rep =
        analyze("std::int64_t sanctionedNow()\n"
                "{\n"
                "    return steady_clock::now().time_since_epoch()\n"
                "        .count();\n"
                "}\n");
    EXPECT_EQ(countRule(rep, "no-wallclock"), 0u);
}

TEST(LintNoWallclock, FiresOutsideSanctionedHelpers)
{
    // The identical read in any other function still fires — the
    // allowlist sanctions one helper, not the clock itself.
    const FileReport rep =
        analyze("std::int64_t rogueNow()\n"
                "{\n"
                "    return steady_clock::now().time_since_epoch()\n"
                "        .count();\n"
                "}\n");
    EXPECT_EQ(countRule(rep, "no-wallclock"), 1u);
}

TEST(LintNoWallclock, SanctionIsPerFileNotPerName)
{
    // Entries are "basename:function": the same function name in a
    // different file is NOT sanctioned.
    const FileReport rep = qlint::analyzeFile(
        "src/other.cc",
        "std::int64_t sanctionedNow()\n"
        "{\n"
        "    return steady_clock::now().time_since_epoch().count();\n"
        "}\n",
        testConfig());
    EXPECT_EQ(countRule(rep, "no-wallclock"), 1u);
}

TEST(LintNoUninit, FiresOnRawAllocations)
{
    EXPECT_EQ(countRule(analyze("void *p = malloc(16);\n"),
                        "no-uninit"),
              1u);
    EXPECT_EQ(countRule(analyze("double *a = new double[n];\n"),
                        "no-uninit"),
              1u);
    EXPECT_EQ(
        countRule(analyze("auto *a = new std::uint64_t[n];\n"),
                  "no-uninit"),
        1u);
}

TEST(LintNoUninit, SilentOnClassArraysAndContainers)
{
    EXPECT_EQ(countRule(analyze("auto *w = new Widget[n];\n"),
                        "no-uninit"),
              0u);
    EXPECT_EQ(countRule(analyze("std::vector<double> v(n);\n"),
                        "no-uninit"),
              0u);
    EXPECT_EQ(countRule(analyze("arena.malloc(16);\n"), "no-uninit"),
              0u);
}

// --------------------------------------------------------------------
// Rules: RNG discipline
// --------------------------------------------------------------------

TEST(LintRngDrawSite, SanctionedHelperIsSilent)
{
    const FileReport rep = analyze("double sanctionedHelper(Rng &r)\n"
                                   "{\n"
                                   "    return r.gaussian();\n"
                                   "}\n");
    EXPECT_EQ(countRule(rep, "rng-draw-site"), 0u);
}

TEST(LintRngDrawSite, FiresOutsideSanctionedHelpers)
{
    const FileReport rep = analyze("double rogue(Rng &r)\n"
                                   "{\n"
                                   "    return r.gaussian();\n"
                                   "}\n");
    ASSERT_EQ(countRule(rep, "rng-draw-site"), 1u);
    // The message names the offending enclosing function.
    for (const Finding &f : rep.findings)
        if (f.rule == "rng-draw-site") {
            EXPECT_NE(f.message.find("'rogue'"), std::string::npos);
        }
}

TEST(LintRngDrawSite, MemberFunctionsAndLambdasAttribute)
{
    // Out-of-line member definition: the key is the unqualified
    // name; a lambda inside it keeps the function's name.
    const FileReport rep =
        analyze("void Sim::sanctionedHelper(Rng &r)\n"
                "{\n"
                "    auto f = [&] { return r.next(); };\n"
                "    f();\n"
                "}\n");
    EXPECT_EQ(countRule(rep, "rng-draw-site"), 0u);
}

// --------------------------------------------------------------------
// Rules: iteration order
// --------------------------------------------------------------------

TEST(LintUnorderedIter, FiresOnRangeForAndBegin)
{
    const FileReport rep = analyze(
        "std::unordered_map<K, V> m;\n"
        "for (const auto &kv : m) use(kv);\n"
        "auto it = m.begin();\n");
    EXPECT_EQ(countRule(rep, "unordered-iter"), 2u);
}

TEST(LintUnorderedIter, SilentOnOrderedContainersAndLookups)
{
    const FileReport rep =
        analyze("std::map<K, V> m;\n"
                "std::unordered_set<K> s;\n"
                "for (const auto &kv : m) use(kv);\n"
                "if (s.count(k)) use(k);\n"
                "for (std::size_t i = 0; i < n; ++i) use(i);\n");
    EXPECT_EQ(countRule(rep, "unordered-iter"), 0u);
}

// --------------------------------------------------------------------
// Rules: atomics
// --------------------------------------------------------------------

TEST(LintAtomics, ImplicitOrderFires)
{
    EXPECT_EQ(countRule(analyze("auto v = flag.load();\n"),
                        "atomic-implicit-order"),
              1u);
    EXPECT_EQ(countRule(analyze("count.fetch_add(1);\n"),
                        "atomic-implicit-order"),
              1u);
}

TEST(LintAtomics, ExplicitOrderIsSilent)
{
    const FileReport rep = analyze(
        "auto v = flag.load(std::memory_order_acquire);\n"
        "count.fetch_add(1, std::memory_order_acq_rel);\n");
    EXPECT_EQ(countRule(rep, "atomic-implicit-order"), 0u);
    EXPECT_EQ(countRule(rep, "atomic-relaxed"), 0u);
}

TEST(LintAtomics, RelaxedNeedsJustification)
{
    EXPECT_EQ(
        countRule(
            analyze("n.fetch_add(1, std::memory_order_relaxed);\n"),
            "atomic-relaxed"),
        1u);
    // The C++20 scoped spelling counts too.
    EXPECT_EQ(
        countRule(
            analyze("n.fetch_add(1, std::memory_order::relaxed);\n"),
            "atomic-relaxed"),
        1u);
}

// --------------------------------------------------------------------
// Rules: metric names
// --------------------------------------------------------------------

TEST(LintMetricName, GrammarIsEnforced)
{
    EXPECT_TRUE(qlint::validMetricName("runtime.chunks"));
    EXPECT_TRUE(qlint::validMetricName("cache.disk.bytes_loaded"));
    EXPECT_FALSE(qlint::validMetricName("runtime"));   // no family dot
    EXPECT_FALSE(qlint::validMetricName("Runtime.c")); // upper case
    EXPECT_FALSE(qlint::validMetricName("a..b"));
    EXPECT_FALSE(qlint::validMetricName("a.b-c"));
}

TEST(LintMetricName, FiresOnBadRegistrations)
{
    EXPECT_EQ(countRule(analyze("QPAD_SPAN(\"noDotHere\");\n"),
                        "metric-name"),
              1u);
    EXPECT_EQ(countRule(analyze("obs::counter(dynamic_name);\n"),
                        "metric-name"),
              1u);
    EXPECT_EQ(
        countRule(analyze("obs::counter(\"design.anneals\");\n"),
                  "metric-name"),
        0u);
    EXPECT_EQ(countRule(analyze("obs::timer(dynamic_name);\n"),
                        "metric-name"),
              1u);
    EXPECT_EQ(countRule(analyze(
                            "obs::timer(\"runtime.region_seconds\");\n"),
                        "metric-name"),
              0u);
    // Unqualified counter() is someone else's function.
    EXPECT_EQ(countRule(analyze("counter(\"whatever\");\n"),
                        "metric-name"),
              0u);
}

// --------------------------------------------------------------------
// Rules: raw diagnostics
// --------------------------------------------------------------------

TEST(LintRawLog, FiresOnCerrAndStderrWriters)
{
    EXPECT_EQ(countRule(analyze("std::cerr << \"oops\\n\";\n"),
                        "rawlog"),
              1u);
    // Passing the stream into a writer is still a raw write.
    EXPECT_EQ(countRule(analyze("dump(std::cerr);\n"), "rawlog"), 1u);
    EXPECT_EQ(
        countRule(analyze("fprintf(stderr, \"x=%d\\n\", x);\n"),
                  "rawlog"),
        1u);
    EXPECT_EQ(countRule(analyze("std::fputs(\"msg\\n\", stderr);\n"),
                        "rawlog"),
              1u);
    EXPECT_EQ(countRule(
                  analyze("fwrite(buf, 1, len, stderr);\n"), "rawlog"),
              1u);
}

TEST(LintRawLog, SilentOnStdoutMembersCommentsAndStrings)
{
    EXPECT_EQ(
        countRule(analyze("std::fprintf(stdout, \"ok\\n\");\n"),
                  "rawlog"),
        0u);
    EXPECT_EQ(countRule(analyze("std::printf(\"ok\\n\");\n"),
                        "rawlog"),
              0u);
    EXPECT_EQ(countRule(analyze("fputs(\"msg\\n\", out);\n"),
                        "rawlog"),
              0u);
    // Member calls are someone else's fprintf.
    EXPECT_EQ(countRule(analyze("sink.fprintf(stderr_like);\n"),
                        "rawlog"),
              0u);
    EXPECT_EQ(
        countRule(analyze("// std::cerr << msg is banned here\n"
                          "const char *s = \"cerr\";\n"),
                  "rawlog"),
        0u);
}

TEST(LintRawLog, JustifiedSuppressionSilencesTheSite)
{
    const FileReport rep =
        analyze("std::cerr << line; // qpad-lint: allow(rawlog) "
                "\"the log sink itself\"\n");
    ASSERT_EQ(countRule(rep, "rawlog"), 1u);
    EXPECT_EQ(unsuppressed(rep), 0u);
}

// --------------------------------------------------------------------
// Suppressions
// --------------------------------------------------------------------

TEST(LintSuppression, SameLineJustifiedSuppresses)
{
    const FileReport rep = analyze(
        "n.fetch_add(1, std::memory_order_relaxed); "
        "// qpad-lint: allow(atomic-relaxed) \"stat counter\"\n");
    ASSERT_EQ(countRule(rep, "atomic-relaxed"), 1u);
    EXPECT_EQ(unsuppressed(rep), 0u);
    for (const Finding &f : rep.findings)
        if (f.rule == "atomic-relaxed") {
            EXPECT_TRUE(f.suppressed);
            EXPECT_EQ(f.justification, "stat counter");
        }
}

TEST(LintSuppression, StandaloneCoversTheNextStatement)
{
    // The relaxed token sits on the statement's continuation line;
    // coverage must extend through the end of the statement.
    const FileReport rep = analyze(
        "// qpad-lint: allow(atomic-relaxed) \"stat counter\"\n"
        "n.fetch_add(1,\n"
        "            std::memory_order_relaxed);\n");
    ASSERT_EQ(countRule(rep, "atomic-relaxed"), 1u);
    EXPECT_EQ(unsuppressed(rep), 0u);
}

TEST(LintSuppression, WrappedJustificationMerges)
{
    const FileReport rep = analyze(
        "// qpad-lint: allow(atomic-relaxed) \"a justification\n"
        "// wrapped across comment lines\"\n"
        "n.fetch_add(1, std::memory_order_relaxed);\n");
    EXPECT_EQ(unsuppressed(rep), 0u);
    for (const Finding &f : rep.findings)
        if (f.rule == "atomic-relaxed") {
            EXPECT_EQ(f.justification,
                      "a justification wrapped across comment lines");
        }
}

TEST(LintSuppression, UnjustifiedDoesNotSuppress)
{
    const FileReport rep = analyze(
        "// qpad-lint: allow(atomic-relaxed)\n"
        "n.fetch_add(1, std::memory_order_relaxed);\n");
    // The original finding stays live AND the naked allow() is
    // itself a finding.
    EXPECT_EQ(countRule(rep, "atomic-relaxed", false), 1u);
    EXPECT_EQ(countRule(rep, "suppression-justification"), 1u);
}

TEST(LintSuppression, UnusedSuppressionIsAFinding)
{
    const FileReport rep = analyze(
        "// qpad-lint: allow(no-rand) \"stale\"\n"
        "int x = 0;\n");
    EXPECT_EQ(countRule(rep, "suppression-unused"), 1u);
}

TEST(LintSuppression, WrongRuleDoesNotSuppress)
{
    const FileReport rep = analyze(
        "// qpad-lint: allow(no-rand) \"wrong rule\"\n"
        "n.fetch_add(1, std::memory_order_relaxed);\n");
    EXPECT_EQ(countRule(rep, "atomic-relaxed", false), 1u);
    EXPECT_EQ(countRule(rep, "suppression-unused"), 1u);
}

// --------------------------------------------------------------------
// Per-path policy
// --------------------------------------------------------------------

TEST(LintPolicy, ExcludedPathsAreSilent)
{
    Config cfg = qlint::parseConfig(
        "[lint]\nroots = [\"src\"]\nextensions = [\".cc\"]\n"
        "[rule.no-rand]\ninclude = [\"src/\"]\n"
        "exclude = [\"src/legacy/\"]\n");
    ASSERT_TRUE(cfg.ok) << cfg.error;
    const std::string bad = "int x = std::rand();\n";
    EXPECT_EQ(qlint::analyzeFile("src/a.cc", bad, cfg)
                  .findings.size(),
              1u);
    EXPECT_TRUE(qlint::analyzeFile("src/legacy/a.cc", bad, cfg)
                    .findings.empty());
    EXPECT_TRUE(
        qlint::analyzeFile("bench/a.cc", bad, cfg).findings.empty());
}

// --------------------------------------------------------------------
// JSON output
// --------------------------------------------------------------------

TEST(LintJson, ShapeAndEscaping)
{
    std::vector<Finding> findings;
    findings.push_back(Finding{"src/a.cc", 3, "no-rand",
                               "say \"no\" to rand", false, ""});
    findings.push_back(Finding{"src/b.cc", 7, "atomic-relaxed",
                               "relaxed", true, "stat counter"});
    const std::string doc = qlint::renderJson(findings, 2, 1);

    EXPECT_NE(doc.find("\"findings\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"file\":\"src/a.cc\""), std::string::npos);
    EXPECT_NE(doc.find("\"line\":3"), std::string::npos);
    // Quotes inside messages are escaped.
    EXPECT_NE(doc.find("say \\\"no\\\" to rand"), std::string::npos);
    EXPECT_NE(doc.find("\"suppressed\":false"), std::string::npos);
    EXPECT_NE(doc.find("\"justification\":\"stat counter\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"summary\": {\"files\":2,\"findings\":2,"
                       "\"unsuppressed\":1,\"suppressions\":1}"),
              std::string::npos);
}

// --------------------------------------------------------------------
// Enclosing-function tracking (directly)
// --------------------------------------------------------------------

TEST(LintScopes, TracksFunctionsInitListsAndLambdas)
{
    const LexResult lx = qlint::lex(
        "int g_marker0;\n"
        "void free_fn() { int marker1; }\n"
        "Foo::Foo(int x) : a_(x), b_{x} { int marker2; }\n"
        "void Foo::method()\n"
        "{\n"
        "    auto f = [] { int marker3; };\n"
        "}\n");
    const std::vector<std::string> fns =
        qlint::enclosingFunctions(lx.tokens);
    ASSERT_EQ(fns.size(), lx.tokens.size());
    for (std::size_t i = 0; i < lx.tokens.size(); ++i) {
        const std::string &t = lx.tokens[i].text;
        if (t == "g_marker0") {
            EXPECT_EQ(fns[i], "");
        } else if (t == "marker1") {
            EXPECT_EQ(fns[i], "free_fn");
        } else if (t == "marker2") {
            EXPECT_EQ(fns[i], "Foo");
        } else if (t == "marker3") {
            EXPECT_EQ(fns[i], "method");
        }
    }
}
