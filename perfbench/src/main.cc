/**
 * @file
 * qpad-bench: one workload of the Figure 10 sweep benchmark,
 * in one process.
 *
 *   qpad_bench --workload paper|fast --seed N --seconds S --trace 0|1
 *              [--git-sha SHA] [--source-digest HEX]
 *
 * Set-up is a warm-up: a whole sweep at fast budgets. It starts the
 * thread pool and any lazy initialisation, and it is multi-threaded
 * like the timed sweeps so the host's load moves it the same way (a
 * short single-threaded set-up read up to 2x slower while the host
 * loaded a sibling CPU). setup_s is therefore the time of a
 * fast-budget sweep that includes the start-up costs, not the start-up
 * costs alone. With --trace 0 the warm-up runs three times and setup_s
 * is the median; with --trace 1, which does not report setup_s, it
 * runs once.
 * Then whole sweeps run back to back until S seconds have passed. With
 * --trace 0 every sweep is a plain eval::runBenchmark sweep, timed
 * only from outside, and the end-to-end metrics are printed; with
 * --trace 1 each untraced sweep is followed by the layer-call replay
 * (replay.hh), which must match it bit for bit, and the per-layer
 * metrics are printed. Every point of every sweep, warm-up included,
 * goes through the output check (check.hh). The last stdout line is
 * the JSON result {"correct", "attempted", "failed", "metrics"}; the
 * exit code is 0 only when every point passed.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check.hh"
#include "config.hh"
#include "replay.hh"
#include "sweep.hh"

using namespace qpad;
using namespace qpad::perfbench;
namespace fs = std::filesystem;

namespace
{

constexpr int kSetups = 3;

// The reference CSVs next to the sources (set by CMakeLists.txt).
const fs::path kReferenceDir = QPAD_BENCH_REFERENCE_DIR;

struct Args
{
    Workload workload = Workload::Paper;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string git_sha = "unknown";
    std::string source_digest = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "qpad_bench: %s\nusage: qpad_bench --workload "
                 "paper|fast --seed N --seconds S --trace 0|1 "
                 "[--git-sha SHA] "
                 "[--source-digest HEX]\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parseUint(const std::string &flag, const std::string &value)
{
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos)
        usage(flag + " expects a nonnegative integer, got '" + value + "'");
    errno = 0;
    const unsigned long long v = std::strtoull(value.c_str(), nullptr, 10);
    if (errno == ERANGE)
        usage(flag + " out of range: '" + value + "'");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_workload = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            const auto w = parseWorkload(value);
            if (!w)
                usage("unknown workload '" + value + "'");
            args.workload = *w;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = parseUint(flag, value);
        } else if (flag == "--seconds") {
            args.seconds = double(parseUint(flag, value));
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace expects 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--git-sha") {
            args.git_sha = value;
        } else if (flag == "--source-digest") {
            args.source_digest = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload || !have_seconds || args.seconds <= 0)
        usage("--workload and --seconds (> 0) are required");
    return args;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "qpad_bench: cannot read %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median over runs of `field(run)`. */
template <class T, class F>
double
medianOf(const std::vector<T> &runs, F field)
{
    std::vector<double> v;
    for (const T &r : runs)
        v.push_back(double(field(r)));
    return median(v);
}

/** Ordered metric list of the result line. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const char *unit)
    {
        entries_.push_back({name, value, unit});
    }

    /** One "name value unit" line per metric (for people). */
    void print(std::ostream &out) const
    {
        for (const Entry &e : entries_)
            out << "  " << e.name << " = " << number(e.value) << " "
                << e.unit << "\n";
    }

    std::string json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " +
                   number(e.value) + ", \"unit\": \"" + e.unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        const char *unit;
    };

    static std::string number(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }

    std::vector<Entry> entries_;
};

std::size_t
pointsOf(const Sweep &sweep)
{
    std::size_t n = 0;
    for (const auto &experiment : sweep)
        n += experiment.points.size();
    return n;
}

/** Untraced sweeps until `seconds` pass; the end-to-end metrics. */
Metrics
measureEndToEnd(const Args &args, const eval::ExperimentOptions &options,
                Checker &checker, double setup_s)
{
    std::vector<SweepRun> runs;
    const Clock::time_point start = Clock::now();
    do {
        SweepRun run = runSweep(options);
        checker.check(run.programs);
        run.programs.clear();
        run.delta.clear();
        runs.push_back(std::move(run));
    } while (secondsSince(start) < args.seconds);

    std::vector<double> per_program;
    for (std::size_t i = 0; i < runs.front().program_s.size(); ++i)
        per_program.push_back(
            medianOf(runs, [i](const SweepRun &r) { return r.program_s[i]; }));

    Metrics m;
    m.add("sweep_s", medianOf(runs, [](const SweepRun &r) { return r.wall_s; }),
          "s");
    m.add("cpu_s", medianOf(runs, [](const SweepRun &r) { return r.cpu_s; }),
          "s");
    m.add("program_p50_s", median(per_program), "s");
    m.add("program_max_s",
          *std::max_element(per_program.begin(), per_program.end()), "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.add("setup_s", setup_s, "s");
    std::cout << "sweeps: " << runs.size() << "\n";
    return m;
}

struct TracePair
{
    SweepRun sweep;
    ReplayRun replay;
};

/** Untraced sweep + replay pairs until `seconds` pass; the per-layer
 * metrics. */
Metrics
measureLayers(const Args &args, const eval::ExperimentOptions &options,
              std::size_t threads, Checker &checker, bool &replay_mismatch)
{
    std::vector<TracePair> pairs;
    const Clock::time_point start = Clock::now();
    do {
        TracePair pair;
        pair.sweep = runSweep(options);
        checker.check(pair.sweep.programs);
        pair.replay = replaySweep(options);
        checker.check(pair.replay.programs);
        const std::string diff =
            firstDifference(pair.sweep.programs, pair.replay.programs);
        if (!diff.empty()) {
            replay_mismatch = true;
            checker.fail(pointsOf(pair.replay.programs),
                         "replay differs from runBenchmark at " + diff);
        }
        if (pair.replay.coupling_violations)
            checker.fail(pair.replay.coupling_violations,
                         "a replayed mapping violates the coupling graph");
        pair.sweep.programs.clear();
        pair.replay.programs.clear();
        pairs.push_back(std::move(pair));
    } while (secondsSince(start) < args.seconds);

    const ReplayRun &last = pairs.back().replay;
    auto layerSeconds = [&](LayerTime ReplayRun::*layer) {
        return medianOf(pairs, [layer](const TracePair &p) {
            return (p.replay.*layer).seconds;
        });
    };
    auto sweepCounter = [&](const char *name) {
        return medianOf(pairs, [name](const TracePair &p) {
            return obs::valueOf(p.sweep.delta, name);
        });
    };

    Metrics m;
    m.add("benchmarks.generate_s", layerSeconds(&ReplayRun::generate), "s");
    m.add("benchmarks.generate_calls", double(last.generate.calls), "count");
    m.add("profile.profile_s", layerSeconds(&ReplayRun::profile), "s");
    m.add("profile.profile_calls", double(last.profile.calls), "count");
    m.add("design.layout_s", layerSeconds(&ReplayRun::layout), "s");
    m.add("design.layout_calls", double(last.layout.calls), "count");
    m.add("design.bus_select_s", layerSeconds(&ReplayRun::bus_select), "s");
    m.add("design.bus_select_calls", double(last.bus_select.calls),
          "count");
    const double freq_s = layerSeconds(&ReplayRun::freq_alloc);
    m.add("design.freq_alloc_s", freq_s, "s");
    m.add("design.freq_alloc_calls", double(last.freq_alloc.calls),
          "count");
    const double map_s = layerSeconds(&ReplayRun::map);
    m.add("mapping.map_s", map_s, "s");
    m.add("mapping.calls", double(last.map.calls), "count");
    m.add("mapping.swaps", double(last.swaps), "count");
    m.add("mapping.map_max_ms", 1e3 * medianOf(pairs, [](const TracePair &p) {
                                   return p.replay.map.max_seconds;
                               }),
          "ms");
    const double yield_s = layerSeconds(&ReplayRun::yield);
    m.add("yield.estimate_s", yield_s, "s");
    m.add("yield.calls", double(last.yield.calls), "count");
    m.add("yield.trials", double(last.yield_trials), "count");
    m.add("yield.escalations", double(last.escalations), "count");
    m.add("yield.ns_per_trial",
          last.yield_trials ? 1e9 * yield_s / double(last.yield_trials) : 0.0,
          "ns");

    const double hits = sweepCounter("cache.hits");
    const double misses = sweepCounter("cache.misses");
    m.add("cache.hits", hits, "count");
    m.add("cache.misses", misses, "count");
    m.add("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
          "ratio");
    m.add("cache.dedup_waits", sweepCounter("cache.dedup_waits"), "count");

    m.add("runtime.regions", sweepCounter("runtime.regions"), "count");
    m.add("runtime.chunks", sweepCounter("runtime.chunks"), "count");
    m.add("runtime.steals", sweepCounter("runtime.steals"), "count");
    m.add("runtime.idle_s", sweepCounter("runtime.region_idle_seconds"), "s");
    m.add("runtime.utilization",
          medianOf(pairs,
                   [threads](const TracePair &p) {
                       return p.sweep.cpu_s /
                              (p.sweep.wall_s * double(threads));
                   }),
          "ratio");
    m.add("eval.data_points", sweepCounter("eval.data_points"), "count");
    m.add("trace.overhead", medianOf(pairs,
                                     [](const TracePair &p) {
                                         return p.replay.wall_s /
                                                p.sweep.wall_s;
                                     }),
          "ratio");

    const double layers = freq_s + map_s + yield_s;
    if (layers > 0)
        std::cout << "layer shares of freq-alloc + mapping + yield: "
                  << "freq_alloc " << 100 * freq_s / layers << " %, "
                  << "mapping " << 100 * map_s / layers << " %, "
                  << "yield " << 100 * yield_s / layers << " %\n";
    std::cout << "sweep/replay pairs: " << pairs.size() << "\n";
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    const std::vector<std::string> forbidden =
        forbiddenEnv(processEnvironment());
    if (!forbidden.empty()) {
        for (const std::string &name : forbidden)
            std::fprintf(stderr,
                         "qpad_bench: refusing to run with %s set; it "
                         "changes what qpad computes or what it costs\n",
                         name.c_str());
        return 2;
    }

    const std::size_t nproc = availableCpus();
    const std::size_t threads = nproc;
    const eval::ExperimentOptions options =
        sweepOptions(args.workload, args.seed, threads);
    const eval::ExperimentOptions setup_options =
        sweepOptions(Workload::Fast, args.seed, threads);

    Stamp stamp;
    stamp.git_sha = args.git_sha;
    stamp.source_digest = args.source_digest;
    stamp.workload = workloadName(args.workload);
    stamp.seed = args.seed;
    stamp.threads = threads;
    stamp.nproc = nproc;
    stamp.yield_trials = options.yield_options.trials;
    stamp.max_yield_trials = options.max_yield_trials;
    stamp.local_trials = options.freq_options.local_trials;
    stamp.refine_sweeps = options.freq_options.refine_sweeps;
    stamp.random_bus_samples = options.random_bus_samples;
    std::cout << "config " << stampJson(stamp) << "\n";

    // Seed 0 reproduces the fig10 bench's CSV.
    auto reference = [&](Workload w) {
        return args.seed == 0
                   ? readFile(kReferenceDir /
                              (std::string("fig10_") + workloadName(w) +
                               "_seed0.csv"))
                   : std::string();
    };
    Checker checker(options, reference(args.workload));
    Checker setup_checker(setup_options, reference(Workload::Fast));

    // --- set-up ---------------------------------------------------------
    std::vector<double> setup_s;
    for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
        const SweepRun warmup = runSweep(setup_options);
        setup_s.push_back(warmup.wall_s);
        setup_checker.check(warmup.programs);
    }

    // --- measurement ----------------------------------------------------
    bool replay_mismatch = false;
    const Metrics metrics =
        args.trace
            ? measureLayers(args, options, threads, checker, replay_mismatch)
            : measureEndToEnd(args, options, checker, median(setup_s));

    for (const Checker *c : {&setup_checker, &checker})
        for (const std::string &why : c->problems())
            std::fprintf(stderr, "qpad_bench: check failed: %s\n",
                         why.c_str());
    if (replay_mismatch)
        std::fprintf(stderr, "qpad_bench: the layer-call replay no longer "
                             "reproduces eval::runBenchmark\n");
    const std::size_t attempted =
        setup_checker.attempted() + checker.attempted();
    const std::size_t failed = setup_checker.failed() + checker.failed();
    std::cout << workloadName(args.workload) << " seed " << args.seed
              << (args.trace ? " per-layer" : " end-to-end") << " metrics:\n";
    metrics.print(std::cout);
    std::cout << "bad_points_frac = " << double(failed) / double(attempted)
              << " (" << failed << " of " << attempted << " points)\n";
    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return failed == 0 ? 0 : 1;
}
