/**
 * @file
 * pipecache end-to-end benchmark.
 *
 *   perfbench --workload paper-grid|paper-repro|trace-stream
 *             --seed N --seconds S --trace 0|1
 *             [--tiny] [--perturb CHECK] [--out-dir DIR]
 *
 * --trace 0 repeats cold set-up + run, each repetition in a fresh
 * process, until S seconds have passed and reports the end-to-end
 * metrics (medians and middle-half means). --trace 1 runs untraced
 * repetitions for half of S, then one traced repetition, and reports
 * the per-layer metrics. Every output check runs outside the timed
 * region. The last line of standard output is one JSON object.
 */

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "layers.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {
namespace {

struct MetricDef
{
    std::string name;
    std::string unit;
};

/** End-to-end metrics of --trace 0 (BENCHMARK.json "end_to_end"). */
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** The nine layers, named after the library's modules. */
const char *const kLayers[] = {"isa",    "trace",  "workloads",
                               "sched",  "cpusim", "cache",
                               "timing", "core",   "sweep"};

/** Experiments of paper-repro, for the core.exp.<name>_s metrics. */
const char *const kExperiments[] = {
    "table1", "table2", "table3", "table4", "table5", "table6",
    "fig3",   "fig4",   "fig5",   "fig6",   "fig7",   "fig8",
    "fig9",   "fig11",  "fig12",  "fig12Dynamic",     "fig13"};

/** Per-layer metrics of --trace 1 (BENCHMARK.json "per_layer"). */
std::vector<MetricDef>
perLayerDefs()
{
    std::vector<MetricDef> defs = {
        {"isa.progen_s", "s"},
        {"trace.exec_s", "s"},
        {"trace.exec_minsts_per_s", "Minst/s"},
        {"trace.multiprog_s", "s"},
        {"trace.din_parse_s", "s"},
        {"trace.din_parse_mrec_per_s", "Mrec/s"},
        {"workloads.gen_s", "s"},
        {"workloads.gen_mrec_per_s", "Mrec/s"},
        {"sched.xlat_s", "s"},
        {"sched.xlat_calls", "count"},
        {"sched.load_stats_s", "s"},
        {"cpusim.replay_s", "s"},
        {"cpusim.replays", "count"},
        {"cpusim.replay_minsts_per_s", "Minst/s"},
        {"cache.stack_pass_s", "s"},
        {"cache.stack_accesses", "count"},
        {"cache.stack_maccesses_per_s", "Macc/s"},
        {"cache.random_replay_s", "s"},
        {"timing.mintcpu_s", "s"},
        {"timing.mintcpu_calls", "count"},
        {"core.factored.claim_s", "s"},
        {"core.factored.assemble_s", "s"},
        {"core.factored.assemble_us_p50", "us"},
        {"core.replays_saved_ratio", "ratio"},
        {"core.points_evaluated", "count"},
        {"core.monolithic_s", "s"},
        {"core.monolithic_points", "count"},
        {"core.tpi_combine_s", "s"},
        {"sweep.busy_ratio", "ratio"},
        {"sweep.point_ms_max", "ms"},
        {"sweep.stream_s", "s"},
        {"trace_overhead_pct", "%"},
        {"traced_wall_s", "s"},
        {"unattributed_s", "s"},
    };
    for (const char *e : kExperiments)
        defs.push_back({std::string("core.exp.") + e + "_s", "s"});
    for (const char *l : kLayers)
        defs.push_back({std::string("layer.") + l + ".self_s", "s"});
    return defs;
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
loadAverage()
{
    std::ifstream is("/proc/loadavg");
    std::string a, b, c;
    is >> a >> b >> c;
    return a + " " + b + " " + c;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload paper-grid|paper-repro|"
                 "trace-stream --seed N --seconds S --trace 0|1 "
                 "[--tiny] [--perturb CHECK] [--out-dir DIR]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    o.threads = std::min(hw, 4u);
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--tiny")
                o.tiny = true;
            else if (a == "--perturb")
                o.perturb = value();
            else if (a == "--out-dir")
                o.outDir = value();
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "paper-grid")
        return makePaperGrid(o);
    if (o.workload == "paper-repro")
        return makePaperRepro(o);
    if (o.workload == "trace-stream")
        return makeTraceStream(o);
    usage("unknown workload '" + o.workload + "'");
}

struct Samples
{
    std::vector<double> setup, wall, cpu, rss;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<CheckResult> checks;
    std::vector<Extra> extras;
    /** untracedLayerMetrics() of the last repetition. */
    MetricMap layer;
};

/** One field of the tab-separated lines a repetition's process sends
 *  back (doubles go through jsonNum(), all digits, so they cross the
 *  pipe exactly). */
std::string
oneLine(std::string s)
{
    for (char &c : s)
        if (c == '\n' || c == '\t')
            c = ' ';
    return s;
}

/**
 * One cold repetition in a fresh child process: set-up, timed run,
 * the process's peak resident set and, when @p checked, the output
 * checks and report-only figures. A process per repetition gives each
 * one a cold heap, as a command-line run has, so one repetition's
 * leftovers do not move the next one's peak. @p setupOnly times a
 * set-up alone.
 */
std::string
childRepetition(Workload &w, bool checked, bool setupOnly)
{
    std::string out;
    auto put = [&out](std::initializer_list<std::string> fields) {
        bool first = true;
        for (const std::string &f : fields) {
            if (!first)
                out += '\t';
            out += oneLine(f);
            first = false;
        }
        out += '\n';
    };
    const std::int64_t t0 = nowNs();
    w.setup();
    const std::int64_t t1 = nowNs();
    if (setupOnly) {
        put({"setup", jsonNum(static_cast<double>(t1 - t0) * 1e-9)});
        return out;
    }
    const double c0 = cpuSeconds();
    w.run();
    const std::int64_t t2 = nowNs();
    const double c1 = cpuSeconds();
    put({"setup", jsonNum(static_cast<double>(t1 - t0) * 1e-9)});
    put({"wall", jsonNum(static_cast<double>(t2 - t1) * 1e-9)});
    put({"cpu", jsonNum(c1 - c0)});
    put({"rss", jsonNum(peakRssMb())});
    put({"attempted", std::to_string(w.attempted())});
    put({"failed", std::to_string(w.failed())});
    if (checked) {
        std::vector<CheckResult> checks;
        w.check(checks);
        for (const CheckResult &c : checks)
            put({"check", c.ok ? "1" : "0", c.name, c.detail});
        for (const Extra &x : w.extras())
            put({"extra", x.name, x.unit, x.rate ? "1" : "0",
                 jsonNum(x.value)});
    }
    MetricMap layer;
    w.untracedLayerMetrics(layer);
    for (const auto &[k, v] : layer)
        put({"layer", k, jsonNum(v)});
    return out;
}

void
writeAll(int fd, const std::string &s)
{
    for (std::size_t done = 0; done < s.size();) {
        const ssize_t n = ::write(fd, s.data() + done, s.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return;
        done += static_cast<std::size_t>(n);
    }
}

/** Runs childRepetition() in a child process and adds what it sends
 *  back to @p s. Throws if the child fails. */
void
repetition(Workload &w, Samples &s, bool checked, bool setupOnly)
{
    std::cout.flush();
    std::cerr.flush();
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        ::close(fds[0]);
        // Dies with the benchmark, even if the benchmark is killed.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(1);
        int code = 0;
        std::string out;
        try {
            out = childRepetition(w, checked, setupOnly);
        } catch (const std::exception &e) {
            out = "error\t" + oneLine(e.what()) + "\n";
            code = 1;
        }
        writeAll(fds[1], out);
        ::_exit(code);
    }
    ::close(fds[1]);
    std::string text;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }

    std::istringstream is(text);
    std::string line;
    std::string error = "repetition process ended abnormally";
    while (std::getline(is, line)) {
        std::vector<std::string> f;
        std::istringstream ls(line);
        for (std::string field; std::getline(ls, field, '\t');)
            f.push_back(field);
        const std::string &kind = f.at(0);
        auto num = [&f](std::size_t i) { return std::stod(f.at(i)); };
        if (kind == "setup")
            s.setup.push_back(num(1));
        else if (kind == "wall")
            s.wall.push_back(num(1));
        else if (kind == "cpu")
            s.cpu.push_back(num(1));
        else if (kind == "rss")
            s.rss.push_back(num(1));
        else if (kind == "attempted")
            s.attempted += std::stoull(f.at(1));
        else if (kind == "failed")
            s.failed += std::stoull(f.at(1));
        else if (kind == "check")
            s.checks.push_back(
                {f.at(2), f.at(1) == "1", f.size() > 3 ? f[3] : ""});
        else if (kind == "extra")
            s.extras.push_back({f.at(1), f.at(2), num(4), f.at(3) == "1"});
        else if (kind == "layer")
            s.layer[f.at(1)] = num(2);
        else if (kind == "error")
            error = f.size() > 1 ? f[1] : error;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error(error);
}

int
benchMain(int argc, char **argv)
{
    const std::string buildType = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
    const bool optimized =
        buildType == "Release" || buildType == "RelWithDebInfo";
#else
    const bool optimized = false;
#endif
    if (!optimized) {
        std::cerr << "perfbench: refusing to report from an unoptimised "
                     "build (build type '"
                  << buildType << "'); configure with -DCMAKE_BUILD_TYPE="
                                  "Release\n";
        return 2;
    }

    const Options opts = parseArgs(argc, argv);
    std::unique_ptr<Workload> w = makeWorkload(opts);

    ContextMap ctx;
    ctx["workload"] = opts.workload;
    ctx["seed"] = std::to_string(opts.seed);
    ctx["nproc"] = std::to_string(std::thread::hardware_concurrency());
    ctx["loadavg"] = loadAverage();
    ctx["threads"] = std::to_string(opts.threads);
    ctx["build_type"] = buildType;
    ctx["mode"] = opts.trace ? "traced" : "untraced";
    w->context(ctx);

    Samples s;
    const std::int64_t start = nowNs();
    auto elapsed = [&] {
        return static_cast<double>(nowNs() - start) * 1e-9;
    };
    const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
    do {
        repetition(*w, s, s.wall.empty(), false);
    } while (elapsed() < budget);
    // Set-up is short next to a run: time a few more set-ups alone so
    // its median rests on at least kMinSetups samples.
    constexpr std::size_t kMinSetups = 15;
    while (s.setup.size() < kMinSetups)
        repetition(*w, s, false, true);
    const std::vector<CheckResult> &checks = s.checks;
    const double wallS = middleMean(s.wall);

    MetricMap layer = s.layer;
    if (opts.trace) {
        Tracer tracer(static_cast<std::uint64_t>(nowNs()) ^ opts.seed);
        const std::int64_t t0 = nowNs();
        const double probeS = w->traced(tracer, layer);
        const double tracedWall = static_cast<double>(nowNs() - t0) * 1e-9;
        const double untraced = median(s.setup) + wallS;

        for (const char *name :
             {"isa.progen", "trace.exec", "trace.multiprog",
              "trace.din_parse", "workloads.gen", "sched.xlat",
              "sched.load_stats", "cache.random_replay", "sweep.stream"}) {
            layer[std::string(name) + "_s"] = tracer.spanSeconds(name);
        }
        layer["sched.xlat_calls"] =
            static_cast<double>(tracer.spanCount("sched.xlat"));
        for (const char *e : kExperiments) {
            const std::string n = std::string("core.exp.") + e;
            layer[n + "_s"] = tracer.spanSeconds(n);
        }

        const auto self = tracer.layerSelfSeconds();
        for (const char *l : kLayers) {
            const auto it = self.find(l);
            const double v = it == self.end() ? 0.0 : it->second;
            layer[std::string("layer.") + l + ".self_s"] = v;
        }
        layer["traced_wall_s"] = tracedWall;
        // Time the tracer saw outside every layer: self time of spans
        // with layer "" plus what no top-level span covers. It is not
        // taken as tracedWall minus the layers' sum, so the layers plus
        // this add up to tracedWall only if the tracer's self-time
        // accounting (weights, child hand-over, addInner) is sound.
        const auto none = self.find("");
        layer["unattributed_s"] =
            (none == self.end() ? 0.0 : none->second) + tracedWall -
            tracer.rootSeconds();
        // The probe repeats work on purpose; the overhead compares
        // the spanned copy of the untraced repetition with the real one.
        layer["trace_overhead_pct"] =
            (tracedWall - probeS - untraced) / untraced * 100.0;

        const std::string path = opts.outDir + "/trace-" + opts.workload +
                                 "-" + std::to_string(opts.seed) + ".json";
        tracer.writeJson(path);
        ctx["trace_file"] = path;
        ctx["probe_s"] = fmt(probeS);
        ctx["untraced_setup_plus_wall_s"] = fmt(untraced);
    }

    std::uint64_t checksFailed = 0;
    for (const CheckResult &c : checks)
        checksFailed += c.ok ? 0 : 1;
    const std::uint64_t attempted = s.attempted + checks.size();
    const std::uint64_t failed = s.failed + checksFailed;
    const bool correct = failed == 0 && !checks.empty();

    // Human-readable report.
    for (const auto &[k, v] : ctx)
        std::cout << "context " << k << " = " << v << "\n";
    for (const CheckResult &c : checks)
        std::cout << "check " << (c.ok ? "ok   " : "FAIL ") << c.name
                  << (c.detail.empty() ? "" : "  (" + c.detail + ")")
                  << "\n";
    MetricMap e2e;
    e2e["setup_s"] = median(s.setup);
    // Run times are means of the middle half, not medians: paper-grid's
    // run time spreads over several modes (claimant replays overlap or
    // not, depending on the order pool workers wake in), and a median
    // jumps between them from one process to the next.
    e2e["wall_s"] = wallS;
    e2e["cpu_s"] = middleMean(s.cpu);
    e2e["peak_rss_mb"] = median(s.rss);
    std::cout << "repetitions " << s.wall.size() << "\n";
    auto samples = [](const char *name, const std::vector<double> &v) {
        std::cout << "samples " << name << " =";
        for (double x : v)
            std::cout << " " << fmt(x);
        std::cout << "\n";
    };
    samples("setup_s", s.setup);
    samples("wall_s", s.wall);
    samples("cpu_s", s.cpu);
    samples("peak_rss_mb", s.rss);
    for (const MetricDef &d : kEndToEnd)
        std::cout << "metric " << d.name << " = " << fmt(e2e[d.name])
                  << " " << d.unit << "\n";
    if (s.wall.size() >= 11) {
        std::vector<double> sorted = s.wall;
        std::sort(sorted.begin(), sorted.end());
        const std::size_t n = sorted.size();
        std::cout << "metric wall_s_p"
                  << fmt(100.0 * static_cast<double>(n - 10) /
                         static_cast<double>(n))
                  << " = " << fmt(sorted[n - 11]) << " s\n";
    }
    std::cout << "metric wall_s_median = " << fmt(median(s.wall)) << " s\n";
    std::cout << "metric failed_frac = "
              << fmt(static_cast<double>(failed) /
                     static_cast<double>(attempted))
              << " ratio  (" << failed << " of " << attempted << ")\n";
    for (const Extra &x : s.extras)
        std::cout << "metric " << x.name << " = "
                  << fmt(x.rate ? x.value / wallS : x.value) << " "
                  << x.unit << "\n";
    if (opts.trace) {
        std::cout << "layer self time (s), traced wall "
                  << fmt(layer["traced_wall_s"]) << ":\n";
        for (const char *l : kLayers)
            std::cout << "  " << l << " "
                      << fmt(layer[std::string("layer.") + l + ".self_s"])
                      << "\n";
        std::cout << "  unattributed " << fmt(layer["unattributed_s"])
                  << "\n";
        std::cout << "metric trace_overhead_pct = "
                  << fmt(layer["trace_overhead_pct"])
                  << " %  (traced repetition, probe excluded, vs untraced "
                     "setup_s + wall_s)\n";
    }

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const std::string &name, const std::string &unit,
                    double v) {
        std::cout << (first ? "" : ", ") << "\"" << name
                  << "\": {\"value\": " << jsonNum(v) << ", \"unit\": \""
                  << unit << "\"}";
        first = false;
    };
    if (opts.trace) {
        for (const MetricDef &d : perLayerDefs())
            emit(d.name, d.unit, layer[d.name]);
    } else {
        for (const MetricDef &d : kEndToEnd)
            emit(d.name, d.unit, e2e[d.name]);
    }
    std::cout << "}}" << std::endl;
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
