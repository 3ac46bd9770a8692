/**
 * @file
 * iocost_e2e: runs one end-to-end benchmark workload and prints every
 * metric as `<workload> <metric> <value> <unit>`, then one JSON
 * summary line. bench/e2e/run.sh builds this and runs each workload
 * in its own process; see bench/e2e/README.md.
 */

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "workloads.hh"

using namespace iocost::e2e;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics BENCHMARK.json gates, measured with tracing
 *  off: the ones whose run-to-run spread on the calibration machine
 *  supports a regression bound (README.md). */
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** Host-time results a user sees, printed by every run but reported
 *  with the per-layer metrics: their spread across runs on the
 *  calibration machine is wider than any bound BENCHMARK.json
 *  allows. */
constexpr MetricDef kHostTime[] = {
    {"ops_per_s", "1/s"},
    {"request_p50_ms", "ms"},
    {"request_p90_ms", "ms"},
};

/** Per-layer metrics, from the traced run. Host time is in ns/ms/s,
 *  simulated time in sim_s. A layer the workload does not exercise,
 *  or hides from outside, reads 0. */
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_bio", "count/bio"},
    {"sim.residual_ns_per_bio", "ns/bio"},
    {"blk.complete_self_ns_per_bio", "ns/bio"},
    {"blk.merged_bios", "count"},
    {"core.submit_ns", "ns/call"},
    {"core.complete_ns", "ns/call"},
    {"core.plan_passes", "count"},
    {"core.throttle_wait_sim_s", "sim_s"},
    {"core.indebt_sim_s", "sim_s"},
    {"device.submit_ns", "ns/call"},
    {"device.accept_ratio", "ratio"},
    {"device.wb_bios", "count"},
    {"mm.wb_bytes", "B"},
    {"mm.dirty_stalls", "count"},
    {"mm.fsyncs", "count"},
    {"host.fused_fraction", "ratio"},
    {"host.generator_ns_per_bio", "ns/bio"},
    {"host.lane_ns_per_bio", "ns/bio"},
    {"host.full_lane_ns_per_bio", "ns/bio"},
    {"host.snapshot_ms", "ms/call"},
    {"host.restore_ms", "ms/call"},
    {"host.snapshot_bytes", "B"},
    {"whatif.replica_build_s", "s/replica"},
    {"whatif.checkpoint_bytes", "B"},
    {"whatif.branch_ms_p50", "ms/branch"},
    {"whatif.branch_ms_p90", "ms/branch"},
    {"whatif.branch_ms_weight", "ms/branch"},
    {"whatif.branch_ms_fault", "ms/branch"},
    {"whatif.branch_ms_device", "ms/branch"},
    {"whatif.replay_sim_s_per_query", "sim_s/query"},
    {"whatif.cache_hit_ratio", "ratio"},
    {"fleet.hostday_ms_p50", "ms/hostday"},
    {"fleet.hostday_ms_p90", "ms/hostday"},
    {"fleet.hostday_ms_iocost", "ms/hostday"},
    {"fleet.hostday_ms_iolatency", "ms/hostday"},
    {"fleet.parallel_efficiency", "ratio"},
    {"fleet.speedup_1k", "ratio"},
    {"profile.cold_ms", "ms"},
    {"trace_overhead", "ratio"},
};

/** Set-ups per untraced run; setup_s is their median. */
constexpr unsigned kSetups = 3;
/** Upper bound on repetitions, whatever the time budget. */
constexpr unsigned kMaxReps = 1000;
/** Default timed budget: BENCHMARK.json's run_seconds, the length
 *  the calibration in README.md was measured at. */
constexpr unsigned kDefaultSeconds = 6;

void
usage(FILE *out)
{
    std::fputs(
        "usage: iocost_e2e --workload NAME [--seed N] [--reps N]\n"
        "                  [--seconds S] [--smoke] [--trace 0|1]\n"
        "\n"
        "Runs one end-to-end workload (saturate, buffered, sweep8,\n"
        "fleet10k, whatif): set-up, then timed repetitions of a fixed\n"
        "amount of simulated work, at least --reps (default 3) and\n"
        "until --seconds (default 6) of timed work have passed.\n"
        "Prints each metric as '<workload> <metric> <value> <unit>'\n"
        "and a JSON summary as the last line. --trace 1 runs one\n"
        "repetition plain and one with the layer decorators and prints\n"
        "the per-layer metrics; the Chrome trace goes next to this\n"
        "binary as trace-<workload>.json. --smoke shrinks every work\n"
        "size about 50x. Exit status: 0 when every output checks, 1 on\n"
        "a failed check, 2 on a usage error.\n",
        out);
}

struct Args
{
    std::string workload;
    Options opts;
    unsigned reps = 3;
    double seconds = kDefaultSeconds;
    bool trace = false;
};

bool
parseUnsigned(const char *s, uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        return false;
    out = v;
    return true;
}

/** @return 0 to run, 1 after --help, 2 on a usage error. */
int
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        uint64_t v = 0;
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 1;
        } else if (arg == "--workload" && has_value) {
            a.workload = argv[++i];
        } else if (arg == "--seed" && has_value &&
                   parseUnsigned(argv[i + 1], v)) {
            a.opts.seed = v;
            ++i;
        } else if (arg == "--reps" && has_value &&
                   parseUnsigned(argv[i + 1], v) && v >= 1 &&
                   v <= kMaxReps) {
            a.reps = static_cast<unsigned>(v);
            ++i;
        } else if (arg == "--seconds" && has_value &&
                   parseUnsigned(argv[i + 1], v) && v <= 3600) {
            a.seconds = static_cast<double>(v);
            ++i;
        } else if (arg == "--smoke") {
            a.opts.smoke = true;
        } else if (arg == "--trace" && has_value &&
                   parseUnsigned(argv[i + 1], v) && v <= 1) {
            a.trace = v == 1;
            ++i;
        } else {
            std::fprintf(stderr, "iocost_e2e: bad argument '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) ==
        names.end()) {
        std::fprintf(stderr, "iocost_e2e: --workload must be one of "
                             "saturate, buffered, sweep8, fleet10k, "
                             "whatif\n");
        return 2;
    }
    return 0;
}

unsigned
hardwareThreads()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

std::string
exeDir()
{
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        return ".";
    std::string path(buf, static_cast<size_t>(n));
    const size_t slash = path.rfind('/');
    return slash == std::string::npos ? "." : path.substr(0, slash);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
hex(uint64_t d)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(d));
    return buf;
}

/**
 * The digests bench/e2e/expected.json records for @p key (a workload
 * name, with ".smoke" for smoke sizes), one per repetition index; a
 * workload whose repetitions are identical records one.
 */
std::vector<std::string>
expectedDigests(const std::string &key)
{
    std::ifstream in(E2E_EXPECTED_JSON);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    std::vector<std::string> out;
    size_t pos = text.find("\"" + key + "\"");
    if (pos == std::string::npos)
        return out;
    pos = text.find('[', pos);
    const size_t end = text.find(']', pos);
    while (pos < end && end != std::string::npos) {
        const size_t a = text.find('"', pos);
        if (a > end)
            break;
        const size_t b = text.find('"', a + 1);
        if (b > end)
            break;
        out.push_back(text.substr(a + 1, b - a - 1));
        pos = b + 1;
    }
    return out;
}

/**
 * Time one set-up in a forked child, so it starts from the same cold
 * process state (empty profile cache, fresh bio pools) as the
 * parent's own. @return seconds, or a negative value on failure.
 */
double
forkedSetUp(const std::string &name, const Options &opts)
{
    int fds[2];
    if (pipe(fds) != 0)
        return -1.0;
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return -1.0;
    }
    if (pid == 0) {
        close(fds[0]);
        double s = -1.0;
        try {
            const auto t0 = Clock::now();
            setUp(name, opts, nullptr).reset();
            s = secondsSince(t0);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "iocost_e2e: set-up failed: %s\n",
                         e.what());
        }
        const bool sent = write(fds[1], &s, sizeof s) == sizeof s;
        _exit(sent && s >= 0.0 ? 0 : 1);
    }
    close(fds[1]);
    double s = -1.0;
    if (read(fds[0], &s, sizeof s) != sizeof s)
        s = -1.0;
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? s : -1.0;
}

std::vector<RepResult>
runReps(Workload &w, unsigned min_reps, double budget_s)
{
    std::vector<RepResult> out;
    double elapsed = 0.0;
    while ((out.size() < min_reps || elapsed < budget_s) &&
           out.size() < kMaxReps) {
        const auto t0 = Clock::now();
        out.push_back(w.rep(static_cast<unsigned>(out.size())));
        elapsed += secondsSince(t0);
    }
    return out;
}

/** Everything one run reports. */
struct Report
{
    std::string workload;
    bool ok = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    line(const char *metric, double value, const char *unit) const
    {
        std::printf("%s %s %.10g %s\n", workload.c_str(), metric, value,
                    unit);
    }

    void
    fail(const std::string &why)
    {
        ok = false;
        std::printf("%s check FAILED %s\n", workload.c_str(), why.c_str());
    }
};

/**
 * Digest checks: against expected.json at the default seed, rep to
 * rep where repetitions are identical, and traced against untraced.
 */
void
checkDigests(Report &rep, const Args &a, const Workload &w,
             const std::vector<RepResult> &reps,
             const std::vector<RepResult> *traced)
{
    const std::vector<std::string> expected =
        a.opts.seed == 1 ? expectedDigests(a.workload +
                                           (a.opts.smoke ? ".smoke" : ""))
                         : std::vector<std::string>{};
    for (size_t r = 0; r < reps.size(); ++r) {
        const std::string d = hex(reps[r].digest);
        const size_t e = w.repsIdentical() ? 0 : r;
        std::string status = "unchecked";
        if (w.repsIdentical() && r > 0 && reps[r].digest != reps[0].digest)
            status = "differs-from-rep0";
        else if (e < expected.size())
            status = expected[e] == d ? "match" : "mismatch";
        std::printf("%s digest.%zu %s %s\n", a.workload.c_str(), r,
                    d.c_str(), status.c_str());
        if (status != "match" && status != "unchecked")
            rep.fail("digest." + std::to_string(r) + " " + status);
        if (traced && r < traced->size() &&
            (*traced)[r].digest != reps[r].digest)
            rep.fail("traced digest." + std::to_string(r) +
                     " differs from untraced");
    }
}

void
printJson(const Report &rep, const LayerValues &values,
          const std::vector<MetricDef> &defs)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                rep.ok ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    for (size_t i = 0; i < defs.size(); ++i) {
        const double v = values.at(defs[i].name);
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name, std::isfinite(v) ? v : 0.0,
                    defs[i].unit);
    }
    std::printf("}}\n");
}

int
run(const Args &a)
{
    Report rep;
    rep.workload = a.workload;
    const unsigned hw = hardwareThreads();
    Options opts = a.opts;
    opts.threads = std::min(4u, hw);

    // Set-up. Untraced runs time several set-ups and report their
    // median; all but the last run in forked children.
    std::vector<double> setups;
    const unsigned n_setups = a.trace || a.opts.smoke ? 1 : kSetups;
    for (unsigned i = 1; i < n_setups; ++i) {
        const double s = forkedSetUp(a.workload, opts);
        if (s < 0.0) {
            std::fprintf(stderr, "iocost_e2e: forked set-up failed\n");
            return 1;
        }
        setups.push_back(s);
    }
    auto t0 = Clock::now();
    std::unique_ptr<Workload> w = setUp(a.workload, opts, nullptr);
    setups.push_back(secondsSince(t0));

    // A traced run measures layers, not throughput: one repetition of
    // each assembly gives every count and the overhead ratio.
    const std::vector<RepResult> reps =
        a.trace ? runReps(*w, 1, 0.0) : runReps(*w, a.reps, a.seconds);

    // Traced run: the same work again, assembled with decorators.
    std::unique_ptr<Tracer> tracer;
    std::unique_ptr<Workload> tw;
    std::vector<RepResult> traced;
    LayerValues values;
    for (const MetricDef &d : kPerLayer)
        values[d.name] = 0.0;
    if (a.trace) {
        tracer = std::make_unique<Tracer>(1u << 16, 4096);
        tw = setUp(a.workload, opts, tracer.get());
        tracer->resetTotals(); // per-bio ratios count the reps only
        traced = runReps(*tw, 1, 0.0);
        tw->layerMetrics(values);
        std::vector<double> wall_u, wall_t;
        for (const RepResult &r : reps)
            wall_u.push_back(r.wallS);
        for (const RepResult &r : traced)
            wall_t.push_back(r.wallS);
        values["profile.cold_ms"] = w->profileMs();
        values["trace_overhead"] = median(wall_t) / median(wall_u);
        if (values.size() != std::size(kPerLayer)) {
            std::fprintf(stderr, "iocost_e2e: unlisted layer metric\n");
            return 1;
        }
    }

    // End-to-end and host-time metrics from the untraced repetitions.
    std::vector<double> rates, requests;
    for (const RepResult &r : reps) {
        rates.push_back(static_cast<double>(r.ops) / r.wallS);
        requests.insert(requests.end(), r.requestMs.begin(),
                        r.requestMs.end());
        rep.attempted += r.ops;
        rep.failed += r.failed;
    }
    values["setup_s"] = median(setups);
    values["peak_rss_mb"] = peakRssMb();
    values["ops_per_s"] = median(rates);
    values["request_p50_ms"] = quantile(requests, 0.50);
    values["request_p90_ms"] = quantile(requests, 0.90);

    for (const MetricDef &d : kEndToEnd)
        rep.line(d.name, values[d.name], d.unit);
    for (const MetricDef &d : kHostTime)
        rep.line(d.name, values[d.name], d.unit);
    rep.line("setups", static_cast<double>(setups.size()), "count");
    // Each set-up on its own, forked ones first, so that a single
    // set-up's spread can be compared with the median's (README.md).
    for (size_t i = 0; i < setups.size(); ++i)
        rep.line(("setup." + std::to_string(i + 1)).c_str(), setups[i], "s");
    rep.line("reps", static_cast<double>(reps.size()), "count");
    rep.line("request_samples", static_cast<double>(requests.size()),
             "count");
    rep.line("hardware_threads", hw, "count");
    rep.line("threads", opts.threads, "count");
    if (a.trace) {
        for (const MetricDef &d : kPerLayer)
            rep.line(d.name, values[d.name], d.unit);
        rep.line("trace_spans_dropped",
                 static_cast<double>(tracer->dropped()), "count");
        const std::string path =
            exeDir() + "/trace-" + a.workload + ".json";
        if (!tracer->writeChromeTrace(path))
            rep.fail("cannot write " + path);
    }

    checkDigests(rep, a, *w, reps, a.trace ? &traced : nullptr);
    for (const Workload *x : {w.get(), tw.get()}) {
        if (!x)
            continue;
        for (const std::string &v : x->violations())
            rep.fail(v);
    }
    if (rep.failed != 0)
        rep.fail("failed operations");
    if (!rep.ok)
        rep.failed = rep.attempted;
    rep.line("ops_attempted", static_cast<double>(rep.attempted), "count");
    rep.line("ops_failed", static_cast<double>(rep.failed), "count");

    // BENCHMARK.json's per_layer list is the host-time metrics, then
    // the layers'.
    std::vector<MetricDef> json;
    if (a.trace) {
        json.assign(std::begin(kHostTime), std::end(kHostTime));
        json.insert(json.end(), std::begin(kPerLayer), std::end(kPerLayer));
    } else {
        json.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
    }
    printJson(rep, values, json);
    return rep.ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    const int parsed = parseArgs(argc, argv, a);
    if (parsed != 0)
        return parsed == 1 ? 0 : 2;
    try {
        return run(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "iocost_e2e: %s\n", e.what());
        return 1;
    }
}
