/**
 * @file
 * iocost_mon — period-level observability console.
 *
 * The simulation analogue of the kernel's iocost_monitor drgn
 * script: it replays a scenario with a telemetry sink installed and
 * renders what the controller did each planning period — vrate,
 * per-cgroup usage, wait, debt, and hierarchical weights — instead
 * of only end-of-run aggregates.
 *
 * Single-host mode takes iocost_sim's scenario flags (--device,
 * --controller, --model, --qos, --faults, --seconds, --seed,
 * --pagecache, --dirty-ratio, --job; src/host/scenario.hh documents
 * them and the job grammar) and runs the same host, from t=0 with no
 * warmup cut, for --seconds (default 5). The page-cache flusher's
 * "wb" telemetry shows up as a [wb] row under each period.
 *   iocost_mon [scenario flags]
 *              [--every N]     render every Nth period (default:
 *                              auto, ~32 rows)
 *              [--detail]      per-completion device/blk records
 *              [--out FILE]    also dump every record as JSONL
 *
 * Host sweep mode runs every ';'-separated controller spec as a
 * shadow lane over one shared workload/device stream (host::runSweep
 * CRN semantics, the same per-config defaulting as iocost_sim
 * --sweep) and renders the fused fast-path occupancy per planning
 * boundary — the row where a sweep visibly falls off the fused path —
 * plus the end-of-run per-config comparison:
 *   iocost_mon --sweep "iocost min=100;iocost min=25;iolatency"
 *              [scenario flags] [--every N] [--out FILE]
 *
 * Fleet mode takes the fleet flags iocost_sim shares
 * (src/fleet/fleet_cli.hh documents them). A FleetScenario spec
 * (inline or @file) runs the sharded streaming engine and renders
 * the constant-memory aggregate, one per config under a sweep;
 * --out then writes the aggregate JSON:
 *   iocost_mon --fleet --scenario "hosts=10000 days=24 ..."
 *   iocost_mon --fleet --scenario @scenario.txt --jobs 8
 *
 * The fig18/fig19 presets, or no --scenario (the scenario defaults),
 * instead replay the §4.8 migration study per host with telemetry
 * on, at 12 hosts x 8 days unless the fleet flags say otherwise,
 * writing one JSONL record per telemetry sample prefixed with the
 * (day, host) slice coordinates, then the aggregate. Output is
 * byte-identical for any
 * --jobs/--shards value (records are serialized in (day, host,
 * time) order):
 *   iocost_mon --fleet --scenario fig18|fig19 [fleet flags]
 *              [--out FILE]
 *
 * Reader mode renders a previously written file — the
 * streaming-aggregate JSON, a multi-config sweep document
 * (iocost_sim --fleet --sweep --out), a what-if diff stream
 * (iocost_whatif output), or the per-host replay JSONL (told apart
 * automatically). A malformed or truncated file, or an unrecognized
 * document type, is a fatal error naming the file:
 *   iocost_mon --in fleet.json|fleet.jsonl|whatif.jsonl
 *
 * Examples:
 *   iocost_mon --device newgen --seconds 5 \
 *     --job web:weight=200:depth=32 --job batch:weight=100:depth=32
 *   iocost_mon --fleet --scenario fig18 --jobs 8 --out fig18.jsonl
 *   iocost_mon --fleet --in fig18.jsonl
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/fleet_cli.hh"
#include "host/scenario.hh"
#include "host/sweep.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "stat/telemetry.hh"

namespace {

using namespace iocost;

/** One planning period reassembled from the record stream. */
struct Period
{
    sim::Time time = 0;
    double vratePct = 0.0;
    // key ("lat_read_p50" etc.) -> value for host-wide records.
    std::map<std::string, double> global;
    // cgroup -> key -> value.
    std::map<uint32_t, std::map<std::string, double>> cgroups;
    // Non-iocost sources ("wb", future subsystems): source -> key
    // -> latest value within the period, rendered as a catch-all
    // row so new telemetry is never silently dropped.
    std::map<std::string, std::map<std::string, double>> other;
};

/**
 * Warn once per telemetry source this tool has no native rendering
 * for; the values still land in the period's catch-all row.
 */
void
warnUnknownSource(const std::string &source, const std::string &key)
{
    static std::set<std::string> warned;
    if (warned.insert(source).second) {
        std::fprintf(stderr,
                     "iocost_mon: unrecognized telemetry source "
                     "'%s' (first key '%s'); values shown in the "
                     "catch-all row\n",
                     source.c_str(), key.c_str());
    }
}

/** Group the iocost-source records into planning periods. */
std::vector<Period>
collectPeriods(const std::vector<stat::Record> &records)
{
    std::vector<Period> periods;
    for (const stat::Record &r : records) {
        if (r.source != "iocost") {
            // Known sources with dedicated renderings elsewhere
            // ("device"/"blk" under --detail) stay out of the
            // period view; anything else folds into the catch-all
            // row of the current period.
            if (r.source == "device" || r.source == "blk")
                continue;
            if (r.source != "wb")
                warnUnknownSource(r.source, r.key);
            if (!periods.empty())
                periods.back().other[r.source][r.key] = r.value;
            continue;
        }
        if (r.key == "vrate_pct") {
            periods.emplace_back();
            periods.back().time = r.time;
            periods.back().vratePct = r.value;
            continue;
        }
        if (periods.empty())
            continue; // records before the first period marker
        if (r.cgroup == stat::kNoCgroup)
            periods.back().global[r.key] = r.value;
        else
            periods.back().cgroups[r.cgroup][r.key] = r.value;
    }
    return periods;
}

double
field(const std::map<std::string, double> &m,
      const std::string &key)
{
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

void
printPeriods(const std::vector<Period> &periods,
             cgroup::CgroupTree &tree, unsigned every)
{
    if (every == 0) {
        every = static_cast<unsigned>(
            std::max<size_t>(1, periods.size() / 32));
    }
    for (size_t i = 0; i < periods.size(); i += every) {
        const Period &p = periods[i];
        // Histogram-backed snapshots record nanoseconds.
        std::printf(
            "[%8.3fs] vrate=%6.1f%%  rlat p50/p99=%5.0f/%5.0fus"
            "  wlat p50/p99=%5.0f/%5.0fus",
            sim::toSeconds(p.time), p.vratePct,
            field(p.global, "lat_read_p50") / 1e3,
            field(p.global, "lat_read_p99") / 1e3,
            field(p.global, "lat_write_p50") / 1e3,
            field(p.global, "lat_write_p99") / 1e3);
        if (const double errs = field(p.global, "error_count"))
            std::printf("  errs=%.0f", errs);
        std::printf("\n");
        std::printf("  %-28s %7s %8s %8s %9s %9s\n", "cgroup",
                    "usage%", "wait_ms", "debt_ms", "hw_inuse%",
                    "hw_active%");
        for (const auto &[cg, vals] : p.cgroups) {
            std::printf(
                "  %-28s %7.1f %8.2f %8.2f %9.1f %9.1f\n",
                tree.path(cg).c_str(), field(vals, "usage_pct"),
                field(vals, "wait_us") / 1e3,
                field(vals, "debt_us") / 1e3,
                field(vals, "hweight_inuse_pct"),
                field(vals, "hweight_active_pct"));
        }
        for (const auto &[src, vals] : p.other) {
            std::printf("  [%s]", src.c_str());
            for (const auto &[k, v] : vals)
                std::printf(" %s=%.6g", k.c_str(), v);
            std::printf("\n");
        }
    }
}

/** --out FILE: every record of @p ring as JSONL (no-op without). */
void
writeRecords(const stat::RingSink &ring, const std::string &out_path)
{
    if (out_path.empty())
        return;
    stat::JsonlSink out(out_path);
    if (!out.ok())
        sim::fatal("cannot write " + out_path);
    for (const stat::Record &r : ring.records())
        out.emit(r);
    out.flush();
    std::printf("wrote %zu records to %s\n", ring.records().size(),
                out_path.c_str());
}

int
runSingleHost(const host::ScenarioSpec &sc, unsigned every,
              bool detail, const std::string &out_path)
{
    sim::Simulator sim(sc.seed);
    stat::RingSink ring;
    host::ScenarioHost scenario(sim, sc, &ring, detail);
    host::Host &host = scenario.host();

    std::printf("device=%s controller=%s seconds=%.1f seed=%llu\n",
                sc.device.c_str(), scenario.controller().name.c_str(),
                sc.seconds, static_cast<unsigned long long>(sc.seed));
    sim.runUntil(sc.duration());

    const auto &records = ring.records();
    const auto periods = collectPeriods(
        std::vector<stat::Record>(records.begin(), records.end()));
    if (periods.empty()) {
        // Non-iocost controllers have no planning periods; show
        // what the stream contains instead.
        std::map<std::string, uint64_t> by_source;
        for (const stat::Record &r : records)
            ++by_source[r.source + "/" + r.key];
        std::printf("%zu records, no iocost periods:\n",
                    records.size());
        for (const auto &[k, n] : by_source) {
            std::printf("  %-32s %8llu\n", k.c_str(),
                        static_cast<unsigned long long>(n));
        }
    } else {
        printPeriods(periods, host.tree(), every);
        std::printf("%zu planning periods, %zu records\n",
                    periods.size(), records.size());
    }
    writeRecords(ring, out_path);
    return 0;
}

/**
 * Host sweep view: K shadow lanes over one shared stream. The main
 * rendering is the fused fast-path occupancy timeline — the per-
 * planning-boundary `sweep/fused_lanes` and `sweep/diverged_lanes`
 * telemetry the FusedObserver emits — as a row of '#' (fused) and
 * '.' (diverged) per lane, so a config that falls off the fast path
 * (hard throttle, debt, error bursts) is visible at the period it
 * forked and at the period it re-fused.
 */
int
runHostSweep(const host::ScenarioSpec &sc,
             const std::vector<std::string> &specs, unsigned every,
             const std::string &out_path)
{
    stat::RingSink ring;
    host::SweepOptions opts = host::scenarioSweep(sc, specs);
    opts.generatorSink = &ring;
    const std::vector<host::JobSpec> jobs = sc.parsedJobs();

    std::printf("device=%s sweep K=%zu seconds=%.1f seed=%llu\n",
                sc.device.c_str(), specs.size(), sc.seconds,
                static_cast<unsigned long long>(sc.seed));

    struct LaneRow
    {
        uint64_t reads = 0;
        uint64_t writes = 0;
        double p50Us = 0.0;
        double p99Us = 0.0;
    };
    double fraction = -1.0;
    const auto rows = host::runSweep(
        opts, sc.seed, 1,
        [&jobs, &sc](sim::Simulator &sim, host::SweepRunner &runner) {
            const auto running =
                host::startSweepJobs(sim, runner, jobs);
            sim.runUntil(sc.duration());
        },
        [&fraction](host::SweepRunner &runner, size_t lane,
                    size_t) {
            if (const host::FusedObserver *obs =
                    runner.fusedObserver())
                fraction = obs->fusedFraction();
            LaneRow row;
            const auto &cgs = runner.workloadCgroups();
            for (const auto &named : cgs) {
                const blk::CgroupIoStats &st =
                    runner.laneLayer(lane).stats(named.second);
                row.reads += st.reads;
                row.writes += st.writes;
            }
            if (!cgs.empty()) {
                const stat::Histogram &lat =
                    runner.laneLayer(lane)
                        .stats(cgs.front().second)
                        .totalLatency;
                row.p50Us =
                    static_cast<double>(lat.quantile(0.50)) / 1e3;
                row.p99Us =
                    static_cast<double>(lat.quantile(0.99)) / 1e3;
            }
            return row;
        });

    // Fast-path occupancy timeline from the generator's stream.
    struct FusedPeriod
    {
        sim::Time time = 0;
        unsigned fused = 0;
        unsigned diverged = 0;
    };
    std::vector<FusedPeriod> periods;
    for (const stat::Record &r : ring.records()) {
        if (r.source != "sweep") {
            if (r.source != "iocost" && r.source != "wb" &&
                r.source != "device" && r.source != "blk")
                warnUnknownSource(r.source, r.key);
            continue;
        }
        if (periods.empty() || periods.back().time != r.time) {
            periods.emplace_back();
            periods.back().time = r.time;
        }
        if (r.key == "fused_lanes")
            periods.back().fused = static_cast<unsigned>(r.value);
        else if (r.key == "diverged_lanes")
            periods.back().diverged =
                static_cast<unsigned>(r.value);
    }
    if (periods.empty()) {
        std::printf("no fused-observer telemetry (K=1 sweeps and "
                    "iocost-free sweeps run the plain path)\n");
    } else {
        if (every == 0) {
            every = static_cast<unsigned>(
                std::max<size_t>(1, periods.size() / 32));
        }
        std::printf("fused fast-path occupancy ('#' fused lane, "
                    "'.' diverged):\n");
        for (size_t i = 0; i < periods.size(); i += every) {
            const FusedPeriod &p = periods[i];
            std::printf("[%8.3fs] %2u/%2u |", sim::toSeconds(p.time),
                        p.fused, p.fused + p.diverged);
            for (unsigned k = 0; k < p.fused; ++k)
                std::putchar('#');
            for (unsigned k = 0; k < p.diverged; ++k)
                std::putchar('.');
            std::printf("|\n");
        }
        if (fraction >= 0.0) {
            std::printf("fused path carried %.1f%% of lane "
                        "submissions over %zu planning periods\n",
                        100.0 * fraction, periods.size());
        }
    }

    std::printf("%-40s %10s %10s %9s %9s\n", "config", "reads",
                "writes", "p50us", "p99us");
    for (size_t c = 0; c < rows.size(); ++c) {
        std::printf("%-40s %10llu %10llu %9.0f %9.0f\n",
                    specs[c].c_str(),
                    static_cast<unsigned long long>(rows[c].reads),
                    static_cast<unsigned long long>(
                        rows[c].writes),
                    rows[c].p50Us, rows[c].p99Us);
    }
    writeRecords(ring, out_path);
    return 0;
}

/** Call @p fn on each non-empty line of @p text parsed as JSON; an
 *  error, the parser's or @p fn's, names its line. */
template <typename Fn>
void
forEachLine(const std::string &text, Fn fn)
{
    size_t line = 0;
    for (size_t pos = 0; pos < text.size();) {
        const size_t eol = std::min(text.find('\n', pos), text.size());
        const std::string_view body(text.data() + pos, eol - pos);
        pos = eol + 1;
        ++line;
        if (body.empty())
            continue;
        try {
            fn(sim::json::parse(body));
        } catch (const std::invalid_argument &err) {
            throw std::invalid_argument(
                "line " + std::to_string(line) + ": " + err.what());
        }
    }
}

/**
 * What-if diff stream (iocost_whatif output): one summary row per
 * document — the query, the branch point, and the headline delta
 * (per-job IO count and p99 shifts pulled from the delta block).
 */
int
renderWhatifStream(const std::string &text)
{
    uint64_t diffs = 0, errors = 0, other = 0;
    std::printf("%-52s %10s %14s %12s\n", "query", "from(ms)",
                "delta-ios", "delta-p99(us)");
    forEachLine(text, [&](const sim::json::Value &doc) {
        const sim::json::Value *type = doc.find("type");
        const std::string kind = type ? type->text : "";
        if (kind != "whatif_diff") {
            ++(kind == "whatif_error" ? errors : other);
            return;
        }
        ++diffs;
        const std::string &query = doc.string("query");
        const double from_ms = doc.number("from_ns") / 1e6;
        // Headline deltas: sum of per-job ios and the largest
        // per-job p99 shift from the delta block.
        const std::vector<sim::json::Value> &jobs =
            doc.at("delta").at("jobs").items;
        double ios_total = 0, p99_max = 0;
        for (const sim::json::Value &job : jobs) {
            ios_total += job.number("ios");
            const double p99 = job.number("p99_ns");
            if (std::fabs(p99) > std::fabs(p99_max))
                p99_max = p99;
        }
        if (!jobs.empty()) {
            std::printf("%-52s %10.0f %+14.0f %+12.0f\n",
                        query.c_str(), from_ms, ios_total,
                        p99_max / 1e3);
        } else {
            std::printf("%-52s %10.0f %14s %12s\n", query.c_str(),
                        from_ms, "-", "-");
        }
    });
    std::printf("whatif stream: %llu diffs, %llu errors",
                static_cast<unsigned long long>(diffs),
                static_cast<unsigned long long>(errors));
    if (other) {
        std::printf(", %llu other documents skipped",
                    static_cast<unsigned long long>(other));
    }
    std::printf("\n");
    return 0;
}

/**
 * Per-host replay JSONL: one record per telemetry sample, prefixed
 * {"day":D,"host":H,...}. Summarize coverage per day.
 */
int
renderReplay(const std::string &text)
{
    // day -> (hosts seen, records)
    std::map<uint64_t, std::pair<std::set<uint64_t>, uint64_t>> days;
    uint64_t total = 0;
    forEachLine(text, [&](const sim::json::Value &doc) {
        auto &[hosts, records] = days[doc.count("day")];
        hosts.insert(doc.count("host"));
        ++records;
        ++total;
    });
    std::printf("fleet per-host replay: %llu records, %zu days\n",
                static_cast<unsigned long long>(total), days.size());
    std::printf("%5s %10s %10s\n", "day", "hosts", "records");
    for (const auto &[day, seen] : days) {
        std::printf("%5llu %10zu %10llu\n",
                    static_cast<unsigned long long>(day),
                    seen.first.size(),
                    static_cast<unsigned long long>(seen.second));
    }
    return 0;
}

/**
 * --in FILE: render a fleet aggregate or sweep document, or one of
 * the JSONL files told apart by their first line: a what-if diff
 * stream or the per-host replay. A malformed or truncated file, or
 * an unknown document type, is a fatal error naming the file.
 */
int
runFleetIn(const std::string &in_path)
{
    const std::string text = sim::specArgument("@" + in_path);
    try {
        // A JSONL line parses alone; the first line of a fleet
        // document does not, and leaves `first` a keyless null.
        sim::json::Value first;
        try {
            first = sim::json::parse(
                std::string_view(text).substr(0, text.find('\n')));
        } catch (const std::invalid_argument &) {
        }
        if (const sim::json::Value *type = first.find("type")) {
            if (type->text == "whatif_diff" ||
                type->text == "whatif_error")
                return renderWhatifStream(text);
            throw std::invalid_argument(
                "unknown document type \"" + type->text +
                "\" (expected a fleet aggregate, a sweep document, "
                "a whatif_diff stream, or per-host JSONL)");
        }
        if (first.find("day"))
            return renderReplay(text);
        const fleet::SweepView view = fleet::readViewJson(text);
        if (!view.labels.empty())
            std::printf("fleet sweep: %zu configs\n", view.entries.size());
        fleet::renderView(view, stdout);
        return 0;
    } catch (const std::invalid_argument &err) {
        sim::fatal(in_path + ": " + err.what());
    }
}

/**
 * Fleet replay: the flags' scenario at 12 hosts x 8 days unless they
 * say otherwise, with telemetry on. Writes every record as
 * (day, host)-prefixed JSONL to @p out_path (stdout when empty),
 * then renders the aggregate.
 */
int
runReplay(const fleet::FleetFlags &flags, const std::string &out_path)
{
    // A slice of the fleet large enough to cover both host
    // generations and the full migration window without generating
    // hundreds of megabytes of JSONL.
    fleet::FleetScenario sc = flags.resolve("hosts=12 days=8");
    if (!sc.sweep.empty()) {
        throw std::invalid_argument(
            "the per-host replay runs the migration; a sweep needs "
            "a --scenario spec");
    }
    sc.telemetry = true;

    std::printf("fleet replay: %s\n", sc.canonical().c_str());

    std::vector<fleet::HostDayOutcome> outcomes;
    const fleet::FleetAggregate agg =
        fleet::FleetSim::runScenario(sc, flags.run, &outcomes);

    FILE *out = stdout;
    if (!out_path.empty()) {
        out = std::fopen(out_path.c_str(), "w");
        if (out == nullptr)
            sim::fatal("cannot write " + out_path);
    }

    // Serialize the outcome grid in (day, host, time) order: that
    // is already the natural record order inside each slice, and
    // the grid itself is (day, host)-indexed, so the byte stream
    // is independent of the worker count.
    uint64_t written = 0;
    for (unsigned day = 0; day < sc.days; ++day) {
        for (unsigned h = 0; h < sc.hosts; ++h) {
            const auto &o =
                outcomes[static_cast<uint64_t>(day) * sc.hosts + h];
            for (const stat::Record &r : o.records) {
                std::fprintf(out, "{\"day\":%u,\"host\":%u,%s}\n",
                             day, h,
                             stat::toJsonlFields(r).c_str());
                ++written;
            }
        }
    }
    if (out != stdout) {
        std::fclose(out);
        std::printf("wrote %llu records to %s\n",
                    static_cast<unsigned long long>(written),
                    out_path.c_str());
    }

    fleet::renderView({{}, {fleet::AggregateView::from(agg)}}, stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    host::ScenarioSpec sc;
    sc.seconds = 5.0;
    std::string out_path, in_path;
    unsigned every = 0;
    bool detail = false;
    bool fleet_mode = false;
    fleet::FleetFlags fleet_flags;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        try {
            if (fleet::readFleetFlag(fleet_flags, argc, argv, i) ||
                host::readScenarioFlag(sc, argc, argv, i))
                continue;
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument("needs a value");
                return argv[++i];
            };
            if (arg == "--every") {
                every = static_cast<unsigned>(sim::parseCount(next()));
            } else if (arg == "--detail") {
                detail = true;
            } else if (arg == "--out") {
                out_path = next();
            } else if (arg == "--fleet") {
                fleet_mode = true;
            } else if (arg == "--in") {
                in_path = next();
            } else if (arg == "--help" || arg == "-h") {
                std::printf("see the header of tools/iocost_mon.cc\n");
                return 0;
            } else {
                sim::fatal("unknown flag: " + arg);
            }
        } catch (const std::invalid_argument &err) {
            sim::fatal(arg + ": " + err.what());
        }
    }

    try {
        host::finishScenarioFlags(sc);
        if (!in_path.empty()) {
            // Reader mode sniffs the document type itself, so
            // --fleet is accepted but no longer required.
            return runFleetIn(in_path);
        }
        if (fleet_mode) {
            const std::string &name = fleet_flags.scenario;
            if (name.empty() || name == "fig18" || name == "fig19")
                return runReplay(fleet_flags, out_path);
            fleet::runFleet(fleet_flags, out_path);
            return 0;
        }
        if (!fleet_flags.sweep.empty()) {
            return runHostSweep(sc,
                                controllers::splitSpecList(fleet_flags.sweep),
                                every, out_path);
        }
        return runSingleHost(sc, every, detail, out_path);
    } catch (const std::exception &err) {
        sim::fatal(err.what());
    }
}
