/**
 * @file
 * iocost_sim — command-line scenario driver.
 *
 * Assembles a host (device + controller + cgroup hierarchy), runs a
 * set of fio-style jobs described on the command line, and prints
 * per-job throughput/latency plus controller state. Accepts kernel-
 * format io.cost.model / io.cost.qos strings, so configurations can
 * be copied verbatim from (or to) a real machine.
 *
 * Usage:
 *   iocost_sim [--device NAME] [--controller "<spec>"]
 *              [--model "<io.cost.model line>"]
 *              [--qos "<io.cost.qos line>"] [--faults "<spec>"]
 *              [--seconds N] [--warmup TIME] [--seed N]
 *              [--pagecache SIZE] [--dirty-ratio PCT]
 *              [--job name:key=value:...] ...
 *     The single-host scenario flags, shared with iocost_mon: each
 *     sets the scenario key of the same name, and
 *     src/host/scenario.hh documents them and the job grammar. A
 *     buffered job with no --pagecache gets a 512M cache. The run
 *     warms up for --warmup (default 10% of --seconds; 0 measures
 *     from the start), then measures --seconds, so any row of the
 *     figure tables (bench/spec_table.hh) runs here from its spec
 *     keys.
 *              [--whatif '{"q":...}']  one-shot what-if query
 *               against the scenario the flags above describe (see
 *               whatif/query.hh for the JSON grammar); prints one
 *               whatif_diff document and exits. iocost_whatif
 *               serves the same queries as a concurrent service.
 *              [--sweep "spec1;spec2;..."]  multi-config sweep:
 *               run every controller spec against the SAME workload
 *               and device-model event stream (common random
 *               numbers — one generator, K shadow controller
 *               lanes). ';' separates configs; ',' within a config
 *               doubles as a token separator, so
 *               "iocost,min=25;iocost,min=50" is a two-config
 *               sweep. Mutually exclusive with --controller;
 *               --model/--qos apply to every config. --jobs
 *               partitions the configs across worker threads
 *               (per-config output is byte-identical for any value).
 *
 * Fleet mode runs the §4.8 migration Monte-Carlo instead of a single
 * host, through the sharded streaming engine (results are
 * byte-identical for any --jobs/--shards value):
 *   iocost_sim --fleet [fleet flags] [--out agg.json]
 *     The fleet flags are shared with iocost_mon and documented in
 *     src/fleet/fleet_cli.hh: a --scenario spec (or fig18/fig19)
 *     plus flags overriding its hosts, days, seed, faults and sweep
 *     keys, and --jobs/--shards. A sweep runs every host-day once per
 *     config on the same host-day seed. --out writes the
 *     streaming-aggregate JSON (readable by iocost_mon --in); under a
 *     sweep, the multi-config sweep document.
 *
 * Example:
 *   iocost_sim --device oldgen --controller iocost --seconds 10 \
 *     --job web:weight=200:depth=32 --job batch:weight=100:depth=32
 */

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config_parse.hh"
#include "fleet/fleet_cli.hh"
#include "host/scenario.hh"
#include "host/sweep.hh"
#include "sim/logging.hh"
#include "whatif/query.hh"
#include "whatif/service.hh"

namespace {

using namespace iocost;

constexpr const char *kJobHeader =
    "job            weight       IOPS       MB/s        p50        p99\n";

/** One row of the per-job table under kJobHeader. */
std::string
jobRow(const host::JobSpec &job, double iops, double mbps,
       const stat::Histogram &lat)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%-12s %8u %10.0f %10.1f %8.0fus %8.0fus\n",
                  job.name.c_str(), job.weight, iops, mbps,
                  sim::toMicros(lat.quantile(0.5)),
                  sim::toMicros(lat.quantile(0.99)));
    return buf;
}

/** Multi-config CRN sweep of one scenario (K >= 2 configs). */
int
runHostSweep(const host::ScenarioSpec &sc,
             const std::vector<std::string> &specs, unsigned jobs)
{
    core::LinearModelConfig model;
    const host::SweepOptions sopts =
        host::scenarioSweep(sc, specs, &model);
    const std::vector<host::JobSpec> job_specs = sc.parsedJobs();
    const sim::Time warmup = sc.warmupTime();

    auto body = [&](sim::Simulator &s, host::SweepRunner &runner) {
        const auto running = host::startSweepJobs(s, runner, job_specs);
        s.runUntil(warmup);
        runner.resetStats();
        s.runUntil(warmup + sc.duration());
        for (auto &job : running)
            job->stop();
    };
    auto collect = [&](host::SweepRunner &runner, size_t lane, size_t) {
        std::string out;
        blk::BlockLayer &layer = runner.laneLayer(lane);
        const auto &cgs = runner.workloadCgroups();
        for (size_t j = 0; j < cgs.size(); ++j) {
            const blk::CgroupIoStats &st = layer.stats(cgs[j].second);
            out += jobRow(
                job_specs[j],
                static_cast<double>(st.reads + st.writes) / sc.seconds,
                static_cast<double>(st.readBytes + st.writeBytes) / 1e6 /
                    sc.seconds,
                st.totalLatency);
        }
        if (core::IoCost *ioc = runner.laneIocost(lane)) {
            char buf[96];
            std::snprintf(buf, sizeof buf,
                          "vrate: %.0f%%  (planning period %.0fms)\n",
                          100.0 * ioc->vrate(),
                          sim::toMillis(ioc->period()));
            out += buf;
        }
        return out;
    };

    const std::vector<std::string> results =
        host::runSweep(sopts, sc.seed, jobs, body, collect);

    std::printf("device=%s sweep=%zu configs seconds=%.1f "
                "seed=%llu (common random numbers)\n",
                sc.device.c_str(), results.size(), sc.seconds,
                static_cast<unsigned long long>(sc.seed));
    std::printf("io.cost.model: %s\n",
                core::formatModelLine(model).c_str());
    for (size_t c = 0; c < results.size(); ++c) {
        std::printf("\nconfig[%zu]: %s\n%s%s", c, specs[c].c_str(),
                    kJobHeader, results[c].c_str());
    }
    return 0;
}

/** One host: warm up, then measure for the scenario's seconds. */
int
runHost(const host::ScenarioSpec &sc)
{
    sim::Simulator sim(sc.seed);
    host::ScenarioHost scenario(sim, sc);
    host::Host &host = scenario.host();
    const controllers::ControllerSpec &ctl = scenario.controller();

    std::printf("device=%s controller=%s seconds=%.1f seed=%llu\n",
                sc.device.c_str(), ctl.name.c_str(), sc.seconds,
                static_cast<unsigned long long>(sc.seed));
    std::printf("io.cost.model: %s\n",
                core::formatModelLine(scenario.model()).c_str());
    if (ctl.name == "iocost") {
        std::printf("io.cost.qos:   %s\n",
                    core::formatQosLine(ctl.iocost.qos).c_str());
    }

    host::runMeasured(sim, scenario, sc);

    std::printf("\n%s", kJobHeader);
    const std::vector<host::JobSpec> &jobs = scenario.jobs();
    for (size_t j = 0; j < jobs.size(); ++j) {
        const double iops = scenario.iops(j);
        std::printf("%s", jobRow(jobs[j], iops,
                                 iops * jobs[j].fio.blockSize / 1e6,
                                 scenario.latency(j))
                              .c_str());
    }
    if (host.hasPageCache()) {
        const mm::PageCache &pc = host.pageCache();
        std::printf("pagecache: dirty=%.1fM writeback-inflight="
                    "%.1fM cached=%.1fM\n",
                    pc.totalDirty() / 1e6, pc.wbInflight() / 1e6,
                    pc.totalCached() / 1e6);
    }
    if (auto *ioc = host.iocost()) {
        std::printf("\nvrate: %.0f%%  (planning period %.0fms)\n",
                    100.0 * ioc->vrate(), sim::toMillis(ioc->period()));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    host::ScenarioSpec sc;
    bool controller_set = false;
    std::string whatif_arg, out_path;
    bool fleet_mode = false;
    fleet::FleetFlags fleet_flags;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        try {
            controller_set = controller_set || arg == "--controller";
            if (fleet::readFleetFlag(fleet_flags, argc, argv, i) ||
                host::readScenarioFlag(sc, argc, argv, i))
                continue;
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument("needs a value");
                return argv[++i];
            };
            if (arg == "--whatif") {
                whatif_arg = next();
            } else if (arg == "--fleet") {
                fleet_mode = true;
            } else if (arg == "--out") {
                out_path = next();
            } else if (arg == "--help" || arg == "-h") {
                std::printf("see the header of tools/iocost_sim.cc\n");
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
        if (fleet_mode) {
            fleet::runFleet(fleet_flags, out_path);
            return 0;
        }
        if (!out_path.empty())
            sim::fatal("--out is only meaningful with --fleet");
        if (!fleet_flags.scenario.empty())
            sim::fatal("--scenario is only meaningful with --fleet");
        const std::string &sweep_arg = fleet_flags.sweep;
        if (!whatif_arg.empty()) {
            // One-shot what-if: answer the query with a cold full
            // re-run of the flags' scenario (byte-identical to the
            // service's branch-and-replay answer).
            if (!sweep_arg.empty()) {
                sim::fatal("--whatif and --sweep are mutually "
                           "exclusive");
            }
            const auto q = whatif::Query::parse(whatif_arg);
            std::printf("%s\n",
                        whatif::Service::evaluateCold(sc, q).c_str());
            return 0;
        }
        if (!sweep_arg.empty()) {
            if (controller_set) {
                sim::fatal(
                    "--sweep and --controller are mutually exclusive");
            }
            const std::vector<std::string> specs =
                controllers::splitSpecList(sweep_arg);
            if (specs.size() != 1)
                return runHostSweep(sc, specs, fleet_flags.run.jobs);
            // Degenerate sweep: the plain single-host path is
            // byte-identical (and has zero observation overhead).
            sc.controller = specs[0];
        }
        return runHost(sc);
    } catch (const std::exception &err) {
        sim::fatal(err.what());
    }
}
