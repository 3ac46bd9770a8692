/**
 * @file
 * Fleet-engine scaling benchmark.
 *
 * Measures the sharded fleet engine's throughput (host-days/sec) at
 * 1k / 10k / 100k hosts, sequential vs parallel, plus the peak RSS
 * of each scale — the tracked evidence for the engine's two claims:
 * linear multicore scaling and O(shards) memory independent of fleet
 * size. `--out BENCH_fleet.json` records the results in the tracked
 * file; without `--out` they are only printed.
 *
 * The per-slice knobs are deliberately tiny (10ms slices, 64K
 * fetches): the quantity under test is engine overhead — slice
 * setup, streaming folds, shard scheduling — not simulated seconds,
 * and small slices maximize engine work per wall second.
 *
 * `--check-allocs` runs the allocation gate instead: a per-shard
 * steady state (fold + finalize + merge) must perform ZERO heap
 * allocations — the arenas are sized at construction and never
 * touch the allocator again. Exits nonzero on violation (wired into
 * ctest, including the sanitizer tree).
 *
 * Flags: --jobs N (parallel lane worker count, default 4),
 *        --shards N (override auto sharding),
 *        --max-hosts N (skip scales above N, default 100000),
 *        --out PATH (write the results document to PATH).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "fleet/fleet_aggregate.hh"
#include "fleet/fleet_scenario.hh"
#include "fleet/fleet_sim.hh"

// ---------------------------------------------------------------
// Heap-allocation counter (same global replacement as perf_kernel):
// one relaxed atomic add per allocation, sampled around the gated
// window by --check-allocs.
// ---------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_heapAllocs{0};
}

void *
operator new(std::size_t size)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    const std::size_t a = std::max(static_cast<std::size_t>(align),
                                   sizeof(void *));
    if (posix_memalign(&p, a, size) == 0)
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace iocost;

/** Read a VmXXX line (kB) from /proc/self/status; 0 on failure. */
uint64_t
procStatusKb(const char *key)
{
    FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    uint64_t kb = 0;
    const size_t klen = std::strlen(key);
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, key, klen) == 0 &&
            line[klen] == ':') {
            kb = std::strtoull(line + klen + 1, nullptr, 10);
            break;
        }
    }
    std::fclose(f);
    return kb;
}

/**
 * Reset the VmHWM peak-RSS watermark to the current RSS. Returns
 * false where /proc/self/clear_refs is unavailable (the recorded
 * peak then covers the whole process lifetime — still an upper
 * bound, just a looser one).
 */
bool
resetPeakRss()
{
    FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return false;
    const bool ok = std::fputs("5", f) >= 0;
    std::fclose(f);
    return ok;
}

/** Benchmark scenario: small slices, device/workload mix, half the
 *  fleet on IOCost — engine overhead dominates simulated time. */
fleet::FleetScenario
benchScenario(unsigned hosts)
{
    fleet::FleetScenario sc = fleet::FleetScenario::parse(
        "hosts=" + std::to_string(hosts) +
        " days=1 seed=90"
        " migration=0..1:50"
        " devices=A:25,D:25,G:25,H:25"
        " workloads=mixed:50,writeheavy:30,readheavy:20"
        " slice=10ms warmup=10ms"
        " fetch=64K fetch_deadline=5ms"
        " cleanup=4 cleanup_io=4K cleanup_deadline=2ms");
    return sc;
}

struct ScaleResult
{
    unsigned hosts = 0;
    uint64_t hostDays = 0;
    double seqPerSec = 0;
    double parPerSec = 0;
    unsigned jobs = 0;
    unsigned seqShards = 0;
    unsigned parShards = 0;
    uint64_t peakRssKb = 0;
    bool rssIsProcessPeak = false;
};

ScaleResult
runScale(unsigned hosts, unsigned jobs, unsigned shards_flag)
{
    const fleet::FleetScenario sc = benchScenario(hosts);
    ScaleResult r;
    r.hosts = hosts;
    r.jobs = jobs;
    r.rssIsProcessPeak = !resetPeakRss();

    using clock = std::chrono::steady_clock;

    fleet::RunOptions seq;
    seq.jobs = 1;
    seq.shards = shards_flag;
    const auto t0 = clock::now();
    const fleet::FleetAggregate a1 =
        fleet::FleetSim::runScenario(sc, seq);
    const auto t1 = clock::now();
    r.hostDays = a1.hostDays;
    r.seqShards = a1.shards;
    r.seqPerSec =
        static_cast<double>(a1.hostDays) /
        std::chrono::duration<double>(t1 - t0).count();

    fleet::RunOptions par;
    par.jobs = jobs;
    par.shards = shards_flag;
    const auto t2 = clock::now();
    const fleet::FleetAggregate a2 =
        fleet::FleetSim::runScenario(sc, par);
    const auto t3 = clock::now();
    r.parShards = a2.shards;
    r.parPerSec =
        static_cast<double>(a2.hostDays) /
        std::chrono::duration<double>(t3 - t2).count();

    r.peakRssKb = procStatusKb("VmHWM");
    return r;
}

/**
 * --check-allocs: the per-shard steady state — folding host-day
 * outcomes, finalizing the failure series, merging shards — must
 * never touch the heap. All arena storage is sized in the
 * ShardAccumulator constructor; this lane proves the property holds
 * and keeps holding (it runs under ctest in both the Release and
 * sanitizer trees).
 */
int
runCheckAllocs()
{
    const unsigned days = 16;
    fleet::ShardAccumulator a(days);
    fleet::ShardAccumulator b(days);

    fleet::HostDayOutcome ok;
    fleet::HostDayOutcome failed;
    failed.fetchFailed = true;
    failed.cleanupFailed = true;
    failed.fetchTime = sim::kTimeNever;
    failed.cleanupTime = sim::kTimeNever;

    const uint64_t before =
        g_heapAllocs.load(std::memory_order_relaxed);

    for (unsigned d = 0; d < days; ++d) {
        for (unsigned i = 0; i < 256; ++i) {
            // Spread observations across histogram octaves.
            ok.fetchTime =
                static_cast<sim::Time>((i + 1) * 37ull << (i % 20));
            ok.cleanupTime =
                static_cast<sim::Time>((i + 3) * 11ull << (i % 16));
            a.fold(d, (i & 1) != 0, ok);
            b.fold(d, (i & 1) == 0, i % 7 != 0 ? ok : failed);
        }
    }
    a.finalizeSeries();
    b.finalizeSeries();
    a.mergeFrom(b);

    const uint64_t after =
        g_heapAllocs.load(std::memory_order_relaxed);
    const uint64_t delta = after - before;

    std::printf("fold+finalize+merge heap allocations: %llu\n",
                static_cast<unsigned long long>(delta));
    if (delta != 0) {
        std::printf("FAIL: per-shard steady state allocated\n");
        return 1;
    }
    // Sanity: the folds actually aggregated.
    const fleet::FleetAggregate agg = a.finish(512, 2, 1);
    if (agg.hostDays != 2ull * days * 256 ||
        agg.fetchTime[fleet::kCtlIoCost].count() == 0) {
        std::printf("FAIL: aggregate counters wrong\n");
        return 1;
    }
    std::printf("PASS: zero-allocation shard steady state\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseArgs(argc, argv);
    if (args.checkAllocs)
        return runCheckAllocs();

    bench::banner(
        "Fleet engine scaling: streaming aggregation over shards",
        "Host-days/sec at 1k/10k/100k hosts, sequential vs "
        "parallel, and peak RSS\nper scale (constant-memory "
        "streaming: RSS must not scale with hosts).");

    unsigned jobs = args.jobs;
    if (jobs <= 1)
        jobs = 4;
    const unsigned shards_flag = args.shards;
    const uint64_t max_hosts =
        args.maxHosts != 0 ? args.maxHosts : 100000;

    const unsigned hw = std::max(
        1u, std::thread::hardware_concurrency());

    // Untimed warmup: one-time first-use costs would otherwise land
    // inside the first timed sequential run and poison both the hd/s
    // numbers and the speedup ratio.
    {
        fleet::RunOptions warm;
        warm.jobs = 1;
        (void)fleet::FleetSim::runScenario(benchScenario(32), warm);
    }

    std::vector<ScaleResult> results;
    for (unsigned hosts : {1000u, 10000u, 100000u}) {
        if (hosts > max_hosts)
            continue;
        std::fprintf(stderr, "running %u hosts...\n", hosts);
        results.push_back(runScale(hosts, jobs, shards_flag));
    }
    if (results.empty()) {
        std::fprintf(stderr, "no scales selected\n");
        return 1;
    }

    bench::Table table({"Hosts", "Host-days", "Seq hd/s",
                        "Parallel hd/s", "Jobs", "Speedup",
                        "Peak RSS"});
    for (const ScaleResult &r : results) {
        table.row(
            {bench::fmtCount(r.hosts),
             bench::fmtCount(static_cast<double>(r.hostDays)),
             bench::fmt("%.1f", r.seqPerSec),
             bench::fmt("%.1f", r.parPerSec),
             bench::fmt("%.0f", static_cast<double>(r.jobs)),
             hw > 1 ? bench::fmt("%.2fx", r.parPerSec / r.seqPerSec)
                    : std::string("n/a (1 hw thread)"),
             bench::fmt("%.1fMB",
                        static_cast<double>(r.peakRssKb) /
                            1024.0)});
    }
    table.print();
    std::printf("hardware threads: %u\n", hw);
    const double rss_ratio =
        static_cast<double>(results.back().peakRssKb) /
        static_cast<double>(results.front().peakRssKb);
    std::printf("peak RSS %s -> %s hosts: %.2fx (streaming "
                "aggregation: expected ~1x)\n",
                bench::fmtCount(results.front().hosts).c_str(),
                bench::fmtCount(results.back().hosts).c_str(),
                rss_ratio);
    if (args.out.empty())
        return 0;

    FILE *json = std::fopen(args.out.c_str(), "w");
    if (!json) {
        std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
        return 1;
    }
    std::fprintf(json,
                 "{\n"
                 "  \"hardware_threads\": %u,\n"
                 "  \"scales\": [\n",
                 hw);
    for (size_t i = 0; i < results.size(); ++i) {
        const ScaleResult &r = results[i];
        // A jobs/seq ratio on a single-hardware-thread box is
        // scheduling noise, not a speedup: emit null (same policy
        // as BENCH_kernel.json).
        char speedup[32];
        if (hw > 1) {
            std::snprintf(speedup, sizeof(speedup), "%.3f",
                          r.parPerSec / r.seqPerSec);
        } else {
            std::snprintf(speedup, sizeof(speedup), "null");
        }
        std::fprintf(
            json,
            "    {\n"
            "      \"hosts\": %u,\n"
            "      \"host_days\": %llu,\n"
            "      \"hostdays_per_sec_seq\": %.2f,\n"
            "      \"hostdays_per_sec_parallel\": %.2f,\n"
            "      \"jobs\": %u,\n"
            "      \"shards_seq\": %u,\n"
            "      \"shards_parallel\": %u,\n"
            "      \"parallel_speedup\": %s,\n"
            "      \"hardware_threads\": %u,\n"
            "      \"peak_rss_kb\": %llu,\n"
            "      \"rss_is_process_peak\": %s\n"
            "    }%s\n",
            r.hosts, static_cast<unsigned long long>(r.hostDays),
            r.seqPerSec, r.parPerSec, r.jobs, r.seqShards,
            r.parShards, speedup, hw,
            static_cast<unsigned long long>(r.peakRssKb),
            r.rssIsProcessPeak ? "true" : "false",
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n"
                 "  \"rss_ratio_largest_over_smallest\": %.3f\n"
                 "}\n",
                 rss_ratio);
    std::fclose(json);
    std::printf("wrote %s\n", args.out.c_str());
    return 0;
}
