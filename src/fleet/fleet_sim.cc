#include "fleet/fleet_sim.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "controllers/factory.hh"
#include "controllers/io_latency.hh"
#include "core/iocost.hh"
#include "device/ssd_model.hh"
#include "host/host.hh"
#include "host/scenario.hh"
#include "host/sweep.hh"
#include "profile/device_profiler.hh"
#include "sim/rng.hh"
#include "workload/buffered_io.hh"
#include "workload/fio_workload.hh"

namespace iocost::fleet {

namespace {

/**
 * Package fetch: per chunk, a metadata/verification read followed by
 * a sequential payload write (dependent pair), a couple of chunk
 * streams in flight; flags its completion time.
 */
struct FetchAgent
{
    blk::BlockLayer &layer;
    cgroup::CgroupId cg;
    uint64_t left;
    uint64_t cursor = 0;
    sim::Time doneAt = sim::kTimeNever;
    unsigned inFlight = 0;
    sim::Rng rng;

    static constexpr uint32_t kChunk = 256 * 1024;
    static constexpr uint32_t kReadChunk = 64 * 1024;
    static constexpr unsigned kDepth = 2;

    FetchAgent(blk::BlockLayer &l, cgroup::CgroupId c,
               uint64_t bytes, uint64_t seed)
        : layer(l), cg(c), left(bytes), rng(seed)
    {}

    void
    start()
    {
        for (unsigned i = 0; i < kDepth; ++i)
            issue();
    }

    void
    issue()
    {
        if (left == 0) {
            if (inFlight == 0 && doneAt == sim::kTimeNever)
                doneAt = layer.sim().now();
            return;
        }
        const uint32_t chunk = static_cast<uint32_t>(
            std::min<uint64_t>(kChunk, left));
        left -= chunk;
        ++inFlight;
        // Verification/metadata read, then the payload write.
        layer.submit(blk::Bio::make(
            blk::Op::Read, (6ull << 40) + rng.below(8ull << 30),
            kReadChunk, cg, [this, chunk](const blk::Bio &) {
                layer.submit(blk::Bio::make(
                    blk::Op::Write, (6ull << 41) + cursor, chunk,
                    cg, [this](const blk::Bio &) {
                        --inFlight;
                        issue();
                    }));
                cursor += chunk;
            }));
    }
};

/**
 * Serialized chain of small alternating metadata reads/writes (the
 * btrfs container-cleanup walk).
 */
struct CleanupAgent
{
    blk::BlockLayer &layer;
    cgroup::CgroupId cg;
    unsigned opsLeft;
    uint32_t ioBytes;
    sim::Rng rng;
    sim::Time doneAt = sim::kTimeNever;

    CleanupAgent(blk::BlockLayer &l, cgroup::CgroupId c,
                 unsigned ops, uint32_t bytes, uint64_t seed)
        : layer(l), cg(c), opsLeft(ops), ioBytes(bytes), rng(seed)
    {}

    void
    step()
    {
        if (opsLeft == 0) {
            doneAt = layer.sim().now();
            return;
        }
        --opsLeft;
        const bool read = opsLeft % 2 == 0;
        const uint64_t offset =
            (7ull << 40) + rng.below(64ull << 30);
        auto bio = blk::Bio::make(
            read ? blk::Op::Read : blk::Op::Write, offset, ioBytes,
            cg, [this](const blk::Bio &) { step(); });
        // Cleanup touches shared filesystem metadata.
        bio->meta = true;
        layer.submit(std::move(bio));
    }
};

/**
 * Main-workload shape for one host. Every kind runs a read job and
 * a write job; the kind decides their arrival processes and depths.
 * The `knobs` draws vary intensity per host-day; their order and
 * count are part of every recorded fleet result.
 */
void
shapeWorkloads(WorkloadKind kind, sim::Rng &knobs,
               workload::FioConfig &reads,
               workload::FioConfig &writes)
{
    reads.arrival = workload::Arrival::Saturating;
    writes.arrival = workload::Arrival::Saturating;
    writes.readFraction = 0.0;
    switch (kind) {
    case WorkloadKind::Mixed:
        // Saturating random reads + a large-write stream that
        // drains the device's burst buffer into its GC regime.
        reads.iodepth = 32 + static_cast<unsigned>(knobs.below(64));
        writes.blockSize = 1 << 20;
        writes.iodepth = 2 + static_cast<unsigned>(knobs.below(8));
        break;
    case WorkloadKind::ReadHeavy:
        // Deep random reads; only a trickle of medium writes.
        reads.iodepth = 48 + static_cast<unsigned>(knobs.below(64));
        writes.blockSize = 256 * 1024;
        writes.iodepth = 1 + static_cast<unsigned>(knobs.below(2));
        break;
    case WorkloadKind::WriteHeavy:
        // Deep large-write streams over shallow reads.
        reads.iodepth = 4 + static_cast<unsigned>(knobs.below(8));
        writes.blockSize = 1 << 20;
        writes.iodepth = 8 + static_cast<unsigned>(knobs.below(16));
        break;
    case WorkloadKind::Bursty:
        // Open-loop read bursts over a shallow write stream.
        reads.arrival = workload::Arrival::Rate;
        reads.ratePerSec =
            2000.0 + static_cast<double>(knobs.below(6000));
        writes.blockSize = 1 << 20;
        writes.iodepth = 1 + static_cast<unsigned>(knobs.below(2));
        break;
    case WorkloadKind::Buffered:
        // Cache-friendly direct reader alongside the buffered
        // streams (built by the caller); the direct write trickle
        // stands in for unbuffered logging.
        reads.iodepth = 4 + static_cast<unsigned>(knobs.below(8));
        writes.blockSize = 256 * 1024;
        writes.iodepth = 1;
        break;
    }
}

} // namespace

HostDayOutcome
FleetSim::runHostDay(const FleetScenario &sc,
                     const device::SsdSpec &spec,
                     WorkloadKind kind,
                     const std::string &controller, uint64_t seed)
{
    sim::Simulator sim(seed);

    // Accept a full spec line, not just a mechanism name, so sweep
    // configs can carry settings ("iocost min=25 max=100"). A bare
    // "iocost"/"iolatency" parses to the same config the historical
    // string path produced, preserving byte-compatibility.
    std::optional<controllers::ControllerSpec> parsed =
        controllers::parseControllerSpec(controller);
    if (!parsed) {
        throw std::invalid_argument(
            "fleet: bad controller spec: " + controller);
    }

    host::HostOptions opts;
    opts.controller = *parsed;
    // Device degradation, identical schedule on every host; the
    // slice seed decorrelates the per-request error draws.
    opts.faults = sc.faults;
    opts.faultSeedMix = seed;
    // pagecache= gives every host-day a page cache; the flusher
    // only issues IO when something dirties pages, so non-buffered
    // kinds are unaffected.
    host::configurePageCache(opts, sc.pagecacheBytes,
                             sc.dirtyRatioPct);
    // Slice-private ring: drained into the outcome after the run.
    stat::RingSink ring;
    if (sc.telemetry)
        opts.telemetrySink = &ring;
    if (parsed->name == "iocost") {
        // The single-host rule, defaulting to the migration study's
        // QoS instead of the single-host one.
        core::QosParams qos;
        qos.readLatTarget = 2 * sim::kMsec;
        qos.writeLatTarget = 4 * sim::kMsec;
        qos.period = 10 * sim::kMsec;
        qos.vrateMin = 0.5;
        qos.vrateMax = 2.0;
        host::applyIocostDefaults(
            opts.controller, controller,
            profile::DeviceProfiler::profileSsd(spec).model, qos);
    }
    host::Host host(sim,
                    std::make_unique<device::SsdModel>(sim, spec),
                    opts);

    const auto main_cg = host.addWorkload("main", 100);
    const auto fetch_cg = host.addSystemService("package-fetcher");
    const auto cleanup_cg = host.tree().create(
        host.hostCritical(), "container-agent", 100);

    if (parsed->name == "iolatency") {
        // Production IOLatency setups protect the workload with a
        // tight latency target; system services run unprotected.
        auto *iolat = dynamic_cast<controllers::IoLatency *>(
            host.layer().controller());
        iolat->setTarget(main_cg, 400 * sim::kUsec);
    }

    // Main workload: shape per WorkloadKind, intensity varied per
    // host-day through the knobs stream.
    sim::Rng knobs(seed ^ 0x5bd1e995);
    workload::FioConfig reads;
    workload::FioConfig writes;
    shapeWorkloads(kind, knobs, reads, writes);
    workload::FioWorkload read_job(sim, host.layer(), main_cg,
                                   reads);
    workload::FioWorkload write_job(sim, host.layer(), main_cg,
                                    writes);

    // The buffered kind adds a dirtier stream and an fsync storm
    // through the page cache on top of the direct reader above.
    std::unique_ptr<workload::BufferedWorkload> dirtier;
    std::unique_ptr<workload::BufferedWorkload> fsyncer;
    if (kind == WorkloadKind::Buffered) {
        if (!host.hasPageCache()) {
            throw std::invalid_argument(
                "fleet: buffered workload requires pagecache=");
        }
        workload::BufferedConfig dc;
        dc.name = "dirtier";
        dc.blockSize = 1 << 20;
        dc.spanBytes = 2ull << 30;
        dc.offsetBase = 8ull << 40;
        dc.thinkTime = 200 * sim::kUsec;
        dc.depth = 2 + static_cast<unsigned>(knobs.below(4));
        dirtier = std::make_unique<workload::BufferedWorkload>(
            sim, host.pageCache(), main_cg, dc);
        workload::BufferedConfig fc;
        fc.name = "fsync-storm";
        fc.blockSize = 16 * 1024;
        fc.spanBytes = 256ull << 20;
        fc.offsetBase = 9ull << 40;
        fc.randomFraction = 1.0;
        fc.fsyncEvery = 8;
        fsyncer = std::make_unique<workload::BufferedWorkload>(
            sim, host.pageCache(), main_cg, fc);
    }

    FetchAgent fetch(host.layer(), fetch_cg, sc.fetchBytes,
                     seed ^ 0xabcdef12);
    CleanupAgent cleanup(host.layer(), cleanup_cg, sc.cleanupOps,
                         sc.cleanupIoBytes, seed ^ 0x9e3779b9);

    read_job.start();
    write_job.start();
    if (dirtier) {
        dirtier->start();
        fsyncer->start();
    }
    // Agents start once the workload has pushed the device into its
    // sustained (buffer-drained) regime.
    const sim::Time agent_start = sc.warmup;
    sim.after(agent_start, [&] {
        fetch.start();
        cleanup.step();
    });

    sim.runUntil(agent_start + sc.slice);
    read_job.stop();
    write_job.stop();
    if (dirtier) {
        dirtier->stop();
        fsyncer->stop();
    }

    HostDayOutcome out;
    out.fetchTime = fetch.doneAt == sim::kTimeNever
                        ? sim::kTimeNever
                        : fetch.doneAt - agent_start;
    out.cleanupTime = cleanup.doneAt == sim::kTimeNever
                          ? sim::kTimeNever
                          : cleanup.doneAt - agent_start;
    out.fetchFailed = out.fetchTime > sc.fetchDeadline;
    out.cleanupFailed = out.cleanupTime > sc.cleanupDeadline;
    if (sc.telemetry)
        out.records = ring.drain();
    return out;
}

namespace {

/**
 * The sharded engine behind runScenario and runScenarioSweep. Hosts
 * split into contiguous shards, each with K accumulators side by side
 * (shard s, slot k at accs[s*K + k], so one host-day's K folds touch
 * adjacent arenas). Workers steal whole shards; for every host-day of
 * a shard's hosts, @p host_day(host, day, spec, kind, acc) runs the
 * slice(s) and folds into acc[0..K). Returns the K merged aggregates.
 */
template <typename HostDay>
std::vector<FleetAggregate>
runShards(const FleetScenario &sc, const RunOptions &opts, size_t K,
          const HostDay &host_day)
{
    // Resolve the execution layout. None of it affects any
    // aggregated byte — only scheduling granularity.
    unsigned jobs = opts.jobs == 0
                        ? std::max(
                              1u,
                              std::thread::hardware_concurrency())
                        : opts.jobs;
    unsigned shards = opts.shards != 0 ? opts.shards : sc.shards;
    if (shards == 0)
        shards = jobs * 8;
    shards = std::max(1u, std::min(shards, std::max(1u, sc.hosts)));
    jobs = std::min(jobs, shards);

    // Per-shard arenas, constructed up front: the fold path inside
    // the workers performs no heap allocation.
    std::vector<ShardAccumulator> accs;
    accs.reserve(static_cast<size_t>(shards) * K);
    for (size_t i = 0; i < static_cast<size_t>(shards) * K; ++i)
        accs.emplace_back(sc.days);

    // Shard s owns the contiguous host range [lo(s), lo(s+1)).
    auto shard_lo = [&](unsigned s) {
        return static_cast<unsigned>(
            static_cast<uint64_t>(s) * sc.hosts / shards);
    };

    auto run_shard = [&](unsigned s) {
        ShardAccumulator *acc = &accs[static_cast<size_t>(s) * K];
        const unsigned lo = shard_lo(s);
        const unsigned hi = shard_lo(s + 1);
        for (unsigned h = lo; h < hi; ++h) {
            const device::SsdSpec &spec =
                sc.devices[sc.deviceIndexFor(h) %
                           sc.devices.size()]
                    .spec;
            const WorkloadKind kind = sc.workloadFor(h);
            for (unsigned day = 0; day < sc.days; ++day) {
                if (day == sc.throwAtDay && h == sc.throwAtHost) {
                    throw std::runtime_error(
                        "fleet: injected slice failure at day " +
                        std::to_string(day) + " host " +
                        std::to_string(h));
                }
                host_day(h, day, spec, kind, acc);
            }
        }
        for (size_t k = 0; k < K; ++k)
            acc[k].finalizeSeries();
    };

    // Workers steal whole shards. Exception boundary: a throwing
    // slice poisons only its shard, the remaining shards still
    // drain, and the lowest-indexed failed shard's exception is
    // rethrown after the join, whatever the worker scheduling.
    host::runIndexed(shards, jobs, [&](size_t s) {
        run_shard(static_cast<unsigned>(s));
    });

    // Deterministic binary-tree merge by shard index, per slot.
    // Every merged quantity is exact, so this yields bit-identical
    // state no matter how the tree is shaped — the fixed shape just
    // makes the reduction O(log shards) deep.
    for (unsigned stride = 1; stride < shards; stride *= 2) {
        for (unsigned i = 0; i + stride < shards; i += 2 * stride) {
            for (size_t k = 0; k < K; ++k) {
                accs[static_cast<size_t>(i) * K + k].mergeFrom(
                    accs[(static_cast<size_t>(i) + stride) * K +
                         k]);
            }
        }
    }
    std::vector<FleetAggregate> out;
    out.reserve(K);
    for (size_t k = 0; k < K; ++k)
        out.push_back(accs[k].finish(sc.hosts, shards, jobs));
    return out;
}

} // namespace

FleetAggregate
FleetSim::runScenario(const FleetScenario &sc,
                      const RunOptions &opts,
                      std::vector<HostDayOutcome> *outcomes_out)
{
    if (outcomes_out != nullptr) {
        outcomes_out->clear();
        outcomes_out->resize(static_cast<size_t>(sc.days) *
                             sc.hosts);
    }
    auto host_day = [&](unsigned h, unsigned day,
                        const device::SsdSpec &spec,
                        WorkloadKind kind, ShardAccumulator *acc) {
        const bool on_iocost = day >= sc.migrationDay(h);
        HostDayOutcome out =
            runHostDay(sc, spec, kind,
                       on_iocost ? "iocost" : "iolatency",
                       sc.hostDaySeed(day, h));
        acc[0].fold(day, on_iocost, out);
        if (outcomes_out != nullptr) {
            (*outcomes_out)[static_cast<size_t>(day) * sc.hosts + h] =
                std::move(out);
        }
    };
    return std::move(runShards(sc, opts, 1, host_day).front());
}

SweepView
FleetSim::runScenarioView(const FleetScenario &sc,
                          const RunOptions &opts)
{
    SweepView view;
    view.labels = sc.sweep;
    if (sc.sweep.empty()) {
        view.entries.push_back(
            AggregateView::from(runScenario(sc, opts)));
    } else {
        for (const FleetAggregate &agg : runScenarioSweep(sc, opts))
            view.entries.push_back(AggregateView::from(agg));
    }
    return view;
}

std::vector<FleetAggregate>
FleetSim::runScenarioSweep(const FleetScenario &sc,
                           const RunOptions &opts)
{
    const size_t K = sc.sweep.size();
    if (K == 0) {
        throw std::invalid_argument(
            "fleet sweep: scenario has no sweep entries");
    }
    if (sc.telemetry) {
        throw std::invalid_argument(
            "fleet sweep: telemetry capture not supported");
    }
    // Validate every entry before any worker runs, and cache which
    // mechanism each one is (decides the summary slot below).
    std::vector<bool> is_iocost(K);
    for (size_t c = 0; c < K; ++c) {
        std::optional<controllers::ControllerSpec> parsed =
            controllers::parseControllerSpec(sc.sweep[c]);
        if (!parsed) {
            throw std::invalid_argument(
                "fleet sweep: bad controller spec: " + sc.sweep[c]);
        }
        is_iocost[c] = parsed->name == "iocost";
    }

    // A host-day here is K slices, but shard granularity stays
    // per-host.
    auto host_day = [&](unsigned h, unsigned day,
                        const device::SsdSpec &spec,
                        WorkloadKind kind, ShardAccumulator *acc) {
        // One seed for all K configs: the paired-run CRN.
        const uint64_t seed = sc.hostDaySeed(day, h);
        for (size_t c = 0; c < K; ++c) {
            acc[c].fold(day, is_iocost[c],
                        runHostDay(sc, spec, kind, sc.sweep[c], seed));
        }
    };
    return runShards(sc, opts, K, host_day);
}

} // namespace iocost::fleet
