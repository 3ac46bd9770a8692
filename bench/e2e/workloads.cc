#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <thread>

#include "controllers/factory.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "fleet/fleet_aggregate.hh"
#include "fleet/fleet_scenario.hh"
#include "fleet/fleet_sim.hh"
#include "host/host.hh"
#include "host/sweep.hh"
#include "profile/device_profiler.hh"
#include "sim/rng.hh"
#include "whatif/query.hh"
#include "whatif/service.hh"
#include "workload/buffered_io.hh"
#include "workload/fio_workload.hh"

namespace iocost::e2e {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(q * static_cast<double>(v.size()))),
        1, v.size());
    return v[rank - 1];
}

namespace {

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Requests are simulated steps of this length on the host-level
 *  workloads: the granularity a monitor or a what-if replay advances
 *  a host by. */
constexpr sim::Time kStep = 100 * sim::kMsec;

/** The device-profile cost model, timing the profiling pass. */
core::CostModel
profiledModel(const device::SsdSpec &spec, double &ms)
{
    const auto t0 = Clock::now();
    const auto &prof = profile::DeviceProfiler::profileSsd(spec);
    ms += 1e3 * secondsSince(t0);
    return core::CostModel::fromConfig(prof.model);
}

/** One cgroup's simulated outcome, appended to a digest text. */
void
appendCgroup(std::string &out, const std::string &name,
             const blk::CgroupIoStats &st)
{
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%s ios=%" PRIu64 " bytes=%" PRIu64 " p50=%" PRId64
                  " p99=%" PRId64 "\n",
                  name.c_str(), st.reads + st.writes,
                  st.readBytes + st.writeBytes,
                  st.totalLatency.quantile(0.5),
                  st.totalLatency.quantile(0.99));
    out += buf;
}

void
appendVrate(std::string &out, double vrate)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "vrate=%.17g\n", vrate);
    out += buf;
}

// ---------------------------------------------------------------
// saturate / buffered: one host, restored to its warm snapshot
// before every repetition.
// ---------------------------------------------------------------

class HostWorkload : public Workload
{
  public:
    HostWorkload(const Options &o, Tracer *tracer, bool buffered)
        : tracer_(tracer), buffered_(buffered), sim_(o.seed)
    {
        const device::SsdSpec spec = device::enterpriseSsd();
        const core::CostModel model = profiledModel(spec, profileMs_);

        host::HostOptions ho;
        ho.controller = "none";
        if (buffered_) {
            ho.enablePageCache = true;
            ho.pageCacheConfig.cacheBytes = 256ull << 20;
            ho.pageCacheConfig.dirtyRatio = 0.20;
            ho.pageCacheConfig.dirtyBackgroundRatio = 0.10;
        }
        std::unique_ptr<blk::BlockDevice> dev =
            std::make_unique<device::SsdModel>(sim_, spec);
        if (tracer_) {
            auto timed =
                std::make_unique<TimedDevice>(std::move(dev), *tracer_);
            timedDevice_ = timed.get();
            dev = std::move(timed);
        }
        host_ = std::make_unique<host::Host>(sim_, std::move(dev), ho);

        // Identical assembly in both modes: the host is built, then
        // the controller is installed — wrapped only when traced.
        controllers::ControllerSpec ctl_spec("iocost");
        ctl_spec.iocost.model = model;
        std::unique_ptr<blk::IoController> ctl =
            controllers::makeController(ctl_spec);
        iocost_ = static_cast<core::IoCost *>(ctl.get());
        if (tracer_)
            ctl = std::make_unique<TimedController>(std::move(ctl),
                                                    *tracer_);
        host_->layer().setController(std::move(ctl));

        if (buffered_)
            buildBuffered();
        else
            buildSaturate();

        steps_ = buffered_ ? (o.smoke ? 12 : 1500) : (o.smoke ? 2 : 120);
        const sim::Time warm =
            buffered_ ? 2 * sim::kSec : 500 * sim::kMsec;
        sim_.runUntil(o.smoke ? warm / 5 : warm);
        warmEnd_ = sim_.now();
        warm_ = host_->snapshot();
    }

    RepResult
    rep(unsigned) override
    {
        host_->restore(warm_);
        blk::BlockLayer &layer = host_->layer();
        const uint64_t done0 = layer.completed();
        const uint64_t bad0 = layer.failedBios() + layer.deviceErrors();
        const uint64_t merged0 = layer.mergedBios();
        const size_t plans0 = iocost_->vrateSeries().size();
        const IocostTotals ioc0 = iocostTotals();
        const CacheTotals cache0 = cacheTotals();

        RepResult r;
        r.requestMs.reserve(steps_);
        for (unsigned s = 1; s <= steps_; ++s) {
            const auto t0 = Clock::now();
            {
                Span span(tracer_, SpanKind::Step, s);
                events_ += sim_.runUntil(warmEnd_ + s * kStep);
            }
            const double dt = secondsSince(t0);
            r.wallS += dt;
            r.requestMs.push_back(1e3 * dt);
        }
        r.ops = layer.completed() - done0;
        r.failed = layer.failedBios() + layer.deviceErrors() - bad0;
        r.digest = fnv1a(digestText());

        ++reps_;
        ops_ += r.ops;
        merged_ += layer.mergedBios() - merged0;
        plans_ += iocost_->vrateSeries().size() - plans0;
        const IocostTotals ioc1 = iocostTotals();
        waitUs_ += ioc1.waitUs - ioc0.waitUs;
        indebtUs_ += ioc1.indebtUs - ioc0.indebtUs;
        const CacheTotals cache1 = cacheTotals();
        wbBytes_ += cache1.wbBytes - cache0.wbBytes;
        stalls_ += cache1.stalls - cache0.stalls;
        fsyncs_ += cache1.fsyncs - cache0.fsyncs;
        return r;
    }

    void
    layerMetrics(LayerValues &out) override
    {
        const double reps = static_cast<double>(reps_);
        const double ops = static_cast<double>(ops_);
        out["sim.events"] = ratio(static_cast<double>(events_), reps);
        out["sim.events_per_bio"] =
            ratio(static_cast<double>(events_), ops);
        out["blk.merged_bios"] = ratio(static_cast<double>(merged_), reps);
        out["core.plan_passes"] = ratio(static_cast<double>(plans_), reps);
        out["core.throttle_wait_sim_s"] =
            ratio(static_cast<double>(waitUs_) / 1e6, reps);
        out["core.indebt_sim_s"] =
            ratio(static_cast<double>(indebtUs_) / 1e6, reps);
        out["mm.wb_bytes"] = ratio(static_cast<double>(wbBytes_), reps);
        out["mm.dirty_stalls"] = ratio(static_cast<double>(stalls_), reps);
        out["mm.fsyncs"] = ratio(static_cast<double>(fsyncs_), reps);
        if (tracer_) {
            const Tracer &t = *tracer_;
            out["sim.residual_ns_per_bio"] =
                ratio(static_cast<double>(t.totals(SpanKind::Step).selfNs),
                      ops);
            out["blk.complete_self_ns_per_bio"] = ratio(
                static_cast<double>(t.totals(SpanKind::DevComplete).selfNs),
                ops);
            out["core.submit_ns"] = selfPerCall(t, SpanKind::CtlSubmit);
            out["core.complete_ns"] = selfPerCall(t, SpanKind::CtlComplete);
            out["device.submit_ns"] = selfPerCall(t, SpanKind::DevSubmit);
            out["device.accept_ratio"] = ratio(
                static_cast<double>(timedDevice_->accepted()),
                static_cast<double>(timedDevice_->attempts()));
            out["device.wb_bios"] = ratio(
                static_cast<double>(timedDevice_->wbAccepted()), reps);
        }
        snapshotProbe(out);
    }

  private:
    struct IocostTotals
    {
        uint64_t waitUs = 0;
        uint64_t indebtUs = 0;
    };

    struct CacheTotals
    {
        uint64_t wbBytes = 0;
        uint64_t stalls = 0;
        uint64_t fsyncs = 0;
    };

    static double
    selfPerCall(const Tracer &t, SpanKind k)
    {
        const SpanTotals &s = t.totals(k);
        return ratio(static_cast<double>(s.selfNs),
                     static_cast<double>(s.count));
    }

    cgroup::CgroupId
    addJob(const std::string &name, uint32_t weight)
    {
        const cgroup::CgroupId cg = host_->addWorkload(name, weight);
        cgs_.emplace_back(name, cg);
        return cg;
    }

    /** Two saturating 4k random readers, weights 2:1 (fig9/fig10). */
    void
    buildSaturate()
    {
        for (unsigned j = 0; j < 2; ++j) {
            workload::FioConfig cfg;
            cfg.iodepth = 64;
            cfg.offsetBase = static_cast<uint64_t>(j) << 40;
            const auto cg = addJob(j ? "batch" : "web", j ? 100 : 200);
            fio_.push_back(std::make_unique<workload::FioWorkload>(
                sim_, host_->layer(), cg, cfg));
        }
        for (auto &w : fio_) {
            host_->track(*w);
            w->start();
        }
    }

    /** A direct open-loop reader beside a buffered dirtier and an
     *  fsync storm whose writeback takes iocost's debt path. */
    void
    buildBuffered()
    {
        workload::FioConfig rd;
        rd.arrival = workload::Arrival::Rate;
        rd.ratePerSec = 50000;
        fio_.push_back(std::make_unique<workload::FioWorkload>(
            sim_, host_->layer(), addJob("reader", 200), rd));

        workload::BufferedConfig dirtier;
        dirtier.name = "dirtier";
        dirtier.blockSize = 64 * 1024;
        dirtier.offsetBase = 1ull << 40;
        buf_.push_back(std::make_unique<workload::BufferedWorkload>(
            sim_, host_->pageCache(), addJob("dirtier", 100), dirtier));

        workload::BufferedConfig storm;
        storm.name = "fsync-storm";
        storm.blockSize = 4096;
        storm.randomFraction = 1.0;
        storm.spanBytes = 256ull << 20;
        storm.fsyncEvery = 16;
        storm.offsetBase = 2ull << 40;
        buf_.push_back(std::make_unique<workload::BufferedWorkload>(
            sim_, host_->pageCache(), addJob("fsync-storm", 100), storm));

        for (auto &w : fio_)
            host_->track(*w);
        for (auto &w : buf_)
            host_->track(*w);
        for (auto &w : fio_)
            w->start();
        for (auto &w : buf_)
            w->start();
    }

    IocostTotals
    iocostTotals() const
    {
        IocostTotals t;
        for (const auto &[name, cg] : cgs_) {
            const core::IoCost::IocgStat s = iocost_->stat(cg);
            t.waitUs += s.waitUs;
            t.indebtUs += s.indebtUs;
        }
        return t;
    }

    CacheTotals
    cacheTotals() const
    {
        CacheTotals t;
        if (!buffered_)
            return t;
        for (const auto &[name, cg] : cgs_) {
            const mm::CacheCgroupStats &s = host_->pageCache().stats(cg);
            t.wbBytes += s.wbIssuedBytes;
            t.stalls += s.throttleStalls;
            t.fsyncs += s.fsyncs;
        }
        return t;
    }

    std::string
    digestText() const
    {
        std::string out;
        for (const auto &[name, cg] : cgs_) {
            appendCgroup(out, name, host_->layer().stats(cg));
            if (buffered_) {
                const mm::CacheCgroupStats &s =
                    host_->pageCache().stats(cg);
                char buf[160];
                std::snprintf(buf, sizeof buf,
                              " wb=%" PRIu64 " cleaned=%" PRIu64
                              " fsyncs=%" PRIu64 " stalls=%" PRIu64 "\n",
                              s.wbIssuedBytes, s.cleanedBytes, s.fsyncs,
                              s.throttleStalls);
                out += buf;
            }
        }
        appendVrate(out, iocost_->vrate());
        return out;
    }

    /** Snapshot and restore cost on this host (20 calls each); the
     *  host is left at its warm state. */
    void
    snapshotProbe(LayerValues &out)
    {
        constexpr int kCalls = 20;
        host_->restore(warm_);
        sim_.runUntil(warmEnd_ + kStep);
        size_t bytes = 0;
        auto t0 = Clock::now();
        for (int i = 0; i < kCalls; ++i)
            bytes = host_->snapshot().byteSize();
        out["host.snapshot_ms"] = 1e3 * secondsSince(t0) / kCalls;
        out["host.snapshot_bytes"] = static_cast<double>(bytes);
        const host::HostSnapshot snap = host_->snapshot();
        t0 = Clock::now();
        for (int i = 0; i < kCalls; ++i)
            host_->restore(snap);
        out["host.restore_ms"] = 1e3 * secondsSince(t0) / kCalls;
        host_->restore(warm_);
    }

    Tracer *tracer_;
    bool buffered_;
    sim::Simulator sim_;
    std::unique_ptr<host::Host> host_;
    core::IoCost *iocost_ = nullptr;
    TimedDevice *timedDevice_ = nullptr;
    std::vector<std::pair<std::string, cgroup::CgroupId>> cgs_;
    std::vector<std::unique_ptr<workload::FioWorkload>> fio_;
    std::vector<std::unique_ptr<workload::BufferedWorkload>> buf_;
    host::HostSnapshot warm_;
    sim::Time warmEnd_ = 0;
    unsigned steps_ = 0;

    uint64_t reps_ = 0;
    uint64_t ops_ = 0;
    uint64_t events_ = 0;
    uint64_t merged_ = 0;
    uint64_t plans_ = 0;
    uint64_t waitUs_ = 0;
    uint64_t indebtUs_ = 0;
    uint64_t wbBytes_ = 0;
    uint64_t stalls_ = 0;
    uint64_t fsyncs_ = 0;
};

// ---------------------------------------------------------------
// sweep8: a K=8 single-pass sweep, rebuilt by runSweep every
// repetition.
// ---------------------------------------------------------------

class SweepWorkload : public Workload
{
  public:
    SweepWorkload(const Options &o, Tracer *tracer)
        : tracer_(tracer), seed_(o.seed), steps_(o.smoke ? 8 : 600)
    {
        const core::CostModel model =
            profiledModel(device::enterpriseSsd(), profileMs_);
        for (const char *clamp : {"min=100 max=100", "min=25 max=25"}) {
            for (const char *period :
                 {"50000", "100000", "200000", "400000"}) {
                opts_.specs.push_back(std::string("iocost ") + clamp +
                                      " period=" + period);
            }
        }
        opts_.makeDevice = [](sim::Simulator &sim) {
            return std::make_unique<device::SsdModel>(
                sim, device::enterpriseSsd());
        };
        opts_.reserveBios = static_cast<size_t>(steps_) * 2400;
        opts_.tweakSpec = [model](const std::string &,
                                  controllers::ControllerSpec &spec) {
            spec.iocost.model = model;
        };
    }

    RepResult
    rep(unsigned) override
    {
        RepResult r;
        const Run run = runOnce(opts_, &r.requestMs);
        r.wallS = run.wallS;
        r.ops = run.laneBios;
        r.failed = run.failed;
        r.digest = fnv1a(run.text);
        ++reps_;
        ops_ += r.ops;
        events_ += run.events;
        plans_ += run.plans;
        waitUs_ += run.waitUs;
        indebtUs_ += run.indebtUs;
        fusedFraction_ = run.fusedFraction;
        return r;
    }

    void
    layerMetrics(LayerValues &out) override
    {
        const double reps = static_cast<double>(reps_);
        const double ops = static_cast<double>(ops_);
        out["sim.events"] = ratio(static_cast<double>(events_), reps);
        out["sim.events_per_bio"] =
            ratio(static_cast<double>(events_), ops);
        out["core.plan_passes"] = ratio(static_cast<double>(plans_), reps);
        out["core.throttle_wait_sim_s"] =
            ratio(static_cast<double>(waitUs_) / 1e6, reps);
        out["core.indebt_sim_s"] =
            ratio(static_cast<double>(indebtUs_) / 1e6, reps);
        out["host.fused_fraction"] = fusedFraction_;
        if (tracer_) {
            // No decorator reaches inside runSweep, so the whole step
            // is residual here.
            out["sim.residual_ns_per_bio"] = ratio(
                static_cast<double>(tracer_->totals(SpanKind::Step).selfNs),
                ops);
        }

        // The same stream at K=1 (a plain host), K=8 fused and K=8
        // with every lane on the full path.
        host::SweepOptions k1 = opts_;
        k1.specs.resize(1);
        const Run plain = runOnce(k1, nullptr);
        const Run fused = runOnce(opts_, nullptr);
        host::SweepOptions full_opts = opts_;
        full_opts.fusedObserver = false;
        const Run full = runOnce(full_opts, nullptr);
        if (full.text != fused.text)
            violation("sweep8: full-lane outputs differ from fused");
        const double lane_bios = static_cast<double>(fused.laneBios);
        out["host.generator_ns_per_bio"] =
            ratio(1e9 * plain.wallS, static_cast<double>(plain.laneBios));
        out["host.lane_ns_per_bio"] =
            ratio(1e9 * (fused.wallS - plain.wallS), lane_bios);
        out["host.full_lane_ns_per_bio"] =
            ratio(1e9 * (full.wallS - plain.wallS), lane_bios);
    }

  private:
    struct Run
    {
        double wallS = 0.0;
        uint64_t laneBios = 0;
        uint64_t failed = 0;
        uint64_t events = 0;
        uint64_t plans = 0;
        uint64_t waitUs = 0;
        uint64_t indebtUs = 0;
        double fusedFraction = 0.0;
        std::string text;
    };

    struct LaneResult
    {
        std::string text;
        uint64_t failed = 0;
        uint64_t plans = 0;
        uint64_t waitUs = 0;
        uint64_t indebtUs = 0;
    };

    /** A 20k/s 4k reader against a 3000/s 64K bulk writer, both open
     *  loop, so every lane sees the same submission stream. */
    Run
    runOnce(const host::SweepOptions &opts, std::vector<double> *steps)
    {
        Run run;
        uint64_t gen_bios = 0;
        auto body = [&](sim::Simulator &sim, host::SweepRunner &runner) {
            runner.addWorkload("app", 200);
            runner.addWorkload("bulk", 100);
            const auto &cgs = runner.workloadCgroups();
            workload::FioConfig app_cfg;
            app_cfg.arrival = workload::Arrival::Rate;
            app_cfg.ratePerSec = 20000;
            workload::FioWorkload app(sim, runner.layer(), cgs[0].second,
                                      app_cfg);
            workload::FioConfig bulk_cfg;
            bulk_cfg.readFraction = 0.0;
            bulk_cfg.blockSize = 64 * 1024;
            bulk_cfg.arrival = workload::Arrival::Rate;
            bulk_cfg.ratePerSec = 3000;
            bulk_cfg.offsetBase = 1ull << 40;
            workload::FioWorkload bulk(sim, runner.layer(), cgs[1].second,
                                       bulk_cfg);
            app.start();
            bulk.start();
            for (unsigned s = 1; s <= steps_; ++s) {
                const auto t0 = Clock::now();
                {
                    Span span(steps ? tracer_ : nullptr, SpanKind::Step, s);
                    run.events += sim.runUntil(s * kStep);
                }
                if (steps)
                    steps->push_back(1e3 * secondsSince(t0));
            }
            gen_bios = runner.layer().completed();
            if (const host::FusedObserver *obs = runner.fusedObserver())
                run.fusedFraction = obs->fusedFraction();
        };
        auto collect = [](host::SweepRunner &runner, size_t lane,
                          size_t) {
            LaneResult lr;
            blk::BlockLayer &layer = runner.laneLayer(lane);
            core::IoCost *ioc = runner.laneIocost(lane);
            lr.text = runner.spec(lane) + "\n";
            for (const auto &[name, cg] : runner.workloadCgroups()) {
                appendCgroup(lr.text, name, layer.stats(cg));
                const core::IoCost::IocgStat s = ioc->stat(cg);
                lr.waitUs += s.waitUs;
                lr.indebtUs += s.indebtUs;
            }
            appendVrate(lr.text, ioc->vrate());
            lr.failed = layer.failedBios() + layer.deviceErrors();
            lr.plans = ioc->vrateSeries().size();
            return lr;
        };

        const auto t0 = Clock::now();
        const std::vector<LaneResult> lanes =
            host::runSweep(opts, seed_, 1, body, collect);
        run.wallS = secondsSince(t0);
        for (const LaneResult &lr : lanes) {
            run.text += lr.text;
            run.failed += lr.failed;
            run.plans += lr.plans;
            run.waitUs += lr.waitUs;
            run.indebtUs += lr.indebtUs;
        }
        run.laneBios = gen_bios * lanes.size();
        return run;
    }

    Tracer *tracer_;
    uint64_t seed_;
    unsigned steps_;
    host::SweepOptions opts_;

    uint64_t reps_ = 0;
    uint64_t ops_ = 0;
    uint64_t events_ = 0;
    uint64_t plans_ = 0;
    uint64_t waitUs_ = 0;
    uint64_t indebtUs_ = 0;
    double fusedFraction_ = 0.0;
};

// ---------------------------------------------------------------
// fleet10k: the sharded fleet engine over perf_fleet's
// engine-overhead scenario.
// ---------------------------------------------------------------

class FleetWorkload : public Workload
{
  public:
    FleetWorkload(const Options &o, Tracer *tracer)
        : tracer_(tracer), jobs_(o.threads), smoke_(o.smoke)
    {
        sc_ = scenario(o.smoke ? 200 : 10000, o.smoke ? 1 : 2, o.seed);
        for (const auto &d : sc_.devices)
            profiledModel(d.spec, profileMs_);
    }

    RepResult
    rep(unsigned) override
    {
        fleet::RunOptions ro;
        ro.jobs = jobs_;
        const auto t0 = Clock::now();
        const fleet::FleetAggregate agg =
            fleet::FleetSim::runScenario(sc_, ro);
        RepResult r;
        r.wallS = secondsSince(t0);
        r.requestMs.push_back(1e3 * r.wallS);
        r.ops = agg.hostDays;
        if (agg.hostDays != static_cast<uint64_t>(sc_.hosts) * sc_.days)
            violation("fleet10k: hostDays != hosts x days");
        // The execution layout is informational and machine
        // dependent; the digest covers only the aggregated outcome.
        fleet::AggregateView view = fleet::AggregateView::from(agg);
        view.shards = 0;
        view.jobs = 0;
        char *buf = nullptr;
        size_t len = 0;
        FILE *mem = open_memstream(&buf, &len);
        fleet::writeAggregateJson(view, mem);
        std::fclose(mem);
        r.digest = fnv1a(std::string(buf, len));
        std::free(buf);
        walls_.push_back(r.wallS);
        return r;
    }

    void
    layerMetrics(LayerValues &out) override
    {
        // Sequential host-days over a 1-in-10 host sample.
        std::vector<double> all, ioc, iolat;
        double total_s = 0.0;
        for (unsigned h = 0; h < sc_.hosts; h += 10) {
            const device::SsdSpec &spec =
                sc_.devices[sc_.deviceIndexFor(h) % sc_.devices.size()]
                    .spec;
            const fleet::WorkloadKind kind = sc_.workloadFor(h);
            for (unsigned day = 0; day < sc_.days; ++day) {
                const bool on_iocost = day >= sc_.migrationDay(h);
                const auto t0 = Clock::now();
                {
                    Span span(tracer_, SpanKind::HostDay,
                              static_cast<uint64_t>(day) * sc_.hosts + h);
                    fleet::FleetSim::runHostDay(
                        sc_, spec, kind, on_iocost ? "iocost" : "iolatency",
                        sc_.hostDaySeed(day, h));
                }
                const double s = secondsSince(t0);
                total_s += s;
                all.push_back(1e3 * s);
                (on_iocost ? ioc : iolat).push_back(1e3 * s);
            }
        }
        out["fleet.hostday_ms_p50"] = quantile(all, 0.5);
        out["fleet.hostday_ms_p90"] = quantile(all, 0.9);
        out["fleet.hostday_ms_iocost"] = mean(ioc);
        out["fleet.hostday_ms_iolatency"] = mean(iolat);
        const double host_days =
            static_cast<double>(sc_.hosts) * sc_.days;
        out["fleet.parallel_efficiency"] = ratio(
            ratio(total_s, static_cast<double>(all.size())) * host_days,
            jobs_ * quantile(walls_, 0.5));

        const fleet::FleetScenario small =
            scenario(smoke_ ? 100 : 1000, sc_.days, sc_.seed);
        fleet::RunOptions seq;
        seq.jobs = 1;
        fleet::RunOptions par;
        par.jobs = jobs_;
        auto t0 = Clock::now();
        fleet::FleetSim::runScenario(small, seq);
        const double seq_s = secondsSince(t0);
        t0 = Clock::now();
        fleet::FleetSim::runScenario(small, par);
        out["fleet.speedup_1k"] = ratio(seq_s, secondsSince(t0));
    }

  private:
    /** perf_fleet's engine-overhead scenario: tiny slices, so host
     *  assembly and shard scheduling dominate simulated IO. */
    static fleet::FleetScenario
    scenario(unsigned hosts, unsigned days, uint64_t seed)
    {
        return fleet::FleetScenario::parse(
            "hosts=" + std::to_string(hosts) +
            " days=" + std::to_string(days) +
            " seed=" + std::to_string(seed) +
            " migration=0..1:50"
            " devices=A:25,D:25,G:25,H:25"
            " workloads=mixed:50,writeheavy:30,readheavy:20"
            " slice=10ms warmup=10ms"
            " fetch=64K fetch_deadline=5ms"
            " cleanup=4 cleanup_io=4K cleanup_deadline=2ms");
    }

    Tracer *tracer_;
    unsigned jobs_;
    bool smoke_;
    fleet::FleetScenario sc_;
    std::vector<double> walls_;
};

// ---------------------------------------------------------------
// whatif: a closed-loop client against one what-if service.
// ---------------------------------------------------------------

class WhatifWorkload : public Workload
{
  public:
    WhatifWorkload(const Options &o, Tracer *tracer)
        : tracer_(tracer), seed_(o.seed), threads_(o.threads),
          fresh_(o.smoke ? 6 : 40), repeats_(o.smoke ? 2 : 8)
    {
        sc_ = whatif::Scenario::parse(
            o.smoke ? "device=newgen;seconds=2;marks=500ms,1s,1500ms"
                    : "device=newgen;seconds=8;marks=2s,4s,6s");

        // Device profiling happens inside the first replica build;
        // time it here so it is reported on its own.
        profiledModel(device::newGenSsd(), profileMs_);
        service_ = std::make_unique<whatif::Service>(sc_, threads_);
        // One warm-up query per worker, outstanding together, so
        // every worker builds its replica before the first rep.
        std::vector<std::future<std::string>> warm;
        for (unsigned i = 0; i < threads_; ++i) {
            warm.push_back(service_->submit(whatif::Query::parse(
                "{\"q\":\"weight\",\"cg\":\"batch\",\"value\":" +
                std::to_string(1000 + i) + "}")));
        }
        for (auto &f : warm)
            f.get();
    }

    bool repsIdentical() const override { return false; }

    RepResult
    rep(unsigned index) override
    {
        const std::vector<Planned> plan = planRep(index);
        RepResult r;
        r.requestMs.resize(plan.size());
        std::vector<std::string> docs(plan.size());
        std::vector<bool> done(plan.size(), false);

        struct InFlight
        {
            size_t idx;
            std::future<std::string> fut;
            Clock::time_point sent;
            int64_t sentNs;
        };
        std::vector<InFlight> inflight;
        // Poll the outstanding futures: the answer time is observed
        // within the poll interval whichever query finishes first.
        auto reap_one = [&] {
            for (;;) {
                for (size_t k = 0; k < inflight.size(); ++k) {
                    InFlight &f = inflight[k];
                    if (f.fut.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready)
                        continue;
                    docs[f.idx] = f.fut.get();
                    r.requestMs[f.idx] = 1e3 * secondsSince(f.sent);
                    if (tracer_) {
                        tracer_->complete(SpanKind::Query,
                                          queriesRun_ + f.idx, f.sentNs,
                                          tracer_->nowNs());
                    }
                    done[f.idx] = true;
                    inflight.erase(inflight.begin() +
                                   static_cast<std::ptrdiff_t>(k));
                    return;
                }
                std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
        };

        const auto t0 = Clock::now();
        for (size_t i = 0; i < plan.size(); ++i) {
            while (inflight.size() >= threads_)
                reap_one();
            // A repeat goes out once its original has been answered,
            // so it is always served from the result cache.
            if (plan[i].repeatOf >= 0) {
                while (!done[static_cast<size_t>(plan[i].repeatOf)])
                    reap_one();
            }
            InFlight f{i, {}, Clock::now(), tracer_ ? tracer_->nowNs() : 0};
            f.fut = service_->submit(plan[i].query);
            inflight.push_back(std::move(f));
        }
        while (!inflight.empty())
            reap_one();
        r.wallS = secondsSince(t0);

        std::string all;
        for (const std::string &d : docs) {
            if (d.rfind("{\"type\":\"whatif_error\"", 0) == 0)
                ++r.failed;
            all += d;
            all += '\n';
        }
        r.ops = plan.size();
        r.digest = fnv1a(all);
        queriesRun_ += plan.size();
        for (size_t i = 0; i < plan.size(); ++i) {
            if (plan[i].repeatOf < 0) {
                replaySimS_ += replayFrom(plan[i].query.from);
                ++freshRun_;
            }
        }
        if (index == 0) {
            firstDocs_ = std::move(docs);
            firstPlan_ = plan;
        }
        return r;
    }

    void
    layerMetrics(LayerValues &out) override
    {
        out["whatif.cache_hit_ratio"] =
            ratio(static_cast<double>(service_->cacheHits()),
                  static_cast<double>(queriesRun_));
        out["whatif.replay_sim_s_per_query"] =
            ratio(replaySimS_, static_cast<double>(freshRun_));

        auto t0 = Clock::now();
        whatif::Replica replica(sc_);
        out["whatif.replica_build_s"] = secondsSince(t0);
        out["whatif.checkpoint_bytes"] =
            static_cast<double>(replica.checkpointBytes());

        // Sequential branches over the first fresh queries of rep 0.
        const size_t sample = std::min<size_t>(fresh_, 15);
        std::vector<double> all;
        std::vector<double> by_kind[3];
        size_t taken = 0;
        for (size_t i = 0; i < firstPlan_.size() && taken < sample; ++i) {
            if (firstPlan_[i].repeatOf >= 0)
                continue;
            const whatif::Query &q = firstPlan_[i].query;
            t0 = Clock::now();
            {
                Span span(tracer_, SpanKind::Branch, taken);
                replica.branch(q);
            }
            const double ms = 1e3 * secondsSince(t0);
            all.push_back(ms);
            by_kind[static_cast<int>(q.kind)].push_back(ms);
            ++taken;
        }
        out["whatif.branch_ms_p50"] = quantile(all, 0.5);
        out["whatif.branch_ms_p90"] = quantile(all, 0.9);
        out["whatif.branch_ms_weight"] =
            mean(by_kind[static_cast<int>(whatif::Query::Kind::Weight)]);
        out["whatif.branch_ms_fault"] =
            mean(by_kind[static_cast<int>(whatif::Query::Kind::Fault)]);
        out["whatif.branch_ms_device"] =
            mean(by_kind[static_cast<int>(whatif::Query::Kind::Device)]);

        // The determinism gate: one query of each kind answered cold
        // must match the service's branched answer byte for byte.
        bool seen[3] = {false, false, false};
        for (size_t i = 0; i < firstPlan_.size(); ++i) {
            const whatif::Query &q = firstPlan_[i].query;
            const int k = static_cast<int>(q.kind);
            if (firstPlan_[i].repeatOf >= 0 || seen[k])
                continue;
            seen[k] = true;
            if (whatif::Service::evaluateCold(sc_, q) != firstDocs_[i])
                violation("whatif: cold answer differs for " +
                          q.canonical());
        }
    }

  private:
    struct Planned
    {
        whatif::Query query;
        /** Index of the fresh query this one repeats, or -1. */
        int repeatOf = -1;
    };

    /**
     * Rep @p index's queries. Fresh ones are exactly 50% weight, 30%
     * fault and 20% device swap, with one branch point drawn in each
     * equal stratum of the run (across and between the marks), kinds
     * and strata paired at random: every rep carries about the same
     * replay work whatever the seed. Every sixth slot repeats an
     * earlier fresh query of the same rep. Fresh queries never recur
     * across reps.
     */
    std::vector<Planned>
    planRep(unsigned index)
    {
        using Kind = whatif::Query::Kind;
        sim::Rng rng(seed_ * 0x9e3779b97f4a7c15ull + index + 1);
        const uint64_t span_ms =
            static_cast<uint64_t>(sc_.duration() / sim::kMsec);
        std::vector<Kind> kinds;
        std::vector<uint64_t> froms;
        for (size_t i = 0; i < fresh_; ++i) {
            const size_t tenth = i * 10 / fresh_;
            kinds.push_back(tenth < 5   ? Kind::Weight
                            : tenth < 8 ? Kind::Fault
                                        : Kind::Device);
            froms.push_back((i * span_ms + rng.below(span_ms)) / fresh_);
        }
        auto shuffle = [&rng](auto &v) {
            for (size_t k = v.size(); k > 1; --k)
                std::swap(v[k - 1], v[rng.below(k)]);
        };
        shuffle(kinds);
        shuffle(froms);

        std::vector<Planned> plan;
        std::vector<int> fresh_idx;
        const size_t total = fresh_ + repeats_;
        for (size_t i = 0; i < total; ++i) {
            Planned p;
            const bool repeat = (i % 6 == 5) &&
                                plan.size() - fresh_idx.size() < repeats_;
            if (repeat || fresh_idx.size() == fresh_) {
                p.repeatOf = fresh_idx[rng.below(fresh_idx.size())];
                p.query = plan[static_cast<size_t>(p.repeatOf)].query;
                plan.push_back(std::move(p));
                continue;
            }
            const Kind kind = kinds[fresh_idx.size()];
            const uint64_t from = froms[fresh_idx.size()];
            for (;;) {
                std::string json;
                if (kind == Kind::Weight) {
                    json = std::string("{\"q\":\"weight\",\"cg\":\"") +
                           (rng.below(2) ? "web" : "batch") +
                           "\",\"value\":" +
                           std::to_string(25 + rng.below(900));
                } else if (kind == Kind::Fault) {
                    json = "{\"q\":\"fault\",\"spec\":\"lat@" +
                           std::to_string(from + rng.below(500)) + "ms+" +
                           std::to_string(200 + rng.below(800)) + "ms=" +
                           std::to_string(2 + rng.below(7)) + "\"";
                } else {
                    json = std::string("{\"q\":\"device\",\"profile\":\"") +
                           static_cast<char>('A' + rng.below(8)) + "\"";
                }
                json += ",\"from\":\"" + std::to_string(from) + "ms\"}";
                p.query = whatif::Query::parse(json);
                if (usedFresh_.insert(p.query.canonical()).second)
                    break;
            }
            fresh_idx.push_back(static_cast<int>(plan.size()));
            plan.push_back(std::move(p));
        }
        return plan;
    }

    /** Simulated seconds a branch at @p from replays: from the
     *  nearest checkpoint to the end of the run. */
    double
    replayFrom(sim::Time from) const
    {
        sim::Time mark = 0;
        for (sim::Time m : sc_.marks) {
            if (m <= from)
                mark = m;
        }
        return static_cast<double>(sc_.duration() - mark) / sim::kSec;
    }

    Tracer *tracer_;
    uint64_t seed_;
    unsigned threads_;
    size_t fresh_;
    size_t repeats_;
    whatif::Scenario sc_;
    std::unique_ptr<whatif::Service> service_;
    std::set<std::string> usedFresh_;
    uint64_t queriesRun_ = 0;
    uint64_t freshRun_ = 0;
    double replaySimS_ = 0.0;
    std::vector<Planned> firstPlan_;
    std::vector<std::string> firstDocs_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "saturate", "buffered", "sweep8", "fleet10k", "whatif"};
    return names;
}

std::unique_ptr<Workload>
setUp(const std::string &name, const Options &opts, Tracer *tracer)
{
    if (name == "saturate")
        return std::make_unique<HostWorkload>(opts, tracer, false);
    if (name == "buffered")
        return std::make_unique<HostWorkload>(opts, tracer, true);
    if (name == "sweep8")
        return std::make_unique<SweepWorkload>(opts, tracer);
    if (name == "fleet10k")
        return std::make_unique<FleetWorkload>(opts, tracer);
    if (name == "whatif")
        return std::make_unique<WhatifWorkload>(opts, tracer);
    throw std::invalid_argument("unknown workload: " + name);
}

} // namespace iocost::e2e
