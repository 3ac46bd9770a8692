/**
 * @file
 * Fused sweep observer: divergence/refusion byte-identity fuzz.
 *
 * The fused observer is an execution strategy, not a model change:
 * with the observer on, a sweep must produce byte-identical per-lane
 * results to the full-lane path for every K, every --jobs value, and
 * every config order; coherent (never-throttling) lanes must in turn
 * match an independently built plain Host on the same seed. The fuzz
 * body drives lanes off the fused path and back again — bulk-writer
 * bursts against hard clamps (throttle forks), swap writes (debt
 * forks), and --faults error windows (error forks) on a seeded
 * random schedule, separated by quiet stretches long enough for
 * refusion at a planning boundary — and the telemetry stream proves
 * both transitions actually happened, so the equalities are not
 * vacuously comparing two always-fused (or never-fused) runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "blk/bio.hh"
#include "controllers/factory.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "host/host.hh"
#include "host/sweep.hh"
#include "stat/telemetry.hh"
#include "workload/fio_workload.hh"

namespace {

using namespace iocost;

/**
 * Everything a lane exposes, flattened for exact comparison: the
 * per-cgroup counters and byte totals plus the integer moments and
 * quantiles of both latency histograms. The histogram fields are
 * all-integer, so equality here is bit-equality of the accounting —
 * a deferred-merge bug that reorders or double-counts even one
 * completion shows up.
 */
std::vector<int64_t>
laneSignature(host::SweepRunner &runner, size_t lane)
{
    std::vector<int64_t> sig;
    auto hist = [&sig](const stat::Histogram &h) {
        sig.push_back(static_cast<int64_t>(h.count()));
        sig.push_back(h.total());
        sig.push_back(h.minValue());
        sig.push_back(h.maxValue());
        sig.push_back(h.quantile(0.50));
        sig.push_back(h.quantile(0.99));
    };
    for (const auto &named : runner.workloadCgroups()) {
        const blk::CgroupIoStats &st =
            runner.laneLayer(lane).stats(named.second);
        sig.push_back(static_cast<int64_t>(st.reads));
        sig.push_back(static_cast<int64_t>(st.writes));
        sig.push_back(static_cast<int64_t>(st.readBytes));
        sig.push_back(static_cast<int64_t>(st.writeBytes));
        sig.push_back(static_cast<int64_t>(st.errors));
        sig.push_back(static_cast<int64_t>(st.retries));
        sig.push_back(static_cast<int64_t>(st.timeouts));
        sig.push_back(static_cast<int64_t>(st.failures));
        hist(st.totalLatency);
        hist(st.deviceLatency);
    }
    return sig;
}

/**
 * The divergence fuzz body. A steady reader keeps every lane
 * submitting; a bulk writer turns on and off on a seeded schedule
 * (hard-clamped lanes queue during bursts and drain during gaps);
 * swap writes land at seeded instants (forced issues build absDebt
 * in every iocost lane). Burst lengths stay short of the quiet gaps
 * so throttled lanes reconverge between bursts instead of queueing
 * for the whole run.
 */
void
fuzzBody(sim::Simulator &sim, host::SweepRunner &runner,
         uint64_t schedule_seed)
{
    const auto app = runner.addWorkload("app", 200);
    const auto bulk = runner.addWorkload("bulk", 100);

    workload::FioConfig app_cfg;
    app_cfg.arrival = workload::Arrival::Rate;
    app_cfg.ratePerSec = 4000;
    workload::FioWorkload reader(sim, runner.layer(), app, app_cfg);

    workload::FioConfig bulk_cfg;
    bulk_cfg.readFraction = 0.0;
    bulk_cfg.blockSize = 64 * 1024;
    bulk_cfg.arrival = workload::Arrival::Rate;
    bulk_cfg.ratePerSec = 600;
    workload::FioWorkload burst(sim, runner.layer(), bulk,
                                bulk_cfg);

    reader.start();

    std::mt19937_64 rng(schedule_seed);
    const sim::Time horizon = 2400 * sim::kMsec;
    sim::Time t = 200 * sim::kMsec;
    bool burst_on = false;
    while (t < horizon) {
        if (!burst_on) {
            sim.at(t, [&burst] { burst.start(); });
            t += (80 + rng() % 160) * sim::kMsec;
        } else {
            sim.at(t, [&burst] { burst.stop(); });
            t += (250 + rng() % 350) * sim::kMsec;
        }
        burst_on = !burst_on;
    }
    if (burst_on)
        sim.at(t, [&burst] { burst.stop(); });

    for (int i = 0; i < 24; ++i) {
        const sim::Time when = (200 + rng() % 2200) * sim::kMsec;
        const uint64_t offset = (rng() % (1u << 20)) * 4096;
        sim.at(when, [&runner, bulk, offset] {
            blk::BioPtr bio = blk::Bio::make(blk::Op::Write, offset,
                                             64 * 1024, bulk);
            bio->swap = true;
            runner.layer().submit(std::move(bio));
        });
    }

    sim.runUntil(t + 400 * sim::kMsec);
    reader.stop();
    // Far past the stop point: the hard-clamped lanes must fully
    // drain their queues or the per-lane counters cannot agree.
    sim.runUntil(20 * sim::kSec);
    // Drained, every id's holders have let go — across forks,
    // refusions and error forks, fused or not. A leftover id is a
    // missed release (a doubled one panics inside the log).
    EXPECT_EQ(runner.serviceLog().live(), 0u);
}

/** Clamp ladder + a foreign mechanism + a second planning period:
 *  throttle forks, a never-fusable lane, and two plan groups. */
const std::vector<std::string> kFuzzSpecs = {
    "iocost min=100 max=100",
    "iocost min=50 max=50",
    "iocost min=10 max=10",
    "iolatency",
    "iocost min=25 max=25 period=50000",
};

const char *kFuzzFaults = "err@400ms+300ms=0.25";

struct FuzzRun
{
    std::vector<std::vector<int64_t>> lanes;
    double fusedFraction = 0.0;
};

FuzzRun
runFuzz(std::vector<std::string> specs, unsigned jobs, bool fused,
        stat::TelemetrySink *sink = nullptr)
{
    host::SweepOptions opts;
    opts.specs = std::move(specs);
    opts.faults = kFuzzFaults;
    opts.fusedObserver = fused;
    opts.generatorSink = sink;
    opts.makeDevice = [](sim::Simulator &sim) {
        return std::make_unique<device::SsdModel>(
            sim, device::newGenSsd());
    };

    FuzzRun out;
    out.lanes = host::runSweep(
        std::move(opts), 1234, jobs,
        [](sim::Simulator &sim, host::SweepRunner &runner) {
            fuzzBody(sim, runner, 777);
        },
        [&out](host::SweepRunner &runner, size_t lane,
               size_t config) {
            // Groups collect on their own workers: only the group
            // holding config 0 writes the shared fraction.
            if (const host::FusedObserver *obs =
                    runner.fusedObserver();
                obs != nullptr && config == 0)
                out.fusedFraction = obs->fusedFraction();
            return laneSignature(runner, lane);
        });
    return out;
}

TEST(SweepFused, FuzzDivergenceRefusionByteIdentity)
{
    stat::RingSink sink;
    const FuzzRun fused = runFuzz(kFuzzSpecs, 1, true, &sink);
    const FuzzRun full = runFuzz(kFuzzSpecs, 1, false);
    ASSERT_EQ(fused.lanes.size(), kFuzzSpecs.size());
    ASSERT_EQ(full.lanes.size(), kFuzzSpecs.size());

    for (size_t k = 0; k < fused.lanes.size(); ++k)
        EXPECT_EQ(fused.lanes[k], full.lanes[k]) << "lane " << k;

    // Non-vacuity: the run must have exercised both paths. A
    // fraction of 1 means nothing ever forked (the fuzz lost its
    // teeth); 0 means nothing ever fused (the identity above is
    // trivially the full path compared to itself).
    EXPECT_GT(fused.fusedFraction, 0.05);
    EXPECT_LT(fused.fusedFraction, 0.95);

    // The per-period telemetry must show a fork (count drops) and a
    // later refusion (count rises again) — divergence alone could
    // just mean lanes fell off the fast path at t=0 and never came
    // back.
    std::vector<double> series;
    for (const stat::Record &r : sink.records()) {
        if (r.source == "sweep" && r.key == "fused_lanes")
            series.push_back(r.value);
    }
    ASSERT_GT(series.size(), 10u);
    bool forked = false, refused = false;
    for (size_t i = 1; i < series.size(); ++i) {
        if (series[i] < series[i - 1])
            forked = true;
        else if (forked && series[i] > series[i - 1])
            refused = true;
    }
    EXPECT_TRUE(forked) << "no planning period ever lost a lane";
    EXPECT_TRUE(refused) << "no diverged lane ever re-fused";
}

TEST(SweepFused, EveryKMatchesFullLanePath)
{
    // Prefixes of the fuzz ladder: K = 2 (one clamp), K = 3 (hard
    // throttle), K = 4 (foreign mechanism), K = 5 (second plan
    // group). K = 1 is the degenerate plain path, covered by
    // test_sweep.
    for (size_t k = 2; k <= kFuzzSpecs.size(); ++k) {
        const std::vector<std::string> specs(
            kFuzzSpecs.begin(),
            kFuzzSpecs.begin() + static_cast<long>(k));
        const FuzzRun fused = runFuzz(specs, 1, true);
        const FuzzRun full = runFuzz(specs, 1, false);
        ASSERT_EQ(fused.lanes.size(), k);
        for (size_t c = 0; c < k; ++c)
            EXPECT_EQ(fused.lanes[c], full.lanes[c])
                << "K=" << k << " lane " << c;
    }
}

TEST(SweepFused, JobsPartitionInvariance)
{
    const FuzzRun one = runFuzz(kFuzzSpecs, 1, true);
    for (unsigned jobs : {2u, 3u, 5u}) {
        const FuzzRun part = runFuzz(kFuzzSpecs, jobs, true);
        ASSERT_EQ(part.lanes.size(), one.lanes.size());
        for (size_t c = 0; c < one.lanes.size(); ++c)
            EXPECT_EQ(part.lanes[c], one.lanes[c])
                << "jobs=" << jobs << " config " << c;
    }
}

TEST(SweepFused, ConfigOrderInvariance)
{
    std::vector<std::string> rev(kFuzzSpecs.rbegin(),
                                 kFuzzSpecs.rend());
    const FuzzRun fwd = runFuzz(kFuzzSpecs, 1, true);
    const FuzzRun bwd = runFuzz(std::move(rev), 1, true);
    ASSERT_EQ(fwd.lanes.size(), bwd.lanes.size());
    const size_t n = fwd.lanes.size();
    for (size_t c = 0; c < n; ++c)
        EXPECT_EQ(fwd.lanes[c], bwd.lanes[n - 1 - c])
            << "config " << c;
}

TEST(SweepFused, CoherentLanesMatchPlainHosts)
{
    // Never-binding clamps with distinct planning periods: every
    // lane stays in lockstep, so each must reproduce a plain Host
    // built from the same spec and seed — the sweep's shared device
    // stream is then exactly the stream each host would have drawn
    // on its own. Merging is forced off on the plain hosts because
    // shadow lanes never merge; everything else is the stock stack.
    const std::vector<std::string> specs = {
        "iocost min=100 max=100",
        "iocost min=100 max=100 period=50000",
        "iocost min=100 max=100 period=200000",
    };
    auto body = [](sim::Simulator &sim, host::SweepRunner &runner) {
        const auto app = runner.addWorkload("app", 200);
        workload::FioConfig cfg;
        cfg.arrival = workload::Arrival::Rate;
        cfg.ratePerSec = 5000;
        workload::FioWorkload job(sim, runner.layer(), app, cfg);
        job.start();
        sim.runUntil(600 * sim::kMsec);
        job.stop();
        sim.runUntil(1500 * sim::kMsec);
        EXPECT_EQ(runner.serviceLog().live(), 0u);
    };
    double fraction = 0.0;
    const auto lanes = host::runSweep(
        [&specs] {
            host::SweepOptions o;
            o.specs = specs;
            o.makeDevice = [](sim::Simulator &sim) {
                return std::make_unique<device::SsdModel>(
                    sim, device::newGenSsd());
            };
            return o;
        }(),
        99, 1, body,
        [&fraction](host::SweepRunner &runner, size_t lane, size_t) {
            if (const host::FusedObserver *obs =
                    runner.fusedObserver())
                fraction = obs->fusedFraction();
            return laneSignature(runner, lane);
        });
    ASSERT_EQ(lanes.size(), specs.size());
    // Coherent by construction — and proven, not assumed.
    EXPECT_EQ(fraction, 1.0);

    for (size_t c = 0; c < specs.size(); ++c) {
        sim::Simulator sim(99);
        host::HostOptions ho;
        ho.controller = *controllers::parseControllerSpec(specs[c]);
        host::Host host(sim,
                        std::make_unique<device::SsdModel>(
                            sim, device::newGenSsd()),
                        std::move(ho));
        const auto app = host.addWorkload("app", 200);
        host.layer().setMergeEnabled(false);
        {
            workload::FioConfig cfg;
            cfg.arrival = workload::Arrival::Rate;
            cfg.ratePerSec = 5000;
            workload::FioWorkload job(sim, host.layer(), app, cfg);
            job.start();
            sim.runUntil(600 * sim::kMsec);
            job.stop();
            sim.runUntil(1500 * sim::kMsec);
        }

        std::vector<int64_t> plain;
        const blk::CgroupIoStats &st = host.layer().stats(app);
        plain.push_back(static_cast<int64_t>(st.reads));
        plain.push_back(static_cast<int64_t>(st.writes));
        plain.push_back(static_cast<int64_t>(st.readBytes));
        plain.push_back(static_cast<int64_t>(st.writeBytes));
        plain.push_back(static_cast<int64_t>(st.errors));
        plain.push_back(static_cast<int64_t>(st.retries));
        plain.push_back(static_cast<int64_t>(st.timeouts));
        plain.push_back(static_cast<int64_t>(st.failures));
        for (const stat::Histogram *h :
             {&st.totalLatency, &st.deviceLatency}) {
            plain.push_back(static_cast<int64_t>(h->count()));
            plain.push_back(h->total());
            plain.push_back(h->minValue());
            plain.push_back(h->maxValue());
            plain.push_back(h->quantile(0.50));
            plain.push_back(h->quantile(0.99));
        }
        EXPECT_EQ(lanes[c], plain) << "config " << c;
    }
}

} // namespace
