/**
 * @file
 * Analytic oracle for the SSD model: with one channel, Poisson
 * arrivals and no controller, the device is an M/G/1 queue, and its
 * mean completion latency must match Pollaczek–Khinchine.
 *
 * The service time is (base + ns/B x size) x exp(sigma Z), a
 * log-normal with median m, so E[S] = m e^(sigma^2/2) and
 * E[S^2] = m^2 e^(2 sigma^2); the mean sojourn time is
 * E[S] + lambda E[S^2] / (2 (1 - rho)). A rate-mode FioWorkload
 * draws exponential gaps, so its arrivals are Poisson.
 *
 * The tolerance is the estimator's own confidence interval, from
 * batch means: the run after warm-up is cut into equal time
 * batches, each batch's mean latency is one sample, and the
 * half-width is Student's t at 99.9% times their standard error.
 * Batches are many relaxation times long (about 40 ms at rho = 0.9),
 * so their means are close to independent. A check whose interval
 * is wide enough to hide a real error shows nothing, so each load
 * also bounds the half-width.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "blk/block_layer.hh"
#include "cgroup/cgroup_tree.hh"
#include "device/ssd_model.hh"
#include "sim/simulator.hh"
#include "workload/fio_workload.hh"

namespace {

using namespace iocost;

constexpr double kBaseNs = 100e3;
constexpr double kNsPerByte = 2.0;
constexpr double kSigma = 0.08;
constexpr uint32_t kBlockSize = 4096;

constexpr int kBatches = 20;
/** Student's t quantile for a two-sided 99.9% interval, 19 d.o.f. */
constexpr double kT999 = 3.883;

/** One service unit, reads only, no write buffer in play. */
device::SsdSpec
singleChannelSpec()
{
    device::SsdSpec spec;
    spec.name = "mg1";
    spec.channels = 1;
    spec.queueDepth = 4096;
    spec.readBaseSeq = static_cast<sim::Time>(kBaseNs);
    spec.readBaseRand = static_cast<sim::Time>(kBaseNs);
    spec.readNsPerByte = kNsPerByte;
    spec.jitterSigma = kSigma;
    spec.gcReadMult = 1.0;
    return spec;
}

struct Moments
{
    double mean;   ///< E[S], ns
    double second; ///< E[S^2], ns^2
};

Moments
serviceMoments()
{
    const double median = kBaseNs + kNsPerByte * kBlockSize;
    return {median * std::exp(kSigma * kSigma / 2.0),
            median * median * std::exp(2.0 * kSigma * kSigma)};
}

struct LoadCase
{
    double rho;
    /** Simulated seconds per batch: heavier loads relax slower. */
    double batchSeconds;
    /** The interval must be at least this tight (fraction of the
     *  oracle) for the check to mean anything. */
    double maxHalfWidth;
};

class MG1Oracle : public ::testing::TestWithParam<LoadCase>
{};

TEST_P(MG1Oracle, MeanLatencyMatchesPollaczekKhinchine)
{
    const LoadCase lc = GetParam();
    const Moments s = serviceMoments();
    const double lambda = lc.rho / s.mean; // per ns
    const double oracle =
        s.mean + lambda * s.second / (2.0 * (1.0 - lc.rho));

    sim::Simulator sim(11);
    device::SsdModel device(sim, singleChannelSpec());
    cgroup::CgroupTree tree;
    blk::BlockLayer layer(sim, device, tree);
    const auto cg = tree.create(cgroup::kRoot, "poisson");
    workload::FioConfig cfg;
    cfg.arrival = workload::Arrival::Rate;
    cfg.ratePerSec = lambda * 1e9;
    cfg.blockSize = kBlockSize;
    workload::FioWorkload job(sim, layer, cg, cfg);
    job.start();

    const auto batch = static_cast<sim::Time>(lc.batchSeconds * 1e9);
    sim.runUntil(batch); // warm-up, discarded
    job.resetStats();

    std::vector<double> means;
    uint64_t count = 0;
    int64_t total = 0;
    for (int b = 1; b <= kBatches; ++b) {
        sim.runUntil(batch * (b + 1));
        const stat::Histogram &lat = job.latency();
        ASSERT_GT(lat.count(), count);
        means.push_back(static_cast<double>(lat.total() - total) /
                        static_cast<double>(lat.count() - count));
        count = lat.count();
        total = lat.total();
    }

    double grand = 0.0;
    for (double m : means)
        grand += m;
    grand /= kBatches;
    double var = 0.0;
    for (double m : means)
        var += (m - grand) * (m - grand);
    var /= kBatches - 1;
    const double half = kT999 * std::sqrt(var / kBatches);

    const double measured = job.latency().mean();
    EXPECT_NEAR(measured, oracle, half)
        << "rho=" << lc.rho << ": " << count << " completions";
    EXPECT_LT(half, lc.maxHalfWidth * oracle)
        << "rho=" << lc.rho << ": the interval is too wide to test "
        << "anything";
}

INSTANTIATE_TEST_SUITE_P(
    Loads, MG1Oracle,
    ::testing::Values(LoadCase{0.3, 2.0, 0.01},
                      LoadCase{0.6, 4.0, 0.02},
                      LoadCase{0.9, 25.0, 0.05}),
    [](const ::testing::TestParamInfo<LoadCase> &info) {
        return "rho" +
               std::to_string(
                   static_cast<int>(std::lround(info.param.rho * 100)));
    });

} // namespace
