#include "workload/fio_workload.hh"

#include <algorithm>

namespace iocost::workload {

FioWorkload::FioWorkload(sim::Simulator &sim, blk::BlockLayer &layer,
                         cgroup::CgroupId cg, FioConfig cfg)
    : sim_(sim),
      layer_(layer),
      cg_(cg),
      cfg_(std::move(cfg)),
      rng_(sim.forkRng())
{}

void
FioWorkload::start()
{
    if (running_)
        return;
    running_ = true;
    statsStart_ = sim_.now();

    switch (cfg_.arrival) {
      case Arrival::Saturating:
        for (unsigned i = 0; i < cfg_.iodepth; ++i)
            issueOne();
        break;
      case Arrival::Rate:
        scheduleNext();
        break;
      case Arrival::ThinkTime:
        for (unsigned i = 0; i < std::max(1u, cfg_.iodepth); ++i)
            issueOne();
        break;
      case Arrival::LatencyGoverned:
        governDepth_ = 1;
        issueOne();
        governTimer_ = sim_.after(cfg_.governWindow,
                                  [this] { govern(); });
        break;
    }
}

void
FioWorkload::stop()
{
    running_ = false;
    governTimer_.cancel();
    nextIssue_.cancel();
}

double
FioWorkload::iops() const
{
    const sim::Time elapsed = sim_.now() - statsStart_;
    if (elapsed <= 0)
        return 0.0;
    return static_cast<double>(completed_) / sim::toSeconds(elapsed);
}

void
FioWorkload::resetStats()
{
    completed_ = 0;
    statsStart_ = sim_.now();
    latency_.reset();
}

void
FioWorkload::issueOne()
{
    if (!running_)
        return;

    const bool is_read = rng_.uniform() < cfg_.readFraction;
    const bool is_random = rng_.uniform() < cfg_.randomFraction;

    uint64_t offset;
    if (is_random) {
        const uint64_t blocks = cfg_.spanBytes / cfg_.blockSize;
        offset = cfg_.offsetBase +
                 rng_.below(std::max<uint64_t>(1, blocks)) *
                     cfg_.blockSize;
    } else {
        offset = cfg_.offsetBase + seqCursor_;
        seqCursor_ = (seqCursor_ + cfg_.blockSize) % cfg_.spanBytes;
    }

    ++inFlight_;
    const sim::Time submitted = sim_.now();
    blk::BioPtr bio = blk::Bio::make(
        is_read ? blk::Op::Read : blk::Op::Write, offset,
        cfg_.blockSize, cg_, [this, submitted](const blk::Bio &) {
            onDone(sim_.now() - submitted);
        });
    layer_.submit(std::move(bio));
}

void
FioWorkload::onDone(sim::Time latency)
{
    if (inFlight_ > 0)
        --inFlight_;
    ++completed_;
    latency_.record(latency);
    windowLat_.record(latency);

    if (!running_)
        return;
    switch (cfg_.arrival) {
      case Arrival::Saturating:
        issueOne();
        break;
      case Arrival::ThinkTime:
        sim_.after(cfg_.thinkTime, [this] { issueOne(); });
        break;
      case Arrival::LatencyGoverned:
        // Closed loop: keep governDepth_ IOs in flight.
        while (inFlight_ < governDepth_)
            issueOne();
        break;
      case Arrival::Rate:
        break; // paced by scheduleNext()
    }
}

void
FioWorkload::scheduleNext()
{
    if (!running_)
        return;
    const sim::Time delay = std::max<sim::Time>(
        1, static_cast<sim::Time>(
               rng_.exponential(1e9 / cfg_.ratePerSec)));
    nextIssue_ = sim_.after(delay, [this] {
        issueOne();
        scheduleNext();
    });
}

void
FioWorkload::govern()
{
    if (!running_)
        return;
    if (windowLat_.count() >= 4) {
        const auto p50 = windowLat_.quantile(0.5);
        if (p50 > cfg_.latencyTarget) {
            // Shed: back off hard in proportion to the overshoot —
            // the behaviour of an online service load-shedding to
            // protect its latency SLO.
            const bool severe = p50 > 2 * cfg_.latencyTarget;
            governDepth_ = std::max(
                1u, severe ? governDepth_ / 2 : governDepth_ - 1);
        } else if (p50 < cfg_.latencyTarget -
                             cfg_.latencyTarget / 10) {
            // Healthy: probe for more throughput.
            governDepth_ =
                std::min(cfg_.governMaxDepth, governDepth_ + 1);
            while (inFlight_ < governDepth_)
                issueOne();
        }
    }
    windowLat_.reset();
    governTimer_ = sim_.after(cfg_.governWindow,
                              [this] { govern(); });
}

} // namespace iocost::workload
