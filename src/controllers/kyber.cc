#include "controllers/kyber.hh"

#include <algorithm>

namespace iocost::controllers {

void
Kyber::attach(blk::BlockLayer &layer)
{
    IoController::attach(layer);
    timer_.emplace(layer.sim(), cfg_.window, [this] { adjust(); });
    timer_->start();
}

void
Kyber::onSubmit(blk::BioPtr bio)
{
    if (bio->op == blk::Op::Read) {
        // Synchronous reads are never held back.
        layer().dispatch(std::move(bio));
        return;
    }
    writes_.push_back(std::move(bio));
    pump();
}

void
Kyber::onComplete(const blk::Bio &bio,
                  const blk::CompletionInfo &info)
{
    // Failed bios still release their depth slot, but only Ok
    // completions feed the percentile windows.
    if (bio.op == blk::Op::Read) {
        if (info.status == blk::BioStatus::Ok)
            windowReadLat_.record(info.deviceLatency);
    } else {
        if (info.status == blk::BioStatus::Ok)
            windowWriteLat_.record(info.deviceLatency);
        if (writeInFlight_ > 0)
            --writeInFlight_;
        pump();
    }
}

void
Kyber::pump()
{
    while (!writes_.empty() && writeInFlight_ < writeDepth_) {
        blk::BioPtr bio = std::move(writes_.front());
        writes_.pop_front();
        ++writeInFlight_;
        layer().dispatch(std::move(bio));
    }
}

void
Kyber::adjust()
{
    const bool reads_hurt =
        windowReadLat_.count() >= 8 &&
        windowReadLat_.quantile(0.90) > cfg_.readTarget;
    const bool writes_hurt =
        windowWriteLat_.count() >= 8 &&
        windowWriteLat_.quantile(0.90) > cfg_.writeTarget;

    if (reads_hurt) {
        writeDepth_ = std::max(1u, writeDepth_ / 2);
    } else if (!writes_hurt && writeDepth_ < cfg_.maxWriteDepth) {
        // Additive recovery once latencies are healthy again.
        writeDepth_ = std::min(cfg_.maxWriteDepth, writeDepth_ + 4);
    }

    stat::Telemetry &tel = layer().telemetry();
    if (tel.enabled()) {
        const sim::Time now = layer().sim().now();
        tel.emit(now, "kyber", stat::kNoCgroup, "write_depth",
                 static_cast<double>(writeDepth_));
        tel.emitSnapshot(now, "kyber", stat::kNoCgroup, "lat_read",
                         windowReadLat_.snapshot(now));
        tel.emitSnapshot(now, "kyber", stat::kNoCgroup, "lat_write",
                         windowWriteLat_.snapshot(now));
    }

    const sim::Time now = layer().sim().now();
    windowReadLat_.reset(now);
    windowWriteLat_.reset(now);
    pump();
}

} // namespace iocost::controllers
