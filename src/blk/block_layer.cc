#include "blk/block_layer.hh"

#include <utility>

namespace iocost::blk {

BlockLayer::BlockLayer(sim::Simulator &sim, BlockDevice &device,
                       cgroup::CgroupTree &tree)
    : sim_(sim), device_(device), tree_(tree)
{
    device_.setCompletionFn(
        [this](BioPtr bio, sim::Time device_latency) {
            onDeviceComplete(std::move(bio), device_latency);
        });
    device_.setTelemetry(&telemetry_);
}

void
BlockLayer::setController(std::unique_ptr<IoController> controller)
{
    controller_ = std::move(controller);
    if (controller_)
        controller_->attach(*this);
}

void
BlockLayer::submit(BioPtr bio)
{
    bio->id = nextBioId_++;
    bio->submitTime = sim_.now();
    ++submitted_;

    if (!cpuEnabled_) {
        deliverToController(std::move(bio));
        return;
    }

    // Submissions serialize on one simulated CPU for the
    // controller's per-bio issue-path cost; this is what bounds
    // throughput for heavyweight schedulers in the Fig. 9 bench.
    const sim::Time cost = controller_ ? controller_->issueCpuCost()
                                       : kNoControllerCpuCost;
    cpuBusyUntil_ = std::max(sim_.now(), cpuBusyUntil_) + cost;
    // The BioPtr moves straight into the event's inline storage —
    // no shared_ptr trampoline, no allocation. BioCapture (not a
    // raw BioPtr) so the pending event is snapshot-cloneable.
    sim_.at(cpuBusyUntil_,
            [this, owned = BioCapture(std::move(bio))]() mutable {
                deliverToController(owned.take());
            });
}

void
BlockLayer::deliverToController(BioPtr bio)
{
    if (controller_) {
        controller_->onSubmit(std::move(bio));
    } else {
        dispatch(std::move(bio));
    }
}

void
BlockLayer::dispatch(BioPtr bio)
{
    // A bio can reach dispatch already past its deadline (held by
    // the controller, or a requeue whose backoff overshot). Failing
    // it here runs its completion inline under dispatch() — the one
    // place completions fire outside a device-completion event — so
    // everything reachable from a completion callback must tolerate
    // re-entry (see the stats_ deque comment in the header).
    if (expired(*bio)) {
        failBio(std::move(bio), 0);
        return;
    }

    bio->dispatchTime = sim_.now();
    if (dispatchQueue_.empty() && device_.submit(bio))
        return;

    // Device queue saturated: try to back-merge with a recently
    // parked bio it extends (same direction and cgroup, bounded
    // size), else park in FIFO order. Only the tail of the queue is
    // scanned — the kernel's plug/merge window is equally shallow —
    // which keeps dispatch O(1) even when the backlog is deep.
    ++queueFullEvents_;
    if (!mergeEnabled_) {
        dispatchQueue_.push_back(std::move(bio));
        return;
    }
    const size_t scan_from =
        dispatchQueue_.size() > kMergeScanWindow
            ? dispatchQueue_.size() - kMergeScanWindow
            : 0;
    for (size_t i = scan_from; i < dispatchQueue_.size(); ++i) {
        BioPtr &parked = dispatchQueue_[i];
        if (parked->op == bio->op &&
            parked->cgroup == bio->cgroup &&
            parked->offset + parked->size == bio->offset &&
            parked->size + bio->size <= kMaxMergedBytes) {
            ++mergedBios_;
            // The absorbed bio rides the parked one's merge chain,
            // completion and all, and recycles when it completes.
            parked->absorb(std::move(bio));
            return;
        }
    }
    dispatchQueue_.push_back(std::move(bio));
}

void
BlockLayer::drainDispatchQueue()
{
    while (!dispatchQueue_.empty()) {
        // Expire parked bios before spending a device slot on them.
        // failBio runs completions inline, which may re-enter
        // submit()/dispatch() and mutate the queue — re-resolve
        // front() every iteration, never hold it across the call.
        if (expired(*dispatchQueue_.front())) {
            BioPtr dead = std::move(dispatchQueue_.front());
            dispatchQueue_.pop_front();
            failBio(std::move(dead), 0);
            continue;
        }
        BioPtr &front = dispatchQueue_.front();
        front->dispatchTime = sim_.now();
        if (!device_.submit(front))
            break;
        dispatchQueue_.pop_front();
    }
}

bool
BlockLayer::expired(const Bio &bio) const
{
    return retry_.bioTimeout > 0 &&
           sim_.now() - bio.submitTime >= retry_.bioTimeout;
}

void
BlockLayer::fusedMergeStats(cgroup::CgroupId cg,
                            const CgroupIoStats &delta)
{
    CgroupIoStats &st = statsMutable(cg);
    st.reads += delta.reads;
    st.writes += delta.writes;
    st.readBytes += delta.readBytes;
    st.writeBytes += delta.writeBytes;
    st.wbWrites += delta.wbWrites;
    st.wbBytes += delta.wbBytes;
    st.totalLatency.merge(delta.totalLatency);
    st.deviceLatency.merge(delta.deviceLatency);
}

void
BlockLayer::fusedCompleteStats(Op op, uint32_t size,
                               cgroup::CgroupId cg, bool wb,
                               sim::Time total_latency,
                               sim::Time device_latency)
{
    ++completed_;

    CgroupIoStats &st = statsMutable(cg);
    if (op == Op::Read) {
        ++st.reads;
        st.readBytes += size;
    } else {
        ++st.writes;
        st.writeBytes += size;
        if (wb) {
            ++st.wbWrites;
            st.wbBytes += size;
        }
    }
    st.totalLatency.record(total_latency);
    st.deviceLatency.record(device_latency);
}

void
BlockLayer::onDeviceComplete(BioPtr bio, sim::Time device_latency)
{
    if (bio->status != BioStatus::Ok) {
        handleError(std::move(bio), device_latency);
        return;
    }

    ++completed_;

    CgroupIoStats &st = statsMutable(bio->cgroup);
    if (bio->op == Op::Read) {
        ++st.reads;
        st.readBytes += bio->size;
    } else {
        ++st.writes;
        st.writeBytes += bio->size;
        if (bio->wb) {
            ++st.wbWrites;
            st.wbBytes += bio->size;
        }
    }
    st.totalLatency.record(sim_.now() - bio->submitTime);
    st.deviceLatency.record(device_latency);

    CompletionInfo info;
    info.deviceLatency = device_latency;
    info.totalLatency = sim_.now() - bio->submitTime;
    info.sizeBytes = bio->size;
    info.op = bio->op;
    info.deviceInFlight = device_.inFlight();
    info.dispatchQueueDepth = dispatchQueue_.size();

    // Per-completion records are detail-gated: a period-level sink
    // (the default) sees controller/planning records only.
    if (telemetry_.detailEnabled()) {
        const sim::Time now = sim_.now();
        telemetry_.emit(now, "blk", bio->cgroup, "device_lat_us",
                        sim::toMicros(device_latency));
        telemetry_.emit(now, "blk", bio->cgroup, "total_lat_us",
                        sim::toMicros(info.totalLatency));
        telemetry_.emit(now, "blk", bio->cgroup, "queue_depth",
                        static_cast<double>(info.dispatchQueueDepth));
    }

    if (controller_)
        controller_->onComplete(*bio, info);

    // A completed request frees a device slot: feed parked bios in.
    drainDispatchQueue();

    bio->runCompletions();
}

void
BlockLayer::handleError(BioPtr bio, sim::Time device_latency)
{
    ++deviceErrors_;
    ++statsMutable(bio->cgroup).errors;

    if (telemetry_.enabled()) {
        telemetry_.emit(sim_.now(), "blk", bio->cgroup, "error",
                        1.0);
    }

    // Notify the controller of every failed attempt (error bursts
    // are a saturation signal); the bio stays outstanding until its
    // final onComplete.
    if (controller_) {
        CompletionInfo info;
        info.deviceLatency = device_latency;
        info.totalLatency = sim_.now() - bio->submitTime;
        info.sizeBytes = bio->size;
        info.op = bio->op;
        info.deviceInFlight = device_.inFlight();
        info.dispatchQueueDepth = dispatchQueue_.size();
        info.status = bio->status;
        controller_->onError(*bio, info);
    }

    // Even a failed request occupied — and now frees — a device
    // slot.
    drainDispatchQueue();

    if (!expired(*bio) && bio->retries < retry_.maxRetries) {
        // Bounded requeue with exponential backoff. The retry
        // bypasses the controller (the bio was already charged at
        // submission — the kernel's requeue path likewise skips
        // rq-qos) and goes straight back to dispatch.
        ++retries_;
        ++statsMutable(bio->cgroup).retries;
        const unsigned attempt = ++bio->retries;
        bio->status = BioStatus::Ok;
        if (telemetry_.detailEnabled()) {
            telemetry_.emit(sim_.now(), "blk", bio->cgroup, "retry",
                            static_cast<double>(attempt));
        }
        const sim::Time backoff = retry_.backoffBase
                                  << (attempt - 1u);
        sim_.after(backoff,
                   [this,
                    owned = BioCapture(std::move(bio))]() mutable {
                       dispatch(owned.take());
                   });
        return;
    }

    failBio(std::move(bio), device_latency);
}

void
BlockLayer::failBio(BioPtr bio, sim::Time device_latency)
{
    // Timeout dominates: a bio that blew its deadline reports
    // Timeout even when the last attempt also errored, and a parked
    // bio that never reached the device expires with status Ok.
    const bool timed_out = expired(*bio);
    bio->status =
        timed_out ? BioStatus::Timeout : BioStatus::Error;

    ++completed_;
    ++failed_;
    CgroupIoStats &st = statsMutable(bio->cgroup);
    ++st.failures;
    if (timed_out) {
        ++timeouts_;
        ++st.timeouts;
    }
    // Failed bios contribute no latency samples: their timings
    // describe the failure path, not the device's service quality.

    if (telemetry_.enabled()) {
        telemetry_.emit(sim_.now(), "blk", bio->cgroup,
                        timed_out ? "timeout" : "io_failed", 1.0);
    }

    // The terminal onComplete keeps the controller's in-flight
    // accounting balanced (exactly one per accepted bio); info
    // carries the non-Ok status so latency percentiles skip it.
    if (controller_) {
        CompletionInfo info;
        info.deviceLatency = device_latency;
        info.totalLatency = sim_.now() - bio->submitTime;
        info.sizeBytes = bio->size;
        info.op = bio->op;
        info.deviceInFlight = device_.inFlight();
        info.dispatchQueueDepth = dispatchQueue_.size();
        info.status = bio->status;
        controller_->onComplete(*bio, info);
    }

    // No drainDispatchQueue() here: failing a bio frees no device
    // slot (queue-expired bios never held one), and the error path
    // already drained after the device completion.
    bio->runCompletions();
}

CgroupIoStats &
BlockLayer::statsMutable(cgroup::CgroupId cg)
{
    if (cg >= stats_.size())
        stats_.resize(cg + 1);
    return stats_[cg];
}

const CgroupIoStats &
BlockLayer::stats(cgroup::CgroupId cg) const
{
    if (cg >= stats_.size())
        stats_.resize(cg + 1);
    return stats_[cg];
}

void
BlockLayer::resetStats()
{
    stats_.clear();
}

} // namespace iocost::blk
