#include "controllers/bfq.hh"

#include <algorithm>

namespace iocost::controllers {

void
Bfq::attach(blk::BlockLayer &layer)
{
    IoController::attach(layer);
}

Bfq::Queue &
Bfq::queue(cgroup::CgroupId cg)
{
    if (cg >= queues_.size())
        queues_.resize(cg + 1);
    return queues_[cg];
}

bool
Bfq::deviceHasRoom() const
{
    auto *self = const_cast<Bfq *>(this);
    const blk::BlockDevice &dev = self->layer().device();
    return dev.inFlight() < dev.queueDepth() &&
           self->layer().dispatchQueueDepth() == 0;
}

void
Bfq::onSubmit(blk::BioPtr bio)
{
    const cgroup::CgroupId cg = bio->cgroup;
    Queue &q = queue(cg);
    if (!q.ever) {
        q.ever = true;
        layer().cgroups().setActive(cg, true);
    }
    if (q.bios.empty()) {
        // Freshly backlogged queues may not claim service from the
        // past: pull their finish time up to the global virtual time.
        q.vfinish = std::max(q.vfinish, vtime_);
    }
    q.bios.push_back(std::move(bio));

    if (inService_ == cgroup::kNone) {
        selectNext();
    } else if (inService_ == cg) {
        // More IO from the in-service queue cancels idling.
        idleTimer_.cancel();
    }
    pump();
}

void
Bfq::selectNext()
{
    idleTimer_.cancel();
    cgroup::CgroupId best = cgroup::kNone;
    double best_vf = 0.0;
    for (cgroup::CgroupId cg = 0; cg < queues_.size(); ++cg) {
        if (queues_[cg].bios.empty())
            continue;
        if (best == cgroup::kNone || queues_[cg].vfinish < best_vf) {
            best = cg;
            best_vf = queues_[cg].vfinish;
        }
    }
    inService_ = best;
    if (best != cgroup::kNone) {
        budgetLeft_ = cfg_.budgetBytes;
        vtime_ = std::max(vtime_, best_vf);
        stat::Telemetry &tel = layer().telemetry();
        if (tel.enabled()) {
            // Service-turn transitions: which queue holds the device
            // and at what virtual time it was picked.
            tel.emit(layer().sim().now(), "bfq", best, "in_service",
                     1.0);
        }
    }
}

void
Bfq::expire()
{
    inService_ = cgroup::kNone;
    inServiceInFlight_ = 0;
    selectNext();
}

void
Bfq::pump()
{
    while (inService_ != cgroup::kNone) {
        Queue &q = queues_[inService_];

        while (!q.bios.empty() && budgetLeft_ > 0 &&
               deviceHasRoom()) {
            blk::BioPtr bio = std::move(q.bios.front());
            q.bios.pop_front();
            const uint64_t bytes = bio->size;
            budgetLeft_ -= std::min(budgetLeft_, bytes);
            const double hw = std::max(
                layer().cgroups().hweightActive(inService_), 1e-6);
            q.vfinish += static_cast<double>(bytes) / hw;
            ++inServiceInFlight_;
            layer().dispatch(std::move(bio));
        }

        if (q.bios.empty() && inServiceInFlight_ == 0) {
            // Ran dry with nothing outstanding: idle briefly for
            // more IO from this queue (preserves sequential trains),
            // unless no budget remains anyway. While idling, inject
            // a bounded number of requests from other queues to
            // keep the device utilized.
            if (budgetLeft_ > 0) {
                if (!idleTimer_.pending()) {
                    const cgroup::CgroupId cg = inService_;
                    idleTimer_ = layer().sim().after(
                        cfg_.idleWait, [this, cg] {
                            if (inService_ == cg)
                                expire();
                        });
                }
                inject();
                return;
            }
            expire();
            continue;
        }

        if (budgetLeft_ == 0 && inServiceInFlight_ == 0) {
            expire();
            continue;
        }
        return;
    }
}

void
Bfq::inject()
{
    while (injectedInFlight_ < cfg_.injectionDepth &&
           deviceHasRoom()) {
        // Pick the non-in-service backlogged queue with the
        // smallest virtual finish time.
        cgroup::CgroupId best = cgroup::kNone;
        double best_vf = 0.0;
        for (cgroup::CgroupId cg = 0; cg < queues_.size(); ++cg) {
            if (cg == inService_ || queues_[cg].bios.empty())
                continue;
            if (best == cgroup::kNone ||
                queues_[cg].vfinish < best_vf) {
                best = cg;
                best_vf = queues_[cg].vfinish;
            }
        }
        if (best == cgroup::kNone)
            return;
        Queue &q = queues_[best];
        blk::BioPtr bio = std::move(q.bios.front());
        q.bios.pop_front();
        const double hw = std::max(
            layer().cgroups().hweightActive(best), 1e-6);
        q.vfinish += static_cast<double>(bio->size) / hw;
        ++injectedInFlight_;
        layer().dispatch(std::move(bio));
    }
}

void
Bfq::onComplete(const blk::Bio &bio,
                const blk::CompletionInfo &info)
{
    (void)info;
    if (bio.cgroup == inService_ && inServiceInFlight_ > 0) {
        --inServiceInFlight_;
    } else if (injectedInFlight_ > 0) {
        --injectedInFlight_;
    }
    pump();
}

} // namespace iocost::controllers
