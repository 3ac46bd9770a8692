#include "controllers/io_latency.hh"

#include <algorithm>

namespace iocost::controllers {

void
IoLatency::attach(blk::BlockLayer &layer)
{
    IoController::attach(layer);
    timer_.emplace(layer.sim(), cfg_.window, [this] { evaluate(); });
    timer_->start();
}

void
IoLatency::setTarget(cgroup::CgroupId cg, sim::Time target)
{
    state(cg).target = target;
}

IoLatency::State &
IoLatency::state(cgroup::CgroupId cg)
{
    if (cg >= states_.size()) {
        const size_t old = states_.size();
        states_.resize(cg + 1);
        for (size_t i = old; i < states_.size(); ++i)
            states_[i].depth = cfg_.maxDepth;
    }
    return states_[cg];
}

unsigned
IoLatency::depthLimit(cgroup::CgroupId cg)
{
    return state(cg).depth;
}

sim::Time
IoLatency::userspaceDelay(cgroup::CgroupId cg)
{
    const State &st = state(cg);
    if (st.depth > 8)
        return 0;
    // Punished to (near) minimum depth: pace the thread for a
    // window fraction per trip to userspace, harder the deeper the
    // punishment.
    return cfg_.window / (2 * std::max(1u, st.depth));
}

void
IoLatency::onSubmit(blk::BioPtr bio)
{
    const cgroup::CgroupId cg = bio->cgroup;
    State &st = state(cg);

    // Reclaim and dirty-writeback IO must not be blocked behind the
    // depth limit (memory-management awareness).
    if (bio->swap || bio->wb) {
        ++st.inFlight;
        layer().dispatch(std::move(bio));
        return;
    }

    if (st.waiting.empty() && st.inFlight < st.depth) {
        ++st.inFlight;
        layer().dispatch(std::move(bio));
        return;
    }
    st.waiting.push_back(std::move(bio));
}

void
IoLatency::onComplete(const blk::Bio &bio,
                      const blk::CompletionInfo &info)
{
    State &st = state(bio.cgroup);
    if (st.inFlight > 0)
        --st.inFlight;
    // Failed bios free their depth slot but contribute no latency
    // sample — their timing describes the error path, not the
    // cgroup's service quality.
    if (info.status == blk::BioStatus::Ok)
        st.windowLat.record(info.deviceLatency);
    pump(bio.cgroup);
}

void
IoLatency::pump(cgroup::CgroupId cg)
{
    State &st = state(cg);
    while (!st.waiting.empty() && st.inFlight < st.depth) {
        blk::BioPtr bio = std::move(st.waiting.front());
        st.waiting.pop_front();
        ++st.inFlight;
        layer().dispatch(std::move(bio));
    }
}

void
IoLatency::evaluate()
{
    // Find the tightest-target cgroup that is currently missing it.
    sim::Time violated_target = 0;
    bool any_violation = false;
    for (const State &st : states_) {
        if (st.target == 0 || st.windowLat.count() < 8)
            continue;
        // The kernel compares the window mean against the target.
        if (st.windowLat.mean() >
            static_cast<double>(st.target)) {
            if (!any_violation || st.target < violated_target) {
                violated_target = st.target;
                any_violation = true;
            }
        }
    }

    stat::Telemetry &tel = layer().telemetry();
    const sim::Time now = layer().sim().now();
    for (cgroup::CgroupId cg = 0; cg < states_.size(); ++cg) {
        State &st = states_[cg];
        if (any_violation) {
            // Punish every cgroup with a looser (or no) target than
            // the violated one.
            if (st.target == 0 || st.target > violated_target)
                st.depth = std::max(cfg_.minDepth, st.depth / 2);
        } else if (st.depth < cfg_.maxDepth) {
            // Gradual recovery while everyone meets their target.
            st.depth = std::min<unsigned>(
                cfg_.maxDepth,
                st.depth + std::max(1u, st.depth / 4));
        }
        if (tel.enabled() && st.windowLat.count() > 0) {
            tel.emit(now, "iolatency", cg, "depth_limit",
                     static_cast<double>(st.depth));
            tel.emitSnapshot(now, "iolatency", cg, "lat",
                             st.windowLat.snapshot(now));
        }
        st.windowLat.reset(now);
        pump(cg);
    }
}

} // namespace iocost::controllers
