#include "controllers/blk_throttle.hh"

#include <algorithm>

namespace iocost::controllers {

void
BlkThrottle::setLimits(cgroup::CgroupId cg, ThrottleLimits limits)
{
    state(cg).limits = limits;
}

BlkThrottle::State &
BlkThrottle::state(cgroup::CgroupId cg)
{
    if (cg >= states_.size()) {
        const size_t old = states_.size();
        states_.resize(cg + 1);
        for (size_t i = old; i < states_.size(); ++i)
            states_[i].limits = cfg_.defaultLimits;
    }
    return states_[cg];
}

sim::Time
BlkThrottle::admissionTime(State &st, const blk::Bio &bio) const
{
    sim::Time when = 0;
    if (bio.op == blk::Op::Read) {
        if (st.limits.riops > 0)
            when = std::max(when, st.nextRead);
        if (st.limits.rbps > 0)
            when = std::max(when, st.nextReadBytes);
    } else {
        if (st.limits.wiops > 0)
            when = std::max(when, st.nextWrite);
        if (st.limits.wbps > 0)
            when = std::max(when, st.nextWriteBytes);
    }
    return when;
}

void
BlkThrottle::charge(State &st, const blk::Bio &bio)
{
    const sim::Time now = layer().sim().now();
    if (bio.op == blk::Op::Read) {
        if (st.limits.riops > 0) {
            st.nextRead = std::max(st.nextRead, now) +
                          static_cast<sim::Time>(1e9 /
                                                 st.limits.riops);
        }
        if (st.limits.rbps > 0) {
            st.nextReadBytes =
                std::max(st.nextReadBytes, now) +
                static_cast<sim::Time>(
                    static_cast<double>(bio.size) / st.limits.rbps *
                    1e9);
        }
    } else {
        if (st.limits.wiops > 0) {
            st.nextWrite = std::max(st.nextWrite, now) +
                           static_cast<sim::Time>(1e9 /
                                                  st.limits.wiops);
        }
        if (st.limits.wbps > 0) {
            st.nextWriteBytes =
                std::max(st.nextWriteBytes, now) +
                static_cast<sim::Time>(
                    static_cast<double>(bio.size) / st.limits.wbps *
                    1e9);
        }
    }
}

void
BlkThrottle::onSubmit(blk::BioPtr bio)
{
    const cgroup::CgroupId cg = bio->cgroup;
    State &st = state(cg);

    const sim::Time now = layer().sim().now();
    if (st.waiting.empty() && admissionTime(st, *bio) <= now) {
        charge(st, *bio);
        layer().dispatch(std::move(bio));
        return;
    }
    st.waiting.push_back(std::move(bio));
    if (!st.kick.pending())
        kick(cg);
}

void
BlkThrottle::kick(cgroup::CgroupId cg)
{
    State &st = state(cg);
    st.kick.cancel();
    const sim::Time now = layer().sim().now();
    while (!st.waiting.empty()) {
        const sim::Time when = admissionTime(st, *st.waiting.front());
        if (when <= now) {
            blk::BioPtr bio = std::move(st.waiting.front());
            st.waiting.pop_front();
            charge(st, *bio);
            stat::Telemetry &tel = layer().telemetry();
            if (tel.detailEnabled()) {
                tel.emit(now, "blk-throttle", cg, "throttle_wait_us",
                         sim::toMicros(now - bio->submitTime));
            }
            layer().dispatch(std::move(bio));
        } else {
            st.kick = layer().sim().at(when, [this, cg] {
                kick(cg);
            });
            break;
        }
    }
}

} // namespace iocost::controllers
