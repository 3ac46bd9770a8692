#include "device/hdd_model.hh"

#include <algorithm>
#include <cmath>

#include "blk/service_log.hh"
#include "sim/fault.hh"
#include "stat/telemetry.hh"

namespace iocost::device {

HddModel::HddModel(sim::Simulator &sim, HddSpec spec)
    : sim_(sim), spec_(std::move(spec)), rng_(sim.forkRng())
{}

sim::Time
HddModel::serviceTime(const blk::Bio &bio)
{
    const double transfer_ns =
        static_cast<double>(bio.size) / spec_.transferBps * 1e9;
    sim::Time svc = static_cast<sim::Time>(transfer_ns);

    if (bio.offset != headPos_) {
        // Seek time grows with the square root of the relative
        // distance (classic disk model) plus rotational latency.
        const uint64_t dist = headPos_ > bio.offset
                                  ? headPos_ - bio.offset
                                  : bio.offset - headPos_;
        const double frac = std::min(
            1.0, static_cast<double>(dist) /
                     static_cast<double>(spec_.capacityBytes));
        const double seek =
            static_cast<double>(spec_.seekMin) +
            static_cast<double>(spec_.seekMax - spec_.seekMin) *
                std::sqrt(frac);
        const double rot =
            rng_.uniform() * static_cast<double>(spec_.rotationPeriod);
        svc += static_cast<sim::Time>(seek + rot);
    }
    if (bio.op == blk::Op::Write)
        svc += spec_.writeSettle;
    return std::max<sim::Time>(1, svc);
}

bool
HddModel::submit(blk::BioPtr &bio)
{
    if (inFlight() >= spec_.queueDepth)
        return false;
    queue_.push_back(Pending{std::move(bio), sim_.now()});
    maybeStartService();
    return true;
}

void
HddModel::maybeStartService()
{
    if (serving_ || queue_.empty())
        return;

    const sim::Time now = sim_.now();

    // NCQ selection: C-LOOK elevator order — the lowest offset at or
    // ahead of the head position, wrapping to the lowest offset
    // overall when nothing lies ahead. Unlike raw shortest-seek-
    // first, the one-directional sweep never strands requests just
    // behind the head (which would then be serviced backwards one
    // rotation at a time). An aging bound narrows the candidate set
    // once any request is over-age, preserving fairness under
    // overload.
    bool any_aged = false;
    for (const Pending &p : queue_) {
        if (now - p.accepted > spec_.maxWait) {
            any_aged = true;
            break;
        }
    }

    size_t pick_ahead = SIZE_MAX, pick_wrap = SIZE_MAX;
    uint64_t best_ahead = UINT64_MAX, best_wrap = UINT64_MAX;
    for (size_t i = 0; i < queue_.size(); ++i) {
        const Pending &p = queue_[i];
        if (any_aged && now - p.accepted <= spec_.maxWait)
            continue;
        const uint64_t off = p.bio->offset;
        if (off >= headPos_) {
            if (off < best_ahead) {
                best_ahead = off;
                pick_ahead = i;
            }
        } else if (off < best_wrap) {
            best_wrap = off;
            pick_wrap = i;
        }
    }
    const size_t pick =
        pick_ahead != SIZE_MAX ? pick_ahead : pick_wrap;

    Pending chosen = std::move(queue_[pick]);
    queue_.erase(queue_.begin() +
                 static_cast<std::ptrdiff_t>(pick));

    sim::Time svc = serviceTime(*chosen.bio);
    if (faults()) {
        const double mult = faults()->latencyMult(now);
        if (mult != 1.0) {
            svc = std::max<sim::Time>(
                1, static_cast<sim::Time>(
                       static_cast<double>(svc) * mult));
        }
        // Injected brownout: the mechanics freeze until the window
        // ends; the chosen request simply finishes that much later.
        const sim::Time stall_end = faults()->stallUntil(now);
        if (stall_end > now) {
            svc += stall_end - now;
            if (telemetry() && telemetry()->enabled() &&
                faults()->shouldReportStall(stall_end)) {
                telemetry()->emit(now, "hdd", stat::kNoCgroup,
                                  "stall_us",
                                  sim::toMicros(stall_end - now));
            }
        }
        // Media error (bad sector / unrecoverable seek): full
        // service time is still paid before the failure reports.
        if (faults()->drawError(now))
            chosen.bio->status = blk::BioStatus::Error;
    }
    headPos_ = chosen.bio->offset + chosen.bio->size;
    serving_ = true;

    // Per-service records (seek-dominated service time and the NCQ
    // backlog the elevator is working through) are detail-gated.
    if (telemetry() && telemetry()->detailEnabled()) {
        telemetry()->emit(now, "hdd", chosen.bio->cgroup,
                          "service_us", sim::toMicros(svc));
        telemetry()->emit(now, "hdd", stat::kNoCgroup, "ncq_depth",
                          static_cast<double>(queue_.size()));
    }

    // The logged duration spans accept-to-completion, so the replay
    // includes the NCQ elevator wait — the C-LOOK schedule is part
    // of the seek-bound device's behavior, not of any controller's.
    if (serviceLog() != nullptr) {
        serviceLog()->append(chosen.bio->logHandle, chosen.bio->id,
                             chosen.bio->retries,
                             now - chosen.accepted + svc,
                             chosen.bio->status);
    }

    // Ownership moves into the completion event's inline storage —
    // no trampoline, no allocation.
    const sim::Time accepted = chosen.accepted;
    sim_.after(svc,
               [this, owned = blk::BioCapture(std::move(chosen.bio)),
                accepted]() mutable {
                   serving_ = false;
                   finish(owned.take(), sim_.now() - accepted);
                   maybeStartService();
               });
}

} // namespace iocost::device
