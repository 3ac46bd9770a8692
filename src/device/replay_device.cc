#include "device/replay_device.hh"

#include <algorithm>

namespace iocost::device {

ReplayDevice::ReplayDevice(sim::Simulator &sim,
                           const blk::ServiceLog &log,
                           uint32_t queue_depth,
                           std::string model_name)
    : sim_(sim), log_(log), depth_(queue_depth),
      name_(std::move(model_name)),
      pending_(static_cast<size_t>(queue_depth) * 2)
{}

void
ReplayDevice::park(blk::BioPtr bio)
{
    const uint64_t id = bio->id;
    pending_.insert(id) = std::move(bio);
}

blk::BioPtr
ReplayDevice::takePending(uint64_t id)
{
    sim::IdTable<blk::BioPtr>::Cell *c = pending_.find(id);
    if (c == nullptr)
        return nullptr;
    blk::BioPtr out = std::move(c->value);
    pending_.erase(*c);
    return out;
}

std::optional<ReplayDevice::Outcome>
ReplayDevice::outcome(const blk::Bio &bio) const
{
    // The bio holds its id's log entry, so the handle is live.
    std::optional<blk::ServiceLog::Entry> e =
        log_.find(bio.logHandle, bio.id, bio.retries);
    if (!e) {
        if (!log_.closed(bio.logHandle, bio.id))
            return std::nullopt;
        // The generator will never record this attempt. Clamp to
        // the last recorded one; an id with no entries at all never
        // reached the generator's device (expired while parked) and
        // fails after a tick.
        e = log_.findClamped(bio.logHandle, bio.id, bio.retries);
        if (!e)
            return Outcome{1, blk::BioStatus::Error};
    }
    return Outcome{std::max<sim::Time>(1, e->duration), e->status};
}

bool
ReplayDevice::submit(blk::BioPtr &bio)
{
    if (inFlight_ >= depth_)
        return false;
    ++inFlight_;
    const std::optional<Outcome> o = outcome(*bio);
    if (!o) {
        park(std::move(bio));
        return true;
    }
    bio->status = o->status;
    // Same shape as the real models: the bio moves into the
    // completion event's inline storage, no allocation.
    const sim::Time now = sim_.now();
    sim_.at(now + o->duration,
            [this, owned = blk::BioCapture(std::move(bio)),
             now]() mutable {
                --inFlight_;
                finish(owned.take(), sim_.now() - now);
            });
    return true;
}

void
ReplayDevice::resolveDetached(uint64_t id,
                              std::vector<Resolved> &out)
{
    blk::BioPtr bio = takePending(id);
    if (!bio)
        return;
    const std::optional<Outcome> o = outcome(*bio);
    if (!o) {
        park(std::move(bio)); // attempt still ahead of the log
        return;
    }
    bio->status = o->status;
    out.push_back(Resolved{this, std::move(bio), o->duration});
}

void
ReplayDevice::finishReplayed(blk::BioPtr bio, sim::Time duration)
{
    --inFlight_;
    finish(std::move(bio), duration);
}

} // namespace iocost::device
