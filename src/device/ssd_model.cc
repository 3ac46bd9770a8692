#include "device/ssd_model.hh"

#include <algorithm>
#include <functional>

#include "blk/service_log.hh"
#include "sim/fault.hh"
#include "stat/telemetry.hh"

namespace iocost::device {

SsdModel::SsdModel(sim::Simulator &sim, SsdSpec spec)
    : sim_(sim),
      spec_(std::move(spec)),
      rng_(sim.forkRng()),
      writeCredit_(static_cast<double>(spec_.writeBufferBytes))
{
    channelHeap_.assign(spec_.channels, 0);
    if (spec_.hiccupMeanInterval > 0) {
        nextHiccup_ = static_cast<sim::Time>(rng_.exponential(
            static_cast<double>(spec_.hiccupMeanInterval)));
    }
}

void
SsdModel::refillWriteCredit()
{
    const sim::Time now = sim_.now();
    if (now <= lastRefill_)
        return;
    writeCredit_ += sim::toSeconds(now - lastRefill_) *
                    spec_.sustainedWriteBps;
    writeCredit_ = std::min(
        writeCredit_, static_cast<double>(spec_.writeBufferBytes));
    lastRefill_ = now;
    // Injected early write-cliff: the burst buffer reads as empty
    // for the window, forcing the GC regime (and its write pacing)
    // regardless of the actual write history.
    if (faults() && faults()->writeCliffActive(now))
        writeCredit_ = 0.0;
}

sim::Time
SsdModel::serviceTime(const blk::Bio &bio)
{
    refillWriteCredit();

    const bool sequential = bio.offset == lastEndOffset_;
    const bool gc = gcActive();

    double base;
    double per_byte;
    if (bio.op == blk::Op::Read) {
        base = static_cast<double>(sequential ? spec_.readBaseSeq
                                              : spec_.readBaseRand);
        per_byte = spec_.readNsPerByte;
        if (gc)
            base *= spec_.gcReadMult;
    } else {
        base = static_cast<double>(sequential ? spec_.writeBaseSeq
                                              : spec_.writeBaseRand);
        per_byte = spec_.writeNsPerByte;
        if (gc) {
            base *= spec_.gcWriteMult;
            per_byte *= spec_.gcWriteMult;
        }
        // Writes drain buffer credit. The floor at zero reflects
        // that GC pacing (below) keeps admission at the drain rate
        // once the buffer is empty.
        writeCredit_ = std::max(
            0.0, writeCredit_ - static_cast<double>(bio.size));
    }

    double svc = base + per_byte * static_cast<double>(bio.size);
    if (spec_.jitterSigma > 0.0)
        svc = rng_.logNormal(svc, spec_.jitterSigma);
    return std::max<sim::Time>(1, static_cast<sim::Time>(svc));
}

bool
SsdModel::submit(blk::BioPtr &bio)
{
    if (inFlight_ >= spec_.queueDepth)
        return false;

    const sim::Time now = sim_.now();

    // Injected firmware hiccup: freeze every service unit for the
    // hiccup duration (requests already accepted finish late, new
    // ones queue behind the stall).
    while (now >= nextHiccup_) {
        const sim::Time stall_end =
            nextHiccup_ + spec_.hiccupDuration;
        for (sim::Time &free_at : channelHeap_)
            free_at = std::max(free_at, stall_end);
        // Clamping to a common floor keeps the min-heap ordering
        // (a monotone map preserves it), so no rebuild is needed.
        gcNext_ = std::max(gcNext_, stall_end);
        ++hiccups_;
        if (telemetry() && telemetry()->enabled()) {
            telemetry()->emit(now, "ssd", stat::kNoCgroup,
                              "hiccup_us",
                              sim::toMicros(spec_.hiccupDuration));
        }
        nextHiccup_ =
            stall_end + static_cast<sim::Time>(rng_.exponential(
                            static_cast<double>(
                                spec_.hiccupMeanInterval)));
    }

    // Injected brownout: same mechanics as a firmware hiccup, but
    // scheduled by the fault plan (and reported once per window).
    if (faults()) {
        const sim::Time stall_end = faults()->stallUntil(now);
        if (stall_end > now) {
            for (sim::Time &free_at : channelHeap_)
                free_at = std::max(free_at, stall_end);
            gcNext_ = std::max(gcNext_, stall_end);
            if (telemetry() && telemetry()->enabled() &&
                faults()->shouldReportStall(stall_end)) {
                telemetry()->emit(now, "ssd", stat::kNoCgroup,
                                  "stall_us",
                                  sim::toMicros(stall_end - now));
            }
        }
    }

    const bool was_gc = gcActive();
    // GC regime transitions are the device's headline state change
    // (burst buffer drained / recovered); emit edges, not levels.
    if (telemetry() && telemetry()->enabled() &&
        was_gc != lastGcTelemetry_) {
        lastGcTelemetry_ = was_gc;
        telemetry()->emit(now, "ssd", stat::kNoCgroup, "gc_active",
                          was_gc ? 1.0 : 0.0);
    }
    sim::Time svc = serviceTime(*bio);
    if (faults()) {
        const double mult = faults()->latencyMult(now);
        if (mult != 1.0) {
            svc = std::max<sim::Time>(
                1, static_cast<sim::Time>(
                       static_cast<double>(svc) * mult));
        }
        // An errored request pays its full service time (the device
        // discovers the failure only when the operation finishes),
        // then completes with an error status for the block layer's
        // retry path to handle.
        if (faults()->drawError(now))
            bio->status = blk::BioStatus::Error;
    }
    lastEndOffset_ = bio->offset + bio->size;

    // Pick the earliest-free channel (heap top); the request
    // occupies it for the service time starting no earlier than now.
    std::pop_heap(channelHeap_.begin(), channelHeap_.end(),
                  std::greater<>{});
    sim::Time start = std::max(now, channelHeap_.back());

    if (bio->op == blk::Op::Write && was_gc) {
        // With the buffer depleted, writes admit no faster than the
        // garbage collector frees blocks: they serialize on the
        // sustained drain rate regardless of channel parallelism.
        const auto pace = static_cast<sim::Time>(
            static_cast<double>(bio->size) /
            spec_.sustainedWriteBps * 1e9);
        gcNext_ = std::max(gcNext_, start);
        start = gcNext_;
        gcNext_ += pace;
    }

    const sim::Time done = start + svc;
    channelHeap_.back() = done;
    std::push_heap(channelHeap_.begin(), channelHeap_.end(),
                   std::greater<>{});

    if (serviceLog() != nullptr) {
        serviceLog()->append(bio->logHandle, bio->id, bio->retries,
                             done - now, bio->status);
    }

    ++inFlight_;
    // Ownership moves into the completion event's inline storage
    // (this + BioPtr + Time fits the slot); no trampoline, no
    // allocation.
    sim_.at(done, [this, owned = blk::BioCapture(std::move(bio)),
                   now]() mutable {
        --inFlight_;
        finish(owned.take(), sim_.now() - now);
    });
    return true;
}

} // namespace iocost::device
