#include "device/remote_model.hh"

#include <algorithm>

#include "blk/service_log.hh"
#include "sim/fault.hh"
#include "stat/telemetry.hh"

namespace iocost::device {

RemoteModel::RemoteModel(sim::Simulator &sim, RemoteSpec spec)
    : sim_(sim), spec_(std::move(spec)), rng_(sim.forkRng())
{}

bool
RemoteModel::submit(blk::BioPtr &bio)
{
    if (inFlight_ >= spec_.queueDepth)
        return false;

    const sim::Time now = sim_.now();

    // Provisioned-rate pacing: the backend admits one request per
    // 1/iopsCap plus the byte cost against the throughput cap.
    const double slot_ns =
        1e9 / spec_.iopsCap +
        static_cast<double>(bio->size) / spec_.bpsCap * 1e9;
    sim::Time admitted = std::max(now, limiterNext_);

    // Injected brownout: the backend (or the network path to it)
    // goes dark; nothing admits before the window ends.
    if (faults()) {
        const sim::Time stall_end = faults()->stallUntil(now);
        if (stall_end > admitted) {
            admitted = stall_end;
            if (telemetry() && telemetry()->enabled() &&
                faults()->shouldReportStall(stall_end)) {
                telemetry()->emit(now, "remote", stat::kNoCgroup,
                                  "stall_us",
                                  sim::toMicros(stall_end - now));
            }
        }
    }
    limiterNext_ = admitted + static_cast<sim::Time>(slot_ns);

    // The provisioning limiter is the controller-relevant state of a
    // remote volume; per-request stall times are detail records.
    if (telemetry() && telemetry()->detailEnabled() &&
        admitted > now) {
        telemetry()->emit(now, "remote", bio->cgroup,
                          "limiter_wait_us",
                          sim::toMicros(admitted - now));
    }

    double rtt = rng_.logNormal(
        static_cast<double>(spec_.baseRtt), spec_.rttSigma);
    const double backend =
        spec_.nsPerByte * static_cast<double>(bio->size);
    if (faults()) {
        // Congestion / degraded path: the network round trip bears
        // the latency multiplier; a failed request (dropped reply,
        // backend 5xx) still pays the full exchange.
        rtt *= faults()->latencyMult(now);
        if (faults()->drawError(now))
            bio->status = blk::BioStatus::Error;
    }
    const sim::Time done =
        admitted + static_cast<sim::Time>(rtt + backend);

    if (serviceLog() != nullptr) {
        serviceLog()->append(bio->logHandle, bio->id, bio->retries,
                             std::max(done, now + 1) - now,
                             bio->status);
    }

    ++inFlight_;
    // Ownership moves into the completion event's inline storage —
    // no trampoline, no allocation.
    sim_.at(std::max(done, now + 1),
            [this, owned = blk::BioCapture(std::move(bio)),
             now]() mutable {
                --inFlight_;
                finish(owned.take(), sim_.now() - now);
            });
    return true;
}

} // namespace iocost::device
