#include "host/sweep.hh"

#include <stdexcept>

namespace iocost::host {

namespace {

/** Parse and tweak one entry; every rejection names the entry. */
controllers::ControllerSpec
parseSpecOrThrow(const SweepOptions &opts, const std::string &line)
{
    const std::string entry = "sweep: bad controller spec \"" + line + "\"";
    std::optional<controllers::ControllerSpec> spec;
    try {
        spec = controllers::parseControllerSpec(line);
        if (spec && opts.tweakSpec)
            opts.tweakSpec(line, *spec);
    } catch (const std::invalid_argument &err) {
        throw std::invalid_argument(entry + ": " + err.what());
    }
    if (!spec)
        throw std::invalid_argument(entry);
    return *std::move(spec);
}

} // namespace

/**
 * Pass-through controller installed on the generator's layer. It
 * clones every submission into the lanes (before dispatching the
 * original, so lane bio ids stay in submission-order lockstep with
 * the generator's even when a dispatch runs completions inline that
 * re-enter submit()) and closes each id in the shared log — the
 * generator's release of it — when the generator delivers the final
 * completion.
 */
class TapController final : public blk::IoController
{
  public:
    explicit TapController(SweepRunner &runner) : runner_(runner) {}

    blk::ControllerCaps
    caps() const override
    {
        return {
            .name = "sweep-tap",
            .lowOverhead = true,
            .workConserving = true,
            .memoryManagementAware = false,
            .proportionalFairness = false,
            .cgroupControl = false,
        };
    }

    void
    onSubmit(blk::BioPtr bio) override
    {
        runner_.cloneToLanes(*bio);
        layer().dispatch(std::move(bio));
    }

    void
    onComplete(const blk::Bio &bio,
               const blk::CompletionInfo &info) override
    {
        (void)info;
        runner_.onGeneratorFinal(bio);
    }

    /** Same as the uncontrolled path: the tap models no policy. */
    sim::Time
    issueCpuCost() const override
    {
        return blk::BlockLayer::kNoControllerCpuCost;
    }

  private:
    SweepRunner &runner_;
};

SweepRunner::SweepRunner(sim::Simulator &sim, SweepOptions opts)
    : sim_(sim), opts_(std::move(opts))
{
    if (opts_.specs.empty())
        throw std::invalid_argument("sweep: empty config list");
    if (!opts_.makeDevice)
        throw std::invalid_argument("sweep: no device factory");

    plain_ = opts_.specs.size() == 1 && !opts_.forceShadow;

    HostOptions ho;
    ho.submissionCpu = opts_.submissionCpu;
    ho.faults = opts_.faults;
    ho.telemetrySink = opts_.generatorSink;

    if (plain_) {
        // Degenerate K = 1 sweep: exactly the plain single-config
        // stack — same controller, merging on, no log, no tap — so
        // its output is byte-identical to a hand-built Host.
        ho.controller = parseSpecOrThrow(opts_, opts_.specs[0]);
        generator_ = std::make_unique<Host>(
            sim_, opts_.makeDevice(sim_), std::move(ho));
        return;
    }

    // Parse every spec before building anything: a malformed config
    // fails the whole sweep loudly, not after K - 1 lanes exist.
    std::vector<controllers::ControllerSpec> specs;
    specs.reserve(opts_.specs.size());
    for (const std::string &line : opts_.specs)
        specs.push_back(parseSpecOrThrow(opts_, line));

    ho.controller = "none";
    generator_ = std::make_unique<Host>(sim_, opts_.makeDevice(sim_),
                                        std::move(ho));
    generator_->device().setServiceLog(&log_);
    generator_->layer().setMergeEnabled(false);
    generator_->layer().setController(
        std::make_unique<TapController>(*this));

    for (size_t k = 0; k < specs.size(); ++k) {
        controllers::ControllerSpec &spec = specs[k];
        lanes_.emplace_back(
            sim_, log_, generator_->device().queueDepth(),
            generator_->device().modelName() + "+lane" +
                std::to_string(k));
        Lane &lane = lanes_.back();
        lane.specLine = opts_.specs[k];
        if (spec.name == "iocost") {
            // Lanes never arm their own planning timer; planning is
            // batched per period group below.
            spec.iocost.externalPlanning = true;
        }
        lane.layer.setMergeEnabled(false);
        // The lanes share the stream's error-handling policy (it is
        // part of the fault spec, not of any controller config).
        lane.layer.setRetryPolicy(generator_->layer().retryPolicy());
        lane.layer.setController(controllers::makeController(spec));
        lane.iocost =
            dynamic_cast<core::IoCost *>(lane.layer.controller());
    }

    // Group the iocost lanes by planning period: one timer per
    // distinct period runs the member passes back to back. Each
    // instance's planning is independent (it reads only its own lane
    // state), so batch order cannot change results.
    for (Lane &lane : lanes_) {
        if (lane.iocost == nullptr)
            continue;
        const sim::Time period = lane.iocost->period();
        PlanGroup *group = nullptr;
        for (PlanGroup &pg : planGroups_) {
            if (pg.period == period) {
                group = &pg;
                break;
            }
        }
        if (group == nullptr) {
            planGroups_.emplace_back();
            group = &planGroups_.back();
            group->period = period;
        }
        group->members.push_back(lane.iocost);
    }
    for (PlanGroup &pg : planGroups_) {
        pg.timer.emplace(sim_, pg.period,
                         [this, members = &pg.members] {
                             // Planning consumes the period latency
                             // histograms and emits period telemetry:
                             // the deferred fused accounting must
                             // land first.
                             if (fused_)
                                 fused_->flushDeferred();
                             for (core::IoCost *c : *members)
                                 c->runPlanning();
                             // Planning boundaries are the fused
                             // path's refusion points: waitqs were
                             // just kicked under the new vrate, so a
                             // reconverged lane is quiescent here.
                             if (fused_)
                                 fused_->onPlanBoundary();
                         });
        pg.timer->start();
    }

    // Fused K-wide fast path, when the byte-identity preconditions
    // hold: at most 64 lanes (the record bitmask) and at least one
    // iocost lane (other mechanisms always run the full path). Lanes
    // publish no telemetry, so fused completions, which skip
    // per-lane emission, lose none. Lanes that never fuse are simply
    // cloned to by the observer, same as the non-observer loop.
    if (opts_.fusedObserver && lanes_.size() <= 64) {
        bool any_iocost = false;
        for (Lane &lane : lanes_)
            any_iocost = any_iocost || lane.iocost != nullptr;
        if (any_iocost) {
            fused_ = std::make_unique<FusedObserver>(
                sim_, generator_->layer(), log_,
                generator_->device().queueDepth());
            for (Lane &lane : lanes_)
                fused_->addLane(lane.layer, lane.device,
                                lane.iocost);
            fused_->start();
        }
    }

    resolveScratch_.reserve(lanes_.size());
    log_.setListener(
        [this](uint32_t h, uint64_t id) { onLogEvent(h, id); });
}

void
SweepRunner::onLogEvent(uint32_t handle, uint64_t id)
{
    // The observer consumes the id's fused record first: an Ok
    // outcome schedules the batched fused completion, an error
    // outcome forks real parked bios that the per-lane pass below
    // then resolves exactly like full-path bios.
    if (fused_)
        fused_->onLogEvent(handle, id);

    resolveScratch_.clear();
    for (Lane &lane : lanes_) {
        // Fully-fused lanes park nothing; skip their table probe.
        if (lane.device.pendingCount() == 0)
            continue;
        lane.device.resolveDetached(id, resolveScratch_);
    }

    // Group the resolutions by service duration — in lockstep every
    // lane resolves to the same log entry, so the usual outcome is
    // one batch completing all K lane bios with a single event.
    // (Durations can differ when divergent retry schedules clamp to
    // different attempts; each distinct value gets its own batch.)
    while (!resolveScratch_.empty()) {
        const sim::Time d = resolveScratch_.front().duration;
        const uint32_t slot = batches_.acquire();
        ReplayBatch &batch = batches_[slot];
        if (batch.items.capacity() == 0)
            batch.items.reserve(lanes_.size());
        batch.duration = d;
        for (size_t i = 0; i < resolveScratch_.size();) {
            if (resolveScratch_[i].duration == d) {
                batch.items.push_back(
                    std::move(resolveScratch_[i]));
                resolveScratch_[i] = std::move(
                    resolveScratch_.back());
                resolveScratch_.pop_back();
            } else {
                ++i;
            }
        }
        sim_.at(sim_.now() + d,
                [this, slot] { fireBatch(slot); });
    }
}

void
SweepRunner::fireBatch(uint32_t slot)
{
    // Take the items by move: delivering a completion can re-enter
    // batch allocation (a lane controller dispatches queued bios),
    // which may grow the pool under us — so hold no references
    // across the loop, and keep the slot off the free list until
    // delivery is done.
    std::vector<device::ReplayDevice::Resolved> items =
        std::move(batches_[slot].items);
    const sim::Time d = batches_[slot].duration;
    for (device::ReplayDevice::Resolved &r : items)
        r.dev->finishReplayed(std::move(r.bio), d);
    // Hand the buffer back (capacity retained) and free the slot so
    // its next use stays allocation-free.
    items.clear();
    batches_[slot].items = std::move(items);
    batches_.release(slot);
}

cgroup::CgroupId
SweepRunner::addWorkload(const std::string &name, uint32_t weight)
{
    const cgroup::CgroupId id = generator_->addWorkload(name, weight);
    for (Lane &lane : lanes_) {
        const cgroup::CgroupId lid =
            lane.tree.create(lane.workload, name, weight);
        if (lid != id)
            throw std::logic_error("sweep: lane cgroup id drift");
    }
    workloadCgroups_.emplace_back(name, id);
    return id;
}

cgroup::CgroupId
SweepRunner::addSystemService(const std::string &name,
                              uint32_t weight)
{
    const cgroup::CgroupId id =
        generator_->addSystemService(name, weight);
    for (Lane &lane : lanes_) {
        const cgroup::CgroupId lid =
            lane.tree.create(lane.system, name, weight);
        if (lid != id)
            throw std::logic_error("sweep: lane cgroup id drift");
    }
    return id;
}

void
SweepRunner::cloneToLanes(blk::Bio &bio)
{
    // One hold for the generator (released by close()) and one per
    // lane (released by its copy's terminal completion, or by the
    // fused observer when it consumes the outcome). The generator's
    // device records its outcomes through the handle on the bio.
    bio.logHandle =
        log_.open(bio.id, static_cast<uint32_t>(lanes_.size()) + 1);
    if (fused_) {
        fused_->onGeneratorBio(bio);
        return;
    }
    for (Lane &lane : lanes_)
        lane.layer.submit(log_.laneCopy(bio));
}

void
SweepRunner::onGeneratorFinal(const blk::Bio &bio)
{
    log_.close(bio.logHandle, bio.id);
}

void
SweepRunner::resetStats()
{
    // Land (then discard with the rest) any deferred fused window —
    // matching the full path, which records before the caller cuts.
    if (fused_)
        fused_->flushDeferred();
    generator_->layer().resetStats();
    for (Lane &lane : lanes_)
        lane.layer.resetStats();
}

} // namespace iocost::host
