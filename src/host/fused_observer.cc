#include "host/fused_observer.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "stat/telemetry.hh"

namespace iocost::host {

namespace {

/** Same epsilon the iocost issue path uses for weight guards. */
constexpr double kEps = 1e-9;

bool
sameModel(const core::CostModel &a, const core::CostModel &b)
{
    return a.readBaseSeq() == b.readBaseSeq() &&
           a.readBaseRand() == b.readBaseRand() &&
           a.writeBaseSeq() == b.writeBaseSeq() &&
           a.writeBaseRand() == b.writeBaseRand() &&
           a.readNsPerByte() == b.readNsPerByte() &&
           a.writeNsPerByte() == b.writeNsPerByte();
}

} // namespace

FusedObserver::FusedObserver(sim::Simulator &sim,
                             blk::BlockLayer &generator_layer,
                             blk::ServiceLog &log,
                             uint32_t queue_depth)
    : sim_(sim), generatorLayer_(generator_layer), log_(log),
      records_(static_cast<size_t>(queue_depth) * 2)
{}

void
FusedObserver::addLane(blk::BlockLayer &layer,
                       device::ReplayDevice &dev, core::IoCost *ioc)
{
    sim::panicIf(lanes_.size() >= 64,
                 "FusedObserver: more than 64 lanes");
    LaneRef ln;
    ln.layer = &layer;
    ln.dev = &dev;
    ln.ioc = ioc;
    lanes_.push_back(ln);
}

void
FusedObserver::start()
{
    rebuildGroups();
    for (size_t k = 0; k < lanes_.size(); ++k) {
        LaneRef &ln = lanes_[k];
        ln.fused = ln.fusable;
        if (ln.fused) {
            fusedMask_ |= uint64_t{1} << k;
            refreshLaneCaches(ln);
        }
    }
}

FusedObserver::LaneCg &
FusedObserver::laneCg(LaneRef &ln, cgroup::CgroupId cg)
{
    if (static_cast<size_t>(cg) >= ln.cgs.size())
        ln.cgs.resize(static_cast<size_t>(cg) + 1);
    LaneCg &lc = ln.cgs[cg];
    if (lc.st == nullptr) {
        lc.st = &ln.ioc->iocg(cg);
        lc.hw = ln.ioc->tree_->hweightInuse(cg);
    }
    return lc;
}

void
FusedObserver::refreshLaneCaches(LaneRef &ln)
{
    if (ln.ioc == nullptr)
        return;
    ln.budgetCap = ln.ioc->budgetCap();
    for (size_t cg = 0; cg < ln.cgs.size(); ++cg) {
        if (ln.cgs[cg].st != nullptr) {
            ln.cgs[cg].hw = ln.ioc->tree_->hweightInuse(
                static_cast<cgroup::CgroupId>(cg));
        }
    }
}

void
FusedObserver::rebuildGroups()
{
    groups_.clear();
    for (LaneRef &ln : lanes_) {
        if (ln.ioc == nullptr)
            continue;
        // A cost program takes a materialized bio, so a lane running
        // one cannot fuse. Re-checked every boundary: programs and
        // models installed mid-run (setCostProgram/setModel) take
        // effect here, at the next planning boundary.
        ln.fusable = !ln.ioc->hasCostProgram();
        if (!ln.fusable)
            continue;
        uint32_t idx = UINT32_MAX;
        for (uint32_t g = 0;
             g < static_cast<uint32_t>(groups_.size()); ++g) {
            if (sameModel(groups_[g].rep->model(),
                          ln.ioc->model())) {
                idx = g;
                break;
            }
        }
        if (idx == UINT32_MAX) {
            groups_.push_back(CostGroup{ln.ioc, 0.0});
            idx = static_cast<uint32_t>(groups_.size() - 1);
        }
        ln.costGroup = idx;
    }
}

blk::BioPtr
FusedObserver::materialize(const blk::Bio &src, uint64_t id,
                           sim::Time submit_time,
                           double controller_scratch) const
{
    blk::BioPtr bio = log_.laneCopy(src);
    bio->id = id;
    bio->submitTime = submit_time;
    bio->controllerScratch = controller_scratch;
    return bio;
}

blk::BioPtr
FusedObserver::materializeRecord(uint64_t id, const Record &rec) const
{
    blk::BioPtr bio = blk::Bio::make(rec.op, rec.offset, rec.size,
                                     rec.cg, log_.releaser());
    bio->swap = rec.swap;
    bio->meta = rec.meta;
    bio->wb = rec.wb;
    bio->logHandle = rec.logHandle;
    bio->id = id;
    bio->submitTime = rec.time;
    // A fused bio dispatched the instant it was admitted.
    // controllerScratch is dead once past the issue path (only
    // waitq bios are re-read), so it need not be reconstructed.
    bio->dispatchTime = rec.time;
    return bio;
}

void
FusedObserver::onGeneratorBio(const blk::Bio &bio)
{
    const sim::Time now = sim_.now();
    totalLaneBios_ += lanes_.size();

    // One sequentiality classification per generator bio. Every
    // lane sees the identical per-cgroup stream in the same order,
    // so the lane-local Iocg lastEnd values always agree with this
    // shared one (fusedIssue still maintains them for forks).
    if (bio.cgroup >= lastEnd_.size())
        lastEnd_.resize(bio.cgroup + 1, UINT64_MAX);
    const bool sequential = bio.offset == lastEnd_[bio.cgroup];
    lastEnd_[bio.cgroup] = bio.offset + bio.size;

    // One cost evaluation per distinct model.
    for (CostGroup &g : groups_) {
        g.cost = static_cast<double>(
            g.rep->model().cost(bio.op, sequential, bio.size));
    }

    // Deferred acceptance accounting: one increment covers every
    // currently-fused lane. A lane forking below is flushed first,
    // inside diverge(), while it still counts as fused — it accepted
    // this bio either way (waitq park or real dispatch).
    if (fusedMask_ != 0) {
        ++submitScratch_;
        expectedNextId_ = bio.id + 1;
        scratchDirty_ = true;
    }

    const bool oddity = bio.swap || bio.meta || bio.wb;
    Record *rec = nullptr;
    for (size_t k = 0; k < lanes_.size(); ++k) {
        LaneRef &ln = lanes_[k];
        if (!ln.fused) {
            // Full path: the lane runs its own controller stack.
            ln.layer->submit(log_.laneCopy(bio));
            continue;
        }

        const double abs_cost = groups_[ln.costGroup].cost;
        core::IoCost *ioc = ln.ioc;
        LaneCg &lc = laneCg(ln, bio.cgroup);
        Iocg &st = *lc.st;

        // Straight-line issue: active cgroup, no debt, sane weight,
        // normal IO, budget available. Exactly onSubmit's mutations
        // for that case, against the cached pointer/weight. A fused
        // lane's waitqs are empty by construction (queuing forks),
        // so the waiting.empty() admission term is elided.
        if (!oddity && st.active && st.absDebt <= 0.0 &&
            lc.hw > kEps) {
            if (now > ioc->lastGvtimeUpdate_) {
                ioc->gvtime_ +=
                    static_cast<double>(
                        now - ioc->lastGvtimeUpdate_) *
                    ioc->vrate_;
                ioc->lastGvtimeUpdate_ = now;
            }
            st.lastIo = now;
            st.lastEnd =
                bio.offset + static_cast<uint64_t>(bio.size);
            const double floor = ioc->gvtime_ - ln.budgetCap;
            if (st.vtime < floor)
                st.vtime = floor;
            const double rel = abs_cost / lc.hw;
            if (ioc->gvtime_ - st.vtime >= rel) {
                st.vtime += rel;
                st.absUsage += abs_cost;
                st.statUsage += abs_cost;
                if (st.outstanding++ == 0)
                    st.busySince = now;
            } else if (!slowIssue(k, bio, abs_cost, now)) {
                // Over budget: the rescind-retry / queue decision
                // ran on the slow path (its leading mutations are
                // idempotent re-runs of the ones above) and the
                // lane forked + queued the bio.
                continue;
            }
        } else if (!slowIssue(k, bio, abs_cost, now)) {
            continue;
        }

        if (ln.layer->dispatchQueueDepth() == 0 &&
            ln.dev->fusedAcquire()) {
            if (rec == nullptr) {
                rec = &records_.insert(bio.id);
                *rec = Record{0, bio.offset, bio.size, bio.op,
                              bio.swap, bio.meta, bio.wb,
                              bio.cgroup, bio.logHandle, now};
            }
            rec->lanes |= uint64_t{1} << k;
            ++fusedLaneBios_;
            continue;
        }
        // Device saturated (or real bios parked behind it): fork
        // and run the layer's dispatch with a real bio — it counts
        // the queue-full event and parks, exactly like the full
        // path.
        diverge(k);
        ln.layer->dispatch(materialize(bio, bio.id, now, abs_cost));
    }
}

bool
FusedObserver::slowIssue(size_t k, const blk::Bio &bio,
                         double abs_cost, sim::Time now)
{
    LaneRef &ln = lanes_[k];
    const core::IoCost::FusedVerdict verdict = ln.ioc->fusedIssue(
        bio.cgroup, bio.offset, bio.size, bio.swap, bio.meta, bio.wb,
        abs_cost);
    // activate() and the rescind retry change the lane's weight
    // tree; re-read this lane's cached weights (rare path).
    refreshLaneCaches(ln);
    if (verdict == core::IoCost::FusedVerdict::Queued) {
        // Hard throttle: fork the lane, then park the bio on the
        // waitq exactly as onSubmit's tail would have.
        diverge(k);
        ln.ioc->fusedQueue(bio.cgroup,
                           materialize(bio, bio.id, now, abs_cost));
        return false;
    }
    return true;
}

void
FusedObserver::diverge(size_t k)
{
    LaneRef &ln = lanes_[k];
    // The departing lane must absorb the deferred window first —
    // flushDeferred() lands scratch on fused lanes only.
    flushDeferred();
    ln.fused = false;
    fusedMask_ &= ~(uint64_t{1} << k);
    // Materialize every fused in-flight request this lane is a
    // member of into its real pending table; their device slots
    // stay held (acquired at issue). Cleared-to-zero records stay
    // in the table until their log event consumes them.
    const uint64_t bit = uint64_t{1} << k;
    records_.forEach([&](uint64_t id, Record &rec) {
        if ((rec.lanes & bit) == 0)
            return;
        rec.lanes &= ~bit;
        ln.dev->adoptParked(materializeRecord(id, rec));
    });
}

void
FusedObserver::onLogEvent(uint32_t handle, uint64_t id)
{
    sim::IdTable<Record>::Cell *c = records_.find(id);
    if (c == nullptr)
        return;
    const Record rec = c->value;
    if (rec.lanes == 0) {
        // Every member lane forked since issue; nothing fused left.
        records_.erase(*c);
        return;
    }
    const std::optional<blk::ServiceLog::Entry> e =
        log_.find(handle, id, 0);
    if (!e && !log_.closed(handle, id))
        return; // outcome still ahead of the log; stay parked
    records_.erase(*c);
    if (e && e->status == blk::BioStatus::Ok) {
        // Lockstep completion: one pooled event delivers all member
        // lanes' completions `duration` later. The record is
        // consumed now — the close(id) notification that follows
        // must not re-schedule it — and with it the member lanes'
        // holds on the log entry.
        const uint32_t slot = fires_.acquire();
        fires_[slot].rec = rec;
        fires_[slot].duration = std::max<sim::Time>(1, e->duration);
        log_.release(handle, id,
                     static_cast<uint32_t>(
                         __builtin_popcountll(rec.lanes)));
        sim_.at(sim_.now() + fires_[slot].duration,
                [this, slot] { fireFused(slot); });
        return;
    }
    // Error outcome — or closed with no entries (the generator
    // expired the bio before its device took it): fork this record
    // only. The member lanes get real parked bios, and the caller's
    // per-lane resolve pass (running right after this) applies the
    // full path's retry/clamp/error machinery to them.
    for (uint64_t mask = rec.lanes; mask != 0; mask &= mask - 1) {
        const size_t k =
            static_cast<size_t>(__builtin_ctzll(mask));
        lanes_[k].dev->adoptParked(materializeRecord(id, rec));
    }
}

void
FusedObserver::fireFused(uint32_t slot)
{
    // Copy out and free the slot first: delivering completions can
    // drain parked bios into the replay device, and holding no
    // references keeps re-entrancy trivially safe.
    const Record rec = fires_[slot].rec;
    const sim::Time d = fires_[slot].duration;
    fires_.release(slot);

    const sim::Time now = sim_.now();
    const sim::Time total = now - rec.time;

    if (rec.lanes == fusedMask_) {
        // Homogeneous window: every fused lane is a member, so the
        // per-lane stats/histogram deltas are identical — record
        // them once into the deferred scratch. Only control state
        // (device slot, outstanding/busy, freed-slot drain) is
        // mutated per lane, at the real instant.
        ++completeScratch_;
        scratchDirty_ = true;
        if (static_cast<size_t>(rec.cg) >= statScratch_.size())
            statScratch_.resize(static_cast<size_t>(rec.cg) + 1);
        blk::CgroupIoStats &sc = statScratch_[rec.cg];
        if (rec.op == blk::Op::Read) {
            ++sc.reads;
            sc.readBytes += rec.size;
            periodReadScratch_.record(d);
        } else {
            ++sc.writes;
            sc.writeBytes += rec.size;
            if (rec.wb) {
                ++sc.wbWrites;
                sc.wbBytes += rec.size;
            }
            periodWriteScratch_.record(d);
        }
        sc.totalLatency.record(total);
        sc.deviceLatency.record(d);
        for (uint64_t mask = rec.lanes; mask != 0;
             mask &= mask - 1) {
            const size_t k =
                static_cast<size_t>(__builtin_ctzll(mask));
            LaneRef &ln = lanes_[k];
            ln.dev->fusedRelease();
            // Membership implies the slot was populated at issue.
            Iocg &st = *ln.cgs[rec.cg].st;
            if (st.outstanding > 0 && --st.outstanding == 0)
                st.busyAccum += now - st.busySince;
            // A retry of a forked record may be parked behind the
            // slot we just freed; drain it exactly when the full
            // path would (no-op when the FIFO is empty, the fused
            // steady state).
            if (ln.layer->dispatchQueueDepth() != 0)
                ln.layer->fusedCompleteDrain();
        }
        return;
    }

    // Mixed window: a lane re-fused after this record was issued,
    // so the members are a strict subset of the fused set and the
    // scratch cannot carry their delta. Deliver the accounting
    // directly, in full-path order: slot release, layer accounting,
    // controller completion, freed-slot drain.
    for (uint64_t mask = rec.lanes; mask != 0; mask &= mask - 1) {
        const size_t k =
            static_cast<size_t>(__builtin_ctzll(mask));
        LaneRef &ln = lanes_[k];
        ln.dev->fusedRelease();
        ln.layer->fusedCompleteStats(rec.op, rec.size, rec.cg,
                                     rec.wb, total, d);
        ln.ioc->fusedComplete(rec.cg, rec.op, d);
        ln.layer->fusedCompleteDrain();
    }
}

void
FusedObserver::flushDeferred()
{
    if (!scratchDirty_)
        return;
    scratchDirty_ = false;
    for (uint64_t mask = fusedMask_; mask != 0; mask &= mask - 1) {
        LaneRef &ln =
            lanes_[static_cast<size_t>(__builtin_ctzll(mask))];
        ln.layer->fusedApplyDeferred(submitScratch_,
                                     completeScratch_);
        // Guarded so the no-drift case builds no message string:
        // this runs per fused lane per flush window.
        if (submitScratch_ != 0 &&
            ln.layer->nextBioId() != expectedNextId_)
            sim::panicIf(true, "FusedObserver: lane bio id drift");
        for (size_t cg = 0; cg < statScratch_.size(); ++cg) {
            const blk::CgroupIoStats &sc = statScratch_[cg];
            if (sc.reads + sc.writes == 0)
                continue;
            ln.layer->fusedMergeStats(
                static_cast<cgroup::CgroupId>(cg), sc);
        }
        ln.ioc->periodReadLat_.merge(periodReadScratch_);
        ln.ioc->periodWriteLat_.merge(periodWriteScratch_);
    }
    submitScratch_ = 0;
    completeScratch_ = 0;
    for (blk::CgroupIoStats &sc : statScratch_) {
        if (sc.reads + sc.writes == 0)
            continue;
        sc.reads = sc.writes = 0;
        sc.readBytes = sc.writeBytes = 0;
        sc.wbWrites = sc.wbBytes = 0;
        sc.totalLatency.reset();
        sc.deviceLatency.reset();
    }
    periodReadScratch_.reset();
    periodWriteScratch_.reset();
}

void
FusedObserver::onPlanBoundary()
{
    rebuildGroups();
    size_t fused = 0;
    for (size_t k = 0; k < lanes_.size(); ++k) {
        LaneRef &ln = lanes_[k];
        if (ln.fused && !ln.fusable) {
            diverge(k); // a cost program appeared mid-run
        } else if (!ln.fused && ln.fusable &&
                   ln.ioc->fusedQuiescent() &&
                   ln.layer->dispatchQueueDepth() == 0) {
            // Reconverged: no throttled bios, no kick timers, no
            // parked dispatch FIFO. Real in-flight bios may still
            // resolve through the pending table — per-completion
            // accounting commutes within a timestamp, so mixing
            // them with new fused traffic is exact. The deferred
            // window is empty here (the caller flushed before
            // planning), so the rejoining lane inherits no stale
            // scratch; fused records still in flight carry a
            // smaller member mask and complete via the direct path.
            ln.fused = true;
            fusedMask_ |= uint64_t{1} << k;
        }
        if (ln.fused) {
            ++fused;
            // Planning may have changed vrate (budget cap) and
            // donation inuse weights on every lane.
            refreshLaneCaches(ln);
        }
    }

    stat::Telemetry &tel = generatorLayer_.telemetry();
    if (tel.enabled()) {
        const sim::Time now = sim_.now();
        tel.emit(now, "sweep", stat::kNoCgroup, "fused_lanes",
                 static_cast<double>(fused));
        tel.emit(now, "sweep", stat::kNoCgroup, "diverged_lanes",
                 static_cast<double>(lanes_.size() - fused));
    }
}

} // namespace iocost::host
