#include "core/iocost.hh"

#include <algorithm>
#include <cmath>

#include <string>

#include "core/donation.hh"

namespace iocost::core {

namespace {

constexpr double kEps = 1e-9;

} // namespace

IoCost::IoCost(IoCostConfig config)
    : config_(std::move(config)), vrateSeries_("vrate")
{}

IoCost::~IoCost() = default;

blk::ControllerCaps
IoCost::caps() const
{
    return blk::ControllerCaps{
        .name = "iocost",
        .lowOverhead = true,
        .workConserving = true,
        .memoryManagementAware = true,
        .proportionalFairness = true,
        .cgroupControl = true,
    };
}

void
IoCost::attach(blk::BlockLayer &layer)
{
    IoController::attach(layer);
    sim_ = &layer.sim();
    tree_ = &layer.cgroups();
    lastGvtimeUpdate_ = sim_->now();
    lastPlanning_ = sim_->now();
    gvtimeAtPlanning_ = gvtime_;
    if (!config_.externalPlanning) {
        planningTimer_.emplace(*sim_, period(),
                               [this] { runPlanning(); });
        planningTimer_->start();
    }
}

IoCost::Iocg &
IoCost::iocg(cgroup::CgroupId cg)
{
    if (cg >= iocgs_.size())
        iocgs_.resize(cg + 1);
    return iocgs_[cg];
}

const IoCost::Iocg *
IoCost::iocgIfPresent(cgroup::CgroupId cg) const
{
    return cg < iocgs_.size() ? &iocgs_[cg] : nullptr;
}

double
IoCost::debt(cgroup::CgroupId cg) const
{
    const Iocg *st = iocgIfPresent(cg);
    return st ? st->absDebt : 0.0;
}

size_t
IoCost::waitingCount(cgroup::CgroupId cg) const
{
    const Iocg *st = iocgIfPresent(cg);
    return st ? st->waiting.size() : 0;
}

IoCost::IocgStat
IoCost::stat(cgroup::CgroupId cg) const
{
    IocgStat out;
    const Iocg *st = iocgIfPresent(cg);
    if (!st)
        return out;
    out.usageUs = static_cast<uint64_t>(st->statUsage / 1e3);
    out.waitUs = static_cast<uint64_t>(st->statWait / 1000);
    sim::Time indebt = st->statIndebt;
    if (st->absDebt > 0.0)
        indebt += sim_->now() - st->debtSince;
    out.indebtUs = static_cast<uint64_t>(indebt / 1000);
    out.indelayUs = static_cast<uint64_t>(st->statIndelay / 1000);
    return out;
}

std::string
IoCost::statLine(cgroup::CgroupId cg) const
{
    const IocgStat s = stat(cg);
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "cost.vrate=%.2f cost.usage=%llu cost.wait=%llu "
                  "cost.indebt=%llu cost.indelay=%llu",
                  vrate_ * 100.0,
                  static_cast<unsigned long long>(s.usageUs),
                  static_cast<unsigned long long>(s.waitUs),
                  static_cast<unsigned long long>(s.indebtUs),
                  static_cast<unsigned long long>(s.indelayUs));
    return buf;
}

void
IoCost::updateGvtime()
{
    const sim::Time now = sim_->now();
    if (now > lastGvtimeUpdate_) {
        gvtime_ += static_cast<double>(now - lastGvtimeUpdate_) *
                   vrate_;
        lastGvtimeUpdate_ = now;
    }
}

double
IoCost::budgetCap() const
{
    return config_.qos.budgetCapPeriods *
           static_cast<double>(period()) * vrate_;
}

void
IoCost::activate(cgroup::CgroupId cg, Iocg &st)
{
    st.active = true;
    tree_->setActive(cg, true);
    // A fresh activation gets a quarter-period of budget so short
    // bursts from previously idle groups start without a stall.
    st.vtime = gvtime_ -
               0.25 * static_cast<double>(period()) * vrate_;
    st.absUsage = 0.0;
    st.hadWait = false;
}

void
IoCost::payDebt(cgroup::CgroupId cg, Iocg &st)
{
    if (st.absDebt <= 0.0)
        return;
    const double hw = tree_->hweightInuse(cg);
    if (hw <= kEps)
        return;
    const double avail = gvtime_ - st.vtime;
    if (avail <= 0.0)
        return;
    const double debt_rel = st.absDebt / hw;
    const double pay_rel = std::min(avail, debt_rel);
    st.vtime += pay_rel;
    st.absDebt -= pay_rel * hw;
    if (st.absDebt < kEps) {
        st.absDebt = 0.0;
        st.statIndebt += sim_->now() - st.debtSince;
    }
}

void
IoCost::dispatchTracked(blk::BioPtr bio, Iocg &st)
{
    if (st.outstanding++ == 0)
        st.busySince = sim_->now();
    layer().dispatch(std::move(bio));
}

void
IoCost::chargeAndDispatch(blk::BioPtr bio, Iocg &st,
                          double abs_cost, double hw)
{
    st.vtime += abs_cost / hw;
    st.absUsage += abs_cost;
    st.statUsage += abs_cost;
    st.statWait += sim_->now() - bio->submitTime;
    st.periodWait += sim_->now() - bio->submitTime;
    dispatchTracked(std::move(bio), st);
}

void
IoCost::onSubmit(blk::BioPtr bio)
{
    const cgroup::CgroupId cg = bio->cgroup;
    Iocg &st = iocg(cg);
    const sim::Time now = sim_->now();

    updateGvtime();
    if (!st.active)
        activate(cg, st);
    st.lastIo = now;

    const bool sequential = bio->offset == st.lastEnd;
    st.lastEnd = bio->offset + bio->size;
    const double abs_cost = static_cast<double>(
        config_.costProgram
            ? std::max<sim::Time>(
                  1, config_.costProgram(*bio, sequential))
            : config_.model.cost(bio->op, sequential, bio->size));
    bio->controllerScratch = abs_cost;

    // Swap, metadata, and dirty-writeback IO must not block (§3.5);
    // the production mode turns their cost into debt, the
    // RootCharge ablation foregoes charging entirely.
    if (bio->swap || bio->meta || bio->wb) {
        switch (config_.debtMode) {
          case DebtMode::Production:
            if (st.absDebt == 0.0)
                st.debtSince = now;
            st.absDebt += abs_cost;
            st.absUsage += abs_cost;
            st.statUsage += abs_cost;
            dispatchTracked(std::move(bio), st);
            return;
          case DebtMode::RootCharge:
            dispatchTracked(std::move(bio), st);
            return;
          case DebtMode::Inversion:
            break; // fall through to normal throttling
        }
    }

    double hw = tree_->hweightInuse(cg);
    if (hw <= kEps) {
        // Shouldn't happen for an active cgroup; dispatch unthrottled
        // rather than dividing by zero.
        dispatchTracked(std::move(bio), st);
        return;
    }

    // Anti-hoarding: an idle-ish cgroup may not bank more than the
    // budget cap.
    const double floor = gvtime_ - budgetCap();
    if (st.vtime < floor)
        st.vtime = floor;

    payDebt(cg, st);

    const double rel = abs_cost / hw;
    if (st.waiting.empty() && st.absDebt <= 0.0 &&
        gvtime_ - st.vtime >= rel) {
        chargeAndDispatch(std::move(bio), st, abs_cost, hw);
        return;
    }

    // Over budget. If this cgroup is currently donating, rescind the
    // donation right here in the issue path (§3.6 requirement 3) and
    // retry with the restored share.
    if (std::abs(tree_->inuse(cg) -
                 static_cast<double>(tree_->weight(cg))) > kEps) {
        tree_->setInuse(cg, tree_->weight(cg));
        hw = tree_->hweightInuse(cg);
        const double rel2 = abs_cost / hw;
        if (st.waiting.empty() && st.absDebt <= 0.0 &&
            gvtime_ - st.vtime >= rel2) {
            chargeAndDispatch(std::move(bio), st, abs_cost, hw);
            return;
        }
    }

    st.hadWait = true;
    st.waiting.push_back(std::move(bio));
    if (!st.kick.pending())
        kickWaiters(cg);
}

void
IoCost::fusedDispatchTick(Iocg &st)
{
    if (st.outstanding++ == 0)
        st.busySince = sim_->now();
}

IoCost::FusedVerdict
IoCost::fusedIssue(cgroup::CgroupId cg, uint64_t offset,
                   uint32_t size, bool swap_io, bool meta_io,
                   bool wb_io, double abs_cost)
{
    Iocg &st = iocg(cg);
    const sim::Time now = sim_->now();

    updateGvtime();
    if (!st.active)
        activate(cg, st);
    st.lastIo = now;
    st.lastEnd = offset + static_cast<uint64_t>(size);

    // The charge tail of chargeAndDispatch, inline: a fused bio is
    // charged at its submit instant, so the statWait/periodWait
    // increments (now - submitTime) are exactly zero and elided.
    const auto charge = [&](double hw) {
        st.vtime += abs_cost / hw;
        st.absUsage += abs_cost;
        st.statUsage += abs_cost;
        fusedDispatchTick(st);
    };

    if (swap_io || meta_io || wb_io) {
        switch (config_.debtMode) {
          case DebtMode::Production:
            if (st.absDebt == 0.0)
                st.debtSince = now;
            st.absDebt += abs_cost;
            st.absUsage += abs_cost;
            st.statUsage += abs_cost;
            fusedDispatchTick(st);
            return FusedVerdict::Dispatched;
          case DebtMode::RootCharge:
            fusedDispatchTick(st);
            return FusedVerdict::Dispatched;
          case DebtMode::Inversion:
            break; // fall through to normal throttling
        }
    }

    double hw = tree_->hweightInuse(cg);
    if (hw <= kEps) {
        fusedDispatchTick(st);
        return FusedVerdict::Dispatched;
    }

    const double floor = gvtime_ - budgetCap();
    if (st.vtime < floor)
        st.vtime = floor;

    payDebt(cg, st);

    const double rel = abs_cost / hw;
    if (st.waiting.empty() && st.absDebt <= 0.0 &&
        gvtime_ - st.vtime >= rel) {
        charge(hw);
        return FusedVerdict::Dispatched;
    }

    if (std::abs(tree_->inuse(cg) -
                 static_cast<double>(tree_->weight(cg))) > kEps) {
        tree_->setInuse(cg, tree_->weight(cg));
        hw = tree_->hweightInuse(cg);
        const double rel2 = abs_cost / hw;
        if (st.waiting.empty() && st.absDebt <= 0.0 &&
            gvtime_ - st.vtime >= rel2) {
            charge(hw);
            return FusedVerdict::Dispatched;
        }
    }

    return FusedVerdict::Queued;
}

void
IoCost::fusedQueue(cgroup::CgroupId cg, blk::BioPtr bio)
{
    Iocg &st = iocg(cg);
    st.hadWait = true;
    st.waiting.push_back(std::move(bio));
    if (!st.kick.pending())
        kickWaiters(cg);
}

void
IoCost::fusedComplete(cgroup::CgroupId cg, blk::Op op,
                      sim::Time device_latency)
{
    if (op == blk::Op::Read)
        periodReadLat_.record(device_latency);
    else
        periodWriteLat_.record(device_latency);

    Iocg &st = iocg(cg);
    if (st.outstanding > 0 && --st.outstanding == 0)
        st.busyAccum += sim_->now() - st.busySince;
}

bool
IoCost::fusedQuiescent() const
{
    for (const Iocg &st : iocgs_) {
        if (!st.waiting.empty() || st.kick.pending())
            return false;
    }
    return true;
}

void
IoCost::kickWaiters(cgroup::CgroupId cg)
{
    Iocg &st = iocg(cg);
    st.kick.cancel();
    if (st.waiting.empty())
        return;

    updateGvtime();
    const double hw = tree_->hweightInuse(cg);
    if (hw <= kEps) {
        // Weight tree says we have no share (e.g. racing a config
        // change); retry a period later.
        st.kick = sim_->after(period(), [this, cg] {
            kickWaiters(cg);
        });
        return;
    }

    payDebt(cg, st);

    double needed_rel = 0.0;
    while (!st.waiting.empty()) {
        const double abs_cost = st.waiting.front()->controllerScratch;
        if (st.absDebt > 0.0) {
            // payDebt drained the budget and debt remains: nothing
            // dispatches until the debt plus this IO would fit.
            needed_rel = (abs_cost + st.absDebt) / hw -
                         (gvtime_ - st.vtime);
            break;
        }
        const double rel = abs_cost / hw;
        if (gvtime_ - st.vtime >= rel) {
            blk::BioPtr bio = std::move(st.waiting.front());
            st.waiting.pop_front();
            chargeAndDispatch(std::move(bio), st, abs_cost, hw);
        } else {
            needed_rel = rel - (gvtime_ - st.vtime);
            break;
        }
    }

    if (!st.waiting.empty()) {
        // Budget accrues at vrate gvtime-units per wall ns.
        const double wall =
            needed_rel / std::max(vrate_, config_.qos.vrateMin);
        const sim::Time delay = std::max<sim::Time>(
            1 * sim::kUsec, static_cast<sim::Time>(wall));
        st.kick = sim_->after(delay, [this, cg] {
            kickWaiters(cg);
        });
    }
}

void
IoCost::onComplete(const blk::Bio &bio,
                   const blk::CompletionInfo &info)
{
    // Failed bios carry no valid service latency; feeding them into
    // the QoS percentiles would double-punish vrate (the error burst
    // already reads as saturation via onError).
    if (info.status == blk::BioStatus::Ok) {
        if (bio.op == blk::Op::Read)
            periodReadLat_.record(info.deviceLatency);
        else
            periodWriteLat_.record(info.deviceLatency);
    }

    Iocg &st = iocg(bio.cgroup);
    if (st.outstanding > 0 && --st.outstanding == 0)
        st.busyAccum += sim_->now() - st.busySince;
}

void
IoCost::onError(const blk::Bio &bio, const blk::CompletionInfo &info)
{
    (void)bio;
    (void)info;
    ++periodErrors_;
}

sim::Time
IoCost::userspaceDelay(cgroup::CgroupId cg)
{
    const Iocg *st = iocgIfPresent(cg);
    if (!st || st->absDebt <= static_cast<double>(
                                  config_.qos.debtThreshold)) {
        return 0;
    }
    const double hw = std::max(tree_->hweightInuse(cg), 1e-6);
    const double wall = (st->absDebt / hw) / std::max(vrate_, 0.01);
    const sim::Time delay = std::min<sim::Time>(
        config_.qos.maxUserspaceDelay, static_cast<sim::Time>(wall));
    iocg(cg).statIndelay += delay;
    return delay;
}

void
IoCost::adjustVrate(sim::Time elapsed)
{
    (void)elapsed;
    const QosParams &qos = config_.qos;

    // Saturation signal 1: completion-latency target violations.
    // On slow media a single period may not contain enough
    // completions for a stable percentile; histograms then carry
    // over and are only consumed (reset) once populated.
    constexpr uint64_t kMinSamples = 16;
    double worst_ratio = 0.0;
    bool read_ready = periodReadLat_.count() >= kMinSamples;
    bool write_ready = periodWriteLat_.count() >= kMinSamples;
    if (read_ready) {
        const double p = static_cast<double>(
            periodReadLat_.quantile(qos.readLatQuantile));
        worst_ratio = std::max(
            worst_ratio,
            p / static_cast<double>(qos.readLatTarget));
    }
    if (write_ready) {
        const double p = static_cast<double>(
            periodWriteLat_.quantile(qos.writeLatQuantile));
        worst_ratio = std::max(
            worst_ratio,
            p / static_cast<double>(qos.writeLatTarget));
    }
    latReadReady_ = read_ready;
    latWriteReady_ = write_ready;

    // Saturation signal 2: request depletion at the device. An
    // error burst counts too — a device dropping requests is not
    // delivering its modeled capacity, and each failure re-occupies
    // a slot on retry. The threshold keeps a stray transient error
    // from backing off vrate (retries multiply the raw count).
    const bool depleted =
        layer().readAndResetQueueFullEvents() > 0 ||
        layer().dispatchQueueDepth() > 0 ||
        periodErrors_ >= kErrorBurstThreshold;

    // Budget deficiency: someone was throttled this period.
    bool had_wait = false;
    for (const Iocg &st : iocgs_) {
        if (st.hadWait || !st.waiting.empty()) {
            had_wait = true;
            break;
        }
    }

    if (worst_ratio > 1.0) {
        // Latency violation: back off proportionally to how far the
        // percentile overshoots the target, capped per period.
        const double factor =
            std::max(1.0 - qos.vrateStepDown, 1.0 / worst_ratio);
        vrate_ *= factor;
    } else if (depleted) {
        vrate_ *= 1.0 - qos.vrateStepDown * 0.5;
    } else if (had_wait) {
        vrate_ *= 1.0 + qos.vrateStepUp;
    }
    vrate_ = std::clamp(vrate_, qos.vrateMin, qos.vrateMax);
}

void
IoCost::planDonation(double avg_vrate, sim::Time elapsed)
{
    // Donation denominates usage in shares of the total occupancy
    // granted over the period.
    const double granted =
        std::max(1.0, static_cast<double>(elapsed) * avg_vrate);

    std::vector<DonorTarget> &donors = donorScratch_;
    donors.clear();
    for (cgroup::CgroupId cg = 0; cg < iocgs_.size(); ++cg) {
        Iocg &st = iocgs_[cg];
        if (!st.active || !tree_->children(cg).empty())
            continue;
        if (st.hadWait || !st.waiting.empty())
            continue; // saturating its share; not a donor
        const double h = tree_->hweightActive(cg);
        if (h <= kEps)
            continue;
        // A cgroup with IO pending at the device for (nearly) the
        // whole period is busy (possibly device-starved), not idle —
        // shrinking it would spiral: lower share -> fewer
        // completions -> lower measured usage -> lower share. The
        // threshold sits at 80% so legitimately bursty donors (e.g.
        // think-time workloads ~50% busy) still donate.
        sim::Time busy = st.busyAccum;
        if (st.outstanding > 0)
            busy += sim_->now() - st.busySince;
        if (busy * 5 > elapsed * 4)
            continue;
        const double used_share = st.absUsage / granted;
        const double target = std::clamp(
            used_share * config_.qos.donationMargin,
            config_.qos.minShare, h);
        if (target < h * 0.95)
            donors.push_back(DonorTarget{cg, target});
    }
    // applyDonation resets all inuse weights first, so an empty donor
    // set also serves as the periodic "rescind everything" pass.
    applyDonation(*tree_, donors, donationScratch_);
}

void
IoCost::runPlanning()
{
    const sim::Time now = sim_->now();
    updateGvtime();
    const sim::Time elapsed = std::max<sim::Time>(
        1, now - lastPlanning_);
    const double avg_vrate =
        (gvtime_ - gvtimeAtPlanning_) / static_cast<double>(elapsed);

    // Deactivate cgroups that were idle for a full period (§3.1.1);
    // their share implicitly flows to the remaining active groups.
    for (cgroup::CgroupId cg = 0; cg < iocgs_.size(); ++cg) {
        Iocg &st = iocgs_[cg];
        if (st.active && st.waiting.empty() &&
            now - st.lastIo > period()) {
            st.active = false;
            tree_->setActive(cg, false);
        }
    }

    adjustVrate(elapsed);

    if (config_.donationEnabled)
        planDonation(avg_vrate, elapsed);

    vrateSeries_.record(now, vrate_ * 100.0);

    emitPeriodTelemetry(now, elapsed, avg_vrate);

    // Reset period-local accounting and wake throttled cgroups under
    // the new weights and vrate. Latency histograms that were still
    // accumulating toward a stable percentile carry over.
    if (latReadReady_)
        periodReadLat_.reset(now);
    if (latWriteReady_)
        periodWriteLat_.reset(now);
    for (cgroup::CgroupId cg = 0; cg < iocgs_.size(); ++cg) {
        Iocg &st = iocgs_[cg];
        st.absUsage = 0.0;
        st.hadWait = false;
        st.busyAccum = 0;
        st.busySince = now;
        st.periodWait = 0;
        if (!st.waiting.empty())
            kickWaiters(cg);
    }

    periodErrors_ = 0;
    lastPlanning_ = now;
    gvtimeAtPlanning_ = gvtime_;
}

void
IoCost::emitPeriodTelemetry(sim::Time now, sim::Time elapsed,
                            double avg_vrate)
{
    stat::Telemetry &tel = layer().telemetry();
    if (!tel.enabled())
        return;

    // Machine-wide signals: the vrate the planner just settled on
    // and the QoS completion-latency windows it judged it by.
    tel.emit(now, "iocost", stat::kNoCgroup, "vrate_pct",
             vrate_ * 100.0);
    tel.emitSnapshot(now, "iocost", stat::kNoCgroup, "lat_read",
                     periodReadLat_.snapshot(now));
    tel.emitSnapshot(now, "iocost", stat::kNoCgroup, "lat_write",
                     periodWriteLat_.snapshot(now));
    if (periodErrors_ > 0) {
        tel.emit(now, "iocost", stat::kNoCgroup, "error_count",
                 static_cast<double>(periodErrors_));
    }

    // Per-cgroup period records for every active iocg, in the shape
    // the kernel's iocost_monitor prints: share of the occupancy
    // granted this period, waitq time, outstanding debt, and the
    // donation-adjusted hierarchical weight.
    const double granted = std::max(
        1.0, static_cast<double>(elapsed) * avg_vrate);
    for (cgroup::CgroupId cg = 0; cg < iocgs_.size(); ++cg) {
        const Iocg &st = iocgs_[cg];
        if (!st.active)
            continue;
        tel.emit(now, "iocost", cg, "usage_pct",
                 100.0 * st.absUsage / granted);
        tel.emit(now, "iocost", cg, "wait_us",
                 sim::toMicros(st.periodWait));
        tel.emit(now, "iocost", cg, "debt_us", st.absDebt / 1e3);
        tel.emit(now, "iocost", cg, "hweight_inuse_pct",
                 100.0 * tree_->hweightInuse(cg));
        tel.emit(now, "iocost", cg, "hweight_active_pct",
                 100.0 * tree_->hweightActive(cg));
    }
}

} // namespace iocost::core
