#include "host/host.hh"

#include "sim/logging.hh"

namespace iocost::host {

Host::Host(sim::Simulator &sim,
           std::unique_ptr<blk::BlockDevice> device, HostOptions opts)
    : sim_(sim), device_(std::move(device))
{
    system_ = tree_.create(cgroup::kRoot, "system.slice",
                           kSystemWeight);
    hostCritical_ = tree_.create(cgroup::kRoot, "hostcritical.slice",
                                 kHostCriticalWeight);
    workload_ = tree_.create(cgroup::kRoot, "workload.slice",
                             kWorkloadWeight);

    layer_ = std::make_unique<blk::BlockLayer>(sim_, *device_, tree_);
    layer_->setSubmissionCpuEnabled(opts.submissionCpu);
    if (opts.telemetrySink != nullptr)
        layer_->setTelemetrySink(opts.telemetrySink);
    layer_->telemetry().setDetail(opts.telemetryDetail);

    if (!opts.faults.empty() || opts.installFaultInjector) {
        // Throws std::invalid_argument on a malformed spec — before
        // any IO runs, so a bad --faults string fails loudly. An
        // empty spec (installFaultInjector) parses to the empty
        // plan: zero windows, default retry policy.
        sim::FaultPlan plan = sim::FaultPlan::parse(opts.faults);
        blk::BlockLayer::RetryPolicy retry;
        retry.maxRetries = plan.maxRetries;
        retry.backoffBase = plan.retryBackoffBase;
        retry.bioTimeout = plan.bioTimeout;
        layer_->setRetryPolicy(retry);
        faults_ = std::make_unique<sim::FaultInjector>(
            std::move(plan), opts.faultSeedMix);
        device_->setFaultInjector(faults_.get());
    }

    layer_->setController(controllers::makeController(
        opts.controller));

    if (opts.enableMemory) {
        mm_ = std::make_unique<mm::MemoryManager>(sim_, *layer_,
                                                  opts.memoryConfig);
    }
    if (opts.enablePageCache) {
        pagecache_ = std::make_unique<mm::PageCache>(
            sim_, *layer_, opts.pageCacheConfig);
    }
}

HostSnapshot
Host::snapshot() const
{
    sim::panicIf(mm_ != nullptr,
                 "Host::snapshot: the memory manager is not "
                 "snapshottable (async-loop closures alias "
                 "shared_ptr state); build what-if scenarios "
                 "without enableMemory");

    sim::StateWriter w;
    walk(*this, w);
    HostSnapshot snap;
    snap.image_ = std::move(w).finish();
    return snap;
}

void
Host::restore(const HostSnapshot &snap)
{
    sim::StateReader r(snap.image_);
    walk(*this, r);
    sim::panicIf(!r.atEnd(),
                 "Host::restore: trailing bytes in snapshot image");
}

BranchScope::BranchScope(Host &host)
    : host_(host), snap_(host.snapshot())
{
    // Branch telemetry must not interleave into the baseline's
    // stream: fork the sink (fresh ring, fresh null) or run the
    // branch disconnected when the sink is not duplicable (a JSONL
    // file — two writers would corrupt it).
    baselineSink_ = host_.layer().telemetry().sink();
    if (baselineSink_ != nullptr) {
        branchSink_ = baselineSink_->fork();
        host_.layer().setTelemetrySink(branchSink_.get());
    }
}

BranchScope::~BranchScope()
{
    host_.restore(snap_);
    host_.layer().setTelemetrySink(baselineSink_);
}

} // namespace iocost::host
