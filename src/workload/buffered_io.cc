#include "workload/buffered_io.hh"

#include <algorithm>

namespace iocost::workload {

BufferedWorkload::BufferedWorkload(sim::Simulator &sim,
                                   mm::PageCache &cache,
                                   cgroup::CgroupId cg,
                                   BufferedConfig cfg)
    : sim_(sim),
      cache_(cache),
      cg_(cg),
      cfg_(std::move(cfg)),
      rng_(sim.forkRng())
{
    // Constructor-time registration: the span is part of the
    // cgroup's identity in the cache, not per-run state (a restart
    // must not double it).
    cache_.addSpan(cg_, cfg_.spanBytes);
}

void
BufferedWorkload::start()
{
    if (running_)
        return;
    running_ = true;
    statsStart_ = sim_.now();
    for (unsigned i = 0; i < std::max(1u, cfg_.depth); ++i)
        issueOne();
}

void
BufferedWorkload::stop()
{
    running_ = false;
}

double
BufferedWorkload::iops() const
{
    const sim::Time elapsed = sim_.now() - statsStart_;
    if (elapsed <= 0)
        return 0.0;
    return static_cast<double>(completed_) / sim::toSeconds(elapsed);
}

void
BufferedWorkload::resetStats()
{
    completed_ = 0;
    fsyncsDone_ = 0;
    statsStart_ = sim_.now();
    latency_.reset();
}

void
BufferedWorkload::issueOne()
{
    if (!running_)
        return;

    ++inFlight_;
    const sim::Time submitted = sim_.now();
    auto finish = [this, submitted] {
        onDone(sim_.now() - submitted);
    };

    // A due fsync barrier takes the slot before the next write.
    if (cfg_.fsyncEvery > 0 &&
        writesSinceFsync_ >= cfg_.fsyncEvery) {
        writesSinceFsync_ = 0;
        ++fsyncsDone_;
        cache_.fsync(cg_, finish);
        return;
    }

    // Two draws per operation whatever the mix, so the stream stays
    // aligned across read-fraction sweeps.
    const bool is_read = rng_.uniform() < cfg_.readFraction;
    const bool is_random = rng_.uniform() < cfg_.randomFraction;

    uint64_t offset;
    if (is_random) {
        const uint64_t blocks = cfg_.spanBytes / cfg_.blockSize;
        offset = cfg_.offsetBase +
                 rng_.below(std::max<uint64_t>(1, blocks)) *
                     cfg_.blockSize;
    } else {
        offset = cfg_.offsetBase + seqCursor_;
        seqCursor_ = (seqCursor_ + cfg_.blockSize) % cfg_.spanBytes;
    }

    if (is_read) {
        cache_.read(cg_, offset, cfg_.blockSize, finish);
    } else {
        ++writesSinceFsync_;
        cache_.write(cg_, offset, cfg_.blockSize, finish);
    }
}

void
BufferedWorkload::onDone(sim::Time latency)
{
    if (inFlight_ > 0)
        --inFlight_;
    ++completed_;
    latency_.record(latency);

    if (!running_)
        return;
    // Closed loop with a think-time hop. The hop is mandatory (min
    // one tick): a buffered write that neither stalls nor owes debt
    // completes synchronously, and an unpaced loop would recurse at
    // a frozen timestamp.
    sim_.after(std::max<sim::Time>(1, cfg_.thinkTime),
               [this] { issueOne(); });
}

} // namespace iocost::workload
