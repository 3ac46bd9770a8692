#include "profile/device_profiler.hh"

#include <algorithm>
#include <array>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "blk/block_layer.hh"
#include "cgroup/cgroup_tree.hh"
#include "host/sweep.hh"
#include "workload/fio_workload.hh"

namespace iocost::profile {

namespace {

/** One saturating fio job: what it issues and how deep. */
struct Dimension
{
    blk::Op op;
    bool random;
    uint32_t blockSize;
    unsigned iodepth;
};

/**
 * The eight fio jobs of a profile. Dimension i runs at seed + i + 1.
 * The four 4k IOPS anchors take nearly all of the profiling time, so
 * they come first and start first on the pool.
 */
constexpr std::array<Dimension, 8> kDimensions = {{
    // IOPS anchors: saturating 4k jobs at a deep queue.
    {blk::Op::Read, true, 4096, 256},   // rrandiops
    {blk::Op::Read, false, 4096, 256},  // rseqiops
    {blk::Op::Write, true, 4096, 256},  // wrandiops
    {blk::Op::Write, false, 4096, 256}, // wseqiops
    // Byte rates: large sequential transfers.
    {blk::Op::Read, false, 1 << 20, 64},  // rbps
    {blk::Op::Write, false, 1 << 20, 64}, // wbps
    // Single-IO latency: depth-1 random jobs.
    {blk::Op::Read, true, 4096, 1},  // read latency
    {blk::Op::Write, true, 4096, 1}, // write latency
}};

/**
 * Profiling workers. With four, the IOPS anchors all start at once
 * and a profile takes as long as its slowest dimension; more threads
 * would only idle.
 */
unsigned
profileWorkers()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

struct DimensionResult
{
    double opsPerSec = 0;
    double bytesPerSec = 0;
    sim::Time p50Latency = 0;
};

/**
 * Run one saturating fio job against a fresh device and measure
 * steady-state throughput and latency.
 */
DimensionResult
runDimension(const DeviceFactory &factory, uint64_t seed,
             double run_seconds, const Dimension &dim)
{
    sim::Simulator sim(seed);
    auto device = factory(sim);
    cgroup::CgroupTree tree;
    blk::BlockLayer layer(sim, *device, tree);

    workload::FioConfig cfg;
    cfg.name = "profiler";
    cfg.readFraction = dim.op == blk::Op::Read ? 1.0 : 0.0;
    cfg.randomFraction = dim.random ? 1.0 : 0.0;
    cfg.blockSize = dim.blockSize;
    cfg.arrival = workload::Arrival::Saturating;
    cfg.iodepth = dim.iodepth;

    workload::FioWorkload job(sim, layer, cgroup::kRoot, cfg);
    job.start();

    // Warm up long enough to drain any write-buffer burst credit so
    // the measurement reflects sustainable rates (what the paper's
    // tooling reports).
    const auto warmup = static_cast<sim::Time>(
        run_seconds * 0.5 * static_cast<double>(sim::kSec));
    sim.runUntil(warmup);
    job.resetStats();

    const auto measure = static_cast<sim::Time>(
        run_seconds * static_cast<double>(sim::kSec));
    sim.runUntil(warmup + measure);

    DimensionResult out;
    out.opsPerSec = job.iops();
    out.bytesPerSec = out.opsPerSec * dim.blockSize;
    out.p50Latency = job.latency().quantile(0.5);
    job.stop();
    return out;
}

std::string
deviceName(const device::SsdSpec &s)
{
    return "ssd:" + s.name;
}

std::string
deviceName(const device::HddSpec &s)
{
    return "hdd:" + s.name;
}

std::string
deviceName(const device::RemoteSpec &s)
{
    return "remote:" + s.name;
}

/** A spec and its profile, from the table or profiled cold. */
struct Cached
{
    device::DeviceSpec spec;
    ProfileResult profile;
};

/**
 * The parallel fleet runner and the what-if replicas profile devices
 * from worker threads; the cache is shared process state. One lock
 * covers lookup and profiling, so a device is profiled once and other
 * callers wait for it. Profiling runs on its own pool, whose workers
 * never touch the cache, so holding the lock across it cannot
 * deadlock, and its result does not depend on which thread asked.
 */
std::mutex cacheMutex;

std::string
deviceName(const device::DeviceSpec &spec)
{
    return std::visit([](const auto &s) { return deviceName(s); },
                      spec);
}

/**
 * Starts out holding the table. A deque, so references returned to
 * callers stay valid as cold profiles are appended.
 */
std::deque<Cached> &
cache()
{
    static std::deque<Cached> c = [] {
        std::deque<Cached> out;
        for (const TableEntry &e : profileTable()) {
            ProfileResult r;
            r.deviceName = deviceName(e.spec);
            r.model = e.model;
            r.randReadIops = e.model.rrandiops;
            r.seqReadIops = e.model.rseqiops;
            r.randWriteIops = e.model.wrandiops;
            r.seqWriteIops = e.model.wseqiops;
            r.readLatency = e.readLatency;
            r.writeLatency = e.writeLatency;
            out.push_back({e.spec, std::move(r)});
        }
        return out;
    }();
    return c;
}

const ProfileResult &
cachedProfile(const device::DeviceSpec &spec)
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    for (const Cached &c : cache()) {
        if (c.spec == spec)
            return c.profile;
    }
    return cache()
        .emplace_back(Cached{
            spec, DeviceProfiler::profile(
                      deviceName(spec), [&spec](sim::Simulator &sim) {
                          return device::makeDevice(sim, spec);
                      })})
        .profile;
}

} // namespace

ProfileResult
DeviceProfiler::profile(const std::string &name,
                        const DeviceFactory &factory, uint64_t seed,
                        double run_seconds)
{
    // Every dimension owns its simulator, device and seed, so they
    // run concurrently and the results equal a back-to-back run.
    const std::vector<DimensionResult> d = host::runPaired(
        kDimensions.size(), profileWorkers(), [&](size_t i) {
            return runDimension(factory, seed + i + 1, run_seconds,
                                kDimensions[i]);
        });
    const DimensionResult &rr = d[0], &rs = d[1], &wr = d[2],
                          &ws = d[3], &rb = d[4], &wb = d[5],
                          &rl = d[6], &wl = d[7];

    ProfileResult r;
    r.deviceName = name;

    r.model.rrandiops = rr.opsPerSec;
    r.model.rseqiops = rs.opsPerSec;
    r.model.wrandiops = wr.opsPerSec;
    r.model.wseqiops = ws.opsPerSec;
    r.model.rbps = rb.bytesPerSec;
    r.model.wbps = wb.bytesPerSec;

    r.randReadIops = rr.opsPerSec;
    r.seqReadIops = rs.opsPerSec;
    r.randWriteIops = wr.opsPerSec;
    r.seqWriteIops = ws.opsPerSec;
    r.readLatency = rl.p50Latency;
    r.writeLatency = wl.p50Latency;
    return r;
}

const ProfileResult &
DeviceProfiler::profileSsd(const device::SsdSpec &s)
{
    return cachedProfile(s);
}

const ProfileResult &
DeviceProfiler::profileRemote(const device::RemoteSpec &s)
{
    return cachedProfile(s);
}

} // namespace iocost::profile
