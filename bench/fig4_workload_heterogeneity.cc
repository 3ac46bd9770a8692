/**
 * @file
 * Figure 4: IO workload heterogeneity.
 *
 * Replays the IO-demand archetypes of Meta's workloads (webs,
 * serverless, in-memory caches with block backing, non-storage
 * services) and reports per-second read-vs-write and random-vs-
 * sequential bytes — the two axes of the paper's figure. Rates are
 * the archetypes' P50 demand signatures, not saturation tests.
 */

#include <array>

#include "bench/common.hh"
#include "blk/block_layer.hh"
#include "cgroup/cgroup_tree.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "sim/simulator.hh"
#include "workload/fio_workload.hh"

namespace {

using namespace iocost;

/** Demand signature in MB/s for the four (dir x pattern) classes. */
struct Archetype
{
    const char *name;
    double randReadMBps;
    double seqReadMBps;
    double randWriteMBps;
    double seqWriteMBps;
    uint32_t blockSize;
};

constexpr std::array<Archetype, 7> kArchetypes = {{
    // Webs: moderate reads and writes, roughly even rand/seq mix.
    {"web-a", 18, 14, 12, 16, 16384},
    {"web-b", 10, 9, 8, 10, 16384},
    // Serverless: highly overcommitted, mixed reads and writes.
    {"serverless", 25, 10, 20, 12, 8192},
    // In-memory caches backed by fast block devices: heavily
    // sequential.
    {"cache-a", 6, 160, 2, 120, 262144},
    {"cache-b", 4, 90, 2, 210, 262144},
    // Non-storage services: little explicit IO (paging + periodic
    // software updates).
    {"nonstorage-a", 1.5, 0.7, 0.3, 1.2, 8192},
    {"nonstorage-b", 0.8, 0.4, 0.2, 0.8, 8192},
}};

} // namespace

int
main(int argc, char **argv)
{
    (void)iocost::bench::parseArgs(argc, argv); // rejects unknown flags
    bench::banner(
        "Figure 4: IO workload heterogeneity",
        "Measured per-second read/write and random/sequential "
        "bytes for each workload\narchetype (P50 demand "
        "signatures). Expected shape: webs mixed and moderate,\n"
        "caches sequential-heavy, non-storage tiny.");

    bench::Table table({"Workload", "Read B/s", "Write B/s",
                        "Random B/s", "Sequential B/s"});

    for (const Archetype &a : kArchetypes) {
        sim::Simulator sim(404);
        device::SsdModel device(sim, device::enterpriseSsd());
        cgroup::CgroupTree tree;
        blk::BlockLayer layer(sim, device, tree);
        const auto cg = tree.create(cgroup::kRoot, a.name);

        struct Dim
        {
            double mbps;
            double read_frac;
            double rand_frac;
        };
        const Dim dims[4] = {{a.randReadMBps, 1, 1},
                             {a.seqReadMBps, 1, 0},
                             {a.randWriteMBps, 0, 1},
                             {a.seqWriteMBps, 0, 0}};

        std::vector<std::unique_ptr<workload::FioWorkload>> jobs;
        std::vector<double> done_bytes(4, 0.0);
        for (const Dim &d : dims) {
            workload::FioConfig cfg;
            cfg.arrival = workload::Arrival::Rate;
            cfg.blockSize = a.blockSize;
            cfg.ratePerSec = d.mbps * 1e6 / a.blockSize;
            cfg.readFraction = d.read_frac;
            cfg.randomFraction = d.rand_frac;
            if (cfg.ratePerSec <= 0)
                continue;
            jobs.push_back(
                std::make_unique<workload::FioWorkload>(
                    sim, layer, cg, cfg));
        }
        for (auto &j : jobs)
            j->start();
        constexpr double kSeconds = 10.0;
        sim.runUntil(static_cast<sim::Time>(
            kSeconds * sim::kSec));

        double read = 0, write = 0, rand = 0, seq = 0;
        size_t ji = 0;
        for (const Dim &d : dims) {
            if (d.mbps <= 0)
                continue;
            const double bps =
                jobs[ji]->completed() * a.blockSize / kSeconds;
            ++ji;
            (d.read_frac > 0.5 ? read : write) += bps;
            (d.rand_frac > 0.5 ? rand : seq) += bps;
        }
        table.row({a.name, bench::fmtBps(read),
                   bench::fmtBps(write), bench::fmtBps(rand),
                   bench::fmtBps(seq)});
    }
    table.print();
    return 0;
}
