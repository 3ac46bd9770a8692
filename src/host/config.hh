/**
 * @file
 * cgroupfs-style host configuration.
 *
 * Production systems configure IO control by writing files in the
 * cgroup hierarchy; this applier accepts the same shape as text —
 * one cgroup path per line followed by key=value settings — so
 * whole-host configurations are a copy-paste away from a real
 * machine:
 *
 *     workload.slice                io.weight=500
 *     workload.slice/web            io.weight=200 memory.low=2G
 *     system.slice/chef             io.weight=25
 *
 * Supported keys: io.weight (cgroup v2 weight), memory.low
 * (reclaim protection, requires the host's MemoryManager), and
 * memory.dirty_limit (per-cgroup dirty-page cap in bytes, requires
 * the host's PageCache). Missing cgroups are created along the
 * path. Sizes accept K/M/G suffixes.
 */

#ifndef IOCOST_HOST_CONFIG_HH
#define IOCOST_HOST_CONFIG_HH

#include <string>

#include "host/host.hh"

namespace iocost::host {

/** Outcome of applying a configuration. */
struct ApplyResult
{
    /** Lines successfully applied. */
    unsigned applied = 0;
    /** First error, empty when fully applied. */
    std::string error;

    explicit operator bool() const { return error.empty(); }
};

/**
 * Apply a cgroupfs-style configuration to @p host.
 *
 * Stops at the first malformed line or unknown key and reports it;
 * earlier lines stay applied (like a sequence of `echo >` writes).
 */
ApplyResult applyConfig(Host &host, const std::string &config);

/**
 * Find a cgroup by slash-separated path relative to the root
 * ("workload.slice/web"). Returns kNone when absent.
 */
cgroup::CgroupId findCgroup(cgroup::CgroupTree &tree,
                            const std::string &path);

/**
 * Find or create a cgroup by path, creating intermediate groups
 * with the default weight.
 */
cgroup::CgroupId ensureCgroup(cgroup::CgroupTree &tree,
                              const std::string &path);

} // namespace iocost::host

#endif // IOCOST_HOST_CONFIG_HH
