/**
 * @file
 * What-if query: one hypothetical change applied at a branch point.
 *
 * Queries arrive as flat one-line JSON objects (iocost_whatif
 * stdin, iocost_sim --whatif) read by sim/json.hh. Each value is a
 * string or a number whose text goes to the sim/parse.hh grammar of
 * its key, so "value":300 and "value":"300" are the same weight:
 *
 *   {"q":"weight","cg":"web","value":300,"from":"1s"}
 *       re-weight the named workload cgroup from sim time `from`
 *   {"q":"device","profile":"G","from":"2s"}
 *       swap the device's spec to a profile table row's (a name
 *       profile::namedDevice knows, of the live device's kind; see
 *       host::applyDeviceProfile)
 *   {"q":"fault","spec":"lat@2s+1s=6","from":"1500ms"}
 *       add fault windows (sim::FaultPlan window grammar) — the
 *       window times are absolute sim time, `from` is only the
 *       branch point the change is introduced at
 *
 * `from` takes a number or string with ns/us/ms/s suffix (default
 * ms) and defaults to 0 — branch from the start of the run.
 */

#ifndef IOCOST_WHATIF_QUERY_HH
#define IOCOST_WHATIF_QUERY_HH

#include <cstdint>
#include <string>

#include "sim/time.hh"

namespace iocost::whatif {

struct Query
{
    enum class Kind
    {
        Weight,
        Device,
        Fault,
    };

    Kind kind = Kind::Weight;

    /** Weight: target cgroup name and new weight. */
    std::string cg;
    uint32_t weight = 0;

    /** Device: replacement profile name. */
    std::string profile;

    /** Fault: FaultPlan window spec (absolute sim times). */
    std::string fault;

    /** Branch point: sim time the change takes effect. */
    sim::Time from = 0;

    /**
     * Parse one JSON query line. Values must be strings or numbers
     * (the documents are flat); the fault spec is validated against
     * the FaultPlan grammar here, so a malformed query never
     * reaches a worker.
     * @throws std::invalid_argument with a one-line reason (the
     *         byte offset, for a line that is not JSON).
     */
    static Query parse(const std::string &jsonLine);

    /** Deterministic one-line rendering (the cache identity). */
    std::string canonical() const;
};

} // namespace iocost::whatif

#endif // IOCOST_WHATIF_QUERY_HH
