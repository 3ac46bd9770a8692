/**
 * @file
 * The fleet mode iocost_sim and iocost_mon share: one reader for the
 * fleet flags and one run that renders and writes the result, so a
 * fleet flag means the same thing in both tools.
 *
 *   --scenario SPEC|@FILE|fig18|fig19
 *                     the FleetScenario (fleet_scenario.hh grammar);
 *                     fig18/fig19 name kFig18Spec/kFig19Spec
 *   --hosts N  --days N  --seed N  --faults SPEC  --sweep "s1;s2"
 *                     override the scenario key of the same name, as
 *                     if appended to the spec, so keys that default
 *                     from others (the migration window from days)
 *                     resolve after them
 *   --jobs N          worker threads (0 = one per hardware thread)
 *   --shards N        shard count (0 = the scenario's, else auto)
 */

#ifndef IOCOST_FLEET_FLEET_CLI_HH
#define IOCOST_FLEET_FLEET_CLI_HH

#include <string>

#include "fleet/fleet_scenario.hh"
#include "fleet/fleet_sim.hh"

namespace iocost::fleet {

/** The fleet flags as read (grammar in the file comment). */
struct FleetFlags
{
    /** --scenario as given. */
    std::string scenario;

    /** The key-overriding flags as scenario tokens, in flag order. */
    std::string overrides;

    /** --sweep as given; the single-host sweep modes read it too. */
    std::string sweep;

    /** --jobs and --shards. */
    RunOptions run;

    /**
     * The scenario the flags describe: the --scenario spec (or
     * preset), then @p defaults, then the overriding flags.
     * @throws std::invalid_argument on a malformed spec or override,
     *         or an unreadable @FILE.
     */
    FleetScenario resolve(const std::string &defaults = "") const;
};

/**
 * Read argv[i] when it is a fleet flag. --seed and --faults are
 * single-host scenario flags as well: they are recorded and left in
 * place for host::readScenarioFlag.
 * @return true when argv[i] and its value were consumed (@p i then
 *         points at the value).
 * @throws std::invalid_argument on a missing or malformed value.
 */
bool readFleetFlag(FleetFlags &flags, int argc, char **argv, int &i);

/**
 * Run the flags' scenario through the sharded engine (a sweep when it
 * has sweep= configs): print its canonical form and every aggregate
 * (renderView), then write the JSON document (writeViewJson) to
 * @p out_path unless it is empty.
 * @throws std::invalid_argument from resolve(); std::runtime_error
 *         when @p out_path cannot be written.
 */
void runFleet(const FleetFlags &flags, const std::string &out_path);

} // namespace iocost::fleet

#endif // IOCOST_FLEET_FLEET_CLI_HH
