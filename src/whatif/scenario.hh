/**
 * @file
 * What-if scenario: the single-host scenario the query service
 * answers questions about (grammar in host/scenario.hh). Two
 * scenarios with equal canonical() strings build byte-identical
 * baselines, so (scenario hash, query) keys the result cache.
 */

#ifndef IOCOST_WHATIF_SCENARIO_HH
#define IOCOST_WHATIF_SCENARIO_HH

#include "host/scenario.hh"

namespace iocost::whatif {

using Scenario = host::ScenarioSpec;

} // namespace iocost::whatif

#endif // IOCOST_WHATIF_SCENARIO_HH
