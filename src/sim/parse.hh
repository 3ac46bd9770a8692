/**
 * @file
 * Numbers, durations and sizes as every text grammar spells them.
 *
 * The fault plan, the fleet and host scenarios, the CLI flags and
 * every JSON document (through sim/json.hh, which keeps each number's
 * text for them) read values through these four parsers. Each throws
 * std::invalid_argument with a bare reason (e.g. `unknown time unit
 * "x"`); callers prefix the token, key or flag they were reading.
 */

#ifndef IOCOST_SIM_PARSE_HH
#define IOCOST_SIM_PARSE_HH

#include <cstdint>
#include <string>

#include "sim/time.hh"

namespace iocost::sim {

/** A whole-string decimal number ("2", "0.5", "1e3"). */
double parseNumber(const std::string &text);

/** A whole-string non-negative integer (no sign, no fraction). */
uint64_t parseCount(const std::string &text);

/**
 * A non-negative duration with an optional ns/us/ms/s suffix; a bare
 * number is milliseconds ("2s", "500us", "250" == 250ms).
 */
Time parseTime(const std::string &text);

/**
 * A non-negative byte count with an optional binary K/M/G suffix in
 * either case ("1.5G" == 1.5 * 2^30); a bare number is bytes.
 */
uint64_t parseBytes(const std::string &text);

/**
 * A spec argument as the CLIs take it: the text itself, or for
 * "@FILE" the contents of FILE.
 * @throws std::invalid_argument when FILE cannot be read.
 */
std::string specArgument(const std::string &arg);

} // namespace iocost::sim

#endif // IOCOST_SIM_PARSE_HH
