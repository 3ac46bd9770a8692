/**
 * @file
 * Parsers for the kernel's io.cost configuration interfaces.
 *
 * Production iocost is configured through two cgroup files whose
 * payloads are space-separated key=value lines:
 *
 *   io.cost.model:  8:0 ctrl=user model=linear rbps=... rseqiops=...
 *                   rrandiops=... wbps=... wseqiops=... wrandiops=...
 *   io.cost.qos:    8:0 enable=1 ctrl=user rpct=95.00 rlat=5000
 *                   wpct=95.00 wlat=5000 min=50.00 max=150.00
 *
 * These helpers parse and emit that exact format so model/QoS
 * configurations round-trip between this library and a real kernel
 * (percent-denominated min/max and microsecond-denominated
 * latencies included).
 */

#ifndef IOCOST_CORE_CONFIG_PARSE_HH
#define IOCOST_CORE_CONFIG_PARSE_HH

#include <concepts>
#include <optional>
#include <string>
#include <vector>

#include "core/cost_model.hh"
#include "core/qos.hh"
#include "sim/time.hh"

namespace iocost::core {

/** Split a config line into whitespace-separated tokens. */
std::vector<std::string> configTokens(const std::string &line);

/**
 * Split one "key=value" token into key and value.
 * @return false on syntax error (missing '=', empty key or value).
 */
bool configKeyValue(const std::string &tok, std::string &key,
                    std::string &value);

/** Parse a strictly positive, finite number; returns false on
 *  garbage. */
bool configPositiveNumber(const std::string &s, double &out);

/**
 * A parsed positive number of microseconds as simulated time.
 * @throws std::invalid_argument naming @p key (`rlat: 2e+20 us is
 *         out of range (2^63 ns or more)`) when it does not fit.
 */
sim::Time configMicros(const std::string &key, double us);

/**
 * A parsed positive number truncated to the count field it sets
 * (unsigned or uint64_t).
 * @throws std::invalid_argument naming @p key (`wdepth: 10000000000
 *         is out of range (max 4294967295)`) when it does not fit.
 */
template <std::unsigned_integral T>
T configCount(const std::string &key, double v);

/**
 * Parse an io.cost.model line.
 *
 * Unknown keys are ignored (forward compatibility); a leading
 * device number ("8:0") and ctrl=/model= markers are accepted and
 * skipped. Returns std::nullopt on malformed key=value syntax or a
 * non-positive rate.
 */
std::optional<LinearModelConfig>
parseModelLine(const std::string &line);

/** Emit the io.cost.model payload for @p cfg (without dev number). */
std::string formatModelLine(const LinearModelConfig &cfg);

/**
 * Parse an io.cost.qos line (rpct/rlat/wpct/wlat/min/max keys;
 * percentiles in percent, latencies in microseconds, min/max in
 * percent of the model rate). Missing keys keep their defaults.
 * Returns std::nullopt on malformed syntax, a non-positive value or
 * min above max.
 * @throws std::invalid_argument when rlat or wlat is out of range
 *         (see configMicros).
 */
std::optional<QosParams> parseQosLine(const std::string &line);

/** Emit the io.cost.qos payload for @p qos (without dev number). */
std::string formatQosLine(const QosParams &qos);

} // namespace iocost::core

#endif // IOCOST_CORE_CONFIG_PARSE_HH
