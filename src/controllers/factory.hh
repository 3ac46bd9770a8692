/**
 * @file
 * Controller factory: build any IO control mechanism from one spec.
 *
 * Benches sweep mechanisms ("none", "mq-deadline", "kyber", "bfq",
 * "blk-throttle", "iolatency", "iocost") against identical stacks;
 * the factory centralizes construction and the Table 1 capability
 * listing. A ControllerSpec carries the per-mechanism configuration
 * so every caller — host options, CLI flags, fleet scenarios — can
 * hand over one value instead of threading mechanism-specific
 * config structs through every layer.
 */

#ifndef IOCOST_CONTROLLERS_FACTORY_HH
#define IOCOST_CONTROLLERS_FACTORY_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blk/io_controller.hh"
#include "controllers/bfq.hh"
#include "controllers/blk_throttle.hh"
#include "controllers/io_latency.hh"
#include "controllers/kyber.hh"
#include "controllers/mq_deadline.hh"
#include "core/iocost.hh"

namespace iocost::controllers {

/**
 * Mechanism name plus every mechanism's construction-time config.
 *
 * Only the config matching `name` is consulted by makeController();
 * the others ride along at their defaults, which keeps the struct a
 * plain value that call sites can copy, mutate, and pass around.
 *
 * Implicit conversion from a mechanism-name string is deliberate:
 * `opts.controller = "kyber";` keeps working, and assignment of a
 * bare name replaces ONLY the name (configs are preserved), so the
 * order of "set name" vs "set config" at a call site never matters.
 */
struct ControllerSpec
{
    std::string name = "iocost";

    core::IoCostConfig iocost;
    KyberConfig kyber;
    MqDeadlineConfig mqDeadline;
    BfqConfig bfq;
    BlkThrottleConfig throttle;
    IoLatencyConfig iolatency;

    ControllerSpec() = default;
    ControllerSpec(const char *mechanism) : name(mechanism) {}
    ControllerSpec(std::string mechanism)
        : name(std::move(mechanism))
    {}

    /** Assigning a bare mechanism name keeps the configs. */
    ControllerSpec &
    operator=(const char *mechanism)
    {
        name = mechanism;
        return *this;
    }
    ControllerSpec &
    operator=(const std::string &mechanism)
    {
        name = mechanism;
        return *this;
    }

    bool operator==(const std::string &n) const { return name == n; }
    bool operator!=(const std::string &n) const { return name != n; }
};

/**
 * Construct the controller selected by @p spec.
 *
 * @param spec Mechanism name ("none", "mq-deadline", "kyber", "bfq",
 *        "blk-throttle", "iolatency", "iocost") plus per-mechanism
 *        configuration; only the selected mechanism's config is
 *        read.
 * @return The controller; fatal error on an unknown name.
 */
std::unique_ptr<blk::IoController>
makeController(const ControllerSpec &spec);

/**
 * Parse a controller spec line: a mechanism name followed by
 * optional space-separated key=value settings in the style of the
 * kernel's io.cost.* files.
 *
 *   "kyber rlat=2000 wlat=10000 window=25000 wdepth=128"
 *   "mq-deadline rexpire=500000 wexpire=5000000 batch=16"
 *   "bfq budget=524288 idle=2000 inject=4"
 *   "blk-throttle rbps=100e6 wbps=50e6 riops=1000 wiops=500"
 *   "iolatency window=100000 mindepth=1 maxdepth=65536"
 *   "iocost rbps=... rseqiops=... rpct=95 rlat=5000 min=50 max=150
 *           donation=1 debt=production period=10000"
 *
 * Times are microseconds (matching io.cost.qos rlat/wlat). For
 * "iocost" the remaining tokens are handed to parseModelLine() and
 * parseQosLine(), so any valid io.cost.model / io.cost.qos payload
 * is accepted verbatim after the mechanism name; donation=0|1,
 * debt=production|root|inversion and period=<usec> extend those
 * (period overrides just the planning period and is applied after
 * any qos payload, which replaces the whole QoS block).
 *
 * @return The parsed spec, or std::nullopt on an unknown mechanism
 *         or malformed key=value syntax.
 * @throws std::invalid_argument naming the key when a time or count
 *         does not fit its field (`wdepth: 10000000000 is out of
 *         range (max 4294967295)`).
 */
std::optional<ControllerSpec>
parseControllerSpec(const std::string &line);

/**
 * Split a sweep spec list into individual spec lines: entries are
 * ';'-separated, and commas within an entry are token separators
 * (equivalent to spaces), so "iocost,min=25;iocost,min=50" carries a
 * two-config sweep through contexts that cannot hold whitespace
 * (scenario key=value files). Empty entries are dropped.
 */
std::vector<std::string> splitSpecList(const std::string &line);

/**
 * The io.cost.model / io.cost.qos payload of an "iocost ..." spec
 * line: the tokens after the mechanism name minus the donation=,
 * debt= and period= extensions. Callers feed the result to parseModelLine() /
 * parseQosLine() to decide whether the spec supplied its own model
 * or qos keys (e.g. before injecting device-profile defaults).
 * Returns "" for a bare "iocost" or a non-iocost line.
 */
std::string iocostPayload(const std::string &line);

/** All mechanism names in Table 1 order. */
std::vector<std::string> allMechanisms();

/** Capability rows for Table 1 (same order as allMechanisms()). */
std::vector<blk::ControllerCaps> allCapabilities();

} // namespace iocost::controllers

#endif // IOCOST_CONTROLLERS_FACTORY_HH
