/**
 * @file
 * Seeded mutation fuzz over the two remaining spec grammars: the
 * controller spec line (controllers::parseControllerSpec, with the
 * io.cost.model and io.cost.qos payloads an iocost line carries) and
 * the fault plan (sim::FaultPlan::parse). Each has its own corpus.
 * Every mutant must parse, be rejected (a controller line's nullopt)
 * or throw std::invalid_argument; every accepted controller spec must
 * build its controller, and every accepted fault plan its injector.
 * The IOCOST_SANITIZE build runs this file under ASan/UBSan, where an
 * out-of-range double-to-integer cast is fatal.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "controllers/factory.hh"
#include "mutation.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"

namespace {

using namespace iocost;

constexpr int kMutantsPerInput = 3000;

/** Controller lines: every mechanism's keys (the examples in
 *  controllers/factory.hh) and iocost lines carrying kernel-format
 *  io.cost.model and io.cost.qos payloads. */
const char *const kControllerCorpus[] = {
    "none",
    "kyber rlat=2000 wlat=10000 window=25000 wdepth=128",
    "mq-deadline rexpire=500000 wexpire=5000000 batch=16",
    "bfq budget=524288 idle=2000 inject=4",
    "blk-throttle rbps=100e6 wbps=50e6 riops=1000 wiops=500",
    "iolatency window=100000 mindepth=1 maxdepth=65536",
    "iocost rbps=500000000 rseqiops=10000 rrandiops=8000 "
    "wbps=400000000 wseqiops=9000 wrandiops=7000 "
    "rpct=90 rlat=2000 min=50 max=150 donation=0 debt=root",
    "iocost enable=1 ctrl=user rpct=95.00 rlat=5000 wpct=95.00 "
    "wlat=5000 min=50.00 max=150.00 period=50000 debt=inversion",
    "iocost ctrl=user model=linear rbps=174019176 "
    "rseqiops=41353 rrandiops=370 wbps=178075866 wseqiops=42253 "
    "wrandiops=378 donation=1 debt=production",
};

/** Insertions that reach the controller grammar's keys, separators
 *  and numeric edges. */
const char *const kControllerTokens[] = {
    "=",      " ",      ":",      "rlat=",  "wlat=",  "wdepth=",
    "batch=", "budget=", "period=", "min=",  "max=",   "rpct=",
    "debt=",  "donation=", "0",   "-1",     "1.5",    "1e308",
    "2e20",   "nan",    "inf",    "4294967296",
    "18446744073709551616", "99999999999999999999",
};

/** Fault plans from the fault, snapshot and scenario tests. */
const char *const kFaultCorpus[] = {
    "",
    "lat@2s+1s=6,err@2500ms+250ms=0.02,stall@3s+50ms,cliff@1s+4s,"
    "seed=99,retries=7,backoff=250us,timeout=80ms",
    "stall@100+5,timeout=3",
    "lat@40ms+80ms=6,err@60ms+60ms=0.05,timeout=30ms",
    "lat@350ms+100ms=3,err@350ms+150ms=0.08,timeout=40ms",
    "lat@1s+500ms=4,err@2s+1s=0.01",
    "err@1s+100ms=0.5",
};

/** Insertions that reach the fault grammar's kinds, keys, units and
 *  numeric edges. */
const char *const kFaultTokens[] = {
    "@",      "+",        "=",        ",",       "lat",   "err",
    "stall",  "cliff",    "seed=",    "retries=", "backoff=",
    "timeout=", "ns",     "us",       "ms",      "s",     "0",
    "-1",     "1.5",      "1e308",    "nan",     "inf",
    "9223372036854775807", "18446744073709551616",
    "99999999999999999999",
};

TEST(SpecFuzz, ControllerMutantsParseOrThrowAndBuild)
{
    sim::Rng rng(0xC0A7A0u);
    uint64_t parsed = 0, rejected = 0;
    for (const char *line : kControllerCorpus) {
        ASSERT_TRUE(controllers::parseControllerSpec(line)) << line;
        for (int i = 0; i < kMutantsPerInput; ++i) {
            const std::string m =
                test::mutate(line, rng, kControllerTokens);
            std::optional<controllers::ControllerSpec> spec;
            if (!test::accepts(
                    [&] { spec = controllers::parseControllerSpec(m); },
                    m) ||
                !spec) {
                ++rejected;
                continue;
            }
            ++parsed;
            EXPECT_TRUE(test::accepts(
                [&] {
                    const auto ctl = controllers::makeController(*spec);
                    ASSERT_NE(ctl, nullptr) << m;
                    (void)ctl->caps();
                },
                m))
                << "accepted spec did not build: " << m;
        }
    }
    // Both outcomes must be common, or the mutations are not
    // reaching the parser's interesting paths.
    EXPECT_GT(parsed, 1000u);
    EXPECT_GT(rejected, 10000u);
}

TEST(SpecFuzz, FaultPlanMutantsParseOrThrowAndBuild)
{
    sim::Rng rng(0xFA017u);
    uint64_t parsed = 0, rejected = 0;
    for (const char *spec : kFaultCorpus) {
        ASSERT_TRUE(test::accepts(
            [&] { (void)sim::FaultPlan::parse(spec); }, spec));
        for (int i = 0; i < kMutantsPerInput; ++i) {
            const std::string m = test::mutate(spec, rng, kFaultTokens);
            sim::FaultPlan plan;
            if (!test::accepts([&] { plan = sim::FaultPlan::parse(m); },
                               m)) {
                ++rejected;
                continue;
            }
            ++parsed;
            // The injector answers at every window's edges, where
            // start + duration is computed.
            sim::FaultInjector inj(plan);
            for (const sim::FaultWindow &w : plan.windows) {
                ASSERT_GT(w.duration, 0) << m;
                ASSERT_GE(w.end(), w.start) << m;
                for (const sim::Time t : {w.start, w.end() - 1}) {
                    (void)inj.latencyMult(t);
                    (void)inj.stallUntil(t);
                    (void)inj.writeCliffActive(t);
                    (void)inj.drawError(t);
                }
            }
        }
    }
    EXPECT_GT(parsed, 1000u);
    EXPECT_GT(rejected, 10000u);
}

} // namespace
