/**
 * @file
 * The single-host scenario surface: the shared value parsers
 * (sim/parse.hh), the job grammar, the iocost defaulting rule and the
 * scenario spec's canonical identity, pinned to golden values because
 * what-if result caches and recorded diff documents key on them.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "controllers/factory.hh"
#include "core/config_parse.hh"
#include "host/scenario.hh"
#include "sim/parse.hh"

namespace {

using namespace iocost;

TEST(SimParse, Time)
{
    const struct
    {
        const char *text;
        sim::Time want;
    } ok[] = {
        {"250", 250 * sim::kMsec},   {"250ms", 250 * sim::kMsec},
        {"2s", 2 * sim::kSec},       {"1.5s", 1500 * sim::kMsec},
        {"500us", 500 * sim::kUsec}, {"7ns", 7},
        {"0", 0},                    {"1e3", sim::kSec},
        {"9223372036s", 9223372036 * sim::kSec},
    };
    for (const auto &c : ok)
        EXPECT_EQ(sim::parseTime(c.text), c.want) << c.text;
    // The last three do not fit in sim::Time.
    for (const char *bad : {"", "ms", "-1ms", "-5", "5parsecs", "5 ms",
                            "5msx", "2S", "x", "inf", "nan", "infs",
                            "9999999999999999999910ms",
                            "9223372036854775808ns", "1e300s"}) {
        EXPECT_THROW(sim::parseTime(bad), std::invalid_argument) << bad;
    }
}

TEST(SimParse, Bytes)
{
    const struct
    {
        const char *text;
        uint64_t want;
    } ok[] = {
        {"100", 100},          {"2K", 2048},          {"2k", 2048},
        {"3M", 3ull << 20},    {"2G", 2ull << 30},    {"0", 0},
        {"1.5G", static_cast<uint64_t>(1.5 * (1ull << 30))},
        {"17179869183G", 17179869183ull << 30},
    };
    for (const auto &c : ok)
        EXPECT_EQ(sim::parseBytes(c.text), c.want) << c.text;
    // The last three do not fit in 64 bits.
    for (const char *bad : {"", "G", "-1K", "5X", "2Gb", "1T", "x", "abc",
                            "inf", "nan", "infK", "99999999999G",
                            "17179869184G", "1e20"})
        EXPECT_THROW(sim::parseBytes(bad), std::invalid_argument) << bad;
}

/** Host-level sizes (the scenario's pagecache=) are sim::parseBytes values. */
TEST(HostConfig, ParseSize)
{
    EXPECT_EQ(sim::parseBytes("100"), 100u);
    EXPECT_EQ(sim::parseBytes("2K"), 2048u);
    EXPECT_EQ(sim::parseBytes("3M"), 3ull << 20);
    EXPECT_EQ(sim::parseBytes("2G"), 2ull << 30);
    EXPECT_EQ(sim::parseBytes("1.5G"),
              static_cast<uint64_t>(1.5 * (1ull << 30)));
    for (const char *bad : {"abc", "5X", "", "2Gb"})
        EXPECT_THROW(sim::parseBytes(bad), std::invalid_argument) << bad;

    EXPECT_EQ(host::ScenarioSpec::parse("pagecache=2G").pagecacheBytes,
              2ull << 30);
    EXPECT_THROW((void)host::ScenarioSpec::parse("pagecache=2Gb"),
                 std::invalid_argument);
}

TEST(SimParse, Numbers)
{
    EXPECT_EQ(sim::parseCount("42"), 42u);
    EXPECT_EQ(sim::parseCount("0"), 0u);
    EXPECT_DOUBLE_EQ(sim::parseNumber("0.25"), 0.25);
    EXPECT_DOUBLE_EQ(sim::parseNumber("-3"), -3.0);
    for (const char *bad : {"", "abc", "-1", "+1", "1.5", "12x", " 1"})
        EXPECT_THROW(sim::parseCount(bad), std::invalid_argument) << bad;
    for (const char *bad : {"", "abc", "1.5x", "1,5", "inf", "-inf", "nan",
                            "infs"})
        EXPECT_THROW(sim::parseNumber(bad), std::invalid_argument) << bad;
}

/** A count narrows to its field's type only when it fits; it is
 *  never wrapped. */
TEST(SimParse, Narrow)
{
    EXPECT_EQ(sim::narrow<unsigned>(4294967295u), 4294967295u);
    EXPECT_EQ(sim::narrow<uint64_t>(UINT64_MAX), UINT64_MAX);
    try {
        (void)sim::narrow<unsigned>(4294967297u);
        ADD_FAILURE() << "narrowed 2^32 + 1";
    } catch (const std::invalid_argument &err) {
        EXPECT_STREQ(err.what(),
                     "4294967297 is out of range (max 4294967295)");
    }
}

/** Every job key lands in its field. */
TEST(ParseJob, EveryKey)
{
    const host::JobSpec d = host::parseJob("plain");
    EXPECT_EQ(d.name, "plain");
    EXPECT_EQ(d.weight, 100u);
    EXPECT_FALSE(d.buffered);
    EXPECT_EQ(d.fio.arrival, workload::Arrival::Saturating);

    const host::JobSpec j = host::parseJob(
        "db:weight=250:depth=8:bs=16K:rw=write:pattern=seq:rate=1500.5:"
        "buffered=1:fsync=4:span=2G");
    EXPECT_EQ(j.name, "db");
    EXPECT_EQ(j.weight, 250u);
    EXPECT_EQ(j.fio.iodepth, 8u);
    EXPECT_EQ(j.fio.blockSize, 16u * 1024);
    EXPECT_EQ(j.fio.readFraction, 0.0);
    EXPECT_EQ(j.fio.randomFraction, 0.0);
    EXPECT_EQ(j.fio.arrival, workload::Arrival::Rate);
    EXPECT_DOUBLE_EQ(j.fio.ratePerSec, 1500.5);
    EXPECT_TRUE(j.buffered);
    EXPECT_EQ(j.fsyncEvery, 4u);
    EXPECT_EQ(j.spanBytes, 2ull << 30);

    EXPECT_EQ(host::parseJob("a:rw=read").fio.readFraction, 1.0);
    EXPECT_EQ(host::parseJob("a:rw=mixed").fio.readFraction, 0.5);
    EXPECT_EQ(host::parseJob("a:pattern=rand").fio.randomFraction, 1.0);
    EXPECT_FALSE(host::parseJob("a:buffered=0").buffered);
    EXPECT_FALSE(d.ioMax.has_value());
    EXPECT_EQ(d.ioLatencyTarget, 0);

    const host::JobSpec think =
        host::parseJob("t:thinktime=100us:depth=1");
    EXPECT_EQ(think.fio.arrival, workload::Arrival::ThinkTime);
    EXPECT_EQ(think.fio.thinkTime, 100 * sim::kUsec);
    EXPECT_EQ(think.fio.iodepth, 1u);
    EXPECT_EQ(host::parseJob("t:thinktime=0").fio.thinkTime, 0);
    // A bare time is ms, as everywhere in the grammar.
    EXPECT_EQ(host::parseJob("t:thinktime=2").fio.thinkTime,
              2 * sim::kMsec);

    // depth= caps the governed concurrency, before or after the key.
    const host::JobSpec shed = host::parseJob(
        "s:depth=16:latency_target=200us:io.max=riops=35440.65 "
        "wiops=10 rbps=4e6 wbps=2e6:io.latency=target=400");
    EXPECT_EQ(shed.fio.arrival, workload::Arrival::LatencyGoverned);
    EXPECT_EQ(shed.fio.latencyTarget, 200 * sim::kUsec);
    EXPECT_EQ(shed.fio.governMaxDepth, 16u);
    EXPECT_EQ(host::parseJob("s:latency_target=1ms:depth=8")
                  .fio.governMaxDepth,
              8u);
    ASSERT_TRUE(shed.ioMax.has_value());
    EXPECT_EQ(shed.ioMax->riops, 35440.65);
    EXPECT_EQ(shed.ioMax->wiops, 10.0);
    EXPECT_EQ(shed.ioMax->rbps, 4e6);
    EXPECT_EQ(shed.ioMax->wbps, 2e6);
    EXPECT_EQ(shed.ioLatencyTarget, 400 * sim::kUsec);
    // Unset io.max dimensions stay unlimited.
    EXPECT_EQ(host::parseJob("m:io.max=wbps=1e6").ioMax->riops, 0.0);
}

/** Errors name the job and the offending key. */
TEST(ParseJob, Errors)
{
    const struct
    {
        const char *text;
        const char *mentions;
    } bad[] = {
        {"web:weight", "weight"},         // missing '='
        {"web:colour=red", "colour"},     // unknown key
        {"web:weight=abc", "weight"},     // bad number
        {"web:depth=-1", "depth"},        //
        {"web:weight=0", "weight"},       // out of range
        {"web:bs=4Q", "bs"},              // bad size suffix
        {"web:rate=fast", "rate"},        //
        {"web:rate=0", "rate"},           // not positive
        {"web:rate=-5", "rate"},          //
        {"web:rate=nan", "rate"},         // not finite
        {"web:bs=0", "bs"},               // not positive
        {"web:rw=sideways", "rw"},        // bad enum
        {"web:pattern=zigzag", "pattern"}, //
        {"web:fsync=1.5", "fsync"},       //
        {"web:thinktime=fast", "thinktime"},
        {"web:thinktime=-1us", "thinktime"},
        {"web:latency_target=0", "latency_target"}, // not positive
        {"web:latency_target=0us", "latency_target"},
        {"web:latency_target=5parsecs", "latency_target"},
        {"web:rate=5:latency_target=1ms", "latency_target: conflicts "
                                          "with rate="},
        {"web:latency_target=1ms:thinktime=1ms", "thinktime: conflicts "
                                                 "with latency_target="},
        {"web:thinktime=1ms:rate=5", "rate: conflicts with thinktime="},
        {"web:io.max=xiops=5", "io.max"},  // unknown io.max key
        {"web:io.max=", "io.max"},         // no limits
        {"web:io.max=riops", "io.max"},    //
        {"web:io.max=riops=0", "io.max"},  // not positive
        {"web:io.max=riops=-5", "io.max"}, //
        {"web:io.latency=200", "io.latency"},
        {"web:io.latency=target=0", "io.latency"},
        {"web:io.latency=tgt=200", "io.latency"},
        {"web:io.latency=target=200 target=300", "io.latency"},
        {"web:io.latency=target=1e300", "target: 1e+300 us is out of "
                                        "range"},
    };
    for (const auto &c : bad) {
        try {
            (void)host::parseJob(c.text);
            ADD_FAILURE() << "accepted " << c.text;
        } catch (const std::invalid_argument &err) {
            const std::string what = err.what();
            EXPECT_NE(what.find(c.text), std::string::npos) << what;
            EXPECT_NE(what.find(c.mentions), std::string::npos) << what;
        }
    }
}

/** Scenario jobs are laid out in disjoint 1 TiB regions. */
TEST(ScenarioSpec, ParsedJobsAreDisjoint)
{
    const host::ScenarioSpec sc =
        host::ScenarioSpec::parse("job=a;job=b:buffered=1;job=c");
    const auto jobs = sc.parsedJobs();
    ASSERT_EQ(jobs.size(), 3u);
    for (size_t j = 0; j < jobs.size(); ++j)
        EXPECT_EQ(jobs[j].fio.offsetBase, static_cast<uint64_t>(j) << 40);
}

/** Canonical rendering of @p sc with its marks given an explicit ns
 *  unit, the spelling parse() reads back (canonical() keeps bare ns
 *  marks so recorded scenario hashes hold). */
std::string
reparseable(const host::ScenarioSpec &sc)
{
    std::string text = sc.canonical();
    text.resize(text.find(";marks=") + 7);
    for (size_t i = 0; i < sc.marks.size(); ++i) {
        text += (i ? "," : "") + std::to_string(sc.marks[i]) + "ns";
    }
    return text;
}

/**
 * canonical() and hash() are cache identities: these values were
 * captured before the scenario moved into host/, and every later
 * change must reproduce them byte for byte.
 */
TEST(ScenarioSpec, GoldenCanonicalAndHash)
{
    const struct
    {
        const char *spec;
        const char *canonical;
        uint64_t hash;
    } golden[] = {
        {"",
         "device=newgen;controller=iocost;model=;qos=;faults=;seconds=10;"
         "seed=42;job=web:weight=200:depth=32;job=batch:weight=100:"
         "depth=32;marks=0,2500000000,5000000000,7500000000",
         0x2feb979822709ff0ull},
        {"seconds=2;pagecache=64M;dirty_ratio=25;"
         "job=web:weight=200:depth=16;"
         "job=b:weight=100:buffered=1:bs=65536:fsync=4:span=8388608",
         "device=newgen;controller=iocost;model=;qos=;faults=;seconds=2;"
         "seed=42;pagecache=67108864;dirty_ratio=25;"
         "job=web:weight=200:depth=16;"
         "job=b:weight=100:buffered=1:bs=65536:fsync=4:span=8388608;"
         "marks=0,500000000,1000000000,1500000000",
         0xa2c8eaed707639acull},
        {"device=oldgen;faults=lat@1s+500ms=4,err@2s+1s=0.01;"
         "seconds=4;marks=500ms,1s,2500ms;seed=7",
         "device=oldgen;controller=iocost;model=;qos=;"
         "faults=lat@1s+500ms=4,err@2s+1s=0.01;seconds=4;seed=7;"
         "job=web:weight=200:depth=32;job=batch:weight=100:depth=32;"
         "marks=0,500000000,1000000000,2500000000",
         0x8b054269b2e9f689ull},
        {"controller=iocost rlat=250 wlat=2000 min=25 max=100 "
         "period=50000;qos=min=40 max=90;seconds=1.5",
         "device=newgen;controller=iocost rlat=250 wlat=2000 min=25 "
         "max=100 period=50000;model=;qos=min=40 max=90;faults=;"
         "seconds=1.5;seed=42;job=web:weight=200:depth=32;"
         "job=batch:weight=100:depth=32;"
         "marks=0,375000000,750000000,1125000000",
         0xb6fae45f986649b1ull},
    };
    for (const auto &g : golden) {
        const host::ScenarioSpec sc = host::ScenarioSpec::parse(g.spec);
        EXPECT_EQ(sc.canonical(), g.canonical) << g.spec;
        EXPECT_EQ(sc.hash(), g.hash) << g.spec;
        const host::ScenarioSpec again =
            host::ScenarioSpec::parse(reparseable(sc));
        EXPECT_EQ(again.canonical(), sc.canonical()) << g.spec;
    }
}

/**
 * The keys the figure tables brought (warmup=, thinktime=,
 * latency_target=, io.max=, io.latency=) appear in canonical() only
 * when set, and a spec that uses all of them re-parses to itself.
 */
TEST(ScenarioSpec, FigureKeysCanonicalReparses)
{
    const host::ScenarioSpec sc = host::ScenarioSpec::parse(
        "device=oldgen;controller=blk-throttle;seconds=2;warmup=500ms;"
        "marks=0;job=hi:weight=200:latency_target=200us:depth=16:"
        "io.max=riops=35440.65;job=lo:thinktime=100us:depth=1:"
        "io.max=riops=17720.325 wbps=1e6");
    const std::string canonical = sc.canonical();
    EXPECT_EQ(canonical,
              "device=oldgen;controller=blk-throttle;model=;qos=;faults=;"
              "seconds=2;warmup=500000000ns;seed=42;"
              "job=hi:weight=200:latency_target=200us:depth=16:"
              "io.max=riops=35440.65;"
              "job=lo:thinktime=100us:depth=1:"
              "io.max=riops=17720.325 wbps=1e6;marks=0");
    EXPECT_EQ(host::ScenarioSpec::parse(canonical).canonical(), canonical);

    const host::ScenarioSpec lat = host::ScenarioSpec::parse(
        "controller=iolatency;warmup=0;marks=0;"
        "job=a:io.latency=target=200");
    EXPECT_EQ(host::ScenarioSpec::parse(lat.canonical()).canonical(),
              lat.canonical());

    // warmup=0 measures from the start; unset keeps 10% of seconds.
    EXPECT_EQ(lat.warmupTime(), 0);
    EXPECT_EQ(sc.warmupTime(), 500 * sim::kMsec);
    const host::ScenarioSpec plain = host::ScenarioSpec::parse("seconds=3");
    EXPECT_FALSE(plain.warmup.has_value());
    EXPECT_EQ(plain.warmupTime(), 300 * sim::kMsec);
    EXPECT_EQ(plain.canonical().find("warmup"), std::string::npos);
    EXPECT_NE(host::ScenarioSpec::parse("seconds=3;warmup=300ms").hash(),
              plain.hash());
}

TEST(ScenarioSpec, ParseErrorsNameTheKey)
{
    const struct
    {
        const char *spec;
        const char *mentions;
    } bad[] = {
        {"seconds=x", "seconds"},
        {"seconds=0", "seconds"},
        {"seed=-1", "seed"},
        {"pagecache=5X", "pagecache"},
        {"dirty_ratio=180", "dirty_ratio"},
        {"marks=5parsecs", "marks"},
        {"controller=bogus", "controller"},
        {"qos=min=90 max=10", "qos"},
        {"faults=lat@1s", "faults"},
        {"job=web:weight=abc", "weight"},
        {"colour=red", "colour"},
        {"novalue", "novalue"},
        {"device=nosuch", "device"},
        {"seconds=1e300", "seconds"},
        {"job=web:bs=99999999999G", "bs"},
        {"job=web:bs=4G", "bs"},
        {"job=web:depth=4294967296", "depth"},
        {"qos=rlat=2e20", "rlat: 2e+20 us is out of range"},
        {"qos=wlat=1e300", "wlat: 1e+300 us is out of range"},
        {"controller=kyber rlat=1e300",
         "rlat: 1e+300 us is out of range"},
        {"controller=kyber wdepth=1e10",
         "wdepth: 10000000000 is out of range"},
        {"controller=iocost rlat=2e20 min=25",
         "rlat: 2e+20 us is out of range"},
        {"warmup=x", "warmup"},
        {"warmup=-1s", "warmup"},
        {"warmup=5parsecs", "warmup"},
        {"warmup=9223372036s", "warmup out of range"},
        {"controller=bfq;job=hi:io.max=riops=100",
         "job \"hi\": io.max needs controller=blk-throttle"},
        {"job=lo:io.latency=target=400",
         "job \"lo\": io.latency needs controller=iolatency"},
        {"controller=blk-throttle;job=a:io.latency=target=400",
         "io.latency needs controller=iolatency"},
    };
    for (const auto &c : bad) {
        try {
            (void)host::ScenarioSpec::parse(c.spec);
            ADD_FAILURE() << "accepted " << c.spec;
        } catch (const std::invalid_argument &err) {
            EXPECT_NE(std::string(err.what()).find(c.mentions),
                      std::string::npos)
                << err.what();
        }
    }
}

/** The one defaulting rule: model and QoS keys on the line win, the
 *  period= extension survives a defaulted QoS. */
TEST(ScenarioDefaults, IocostDefaulting)
{
    core::LinearModelConfig model;
    model.rbps = 123e6;
    core::LinearModelConfig line_model;
    line_model.rbps = 5e6;
    auto read_ns = [](const core::LinearModelConfig &cfg) {
        return core::CostModel::fromConfig(cfg).readNsPerByte();
    };
    auto resolve = [&](const std::string &line) {
        auto spec = controllers::parseControllerSpec(line);
        EXPECT_TRUE(spec.has_value()) << line;
        host::applyIocostDefaults(*spec, line, model);
        return *spec;
    };
    const core::QosParams dflt = host::defaultQos();

    const auto bare = resolve("iocost");
    EXPECT_EQ(bare.iocost.qos.vrateMin, 0.5);
    EXPECT_EQ(bare.iocost.qos.vrateMax, 1.0);
    EXPECT_EQ(bare.iocost.qos.period, dflt.period);
    EXPECT_EQ(bare.iocost.model.readNsPerByte(), read_ns(model));

    const auto keyed = resolve("iocost min=25 max=25 rbps=5000000");
    EXPECT_EQ(keyed.iocost.qos.vrateMin, 0.25);
    EXPECT_EQ(keyed.iocost.qos.vrateMax, 0.25);
    EXPECT_EQ(keyed.iocost.model.readNsPerByte(), read_ns(line_model));

    const auto period = resolve("iocost period=20000");
    EXPECT_EQ(period.iocost.qos.vrateMin, 0.5);
    EXPECT_EQ(period.iocost.qos.period, 20 * sim::kMsec);
}

/** Sweep lanes get the host's defaulting: bare iocost runs 50-100%,
 *  and the scenario's qos line replaces every lane's QoS. */
TEST(ScenarioDefaults, SweepLanesDefaultLikeTheHost)
{
    auto lane = [](const host::ScenarioSpec &sc, const std::string &line) {
        const host::SweepOptions opts =
            host::scenarioSweep(sc, {line, "iolatency"});
        auto spec = controllers::parseControllerSpec(line);
        opts.tweakSpec(line, *spec);
        return spec->iocost.qos;
    };
    const host::ScenarioSpec plain = host::ScenarioSpec::parse("");
    EXPECT_EQ(lane(plain, "iocost").vrateMin, 0.5);
    EXPECT_EQ(lane(plain, "iocost").vrateMax, 1.0);
    EXPECT_EQ(lane(plain, "iocost min=25 max=25").vrateMax, 0.25);

    const host::ScenarioSpec qos =
        host::ScenarioSpec::parse("qos=min=40 max=90");
    EXPECT_EQ(lane(qos, "iocost min=25 max=25").vrateMin, 0.4);
    EXPECT_EQ(lane(qos, "iocost").vrateMax, 0.9);

    EXPECT_THROW(host::scenarioSweep(
                     host::ScenarioSpec::parse("job=b:buffered=1"),
                     {"iocost", "iolatency"}),
                 std::invalid_argument);
    // Each lane runs its own controller, so no lane reads io.max.
    EXPECT_THROW(host::scenarioSweep(
                     host::ScenarioSpec::parse(
                         "controller=blk-throttle;job=b:io.max=riops=100"),
                     {"blk-throttle", "iocost"}),
                 std::invalid_argument);
    EXPECT_THROW(host::scenarioSweep(
                     host::ScenarioSpec::parse(
                         "controller=iolatency;job=b:io.latency=target=300"),
                     {"iolatency", "iocost"}),
                 std::invalid_argument);
}

} // namespace
