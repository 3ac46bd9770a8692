/**
 * @file
 * The one JSON reader and escaper (sim/json.hh): grammar edges, the
 * escape round trip, and a seeded mutation fuzz over every kind of
 * document the simulator writes and reads back. Every mutant must
 * parse or throw std::invalid_argument, through the bare reader and
 * through each reader built on it; it must never crash, hang or
 * read out of bounds (the IOCOST_SANITIZE build runs this file
 * under ASan/UBSan).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/fleet_aggregate.hh"
#include "host/scenario.hh"
#include "mutation.hh"
#include "sim/json.hh"
#include "sim/parse.hh"
#include "sim/rng.hh"
#include "whatif/query.hh"
#include "whatif/service.hh"

namespace {

using namespace iocost;
namespace json = sim::json;
using Kind = json::Value::Kind;

/** What @p write prints to a FILE, as a string. */
std::string
printed(const std::function<void(FILE *)> &write)
{
    char *buf = nullptr;
    size_t len = 0;
    FILE *f = open_memstream(&buf, &len);
    write(f);
    std::fclose(f);
    std::string text(buf, len);
    std::free(buf);
    return text;
}

fleet::AggregateView
sampleView(unsigned days, double scale)
{
    fleet::AggregateView v;
    v.hosts = 12;
    v.days = days;
    v.hostDays = 12ull * days;
    v.shards = 4;
    v.jobs = 2;
    for (unsigned c = 0; c < 2; ++c) {
        v.ctl[c] = {40u + c, 0.25 * scale, 3.5 * scale, 1.125,
                    30u + c, 0.0625,       9.75,        2.5e-7};
    }
    for (unsigned d = 0; d < days; ++d)
        v.perDay.push_back({d, d / double(days), 12, d, 12, 2 * d});
    return v;
}

/** One document of every kind the simulator writes and reads back. */
std::vector<std::string>
corpus()
{
    std::vector<std::string> docs = {
        sim::specArgument("@" IOCOST_SOURCE_DIR "/BENCH_kernel.json"),
        sim::specArgument("@" IOCOST_SOURCE_DIR "/BENCH_fleet.json"),
        "{\"q\":\"weight\",\"cg\":\"web\",\"value\":300,\"from\":\"1s\"}",
        "{\"q\":\"device\",\"profile\":\"G\",\"from\":\"2s\"}",
        "{\"q\":\"fault\",\"spec\":\"lat@2s+1s=6\",\"from\":1500}",
    };
    const fleet::AggregateView agg = sampleView(4, 1.0);
    docs.push_back(printed(
        [&](FILE *f) { fleet::writeAggregateJson(agg, f); }));
    const fleet::SweepView sweep{{"iocost", "iocost min=25 \"q\""},
                                 {agg, sampleView(2, 3.0)}};
    docs.push_back(
        printed([&](FILE *f) { fleet::writeSweepJson(sweep, f); }));

    whatif::RunStats base;
    base.isIocost = true;
    base.vrate = 0.875;
    base.jobs = {{"web", 4000, 16384000, 90000, 410000, 0},
                 {"batch", 2000, 8192000, 120000, 900000, 3}};
    whatif::RunStats branch = base;
    branch.vrate = 1.25;
    branch.jobs[0].ios = 4400;
    branch.jobs[1].p99Ns = 700000;
    docs.push_back(whatif::diffJson(
        host::ScenarioSpec::parse("device=newgen;seconds=1;seed=3"),
        whatif::Query::parse(docs[2]), base, branch));
    return docs;
}

/** Insertions that reach the reader's structural paths. */
const char *const kJsonTokens[] = {
    "{",  "}",   "[",     "]",       "\"",   "\\",  "\\u",
    ",",  ":",   "-",     "0",       "1e",   ".",   "null",
    "\n", "\x01", "\xff", "\\ud800", "true", "[[[[", "\"\":",
};

TEST(Json, MutantsParseOrThrowCleanly)
{
    sim::Rng rng(0x150C0573u);
    uint64_t parsed = 0, rejected = 0;
    for (const std::string &doc : corpus()) {
        ASSERT_TRUE(test::accepts([&] { json::parse(doc); }, doc));
        for (int i = 0; i < 3000; ++i) {
            const std::string m = test::mutate(doc, rng, kJsonTokens);
            if (test::accepts([&] { json::parse(m); }, m))
                ++parsed;
            else
                ++rejected;
            test::accepts([&] { whatif::Query::parse(m); }, m);
            test::accepts([&] { fleet::readViewJson(m); }, m);
        }
    }
    // Both outcomes must be common, or the mutations are not
    // reaching the reader's interesting paths.
    EXPECT_GT(parsed, 1000u);
    EXPECT_GT(rejected, 10000u);
}

TEST(Json, EveryWrittenDocumentReadsBack)
{
    const std::vector<std::string> docs = corpus();
    EXPECT_GT(json::parse(docs[0]).at("bio_path").number(
                  "bios_per_sec"),
              0.0);
    const fleet::SweepView agg = fleet::readViewJson(docs[5]);
    ASSERT_EQ(agg.entries.size(), 1u);
    EXPECT_TRUE(agg.labels.empty());
    EXPECT_EQ(agg.entries[0].perDay.size(), 4u);
    EXPECT_EQ(agg.entries[0].ctl[1].cleanupMeanMs, 2.5e-7);
    const fleet::SweepView sweep = fleet::readViewJson(docs[6]);
    ASSERT_EQ(sweep.entries.size(), 2u);
    EXPECT_EQ(sweep.labels[1], "iocost min=25 \"q\"");
    EXPECT_EQ(sweep.entries[1].perDay.size(), 2u);
    const json::Value diff = json::parse(docs[7]);
    EXPECT_EQ(diff.string("type"), "whatif_diff");
    EXPECT_EQ(diff.at("delta").at("jobs").items[0].number("ios"),
              400.0);
}

TEST(Json, NestingPastTheLimitIsRejected)
{
    const std::string deep(100000, '[');
    try {
        json::parse(deep);
        FAIL() << "100000 nested arrays parsed";
    } catch (const std::invalid_argument &err) {
        EXPECT_STREQ(err.what(), "nesting deeper than 64 at offset 64");
    }
    const std::string limit = std::string(json::kMaxDepth, '[') +
                              std::string(json::kMaxDepth, ']');
    EXPECT_NO_THROW(json::parse(limit));
    EXPECT_THROW(json::parse("[" + limit + "]"),
                 std::invalid_argument);
}

TEST(Json, EscapedStringsRoundTrip)
{
    sim::Rng rng(7);
    std::string all;
    for (int c = 1; c < 0x80; ++c)
        all += static_cast<char>(c);
    std::vector<std::string> strings = {"", all};
    for (int i = 0; i < 2000; ++i) {
        std::string s(rng.below(40), ' ');
        for (char &c : s)
            c = static_cast<char>(1 + rng.below(0x7f));
        strings.push_back(s);
    }
    for (const std::string &s : strings) {
        std::string quoted = "\"";
        json::appendEscaped(quoted, s);
        quoted += '"';
        const json::Value v = json::parse(quoted);
        EXPECT_EQ(v.kind, Kind::String);
        EXPECT_EQ(v.text, s) << quoted;
    }
}

TEST(Json, DuplicateKeysAreRejected)
{
    EXPECT_THROW(json::parse("{\"a\":1,\"a\":2}"),
                 std::invalid_argument);
    EXPECT_THROW(json::parse("[{\"x\":{\"a\":1,\"b\":2,\"a\":null}}]"),
                 std::invalid_argument);
    EXPECT_THROW(whatif::Query::parse("{\"q\":\"device\",\"profile\":"
                                      "\"G\",\"profile\":\"H\"}"),
                 std::invalid_argument);
    // The same key in sibling objects is no repeat.
    EXPECT_NO_THROW(json::parse("[{\"a\":1},{\"a\":2}]"));
}

TEST(Json, NumbersKeepTheirText)
{
    const json::Value v =
        json::parse("{\"a\":300,\"b\":\"300\",\"c\":1e3,\"d\":-0.50}");
    EXPECT_EQ(v.at("a").kind, Kind::Number);
    EXPECT_EQ(v.at("a").text, "300");
    EXPECT_EQ(v.at("b").kind, Kind::String);
    EXPECT_EQ(v.at("b").text, "300");
    EXPECT_EQ(v.at("c").text, "1e3");
    EXPECT_EQ(v.at("d").text, "-0.50");
    EXPECT_EQ(v.number("c"), 1000.0);
    EXPECT_EQ(v.count("a"), 300u);
    EXPECT_EQ(v.count("b"), 300u);
    EXPECT_THROW(v.count("c"), std::invalid_argument);
    EXPECT_THROW(v.string("a"), std::invalid_argument);

    // So a weight reads the same written either way, and 1e3 is no
    // weight at all.
    const auto weight = [](const std::string &value) {
        return whatif::Query::parse(
                   "{\"q\":\"weight\",\"cg\":\"web\",\"value\":" +
                   value + "}")
            .weight;
    };
    EXPECT_EQ(weight("300"), 300u);
    EXPECT_EQ(weight("\"300\""), 300u);
    EXPECT_THROW(weight("1e3"), std::invalid_argument);
}

TEST(Json, GrammarEdges)
{
    EXPECT_EQ(json::parse(" \t\r\n[true,false,null] \n").items.size(),
              3u);
    EXPECT_EQ(json::parse("\"\\u00e9\\ud83d\\ude00\\/\"").text,
              "\xc3\xa9\xf0\x9f\x98\x80/");
    for (const char *bad :
         {"", " ", "01", "1.", ".5", "+1", "-", "1e", "1e+", "tru",
          "nul", "[1,]", "{,}", "{\"a\"}", "{\"a\":}", "{a:1}", "[1 2]",
          "\"abc", "\"a\tb\"", "\"\\x\"", "\"\\u12\"", "\"\\ud800\"",
          "\"\\udc00\"", "\"\\ud800\\u0041\"", "'a'", "{} {}", "[",
          "NaN", "Infinity"}) {
        EXPECT_THROW(json::parse(bad), std::invalid_argument)
            << "accepted: " << bad;
    }
    try {
        json::parse("{\"a\": [1, 2,, 3]}");
        FAIL();
    } catch (const std::invalid_argument &err) {
        EXPECT_STREQ(err.what(), "expected a value at offset 12");
    }
}

} // namespace
