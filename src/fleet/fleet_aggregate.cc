#include "fleet/fleet_aggregate.hh"

#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "sim/json.hh"

namespace iocost::fleet {

ShardAccumulator::ShardAccumulator(unsigned days)
{
    days_.assign(days, DayCounters{});
    // One point per day in each failure series, plus matching swap
    // space, so finalizeSeries()/mergeFrom() never allocate.
    fetchFailSeries_.reserve(days);
    cleanupFailSeries_.reserve(days);
    scratch_.reserve(days);
    // Full-range bucket windows: fold() and mergeFrom() then never
    // widen one.
    for (unsigned c = 0; c < 2; ++c) {
        fetchTime_[c].reserveFullRange();
        cleanupTime_[c].reserveFullRange();
    }
}

void
ShardAccumulator::fold(unsigned day, bool on_iocost,
                       const HostDayOutcome &outcome)
{
    assert(day < days_.size());
    assert(!finalized_);
    DayCounters &d = days_[day];
    d.migrated += on_iocost ? 1u : 0u;
    d.fetchAttempts += 1;
    d.cleanupAttempts += 1;
    const unsigned ctl = on_iocost ? kCtlIoCost : kCtlIoLatency;
    if (outcome.fetchFailed)
        d.fetchFailures += 1;
    else
        fetchTime_[ctl].record(outcome.fetchTime);
    if (outcome.cleanupFailed)
        d.cleanupFailures += 1;
    else
        cleanupTime_[ctl].record(outcome.cleanupTime);
}

void
ShardAccumulator::finalizeSeries()
{
    assert(!finalized_);
    // Emit one point per day — including zero days — so every shard
    // produces the same timestamp set and mergeSum stays a pure
    // pointwise sum (size never grows past `days`).
    for (unsigned d = 0; d < days_.size(); ++d) {
        fetchFailSeries_.record(d, days_[d].fetchFailures);
        cleanupFailSeries_.record(d, days_[d].cleanupFailures);
    }
    finalized_ = true;
}

void
ShardAccumulator::mergeFrom(const ShardAccumulator &other)
{
    assert(finalized_ && other.finalized_);
    assert(days_.size() == other.days_.size());
    for (size_t d = 0; d < days_.size(); ++d) {
        days_[d].migrated += other.days_[d].migrated;
        days_[d].fetchAttempts += other.days_[d].fetchAttempts;
        days_[d].fetchFailures += other.days_[d].fetchFailures;
        days_[d].cleanupAttempts += other.days_[d].cleanupAttempts;
        days_[d].cleanupFailures += other.days_[d].cleanupFailures;
    }
    for (unsigned c = 0; c < 2; ++c) {
        fetchTime_[c].merge(other.fetchTime_[c]);
        cleanupTime_[c].merge(other.cleanupTime_[c]);
    }
    fetchFailSeries_.mergeSum(other.fetchFailSeries_, scratch_);
    cleanupFailSeries_.mergeSum(other.cleanupFailSeries_, scratch_);
}

FleetAggregate
ShardAccumulator::finish(unsigned hosts, unsigned shards,
                         unsigned jobs) const
{
    assert(finalized_);
    FleetAggregate agg;
    agg.hosts = hosts;
    agg.shards = shards;
    agg.jobs = jobs;
    agg.days.resize(days_.size());
    for (size_t d = 0; d < days_.size(); ++d) {
        FleetDayResult &r = agg.days[d];
        r.day = static_cast<unsigned>(d);
        r.fractionOnIoCost =
            hosts ? static_cast<double>(days_[d].migrated) / hosts
                  : 0.0;
        r.fetchAttempts = days_[d].fetchAttempts;
        r.fetchFailures = days_[d].fetchFailures;
        r.cleanupAttempts = days_[d].cleanupAttempts;
        r.cleanupFailures = days_[d].cleanupFailures;
        agg.hostDays += days_[d].fetchAttempts;
    }
    for (unsigned c = 0; c < 2; ++c) {
        agg.fetchTime[c].merge(fetchTime_[c]);
        agg.cleanupTime[c].merge(cleanupTime_[c]);
    }
    std::vector<stat::SeriesPoint> scratch;
    agg.fetchFailures.mergeSum(fetchFailSeries_, scratch);
    agg.cleanupFailures.mergeSum(cleanupFailSeries_, scratch);
    return agg;
}

AggregateView
AggregateView::from(const FleetAggregate &agg)
{
    AggregateView v;
    v.hosts = agg.hosts;
    v.days = static_cast<unsigned>(agg.days.size());
    v.hostDays = agg.hostDays;
    v.shards = agg.shards;
    v.jobs = agg.jobs;
    for (unsigned c = 0; c < 2; ++c) {
        const stat::Histogram &f = agg.fetchTime[c];
        const stat::Histogram &cl = agg.cleanupTime[c];
        v.ctl[c].fetchCount = f.count();
        v.ctl[c].fetchP50Ms = f.quantile(0.50) / 1e6;
        v.ctl[c].fetchP99Ms = f.quantile(0.99) / 1e6;
        v.ctl[c].fetchMeanMs = f.mean() / 1e6;
        v.ctl[c].cleanupCount = cl.count();
        v.ctl[c].cleanupP50Ms = cl.quantile(0.50) / 1e6;
        v.ctl[c].cleanupP99Ms = cl.quantile(0.99) / 1e6;
        v.ctl[c].cleanupMeanMs = cl.mean() / 1e6;
    }
    v.perDay = agg.days;
    return v;
}

namespace {

const char *const kCtlNames[2] = {"iolatency", "iocost"};

void
writeCtl(const AggregateView::CtlSummary &c, FILE *out)
{
    fprintf(out,
            "{\"fetch_count\": %llu, \"fetch_p50_ms\": %.10g, "
            "\"fetch_p99_ms\": %.10g, \"fetch_mean_ms\": %.10g, "
            "\"cleanup_count\": %llu, \"cleanup_p50_ms\": %.10g, "
            "\"cleanup_p99_ms\": %.10g, \"cleanup_mean_ms\": %.10g}",
            static_cast<unsigned long long>(c.fetchCount),
            c.fetchP50Ms, c.fetchP99Ms, c.fetchMeanMs,
            static_cast<unsigned long long>(c.cleanupCount),
            c.cleanupP50Ms, c.cleanupP99Ms, c.cleanupMeanMs);
}

} // namespace

void
writeAggregateJson(const AggregateView &view, FILE *out)
{
    fprintf(out,
            "{\n"
            "  \"fleet_aggregate\": 1,\n"
            "  \"hosts\": %u,\n"
            "  \"days\": %u,\n"
            "  \"host_days\": %llu,\n"
            "  \"shards\": %u,\n"
            "  \"jobs\": %u,\n",
            view.hosts, view.days,
            static_cast<unsigned long long>(view.hostDays),
            view.shards, view.jobs);
    fprintf(out, "  \"summary\": {\n");
    for (unsigned c = 0; c < 2; ++c) {
        fprintf(out, "    \"%s\": ", kCtlNames[c]);
        writeCtl(view.ctl[c], out);
        fprintf(out, c == 0 ? ",\n" : "\n");
    }
    fprintf(out, "  },\n  \"per_day\": [\n");
    for (size_t i = 0; i < view.perDay.size(); ++i) {
        const FleetDayResult &d = view.perDay[i];
        fprintf(out,
                "    {\"day\": %u, \"on_iocost\": %.10g, "
                "\"fetch_attempts\": %u, \"fetch_failures\": %u, "
                "\"cleanup_attempts\": %u, "
                "\"cleanup_failures\": %u}%s\n",
                d.day, d.fractionOnIoCost, d.fetchAttempts,
                d.fetchFailures, d.cleanupAttempts,
                d.cleanupFailures,
                i + 1 < view.perDay.size() ? "," : "");
    }
    fprintf(out, "  ]\n}\n");
}

namespace {

/** Member @p key of @p obj as an unsigned count. */
unsigned
u32(const sim::json::Value &obj, const char *key)
{
    const uint64_t n = obj.count(key);
    if (n > UINT32_MAX)
        throw std::invalid_argument("key \"" + std::string(key) +
                                    "\": out of range");
    return static_cast<unsigned>(n);
}

AggregateView
aggregateOf(const sim::json::Value &doc)
{
    AggregateView v;
    v.hosts = u32(doc, "hosts");
    v.days = u32(doc, "days");
    v.hostDays = doc.count("host_days");
    v.shards = u32(doc, "shards");
    v.jobs = u32(doc, "jobs");
    const sim::json::Value &summary = doc.at("summary");
    for (unsigned c = 0; c < 2; ++c) {
        const sim::json::Value &s = summary.at(kCtlNames[c]);
        AggregateView::CtlSummary &o = v.ctl[c];
        o.fetchCount = s.count("fetch_count");
        o.fetchP50Ms = s.number("fetch_p50_ms");
        o.fetchP99Ms = s.number("fetch_p99_ms");
        o.fetchMeanMs = s.number("fetch_mean_ms");
        o.cleanupCount = s.count("cleanup_count");
        o.cleanupP50Ms = s.number("cleanup_p50_ms");
        o.cleanupP99Ms = s.number("cleanup_p99_ms");
        o.cleanupMeanMs = s.number("cleanup_mean_ms");
    }
    for (const sim::json::Value &day : doc.at("per_day").items) {
        FleetDayResult d;
        d.day = u32(day, "day");
        d.fractionOnIoCost = day.number("on_iocost");
        d.fetchAttempts = u32(day, "fetch_attempts");
        d.fetchFailures = u32(day, "fetch_failures");
        d.cleanupAttempts = u32(day, "cleanup_attempts");
        d.cleanupFailures = u32(day, "cleanup_failures");
        v.perDay.push_back(d);
    }
    return v;
}

} // namespace

void
writeSweepJson(const SweepView &view, FILE *out)
{
    fprintf(out, "{\n\"fleet_sweep\": 1,\n\"configs\": %zu,\n"
                 "\"entries\": [\n",
            view.entries.size());
    for (size_t i = 0; i < view.entries.size(); ++i) {
        std::string label;
        if (i < view.labels.size())
            sim::json::appendEscaped(label, view.labels[i]);
        fprintf(out, "{\"label\": \"%s\",\n\"aggregate\":\n",
                label.c_str());
        writeAggregateJson(view.entries[i], out);
        fprintf(out, "}%s\n",
                i + 1 < view.entries.size() ? "," : "");
    }
    fprintf(out, "]\n}\n");
}

void
writeViewJson(const SweepView &view, FILE *out)
{
    if (view.labels.empty())
        writeAggregateJson(view.entries.at(0), out);
    else
        writeSweepJson(view, out);
}

void
renderView(const SweepView &view, FILE *out)
{
    for (size_t c = 0; c < view.entries.size(); ++c) {
        if (!view.labels.empty())
            fprintf(out, "\nconfig[%zu]: %s\n", c,
                    view.labels[c].c_str());
        const AggregateView &v = view.entries[c];
        fprintf(out,
                "fleet aggregate: hosts=%u days=%u host-days=%llu "
                "(run with jobs=%u shards=%u)\n",
                v.hosts, v.days,
                static_cast<unsigned long long>(v.hostDays), v.jobs,
                v.shards);
        fprintf(out, "%-10s %12s %9s %9s %9s %12s %9s %9s %9s\n",
                "controller", "fetch-done", "p50ms", "p99ms",
                "meanms", "clean-done", "p50ms", "p99ms", "meanms");
        for (unsigned ctl = 0; ctl < 2; ++ctl) {
            const AggregateView::CtlSummary &s = v.ctl[ctl];
            fprintf(out,
                    "%-10s %12llu %9.2f %9.2f %9.2f %12llu %9.2f "
                    "%9.2f %9.2f\n",
                    kCtlNames[ctl],
                    static_cast<unsigned long long>(s.fetchCount),
                    s.fetchP50Ms, s.fetchP99Ms, s.fetchMeanMs,
                    static_cast<unsigned long long>(s.cleanupCount),
                    s.cleanupP50Ms, s.cleanupP99Ms, s.cleanupMeanMs);
        }
        fprintf(out, "%5s %10s %10s %10s %10s\n", "day", "on-iocost",
                "fetchfail", "cleanfail", "attempts");
        for (const FleetDayResult &d : v.perDay) {
            fprintf(out, "%5u %9.0f%% %10u %10u %10u\n", d.day,
                    100.0 * d.fractionOnIoCost, d.fetchFailures,
                    d.cleanupFailures, d.fetchAttempts);
        }
    }
}

SweepView
readViewJson(const std::string &text)
{
    const sim::json::Value doc = sim::json::parse(text);
    SweepView v;
    if (doc.find("fleet_aggregate")) {
        v.entries.push_back(aggregateOf(doc));
    } else if (doc.find("fleet_sweep")) {
        for (const sim::json::Value &entry : doc.at("entries").items) {
            v.labels.push_back(entry.string("label"));
            v.entries.push_back(aggregateOf(entry.at("aggregate")));
        }
    } else {
        throw std::invalid_argument(
            "neither a fleet aggregate nor a sweep document");
    }
    return v;
}

} // namespace iocost::fleet
