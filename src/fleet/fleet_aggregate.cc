#include "fleet/fleet_aggregate.hh"

#include <cassert>
#include <cctype>
#include <cstdlib>
#include <cstring>

namespace iocost::fleet {

ShardAccumulator::ShardAccumulator(unsigned days)
{
    days_.assign(days, DayCounters{});
    // One point per day in each failure series, plus matching swap
    // space, so finalizeSeries()/mergeFrom() never allocate.
    fetchFailSeries_.reserve(days);
    cleanupFailSeries_.reserve(days);
    scratch_.reserve(days);
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

/**
 * Find `"key":` at/after @p from and return the offset of the first
 * character of the value, or npos. Only has to understand the output
 * of writeAggregateJson (no escaped quotes inside keys).
 */
size_t
valueOf(const std::string &text, const char *key, size_t from)
{
    const std::string needle = std::string("\"") + key + "\"";
    size_t pos = text.find(needle, from);
    if (pos == std::string::npos)
        return std::string::npos;
    pos = text.find(':', pos + needle.size());
    if (pos == std::string::npos)
        return std::string::npos;
    ++pos;
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
        ++pos;
    return pos;
}

double
numOf(const std::string &text, const char *key, size_t from,
      double fallback = 0.0)
{
    const size_t pos = valueOf(text, key, from);
    if (pos == std::string::npos)
        return fallback;
    return std::strtod(text.c_str() + pos, nullptr);
}

AggregateView::CtlSummary
readCtl(const std::string &text, size_t from)
{
    AggregateView::CtlSummary c;
    c.fetchCount =
        static_cast<uint64_t>(numOf(text, "fetch_count", from));
    c.fetchP50Ms = numOf(text, "fetch_p50_ms", from);
    c.fetchP99Ms = numOf(text, "fetch_p99_ms", from);
    c.fetchMeanMs = numOf(text, "fetch_mean_ms", from);
    c.cleanupCount =
        static_cast<uint64_t>(numOf(text, "cleanup_count", from));
    c.cleanupP50Ms = numOf(text, "cleanup_p50_ms", from);
    c.cleanupP99Ms = numOf(text, "cleanup_p99_ms", from);
    c.cleanupMeanMs = numOf(text, "cleanup_mean_ms", from);
    return c;
}

} // namespace

std::optional<AggregateView>
readAggregateJson(const std::string &text)
{
    if (text.find("\"fleet_aggregate\"") == std::string::npos)
        return std::nullopt;
    AggregateView v;
    v.hosts = static_cast<unsigned>(numOf(text, "hosts", 0));
    v.days = static_cast<unsigned>(numOf(text, "days", 0));
    v.hostDays = static_cast<uint64_t>(numOf(text, "host_days", 0));
    v.shards = static_cast<unsigned>(numOf(text, "shards", 0));
    v.jobs = static_cast<unsigned>(numOf(text, "jobs", 0));
    for (unsigned c = 0; c < 2; ++c) {
        const size_t pos = valueOf(text, kCtlNames[c], 0);
        if (pos != std::string::npos)
            v.ctl[c] = readCtl(text, pos);
    }
    size_t pos = valueOf(text, "per_day", 0);
    if (pos != std::string::npos) {
        // Objects inside the array are one-per-line; walk them until
        // the closing bracket.
        while (true) {
            const size_t obj = text.find('{', pos);
            const size_t end = text.find(']', pos);
            if (obj == std::string::npos ||
                (end != std::string::npos && end < obj))
                break;
            FleetDayResult d;
            d.day = static_cast<unsigned>(numOf(text, "day", obj));
            d.fractionOnIoCost = numOf(text, "on_iocost", obj);
            d.fetchAttempts = static_cast<unsigned>(
                numOf(text, "fetch_attempts", obj));
            d.fetchFailures = static_cast<unsigned>(
                numOf(text, "fetch_failures", obj));
            d.cleanupAttempts = static_cast<unsigned>(
                numOf(text, "cleanup_attempts", obj));
            d.cleanupFailures = static_cast<unsigned>(
                numOf(text, "cleanup_failures", obj));
            v.perDay.push_back(d);
            pos = text.find('}', obj);
            if (pos == std::string::npos)
                break;
        }
    }
    return v;
}

void
writeSweepJson(const SweepView &view, FILE *out)
{
    fprintf(out, "{\n\"fleet_sweep\": 1,\n\"configs\": %zu,\n"
                 "\"entries\": [\n",
            view.entries.size());
    for (size_t i = 0; i < view.entries.size(); ++i) {
        std::string label =
            i < view.labels.size() ? view.labels[i] : "";
        std::string esc;
        esc.reserve(label.size());
        for (char c : label) {
            if (c == '"' || c == '\\')
                esc.push_back('\\');
            esc.push_back(c);
        }
        fprintf(out, "{\"label\": \"%s\",\n\"aggregate\":\n",
                esc.c_str());
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

std::optional<SweepView>
readSweepJson(const std::string &text)
{
    if (text.find("\"fleet_sweep\"") == std::string::npos)
        return std::nullopt;
    SweepView v;
    size_t pos = 0;
    while (true) {
        const size_t lab = valueOf(text, "label", pos);
        if (lab == std::string::npos || text[lab] != '"')
            break;
        std::string label;
        size_t p = lab + 1;
        while (p < text.size() && text[p] != '"') {
            if (text[p] == '\\' && p + 1 < text.size())
                ++p;
            label.push_back(text[p]);
            ++p;
        }
        // The entry's aggregate spans up to the next label (or the
        // end of the buffer) — hand that slice to the aggregate
        // reader, which sniffs its own marker.
        const size_t next = text.find("\"label\"", p);
        const std::string slice = text.substr(
            p, next == std::string::npos ? std::string::npos
                                         : next - p);
        std::optional<AggregateView> agg = readAggregateJson(slice);
        if (!agg)
            break;
        v.labels.push_back(std::move(label));
        v.entries.push_back(std::move(*agg));
        if (next == std::string::npos)
            break;
        pos = next;
    }
    if (v.entries.empty())
        return std::nullopt;
    return v;
}

} // namespace iocost::fleet
