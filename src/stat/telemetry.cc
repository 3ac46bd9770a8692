#include "stat/telemetry.hh"

#include "sim/json.hh"

namespace iocost::stat {

std::string
toJsonlFields(const Record &record)
{
    std::string out;
    out.reserve(64 + record.source.size() + record.key.size());
    char buf[48];
    std::snprintf(buf, sizeof(buf), "\"t\":%lld,",
                  static_cast<long long>(record.time));
    out += buf;
    out += "\"src\":\"";
    sim::json::appendEscaped(out, record.source);
    out += "\",";
    const long long cg =
        record.cgroup == kNoCgroup
            ? -1
            : static_cast<long long>(record.cgroup);
    std::snprintf(buf, sizeof(buf), "\"cg\":%lld,", cg);
    out += buf;
    out += "\"key\":\"";
    sim::json::appendEscaped(out, record.key);
    out += "\",";
    std::snprintf(buf, sizeof(buf), "\"val\":%.10g", record.value);
    out += buf;
    return out;
}

std::string
toJsonl(const Record &record)
{
    std::string out = "{";
    out += toJsonlFields(record);
    out += "}\n";
    return out;
}

JsonlSink::JsonlSink(const std::string &path)
    : file_(std::fopen(path.c_str(), "w")), owned_(true)
{}

JsonlSink::~JsonlSink()
{
    if (file_ && owned_)
        std::fclose(file_);
}

void
JsonlSink::emit(const Record &record)
{
    if (!file_)
        return;
    const std::string line = toJsonl(record);
    std::fwrite(line.data(), 1, line.size(), file_);
}

void
JsonlSink::flush()
{
    if (file_)
        std::fflush(file_);
}

void
Telemetry::emitSnapshot(sim::Time time, std::string_view source,
                        uint32_t cgroup, std::string_view prefix,
                        const WindowSnapshot &snap)
{
    if (!sink_)
        return;
    std::string key(prefix);
    const size_t base = key.size();
    auto one = [&](const char *suffix, double value) {
        key.resize(base);
        key += suffix;
        emit(time, source, cgroup, key, value);
    };
    one("_count", static_cast<double>(snap.count));
    if (snap.count == 0)
        return;
    one("_per_sec", snap.perSecond);
    one("_mean", snap.mean);
    one("_p50", static_cast<double>(snap.p50));
    one("_p99", static_cast<double>(snap.p99));
}

} // namespace iocost::stat
