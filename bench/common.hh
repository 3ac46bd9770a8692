/**
 * @file
 * Shared helpers for the figure/table reproduction benches: uniform
 * table printing and small formatting utilities so every bench
 * prints rows the way the paper reports them.
 */

#ifndef IOCOST_BENCH_COMMON_HH
#define IOCOST_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/time.hh"

namespace iocost::bench {

/**
 * Uniform bench command line. Every bench parses the same flag set
 * through parseArgs() and reads the fields it cares about:
 *
 *   --jobs N         worker threads (0 = one per hardware thread;
 *                    results are byte-identical for any value)
 *   --shards N       fleet shard count (0 = auto: 8 per worker,
 *                    clamped to the host count)
 *   --faults SPEC    device fault plan (FaultPlan::parse grammar;
 *                    empty = healthy device)
 *   --check-allocs   run the CI allocation gate instead of / in
 *                    addition to the timed run
 *   --max-hosts N    cap the largest scaling step (perf_fleet)
 *   --help           print this flag list and exit
 *
 * An unknown flag or a malformed number is fatal before anything
 * runs, so a typo cannot start a long run (or overwrite a tracked
 * BENCH file) with defaults. Layout knobs (jobs/shards/faults)
 * report to stderr so stdout stays diffable across layouts.
 */
struct BenchArgs
{
    unsigned jobs = 0;
    unsigned shards = 0;
    std::string faults;
    bool checkAllocs = false;
    uint64_t maxHosts = 0;
};

inline BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        try {
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument("needs a value");
                return argv[++i];
            };
            if (arg == "--jobs") {
                args.jobs = static_cast<unsigned>(sim::parseCount(next()));
            } else if (arg == "--shards") {
                args.shards =
                    static_cast<unsigned>(sim::parseCount(next()));
            } else if (arg == "--faults") {
                args.faults = next();
            } else if (arg == "--max-hosts") {
                args.maxHosts = sim::parseCount(next());
            } else if (arg == "--check-allocs") {
                args.checkAllocs = true;
            } else if (arg == "--help" || arg == "-h") {
                std::printf("usage: %s [--jobs N] [--shards N] "
                            "[--faults SPEC] [--check-allocs] "
                            "[--max-hosts N]\n",
                            argv[0]);
                std::exit(0);
            } else {
                throw std::invalid_argument("unknown flag");
            }
        } catch (const std::invalid_argument &err) {
            sim::fatal(arg + ": " + err.what());
        }
    }
    std::fprintf(stderr, "jobs=%u%s\n", args.jobs,
                 args.jobs == 0 ? " (auto)" : "");
    if (args.shards != 0)
        std::fprintf(stderr, "shards=%u\n", args.shards);
    if (!args.faults.empty())
        std::fprintf(stderr, "faults=%s\n", args.faults.c_str());
    return args;
}

/** Print a banner naming the reproduced figure/table. */
inline void
banner(const std::string &title, const std::string &description)
{
    std::printf("==============================================="
                "=============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("%s\n", description.c_str());
    std::printf("==============================================="
                "=============================\n");
}

/** Simple fixed-width table printer. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {}

    Table &
    row(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
        return *this;
    }

    void
    print() const
    {
        std::vector<size_t> width(headers_.size(), 0);
        for (size_t c = 0; c < headers_.size(); ++c)
            width[c] = headers_[c].size();
        for (const auto &r : rows_) {
            for (size_t c = 0; c < r.size() && c < width.size();
                 ++c) {
                width[c] = std::max(width[c], r[c].size());
            }
        }
        auto print_row = [&](const std::vector<std::string> &r) {
            for (size_t c = 0; c < headers_.size(); ++c) {
                const std::string &cell =
                    c < r.size() ? r[c] : std::string();
                std::printf("%-*s  ",
                            static_cast<int>(width[c]),
                            cell.c_str());
            }
            std::printf("\n");
        };
        print_row(headers_);
        size_t total = 0;
        for (size_t c = 0; c < headers_.size(); ++c)
            total += width[c] + 2;
        std::printf("%s\n", std::string(total, '-').c_str());
        for (const auto &r : rows_)
            print_row(r);
        std::printf("\n");
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** printf-style float formatting into std::string. */
inline std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

/** Human-readable IOPS/ratios. */
inline std::string
fmtCount(double v)
{
    if (v >= 1e6)
        return fmt("%.2fM", v / 1e6);
    if (v >= 1e3)
        return fmt("%.1fk", v / 1e3);
    return fmt("%.0f", v);
}

/** Format simulated time as adaptive us/ms/s. */
inline std::string
fmtTime(sim::Time t)
{
    if (t >= sim::kSec)
        return fmt("%.2fs", sim::toSeconds(t));
    if (t >= sim::kMsec)
        return fmt("%.1fms", sim::toMillis(t));
    return fmt("%.0fus", sim::toMicros(t));
}

/** Format a byte rate. */
inline std::string
fmtBps(double bps)
{
    if (bps >= 1e9)
        return fmt("%.2fGB/s", bps / 1e9);
    if (bps >= 1e6)
        return fmt("%.1fMB/s", bps / 1e6);
    return fmt("%.0fkB/s", bps / 1e3);
}

} // namespace iocost::bench

#endif // IOCOST_BENCH_COMMON_HH
