/**
 * @file
 * Runs the figure tables. A converted figure is data: one
 * host::ScenarioSpec string per row (any row also runs from
 * iocost_sim, its keys given as flags) and the columns it prints.
 * Rows run through host::ScenarioHost and host::runMeasured, the
 * window iocost_sim measures, on host::runPaired under --jobs; each
 * has its own seed= key, so a table is byte-identical for any worker
 * count. --faults sets every row's faults= key.
 */

#ifndef IOCOST_BENCH_SPEC_TABLE_HH
#define IOCOST_BENCH_SPEC_TABLE_HH

#include <exception>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "host/scenario.hh"

namespace iocost::bench {

/**
 * Run one scenario per spec and return read(r, host) of each measured
 * row r, in spec order; @p read runs on the workers. A bad spec is
 * fatal.
 */
template <typename Read>
auto
runRows(const BenchArgs &args, const std::vector<std::string> &specs,
        Read read)
{
    try {
        return host::runPaired(specs.size(), args.jobs, [&](size_t r) {
            const auto sc = host::ScenarioSpec::parse(
                specs[r] +
                (args.faults.empty() ? "" : ";faults=" + args.faults));
            sim::Simulator sim(sc.seed);
            host::ScenarioHost scenario(sim, sc);
            host::runMeasured(sim, scenario, sc);
            return read(r, scenario);
        });
    } catch (const std::exception &err) {
        sim::fatal(err.what());
    }
}

/** One table row: its label cells and its scenario. */
struct SpecRow
{
    std::vector<std::string> labels;
    std::string spec;
};

/** Run @p rows and print each under @p headers: its labels, then the
 *  cells that cells(r, host) reads from the measured row r. */
template <typename Cells>
void
printRows(const BenchArgs &args, std::vector<std::string> headers,
          const std::vector<SpecRow> &rows, Cells cells)
{
    std::vector<std::string> specs;
    for (const SpecRow &row : rows)
        specs.push_back(row.spec);
    const auto out = runRows(args, specs, cells);
    Table table(std::move(headers));
    for (size_t r = 0; r < rows.size(); ++r) {
        std::vector<std::string> line = rows[r].labels;
        line.insert(line.end(), out[r].begin(), out[r].end());
        table.row(std::move(line));
    }
    table.print();
}

} // namespace iocost::bench

#endif // IOCOST_BENCH_SPEC_TABLE_HH
