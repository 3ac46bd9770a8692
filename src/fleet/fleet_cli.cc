#include "fleet/fleet_cli.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "sim/parse.hh"

namespace iocost::fleet {

FleetScenario
FleetFlags::resolve(const std::string &defaults) const
{
    std::string spec;
    if (scenario == "fig18")
        spec = kFig18Spec;
    else if (scenario == "fig19")
        spec = kFig19Spec;
    else
        spec = sim::specArgument(scenario);
    // The newline ends a trailing comment of a spec file.
    return FleetScenario::parse(spec + "\n" + defaults + overrides);
}

bool
readFleetFlag(FleetFlags &flags, int argc, char **argv, int &i)
{
    // Flags that override the scenario key of the same name.
    static const std::pair<const char *, const char *> kKeys[] = {
        {"--hosts", "hosts"},   {"--days", "days"},
        {"--seed", "seed"},     {"--faults", "faults"},
        {"--sweep", "sweep"},
    };
    const std::string flag = argv[i];
    auto value = [&] {
        if (i + 1 >= argc)
            throw std::invalid_argument("needs a value");
        return std::string(argv[i + 1]);
    };
    if (flag == "--scenario") {
        flags.scenario = value();
    } else if (flag == "--jobs" || flag == "--shards") {
        (flag == "--jobs" ? flags.run.jobs : flags.run.shards) =
            sim::narrow<unsigned>(sim::parseCount(value()));
    } else {
        const auto key = std::find_if(
            std::begin(kKeys), std::end(kKeys),
            [&](const auto &k) { return flag == k.first; });
        if (key == std::end(kKeys))
            return false;
        std::string token = value();
        if (flag == "--sweep")
            flags.sweep = token;
        // One whitespace-free token: a sweep config's words are
        // ','-separated, as in the sweep= key.
        for (char &c : token) {
            if (std::isspace(static_cast<unsigned char>(c)))
                c = ',';
        }
        flags.overrides +=
            std::string(" ") + key->second + "=" + token;
        if (flag == "--seed" || flag == "--faults")
            return false;
    }
    ++i;
    return true;
}

void
runFleet(const FleetFlags &flags, const std::string &out_path)
{
    const FleetScenario sc = flags.resolve();
    std::printf("fleet scenario: %s\n", sc.canonical().c_str());
    const SweepView view = FleetSim::runScenarioView(sc, flags.run);
    renderView(view, stdout);
    if (out_path.empty())
        return;
    FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out)
        throw std::runtime_error("cannot write " + out_path);
    writeViewJson(view, out);
    std::fclose(out);
    std::printf("wrote %s to %s\n",
                view.labels.empty() ? "aggregate" : "sweep",
                out_path.c_str());
}

} // namespace iocost::fleet
