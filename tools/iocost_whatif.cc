/**
 * @file
 * iocost_whatif — the what-if query service as a CLI.
 *
 * Loads one scenario, builds per-worker replicas with checkpoints
 * at the scenario's marks, then answers line-oriented JSON queries
 * from stdin (one query per line, one "whatif_diff" JSON document
 * per line on stdout, in input order). See whatif/query.hh for the
 * query grammar and host/scenario.hh for the scenario grammar.
 *
 * Usage:
 *   iocost_whatif [--scenario "<spec>"|@scenario.txt]
 *                 [--threads N]   worker replicas (0 = hardware
 *                                 concurrency; default 1)
 *                 [--cold]        answer every query with a cold
 *                                 full re-run instead of branching
 *                                 (the determinism gate: output
 *                                 must be byte-identical)
 *
 * Example:
 *   echo '{"q":"weight","cg":"web","value":300,"from":"1s"}' |
 *     iocost_whatif --scenario "device=newgen;seconds=4;marks=1s,2s"
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <future>
#include <stdexcept>
#include <string>

#include "host/scenario.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "whatif/query.hh"
#include "whatif/service.hh"

int
main(int argc, char **argv)
{
    using namespace iocost;
    std::string scenario_arg;
    unsigned threads = 1;
    bool cold = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                sim::fatal(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--scenario") {
            scenario_arg = next();
        } else if (arg == "--threads") {
            try {
                threads = sim::narrow<unsigned>(sim::parseCount(next()));
            } catch (const std::invalid_argument &err) {
                sim::fatal(arg + ": " + err.what());
            }
        } else if (arg == "--cold") {
            cold = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("see the header of tools/iocost_whatif.cc\n");
            return 0;
        } else {
            sim::fatal("unknown flag: " + arg);
        }
    }

    host::ScenarioSpec sc;
    try {
        sc = host::ScenarioSpec::parse(sim::specArgument(scenario_arg));
    } catch (const std::invalid_argument &err) {
        sim::fatal(err.what());
    }
    std::fprintf(stderr, "whatif: scenario %s\n",
                 sc.canonical().c_str());

    whatif::Service service(sc, cold ? 1 : threads);

    // Stream: parse each line as it arrives, enqueue, and flush
    // finished answers in input order as soon as they are ready.
    std::deque<std::future<std::string>> pending;
    auto flushReady = [&](bool block) {
        while (!pending.empty()) {
            if (!block &&
                pending.front().wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                return;
            std::printf("%s\n", pending.front().get().c_str());
            std::fflush(stdout);
            pending.pop_front();
        }
    };

    char line[65536];
    uint64_t bad_lines = 0;
    while (std::fgets(line, sizeof line, stdin)) {
        std::string text(line);
        while (!text.empty() &&
               (text.back() == '\n' || text.back() == '\r'))
            text.pop_back();
        if (text.empty())
            continue;
        auto answer = [&](std::string doc) {
            std::promise<std::string> p;
            p.set_value(std::move(doc));
            pending.push_back(p.get_future());
        };
        whatif::Query q;
        try {
            q = whatif::Query::parse(text);
        } catch (const std::invalid_argument &err) {
            // Keep output aligned with input: a parse failure is
            // answered in-line too.
            answer(whatif::errorJson(err.what()));
            ++bad_lines;
            flushReady(false);
            continue;
        }
        if (cold) {
            try {
                answer(whatif::Service::evaluateCold(sc, q));
            } catch (const std::exception &err) {
                answer(whatif::errorJson(err.what(), &q));
            }
        } else {
            pending.push_back(service.submit(q));
        }
        flushReady(false);
    }
    flushReady(true);
    std::fprintf(stderr,
                 "whatif: done (%llu cache hits, %llu bad lines)\n",
                 static_cast<unsigned long long>(
                     service.cacheHits()),
                 static_cast<unsigned long long>(bad_lines));
    return 0;
}
