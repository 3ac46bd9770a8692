/**
 * @file
 * bench_check — benchmark threshold gate.
 *
 * Compares a BENCH_kernel.json (the file `perf_kernel --out` writes)
 * against a committed threshold file and fails with a readable diff
 * when any tracked quantity crossed its line. The point is to turn
 * the recorded benchmark document into CI state: a PR that
 * regresses the fused sweep speedup, the allocation counts, or the
 * fused-lane fraction fails here with the number, the limit, and
 * the distance, instead of silently committing a worse baseline.
 *
 * Usage:
 *   bench_check [--bench [prefix=]FILE]... [--thresholds FILE]
 *
 * --bench is repeatable; each document is flattened into the same
 * namespace, under `prefix.` when one is given. With no --bench the
 * gate loads BENCH_kernel.json (unprefixed) plus BENCH_fleet.json
 * under `fleet_doc`, with tools/bench_thresholds.txt, resolved from
 * the working directory (ctest runs this from the repository root,
 * against the committed benchmark documents).
 *
 * A document that sim/json.hh cannot parse fails the gate (exit 2).
 * Arrays flatten to index paths (`fleet_doc.scales.0.hosts`). A
 * constraint whose path exists but holds JSON null is SKIPped with
 * a note — null means "not measured on this machine" (e.g.
 * parallel_speedup on a single-hardware-thread box), which is not a
 * regression. A path absent from every document still FAILs: a
 * renamed or dropped metric must not silently pass its gate.
 *
 * Threshold grammar — one constraint per line, '#' comments:
 *   <dotted.path> >= <number>
 *   <dotted.path> <= <number>
 *   <dotted.path> == true|false
 *   <dotted.path> >= <dotted.path> * <factor>
 * The path-against-path form expresses relative bounds ("the fused
 * ladder pass regresses at most 5% against the full-lane pass")
 * that stay meaningful when absolute rates move with the machine.
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/json.hh"
#include "sim/parse.hh"

namespace {

using iocost::sim::json::Value;

/** Flatten @p v under @p path: true/false read 1/0, strings are
 *  labels and not gated, and a null is recorded so the gate can
 *  SKIP (not FAIL) constraints on its path. */
void
flatten(const Value &v, const std::string &path,
        std::map<std::string, double> &vals,
        std::set<std::string> &nulls)
{
    if (v.kind == Value::Kind::Number)
        vals[path] = iocost::sim::parseNumber(v.text);
    else if (v.kind == Value::Kind::Bool)
        vals[path] = v.text == "true" ? 1.0 : 0.0;
    else if (v.kind == Value::Kind::Null)
        nulls.insert(path);
    for (size_t i = 0; i < v.items.size(); ++i) {
        const std::string name = v.kind == Value::Kind::Object
                                     ? v.keys[i]
                                     : std::to_string(i);
        flatten(v.items[i], path.empty() ? name : path + "." + name,
                vals, nulls);
    }
}

struct Constraint
{
    std::string lhs;
    std::string op;  // ">=", "<=", "=="
    std::string rhs; // number, "true"/"false", or a dotted path
    double factor = 1.0;
    int line = 0;
};

bool
isNumber(const std::string &tok)
{
    char *after = nullptr;
    (void)std::strtod(tok.c_str(), &after);
    return after != tok.c_str() && *after == '\0';
}

std::vector<Constraint>
parseThresholds(const std::string &text, bool *ok)
{
    std::vector<Constraint> out;
    *ok = true;
    int lineno = 0;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        ++lineno;
        if (const size_t hash = line.find('#');
            hash != std::string::npos)
            line.resize(hash);
        std::vector<std::string> toks;
        for (size_t i = 0; i < line.size();) {
            while (i < line.size() &&
                   std::isspace(
                       static_cast<unsigned char>(line[i])))
                ++i;
            size_t j = i;
            while (j < line.size() &&
                   !std::isspace(
                       static_cast<unsigned char>(line[j])))
                ++j;
            if (j > i)
                toks.push_back(line.substr(i, j - i));
            i = j;
        }
        if (toks.empty())
            continue;
        Constraint c;
        c.line = lineno;
        const bool with_factor = toks.size() == 5 &&
                                 toks[3] == "*" &&
                                 isNumber(toks[4]);
        if ((toks.size() == 3 || with_factor) &&
            (toks[1] == ">=" || toks[1] == "<=" ||
             toks[1] == "==")) {
            c.lhs = toks[0];
            c.op = toks[1];
            c.rhs = toks[2];
            if (with_factor)
                c.factor = std::strtod(toks[4].c_str(), nullptr);
            out.push_back(std::move(c));
        } else {
            std::fprintf(stderr,
                         "thresholds line %d: cannot parse: %s\n",
                         lineno, line.c_str());
            *ok = false;
        }
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    // (prefix, path) pairs; empty prefix flattens unprefixed.
    std::vector<std::pair<std::string, std::string>> bench_args;
    std::string thresholds_path = "tools/bench_thresholds.txt";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--bench" && i + 1 < argc) {
            const std::string spec = argv[++i];
            const size_t eq = spec.find('=');
            if (eq != std::string::npos) {
                bench_args.emplace_back(spec.substr(0, eq),
                                        spec.substr(eq + 1));
            } else {
                bench_args.emplace_back("", spec);
            }
        } else if (arg == "--thresholds" && i + 1 < argc) {
            thresholds_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_check "
                         "[--bench [prefix=]FILE]... "
                         "[--thresholds FILE]\n");
            return 2;
        }
    }
    if (bench_args.empty()) {
        bench_args.emplace_back("", "BENCH_kernel.json");
        bench_args.emplace_back("fleet_doc", "BENCH_fleet.json");
    }

    std::map<std::string, double> vals;
    std::set<std::string> nulls;
    std::string bench_desc;
    for (const auto &[prefix, path] : bench_args) {
        try {
            flatten(iocost::sim::json::parse(
                        iocost::sim::specArgument("@" + path)),
                    prefix, vals, nulls);
        } catch (const std::invalid_argument &err) {
            std::fprintf(stderr, "bench_check: %s: %s\n",
                         path.c_str(), err.what());
            return 2;
        }
        if (!bench_desc.empty())
            bench_desc += ",";
        bench_desc += path;
    }

    std::string thr_text;
    try {
        thr_text = iocost::sim::specArgument("@" + thresholds_path);
    } catch (const std::invalid_argument &err) {
        std::fprintf(stderr, "bench_check: %s\n", err.what());
        return 2;
    }
    bool thr_ok = true;
    const std::vector<Constraint> constraints =
        parseThresholds(thr_text, &thr_ok);
    if (!thr_ok || constraints.empty()) {
        std::fprintf(stderr,
                     "bench_check: no usable constraints in %s\n",
                     thresholds_path.c_str());
        return 2;
    }

    int failures = 0;
    for (const Constraint &c : constraints) {
        const auto lhs_it = vals.find(c.lhs);
        if (lhs_it == vals.end()) {
            if (nulls.count(c.lhs)) {
                // Present but null: not measured on this machine
                // (e.g. parallel speedup on one hardware thread).
                std::printf("SKIP %-44s null in document "
                            "(not measured; line %d)\n",
                            c.lhs.c_str(), c.line);
                continue;
            }
            std::printf("FAIL %-44s missing from %s (line %d)\n",
                        c.lhs.c_str(), bench_desc.c_str(), c.line);
            ++failures;
            continue;
        }
        const double lhs = lhs_it->second;

        double bound = 0.0;
        std::string bound_desc;
        char buf[96];
        if (c.rhs == "true" || c.rhs == "false") {
            bound = c.rhs == "true" ? 1.0 : 0.0;
            bound_desc = c.rhs;
        } else if (isNumber(c.rhs)) {
            bound = std::strtod(c.rhs.c_str(), nullptr) * c.factor;
            std::snprintf(buf, sizeof(buf), "%g", bound);
            bound_desc = buf;
        } else {
            const auto rhs_it = vals.find(c.rhs);
            if (rhs_it == vals.end()) {
                if (nulls.count(c.rhs)) {
                    std::printf("SKIP %-44s bound %s null in "
                                "document (line %d)\n",
                                c.lhs.c_str(), c.rhs.c_str(),
                                c.line);
                    continue;
                }
                std::printf(
                    "FAIL %-44s bound %s missing (line %d)\n",
                    c.lhs.c_str(), c.rhs.c_str(), c.line);
                ++failures;
                continue;
            }
            bound = rhs_it->second * c.factor;
            std::snprintf(buf, sizeof(buf), "%s * %g = %g",
                          c.rhs.c_str(), c.factor, bound);
            bound_desc = buf;
        }

        bool pass;
        if (c.op == ">=")
            pass = lhs >= bound;
        else if (c.op == "<=")
            pass = lhs <= bound;
        else
            pass = lhs == bound;
        std::printf("%s %-44s %g %s %s\n", pass ? " OK " : "FAIL",
                    c.lhs.c_str(), lhs, c.op.c_str(),
                    bound_desc.c_str());
        failures += pass ? 0 : 1;
    }

    if (failures) {
        std::fprintf(stderr,
                     "bench_check: %d of %zu constraints failed "
                     "(%s vs %s)\n",
                     failures, constraints.size(),
                     bench_desc.c_str(), thresholds_path.c_str());
        return 1;
    }
    std::printf("bench_check: %zu constraints OK\n",
                constraints.size());
    return 0;
}
