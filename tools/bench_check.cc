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
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace {

/**
 * Flatten the benchmark document into dotted-path -> value. A
 * deliberately small recursive-descent parser for the subset
 * perf_kernel emits: objects, string keys, numbers, true/false,
 * null (skipped). Anything else is a parse error — the gate must
 * not silently pass on a malformed document.
 */
class FlatJson
{
  public:
    bool
    parse(const std::string &text)
    {
        text_ = text.c_str();
        pos_ = 0;
        end_ = text.size();
        skipWs();
        return object("") && (skipWs(), pos_ == end_);
    }

    const std::map<std::string, double> &values() const
    {
        return values_;
    }

    /** Paths present in the document but holding JSON null. */
    const std::set<std::string> &nulls() const { return nulls_; }

  private:
    bool
    object(const std::string &prefix)
    {
        if (!consume('{'))
            return false;
        skipWs();
        if (consume('}'))
            return true;
        for (;;) {
            skipWs();
            std::string key;
            if (!string(key))
                return false;
            skipWs();
            if (!consume(':'))
                return false;
            skipWs();
            const std::string path =
                prefix.empty() ? key : prefix + "." + key;
            if (!value(path))
                return false;
            skipWs();
            if (consume(','))
                continue;
            return consume('}');
        }
    }

    bool
    array(const std::string &prefix)
    {
        if (!consume('['))
            return false;
        skipWs();
        if (consume(']'))
            return true;
        size_t idx = 0;
        for (;;) {
            skipWs();
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%zu", idx++);
            if (!value(prefix + "." + buf))
                return false;
            skipWs();
            if (consume(','))
                continue;
            return consume(']');
        }
    }

    bool
    value(const std::string &path)
    {
        if (peek() == '{')
            return object(path);
        if (peek() == '[')
            return array(path);
        if (peek() == '"') {
            std::string ignored;
            return string(ignored); // labels are not gated
        }
        if (literal("true")) {
            values_[path] = 1.0;
            return true;
        }
        if (literal("false")) {
            values_[path] = 0.0;
            return true;
        }
        if (literal("null")) {
            // "Not measured on this machine" — recorded so the
            // gate can SKIP (not FAIL) constraints on this path.
            nulls_.insert(path);
            return true;
        }
        char *after = nullptr;
        const double v = std::strtod(text_ + pos_, &after);
        if (after == text_ + pos_)
            return false;
        pos_ = static_cast<size_t>(after - text_);
        values_[path] = v;
        return true;
    }

    bool
    string(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos_ < end_ && text_[pos_] != '"')
            out.push_back(text_[pos_++]);
        return consume('"');
    }

    bool
    literal(const char *word)
    {
        const size_t n = std::strlen(word);
        if (pos_ + n <= end_ &&
            std::memcmp(text_ + pos_, word, n) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    char peek() const { return pos_ < end_ ? text_[pos_] : '\0'; }

    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    void
    skipWs()
    {
        while (pos_ < end_ &&
               std::isspace(static_cast<unsigned char>(
                   text_[pos_])))
            ++pos_;
    }

    const char *text_ = nullptr;
    size_t pos_ = 0;
    size_t end_ = 0;
    std::map<std::string, double> values_;
    std::set<std::string> nulls_;
};

std::string
readFile(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return "";
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
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
        const std::string text = readFile(path);
        if (text.empty()) {
            std::fprintf(stderr, "bench_check: cannot read %s\n",
                         path.c_str());
            return 2;
        }
        FlatJson doc;
        if (!doc.parse(text)) {
            std::fprintf(stderr,
                         "bench_check: %s is not parseable\n",
                         path.c_str());
            return 2;
        }
        const std::string dot = prefix.empty() ? "" : prefix + ".";
        for (const auto &[k, v] : doc.values())
            vals[dot + k] = v;
        for (const std::string &k : doc.nulls())
            nulls.insert(dot + k);
        if (!bench_desc.empty())
            bench_desc += ",";
        bench_desc += path;
    }

    const std::string thr_text = readFile(thresholds_path);
    if (thr_text.empty()) {
        std::fprintf(stderr, "bench_check: cannot read %s\n",
                     thresholds_path.c_str());
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
