#include "whatif/query.hh"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "sim/fault.hh"
#include "sim/parse.hh"

namespace iocost::whatif {

namespace {

[[noreturn]] void
bad(const std::string &what)
{
    throw std::invalid_argument("whatif query: " + what);
}

/**
 * Minimal parser for the flat query documents: one object, string
 * keys, string/number values. Anything nested, boolean, or null is
 * rejected — the grammar is deliberately small enough to sniff.
 */
class FlatJson
{
  public:
    explicit FlatJson(const std::string &text) : text_(text)
    {
        parse();
    }

    const std::map<std::string, std::string> &values() const
    {
        return values_;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            bad("unexpected end of document");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            bad(std::string("expected '") + c + "' at offset " +
                std::to_string(pos_));
        ++pos_;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    bad("truncated escape");
                char e = text_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  default:
                    bad(std::string("unsupported escape \\") + e);
                }
            } else {
                out += c;
            }
        }
        if (pos_ >= text_.size())
            bad("unterminated string");
        ++pos_; // closing quote
        return out;
    }

    std::string
    parseNumber()
    {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(
                    static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            bad("expected a value at offset " +
                std::to_string(start));
        return text_.substr(start, pos_ - start);
    }

    void
    parse()
    {
        expect('{');
        if (peek() == '}') {
            ++pos_;
        } else {
            for (;;) {
                const std::string key = parseString();
                expect(':');
                std::string value;
                if (peek() == '"')
                    value = parseString();
                else
                    value = parseNumber();
                if (!values_.emplace(key, value).second)
                    bad("duplicate key \"" + key + "\"");
                const char c = peek();
                ++pos_;
                if (c == '}')
                    break;
                if (c != ',')
                    bad("expected ',' or '}' at offset " +
                        std::to_string(pos_ - 1));
            }
        }
        skipWs();
        if (pos_ != text_.size())
            bad("trailing characters after the document");
    }

    const std::string &text_;
    std::map<std::string, std::string> values_;
    size_t pos_ = 0;
};

} // namespace

Query
Query::parse(const std::string &jsonLine)
{
    const FlatJson doc(jsonLine);
    const auto &v = doc.values();

    auto get = [&](const char *key) -> const std::string & {
        auto it = v.find(key);
        if (it == v.end())
            bad(std::string("missing key \"") + key + "\"");
        return it->second;
    };

    Query q;
    const std::string &kind = get("q");
    std::map<std::string, std::string> known;
    known["q"] = kind;
    if (kind == "weight") {
        q.kind = Kind::Weight;
        q.cg = get("cg");
        known["cg"] = q.cg;
        const std::string &value = get("value");
        known["value"] = value;
        uint64_t w = 0;
        try {
            w = sim::parseCount(value);
        } catch (const std::invalid_argument &err) {
            bad(std::string("value: ") + err.what());
        }
        if (w == 0 || w > 10000)
            bad("weight must be in [1, 10000]");
        q.weight = static_cast<uint32_t>(w);
    } else if (kind == "device") {
        q.kind = Kind::Device;
        q.profile = get("profile");
        known["profile"] = q.profile;
    } else if (kind == "fault") {
        q.kind = Kind::Fault;
        q.fault = get("spec");
        known["spec"] = q.fault;
        // Validate here so a malformed spec fails before it is
        // queued: it must parse and must carry actual windows
        // (retry-policy keys belong in the scenario's fault plan —
        // the block layer's policy is fixed at host build).
        sim::FaultPlan plan;
        try {
            plan = sim::FaultPlan::parse(q.fault);
        } catch (const std::invalid_argument &err) {
            bad(std::string("bad fault spec: ") + err.what());
        }
        if (plan.windows.empty())
            bad("fault spec \"" + q.fault +
                "\" has no fault windows");
    } else {
        bad("unknown query kind \"" + kind +
            "\" (weight, device, fault)");
    }

    if (auto it = v.find("from"); it != v.end()) {
        try {
            q.from = sim::parseTime(it->second);
        } catch (const std::invalid_argument &err) {
            bad(std::string("from: ") + err.what());
        }
        known["from"] = it->second;
    }
    for (const auto &[key, value] : v) {
        if (!known.count(key))
            bad("unknown key \"" + key + "\"");
    }
    return q;
}

std::string
Query::canonical() const
{
    std::string out;
    switch (kind) {
      case Kind::Weight:
        out = "weight cg=" + cg + " value=" + std::to_string(weight);
        break;
      case Kind::Device:
        out = "device profile=" + profile;
        break;
      case Kind::Fault:
        out = "fault spec=" + fault;
        break;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, " from=%lld",
                  static_cast<long long>(from));
    return out + buf;
}

} // namespace iocost::whatif
