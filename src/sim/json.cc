#include "sim/json.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>

#include "sim/parse.hh"

namespace iocost::sim::json {

namespace {

using Kind = Value::Kind;

[[noreturn]] void
fail(const std::string &why, size_t at)
{
    throw std::invalid_argument(why + " at offset " +
                                std::to_string(at));
}

/** Recursive descent over one document (grammar in json.hh). */
struct Reader
{
    std::string_view s;
    size_t pos = 0;

    /** Skip whitespace; @return the position after it. */
    size_t
    skipWs()
    {
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t' ||
                                  s[pos] == '\n' || s[pos] == '\r'))
            ++pos;
        return pos;
    }

    /** The next non-space character, not consumed. */
    char
    peek()
    {
        if (skipWs() == s.size())
            fail("unexpected end of input", pos);
        return s[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'", pos);
        ++pos;
    }

    bool
    accept(std::string_view word)
    {
        if (s.substr(pos, word.size()) != word)
            return false;
        pos += word.size();
        return true;
    }

    /** Consume [0-9]*; @return whether there was at least one. */
    bool
    digits()
    {
        const size_t start = pos;
        while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9')
            ++pos;
        return pos > start;
    }

    Value
    value(unsigned depth)
    {
        Value v;
        const char c = peek();
        const size_t start = pos;
        if (c == '{' || c == '[') {
            if (depth == kMaxDepth)
                fail("nesting deeper than " + std::to_string(kMaxDepth),
                     start);
            ++pos;
            v.kind = c == '{' ? Kind::Object : Kind::Array;
            const char close = c == '{' ? '}' : ']';
            if (peek() != close) {
                do {
                    if (v.kind == Kind::Object)
                        key(v);
                    v.items.push_back(value(depth + 1));
                } while (peek() == ',' && accept(","));
            }
            expect(close);
        } else if (c == '"') {
            v.kind = Kind::String;
            v.text = string();
        } else if (accept("true") || accept("false")) {
            v.kind = Kind::Bool;
            v.text = s.substr(start, pos - start);
        } else if (!accept("null")) {
            v.kind = Kind::Number;
            accept("-");
            if (!accept("0") && !digits())
                fail("expected a value", start);
            if (accept(".") && !digits())
                fail("expected a digit", pos);
            if (accept("e") || accept("E")) {
                if (!accept("+"))
                    accept("-");
                if (!digits())
                    fail("expected a digit", pos);
            }
            v.text = s.substr(start, pos - start);
        }
        return v;
    }

    /** An object member's `"key":`, appended to @p obj's keys. */
    void
    key(Value &obj)
    {
        peek();
        const size_t at = pos;
        std::string name = string();
        if (std::find(obj.keys.begin(), obj.keys.end(), name) !=
            obj.keys.end())
            fail("duplicate key \"" + name + "\"", at);
        obj.keys.push_back(std::move(name));
        expect(':');
    }

    std::string
    string()
    {
        static constexpr std::string_view kEscapes = "\"\\/bfnrt";
        static constexpr std::string_view kBytes = "\"\\/\b\f\n\r\t";
        expect('"');
        std::string out;
        for (;;) {
            const size_t run = pos;
            while (pos < s.size() && s[pos] != '"' && s[pos] != '\\' &&
                   static_cast<unsigned char>(s[pos]) >= 0x20)
                ++pos;
            out.append(s, run, pos - run);
            if (pos == s.size())
                fail("unterminated string", pos);
            if (accept("\""))
                return out;
            if (!accept("\\"))
                fail("control character in a string", pos);
            const size_t e = pos < s.size() ? kEscapes.find(s[pos])
                                            : std::string_view::npos;
            if (e != std::string_view::npos) {
                out += kBytes[e];
                ++pos;
            } else if (accept("u")) {
                appendUtf8(out, codePoint(pos - 2));
            } else {
                fail("bad escape", pos - 1);
            }
        }
    }

    /** The code point of the \u escape at @p at (its "\u" just
     *  read), joined with the low half of a surrogate pair. */
    uint32_t
    codePoint(size_t at)
    {
        auto hex4 = [&] {
            uint32_t u = 0;
            const char *p = s.data() + pos;
            if (s.size() - pos < 4 ||
                std::from_chars(p, p + 4, u, 16).ptr != p + 4)
                fail("expected four hex digits", pos);
            pos += 4;
            return u;
        };
        const uint32_t cp = hex4();
        if (cp < 0xd800 || cp > 0xdfff)
            return cp;
        if (cp <= 0xdbff && accept("\\u")) {
            const uint32_t lo = hex4();
            if (lo >= 0xdc00 && lo <= 0xdfff)
                return 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
        }
        fail("unpaired surrogate", at);
    }

    static void
    appendUtf8(std::string &out, uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
            return;
        }
        // n continuation bytes follow a lead byte of n + 1 high ones.
        const int n = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
        out += static_cast<char>((0xff00 >> (n + 1)) | cp >> (6 * n));
        for (int i = n - 1; i >= 0; --i)
            out += static_cast<char>(0x80 | (cp >> (6 * i) & 0x3f));
    }
};

/** @p parse over member @p key's text; errors name the key. */
template <typename Parse>
auto
parseMember(const Value &obj, std::string_view key, Parse parse)
{
    const std::string &text = obj.at(key).text;
    try {
        return parse(text);
    } catch (const std::invalid_argument &err) {
        throw std::invalid_argument("key \"" + std::string(key) +
                                    "\": " + err.what());
    }
}

} // namespace

const Value *
Value::find(std::string_view key) const
{
    const auto it = std::find(keys.begin(), keys.end(), key);
    return it == keys.end() ? nullptr : &items[it - keys.begin()];
}

const Value &
Value::at(std::string_view key) const
{
    if (const Value *v = find(key))
        return *v;
    throw std::invalid_argument("missing key \"" + std::string(key) +
                                "\"");
}

const std::string &
Value::string(std::string_view key) const
{
    const Value &v = at(key);
    if (v.kind != Kind::String)
        throw std::invalid_argument("key \"" + std::string(key) +
                                    "\": expected a string");
    return v.text;
}

double
Value::number(std::string_view key) const
{
    return parseMember(*this, key, parseNumber);
}

uint64_t
Value::count(std::string_view key) const
{
    return parseMember(*this, key, parseCount);
}

Value
parse(std::string_view text)
{
    Reader r{text};
    Value v = r.value(0);
    if (r.skipWs() != text.size())
        fail("trailing characters after the document", r.pos);
    return v;
}

void
appendEscaped(std::string &out, std::string_view s)
{
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (c == '\t') {
            out += "\\t";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
}

} // namespace iocost::sim::json
