/**
 * @file
 * The one JSON reader and the one JSON string escaper.
 *
 * Every JSON document the simulator reads goes through parse() (a
 * JSONL file, one line at a time), and every JSON string it writes
 * through appendEscaped().
 *
 * Grammar: RFC 8259, strictly. One value, optionally surrounded by
 * space, tab, CR or LF. Numbers are
 * `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`. Strings hold no
 * raw control character; their escapes are \" \\ \/ \b \f \n \r \t
 * and \uXXXX, with surrogate pairs joined and decoded to UTF-8 and a
 * lone surrogate rejected. Other bytes pass through unchanged.
 *
 * Limits: arrays and objects nest at most kMaxDepth deep, so no
 * document can exhaust the stack, and an object may not repeat a
 * key (RFC 8259 leaves a repeated key's meaning open; here it is an
 * error, not a silent last-wins). Keys are checked and looked up by
 * linear scan, which suits the few dozen keys per object of every
 * document the simulator writes.
 *
 * Numbers keep their source text: the reader never converts them.
 * number() and count() hand the text to sim/parse.hh, so a value
 * reads exactly as the grammar of its field reads the same text
 * anywhere else, whether it was written as a JSON number or string.
 * `300` and "300" are then the same weight, and `1e3` is no count.
 *
 * Errors are std::invalid_argument with a bare reason naming the
 * byte offset ("expected ':' at offset 12"), or the key for the
 * accessors; callers prefix the document they were reading.
 */

#ifndef IOCOST_SIM_JSON_HH
#define IOCOST_SIM_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace iocost::sim::json {

/** Deepest nesting of arrays and objects parse() accepts. */
constexpr unsigned kMaxDepth = 64;

/** One parsed value and, for an array or object, its children. */
struct Value
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    /** A number's source text, a string's decoded bytes, or
     *  "true"/"false". */
    std::string text;
    /** Array elements, or object member values in document order. */
    std::vector<Value> items;
    /** Object member names, parallel to items. */
    std::vector<std::string> keys;

    /** Member @p key, or nullptr (also when this is no object). */
    const Value *find(std::string_view key) const;

    /* Member @p key; string() requires a JSON string, and number()
     * and count() read the member's text with sim::parseNumber and
     * sim::parseCount. Each throws std::invalid_argument naming the
     * key when it is missing or does not read. */
    const Value &at(std::string_view key) const;
    const std::string &string(std::string_view key) const;
    double number(std::string_view key) const;
    uint64_t count(std::string_view key) const;
};

/** Parse one document. @throws std::invalid_argument naming the
 *  byte offset of the first error. */
Value parse(std::string_view text);

/** Append @p s escaped for a JSON string body: quotes, backslashes
 *  and every control character. */
void appendEscaped(std::string &out, std::string_view s);

} // namespace iocost::sim::json

#endif // IOCOST_SIM_JSON_HH
