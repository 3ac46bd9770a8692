/**
 * @file
 * The seeded mutation fuzz the grammar tests share: mutate valid
 * inputs, and require every mutant to be accepted or rejected with
 * std::invalid_argument. Any other exception fails the test; a crash,
 * hang or out-of-bounds read fails the IOCOST_SANITIZE build.
 */

#ifndef IOCOST_TESTS_MUTATION_HH
#define IOCOST_TESTS_MUTATION_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>

#include "sim/rng.hh"

namespace iocost::test {

/** Run @p fn; an std::invalid_argument is a clean rejection, and any
 *  other exception fails the test. @return whether it accepted. */
inline bool
accepts(const std::function<void()> &fn, const std::string &input)
{
    try {
        fn();
        return true;
    } catch (const std::invalid_argument &) {
        return false;
    } catch (const std::exception &err) {
        ADD_FAILURE() << "threw " << err.what() << " on: " << input;
        return false;
    }
}

/** One to four byte flips, truncations or insertions of one of
 *  @p tokens into @p doc. */
inline std::string
mutate(std::string doc, sim::Rng &rng,
       std::span<const char *const> tokens)
{
    const uint64_t n = 1 + rng.below(4);
    for (uint64_t m = 0; m < n; ++m) {
        const size_t at = rng.below(doc.size() + 1);
        switch (rng.below(4)) {
          case 0:
            if (at < doc.size())
                doc[at] = static_cast<char>(
                    doc[at] ^ (1u << rng.below(8)));
            break;
          case 1:
            if (at < doc.size())
                doc[at] = static_cast<char>(rng.below(256));
            break;
          case 2:
            doc.resize(at);
            break;
          default:
            doc.insert(at, tokens[rng.below(tokens.size())]);
        }
    }
    return doc;
}

} // namespace iocost::test

#endif // IOCOST_TESTS_MUTATION_HH
