#pragma once
// wire.h — strict token/number parsing shared by the line-oriented wire
// formats (StreamingMeasures accumulators in core/measures.cpp, ShardSpecs
// in exp/shard.cpp).  One implementation so the formats cannot drift in
// how they reject malformed input: every failure is a std::invalid_argument
// with the caller's context and the offending field — never UB.

#include <charconv>
#include <istream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace pred::core::wire {

[[noreturn]] inline void fail(const std::string& context,
                              const std::string& what) {
  throw std::invalid_argument(context + ": " + what);
}

/// One whitespace-separated token, failing with a labeled error.
inline std::string nextToken(std::istream& in, const std::string& context,
                             const std::string& expecting) {
  std::string tok;
  if (!(in >> tok)) {
    fail(context, "unexpected end of input, expecting " + expecting);
  }
  return tok;
}

/// One whitespace-separated integer, fully consumed: decimal digits with at
/// most one leading sign ('+' always, '-' only on signed targets).  Junk,
/// overflow of T, and a '-' on an unsigned target all fail with the field
/// name.
template <typename T>
T nextNumber(std::istream& in, const std::string& context,
             const std::string& field) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool> &&
                    sizeof(T) > 1,
                "nextNumber parses multi-byte integers only");
  const std::string tok = nextToken(in, context, field);
  const char* first = tok.data();
  const char* const last = first + tok.size();
  // from_chars takes no '+'; skip one, unless a second sign follows it.
  if (last - first > 1 && *first == '+' && first[1] != '-') ++first;
  T value{};
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || end != last) {
    fail(context, "malformed " + field + ": '" + tok + "'");
  }
  return value;
}

}  // namespace pred::core::wire
