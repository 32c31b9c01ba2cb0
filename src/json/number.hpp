// The one JSON number grammar, shared by json::parse, Scanner::scan_token
// and Scanner::skip_value so all three accept exactly the same tokens and
// the first two convert them identically.
//
// A token is the greedy run  -? D* ( . D* )? ( [eE] [+-]? D* )?  (D a
// decimal digit).  It is a number when it holds a mantissa digit and,
// if it has an exponent marker, an exponent digit: precisely the tokens
// strtod consumes whole, so `1.`, `.5` and `1.e5` are numbers and `-`,
// `.`, `1e` and `-e5` are not.  The bytes after the token belong to the
// caller's grammar.
#pragma once

#include <cstddef>
#include <string_view>

#include "json/scan.hpp"

namespace dlc::json {

struct NumberSpan {
  std::size_t end = 0;     // one past the token's last byte
  bool is_double = false;  // has a fraction or an exponent
  bool valid = false;      // the token is a number
};

inline bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Extent and validity of the number token starting at text[pos].
inline NumberSpan number_span(std::string_view text, std::size_t pos) {
  NumberSpan n;
  const std::size_t size = text.size();
  if (pos < size && text[pos] == '-') ++pos;
  const std::size_t int_start = pos;
  while (pos < size && is_digit(text[pos])) ++pos;
  bool mantissa = pos != int_start;
  if (pos < size && text[pos] == '.') {
    n.is_double = true;
    const std::size_t frac_start = ++pos;
    while (pos < size && is_digit(text[pos])) ++pos;
    mantissa = mantissa || pos != frac_start;
  }
  bool exponent = true;
  if (pos < size && (text[pos] == 'e' || text[pos] == 'E')) {
    n.is_double = true;
    ++pos;
    if (pos < size && (text[pos] == '+' || text[pos] == '-')) ++pos;
    const std::size_t exp_start = pos;
    while (pos < size && is_digit(text[pos])) ++pos;
    exponent = pos != exp_start;
  }
  n.end = pos;
  n.valid = mantissa && exponent;
  return n;
}

/// Converts a token number_span() called valid: int64 when it fits, else
/// uint64 for a positive integer (64-bit record ids), else strtod.
Token to_number(std::string_view token, bool is_double);

/// `d` truncated toward zero when the result fits, else `fallback`.
/// Casting NaN, an infinity or an out-of-range double is undefined
/// behaviour, so the integer getters of Token and Value go through these.
/// -2^63 is a double; 2^63 and 2^64 are the first values past the ranges.
inline std::int64_t double_to_int(double d, std::int64_t fallback) {
  return d >= -9223372036854775808.0 && d < 9223372036854775808.0
             ? static_cast<std::int64_t>(d)
             : fallback;
}

inline std::uint64_t double_to_uint(double d, std::uint64_t fallback) {
  return d > -1.0 && d < 18446744073709551616.0
             ? static_cast<std::uint64_t>(d)
             : fallback;
}

}  // namespace dlc::json
