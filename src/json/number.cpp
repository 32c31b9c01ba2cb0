#include "json/number.hpp"

#include <charconv>
#include <cstdlib>
#include <string>

namespace dlc::json {

Token to_number(std::string_view token, bool is_double) {
  Token tok;
  const char* first = token.data();
  const char* last = first + token.size();
  if (!is_double) {
    const auto [ptr, ec] = std::from_chars(first, last, tok.i);
    if (ec == std::errc() && ptr == last) {
      tok.kind = Token::Kind::kInt;
      return tok;
    }
    if (token[0] != '-') {
      const auto [uptr, uec] = std::from_chars(first, last, tok.u);
      if (uec == std::errc() && uptr == last) {
        tok.kind = Token::Kind::kUint;
        return tok;
      }
    }
    // Out of 64-bit range (from_chars left tok.i/tok.u at 0): double.
  }
  const std::string copy(token);  // strtod needs NUL termination
  tok.kind = Token::Kind::kDouble;
  tok.d = std::strtod(copy.c_str(), nullptr);
  return tok;
}

}  // namespace dlc::json
