// Recursive-descent JSON parser (RFC 8259 subset sufficient for the
// connector's messages: no surrogate-pair \u escapes beyond BMP pass-through).
// Its recursion is bounded: deeper documents are rejected, not parsed.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "json/value.hpp"

namespace dlc::json {

struct ParseError {
  std::size_t offset = 0;
  std::string message;
};

/// Containers nested deeper than this fail the parse instead of
/// exhausting the stack.
inline constexpr int kMaxParseDepth = 256;

/// Parses a complete JSON document.  Returns nullopt and fills `error`
/// (when provided) on malformed input, trailing garbage, or nesting
/// deeper than kMaxParseDepth.
std::optional<Value> parse(std::string_view text, ParseError* error = nullptr);

}  // namespace dlc::json
