// Zero-copy JSON scanning for the decode hot path.
//
// json::parse builds a DOM: one std::map node per object member, one
// std::string per key and string value.  The decoder reads a fixed set of
// fields out of that DOM and throws it away — per-message allocation that
// dominates ingest cost once the transport is batched binary.  Scanner is
// the allocation-free alternative: a strict pull cursor over the payload
// that yields scalar Tokens whose string values are `string_view` slices
// OF THE PAYLOAD BUFFER (scratch-backed only when the string contains
// escapes).  Lifetime rule: tokens borrow from the payload and from the
// caller's scratch string — both must outlive every use of the token.
//
// Equivalence contract: Scanner accepts a SUBSET of what json::parse
// accepts, and on the subset produces byte-identical values: both take
// numbers through json/number.hpp (one token grammar, one conversion
// ladder) and escapes, \u included, through json/escape.hpp.  The one
// valid input it declines is a skipped value nested more than kMaxDepth
// levels deep; core::decode_message_fast counts such a payload
// malformed.  json::parse stays the reference the tests and fuzz
// targets compare against.
//
// The byte loops are plain inline code with no shared state: connector
// JSON has no whitespace runs and mostly sub-16-byte strings, on which
// SSE2/AVX2 skip kernels measured slower (DESIGN.md section 9b).
// skip_value validates numbers without converting them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace dlc::json {

/// One scanned scalar.  Numbers mirror the DOM's int64/uint64/double
/// alternatives (same widening rules apply on read).
struct Token {
  enum class Kind : std::uint8_t {
    kAbsent,  // field never seen
    kInt,
    kUint,
    kDouble,
    kString,
    kOther,  // null / bool / nested value — typed getters fall back
  };
  Kind kind = Kind::kAbsent;
  std::int64_t i = 0;
  std::uint64_t u = 0;
  double d = 0.0;
  std::string_view sv{};  // kString: payload slice or caller scratch

  /// Getter coercions matching json::Value::get_int/get_uint/get_double/
  /// get_string (fallback unless the token is a number / string; the
  /// integer getters also fall back on a double outside their range).
  std::int64_t as_int(std::int64_t fallback) const;
  std::uint64_t as_uint(std::uint64_t fallback) const;
  double as_double(double fallback) const;
  std::string_view as_string(std::string_view fallback) const;
};

class Scanner {
 public:
  /// Nested containers beyond this depth below a skipped value fail the
  /// scan; connector payloads are depth 3.
  static constexpr int kMaxDepth = 64;

  explicit Scanner(std::string_view text) : text_(text) {}

  /// Consumes leading whitespace and '{'.  False if the document does not
  /// start with an object.
  bool enter_object();
  /// Consumes leading whitespace and '['.
  bool enter_array();

  /// Iterates object members: 1 = key read (cursor at the value),
  /// 0 = object closed, -1 = malformed.  The key view may borrow from
  /// `key_scratch` when the key contains escapes.
  int next_member(std::string_view& key, std::string& key_scratch);

  /// Iterates array elements: 1 = cursor at the next value, 0 = array
  /// closed, -1 = malformed.
  int next_element();

  /// True when the next value (after whitespace) starts an array/object.
  bool peek_array();
  bool peek_object();

  /// Scans one scalar value into `tok` (nested values and literals become
  /// kOther and are skipped).  String content may borrow from `scratch`.
  bool scan_token(Token& tok, std::string& scratch);

  /// Skips any one value, validating its syntax: it accepts exactly the
  /// values scan_token accepts, but converts no number.
  bool skip_value();

  /// Skips one value and returns its raw byte range (for re-scanning an
  /// embedded array without re-locating it).
  bool value_span(std::string_view& span);

  /// True when only trailing whitespace remains — json::parse fails on
  /// trailing characters, so fast paths must check this before trusting
  /// the scan.
  bool at_end();

 private:
  void skip_ws();
  bool consume(char c);
  bool scan_string(std::string_view& out, std::string& scratch);
  bool skip_string();
  bool scan_number(Token& tok);
  bool skip_value_depth(int depth);

  std::string_view text_;
  std::size_t pos_ = 0;
  bool first_member_ = true;   // inside the CURRENT flat iteration only
  bool first_element_ = true;
};

}  // namespace dlc::json
