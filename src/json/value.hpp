// JSON DOM used by the decode path (LDMS Streams subscriber -> DSOS rows).
// The publish path never builds a DOM — it streams through json::Writer —
// so this type only needs to be convenient, not allocation-free.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace dlc::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value, std::less<>>;

/// Tagged union of the JSON value kinds.  Integers keep distinct signed
/// and unsigned alternatives so 64-bit record ids (FNV hashes above
/// INT64_MAX) and counters survive round-trips exactly.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(std::int64_t v) : data_(v) {}
  Value(std::uint64_t v) : data_(v) {}
  Value(int v) : data_(static_cast<std::int64_t>(v)) {}
  Value(double v) : data_(v) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(data_); }
  bool is_uint() const { return std::holds_alternative<std::uint64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_number() const { return is_int() || is_uint() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<Array>(data_); }
  bool is_object() const { return std::holds_alternative<Object>(data_); }

  bool as_bool() const { return std::get<bool>(data_); }
  /// Integer views of a number; a double outside the target range (or
  /// NaN/infinite) yields `fallback`.
  std::int64_t as_int(std::int64_t fallback = 0) const;
  std::uint64_t as_uint(std::uint64_t fallback = 0) const;
  double as_double() const;
  const std::string& as_string() const { return std::get<std::string>(data_); }
  const Array& as_array() const { return std::get<Array>(data_); }
  Array& as_array() { return std::get<Array>(data_); }
  const Object& as_object() const { return std::get<Object>(data_); }
  Object& as_object() { return std::get<Object>(data_); }

  /// Object member lookup; returns nullptr when absent or not an object.
  const Value* find(std::string_view k) const;

  /// Convenience typed getters with defaults, for tolerant decoding.
  std::int64_t get_int(std::string_view k, std::int64_t fallback = 0) const;
  std::uint64_t get_uint(std::string_view k, std::uint64_t fallback = 0) const;
  double get_double(std::string_view k, double fallback = 0.0) const;
  std::string get_string(std::string_view k, std::string fallback = "") const;

  /// Serialises back to compact JSON (tests/round-trips).
  std::string dump() const;

  bool operator==(const Value& other) const { return data_ == other.data_; }

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double,
               std::string, Array, Object>
      data_;
};

}  // namespace dlc::json
