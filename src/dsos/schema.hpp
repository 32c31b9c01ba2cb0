// DSOS schema: typed attributes plus *joint indices* — ordered composite
// keys such as `job_rank_time`, which the paper uses so that "data [can be
// ordered] by job, rank then timestamp and then [searched] by a specific
// rank within a specific job over time".
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace dlc::dsos {

enum class AttrType : std::uint8_t {
  kInt64 = 0,
  kUint64 = 1,
  kDouble = 2,
  kTimestamp = 3,  // epoch seconds, stored as double
  kString = 4,
};

std::string_view attr_type_name(AttrType t);

/// A typed attribute value.  Timestamps use the double alternative.
using Value = std::variant<std::int64_t, std::uint64_t, double, std::string>;

/// The Value alternative that holds an attribute of type `T`.
template <AttrType T>
using ValueOf = std::conditional_t<
    T == AttrType::kInt64, std::int64_t,
    std::conditional_t<T == AttrType::kUint64, std::uint64_t,
                       std::conditional_t<T == AttrType::kString,
                                          std::string, double>>>;

/// True when `v`'s alternative is compatible with `t`.
bool value_matches_type(const Value& v, AttrType t);

/// Parses `text` as a value of type `t`.  Integers must be decimal and in
/// range; doubles must be non-empty and strtod must consume all of
/// `text`; strings are taken verbatim.  nullopt when `text` is not such a
/// value — CSV import, the websvc filters and dsos_cmd all parse here.
std::optional<Value> parse_value(AttrType t, const std::string& text);

struct AttrDef {
  std::string name;
  AttrType type = AttrType::kInt64;
};

struct IndexDef {
  /// Index name, conventionally the joined attr names ("job_rank_time").
  std::string name;
  /// Attribute ids forming the composite key, most-significant first.
  std::vector<std::size_t> attr_ids;
};

class Schema {
 public:
  Schema(std::string name, std::vector<AttrDef> attrs,
         std::vector<IndexDef> indices);

  const std::string& name() const { return name_; }
  const std::vector<AttrDef>& attrs() const { return attrs_; }
  const std::vector<IndexDef>& indices() const { return indices_; }

  /// Attribute id by name; throws std::out_of_range on unknown names.
  std::size_t attr_id(std::string_view name) const;
  /// Like attr_id but returns nullopt instead of throwing.
  std::optional<std::size_t> find_attr(std::string_view name) const;

  const IndexDef& index(std::string_view name) const;
  std::optional<std::size_t> find_index(std::string_view name) const;

 private:
  std::string name_;
  std::vector<AttrDef> attrs_;
  std::vector<IndexDef> indices_;
};

using SchemaPtr = std::shared_ptr<const Schema>;

/// Fluent builder:
///   auto schema = SchemaBuilder("darshan_data")
///       .attr("job_id", AttrType::kUint64)
///       .attr("rank", AttrType::kInt64)
///       .attr("timestamp", AttrType::kTimestamp)
///       .index("job_rank_time", {"job_id", "rank", "timestamp"})
///       .build();
class SchemaBuilder {
 public:
  explicit SchemaBuilder(std::string name) : name_(std::move(name)) {}

  SchemaBuilder& attr(std::string name, AttrType type);
  SchemaBuilder& index(std::string name,
                       const std::vector<std::string>& attr_names);
  SchemaPtr build();

 private:
  std::string name_;
  std::vector<AttrDef> attrs_;
  std::vector<IndexDef> indices_;
};

/// An object is a row of values conforming to a schema.
struct Object {
  SchemaPtr schema;
  std::vector<Value> values;

  const Value& at(std::size_t attr_id) const { return values.at(attr_id); }
  const Value& at(std::string_view attr_name) const {
    return values.at(schema->attr_id(attr_name));
  }
  std::int64_t as_int(std::string_view attr_name) const;
  std::uint64_t as_uint(std::string_view attr_name) const;
  double as_double(std::string_view attr_name) const;
  const std::string& as_string(std::string_view attr_name) const;
};

/// Convenience object factory that validates types against the schema.
Object make_object(SchemaPtr schema, std::vector<Value> values);

/// Trusted-builder variant that skips the per-value type validation.
/// Only for rows whose value types are fixed at compile time (the wire
/// FrameCursor rows, built with core::set_field); everything else should
/// pay for make_object.
inline Object make_object_unchecked(SchemaPtr schema,
                                    std::vector<Value> values) {
  return Object{std::move(schema), std::move(values)};
}

}  // namespace dlc::dsos
