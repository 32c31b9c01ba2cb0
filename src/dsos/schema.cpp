#include "dsos/schema.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>

namespace dlc::dsos {

std::string_view attr_type_name(AttrType t) {
  switch (t) {
    case AttrType::kInt64:
      return "int64";
    case AttrType::kUint64:
      return "uint64";
    case AttrType::kDouble:
      return "double";
    case AttrType::kTimestamp:
      return "timestamp";
    case AttrType::kString:
      return "string";
  }
  return "?";
}

bool value_matches_type(const Value& v, AttrType t) {
  switch (t) {
    case AttrType::kInt64:
      return std::holds_alternative<std::int64_t>(v);
    case AttrType::kUint64:
      return std::holds_alternative<std::uint64_t>(v);
    case AttrType::kDouble:
    case AttrType::kTimestamp:
      return std::holds_alternative<double>(v);
    case AttrType::kString:
      return std::holds_alternative<std::string>(v);
  }
  return false;
}

namespace {

template <typename Int>
std::optional<Value> parse_int(const std::string& text) {
  Int v{};
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || p != end) return std::nullopt;
  return std::make_optional<Value>(v);
}

}  // namespace

std::optional<Value> parse_value(AttrType t, const std::string& text) {
  switch (t) {
    case AttrType::kInt64:
      return parse_int<std::int64_t>(text);
    case AttrType::kUint64:
      return parse_int<std::uint64_t>(text);
    case AttrType::kDouble:
    case AttrType::kTimestamp: {
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (text.empty() || end != text.c_str() + text.size()) {
        return std::nullopt;
      }
      return std::make_optional<Value>(v);
    }
    case AttrType::kString:
      return std::make_optional<Value>(text);
  }
  return std::nullopt;
}

Schema::Schema(std::string name, std::vector<AttrDef> attrs,
               std::vector<IndexDef> indices)
    : name_(std::move(name)),
      attrs_(std::move(attrs)),
      indices_(std::move(indices)) {
  for (const IndexDef& idx : indices_) {
    for (std::size_t id : idx.attr_ids) {
      if (id >= attrs_.size()) {
        throw std::invalid_argument("schema index references unknown attr");
      }
    }
  }
}

std::size_t Schema::attr_id(std::string_view name) const {
  if (const auto id = find_attr(name)) return *id;
  throw std::out_of_range("schema " + name_ + ": unknown attr " +
                          std::string(name));
}

std::optional<std::size_t> Schema::find_attr(std::string_view name) const {
  for (std::size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i].name == name) return i;
  }
  return std::nullopt;
}

const IndexDef& Schema::index(std::string_view name) const {
  if (const auto id = find_index(name)) return indices_[*id];
  throw std::out_of_range("schema " + name_ + ": unknown index " +
                          std::string(name));
}

std::optional<std::size_t> Schema::find_index(std::string_view name) const {
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    if (indices_[i].name == name) return i;
  }
  return std::nullopt;
}

SchemaBuilder& SchemaBuilder::attr(std::string name, AttrType type) {
  attrs_.push_back(AttrDef{std::move(name), type});
  return *this;
}

SchemaBuilder& SchemaBuilder::index(std::string name,
                                    const std::vector<std::string>& attr_names) {
  IndexDef def;
  def.name = std::move(name);
  for (const auto& attr_name : attr_names) {
    const auto it =
        std::find_if(attrs_.begin(), attrs_.end(),
                     [&](const AttrDef& a) { return a.name == attr_name; });
    if (it == attrs_.end()) {
      throw std::invalid_argument("index attr not declared: " + attr_name);
    }
    def.attr_ids.push_back(
        static_cast<std::size_t>(std::distance(attrs_.begin(), it)));
  }
  indices_.push_back(std::move(def));
  return *this;
}

SchemaPtr SchemaBuilder::build() {
  return std::make_shared<const Schema>(std::move(name_), std::move(attrs_),
                                        std::move(indices_));
}

std::int64_t Object::as_int(std::string_view attr_name) const {
  return std::get<std::int64_t>(at(attr_name));
}

std::uint64_t Object::as_uint(std::string_view attr_name) const {
  return std::get<std::uint64_t>(at(attr_name));
}

double Object::as_double(std::string_view attr_name) const {
  return std::get<double>(at(attr_name));
}

const std::string& Object::as_string(std::string_view attr_name) const {
  return std::get<std::string>(at(attr_name));
}

Object make_object(SchemaPtr schema, std::vector<Value> values) {
  if (values.size() != schema->attrs().size()) {
    throw std::invalid_argument("object arity mismatch for schema " +
                                schema->name());
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!value_matches_type(values[i], schema->attrs()[i].type)) {
      throw std::invalid_argument("object attr type mismatch: " +
                                  schema->attrs()[i].name);
    }
  }
  return Object{std::move(schema), std::move(values)};
}

}  // namespace dlc::dsos
