#include "wire/objblock.hpp"

#include <map>

namespace dlc::wire {

namespace {

/// Per-block interning: first occurrence writes varint 0 + the string,
/// later occurrences write (id + 1).  Mirrors the transport frame's
/// table, but keyed per block.
struct InternTable {
  std::map<std::string, std::uint64_t, std::less<>> ids;

  void put(std::string& out, std::string_view s) {
    const auto it = ids.find(s);
    if (it != ids.end()) {
      put_varint(out, it->second + 1);
      return;
    }
    ids.emplace(std::string(s), ids.size());
    put_varint(out, 0);
    put_string(out, s);
  }
};

bool get_interned(Reader& r, std::vector<std::string>& table,
                  std::string& out) {
  const std::uint64_t id = r.varint();
  if (!r.ok()) return false;
  if (id == 0) {
    out = std::string(r.string());
    if (!r.ok()) return false;
    table.push_back(out);
    return true;
  }
  if (id - 1 >= table.size()) return false;
  out = table[id - 1];
  return true;
}

/// Appends one typed value with no interning.  The value's alternative
/// must match `t` (validated at insert time).
void put_value(std::string& out, const dsos::Value& v, dsos::AttrType t) {
  switch (t) {
    case dsos::AttrType::kInt64:
      put_zigzag(out, std::get<std::int64_t>(v));
      break;
    case dsos::AttrType::kUint64:
      put_varint(out, std::get<std::uint64_t>(v));
      break;
    case dsos::AttrType::kDouble:
      put_double(out, std::get<double>(v));
      break;
    case dsos::AttrType::kTimestamp:
      put_double(out, std::get<double>(v));
      break;
    case dsos::AttrType::kString:
      put_string(out, std::get<std::string>(v));
      break;
  }
}

/// Reads one typed value; false on malformed input.
bool get_value(Reader& r, dsos::AttrType t, dsos::Value& out) {
  switch (t) {
    case dsos::AttrType::kInt64:
      out = r.zigzag();
      break;
    case dsos::AttrType::kUint64:
      out = r.varint();
      break;
    case dsos::AttrType::kDouble:
      out = r.raw_double();
      break;
    case dsos::AttrType::kTimestamp:
      out = r.raw_double();
      break;
    case dsos::AttrType::kString:
      out = std::string(r.string());
      break;
  }
  return r.ok();
}

}  // namespace

void put_schema_def(std::string& out, const dsos::Schema& schema) {
  put_string(out, schema.name());
  put_varint(out, schema.attrs().size());
  for (const dsos::AttrDef& attr : schema.attrs()) {
    put_string(out, attr.name);
    out.push_back(static_cast<char>(attr.type));
  }
  put_varint(out, schema.indices().size());
  for (const dsos::IndexDef& index : schema.indices()) {
    put_string(out, index.name);
    put_varint(out, index.attr_ids.size());
    for (const std::size_t id : index.attr_ids) put_varint(out, id);
  }
}

dsos::SchemaPtr get_schema_def(Reader& r) {
  const std::string name(r.string());
  const std::uint64_t attr_count = r.varint();
  if (!r.ok() || name.empty() || attr_count == 0 ||
      attr_count > r.remaining()) {
    return nullptr;
  }
  std::vector<dsos::AttrDef> attrs;
  attrs.reserve(static_cast<std::size_t>(attr_count));
  for (std::uint64_t a = 0; a < attr_count; ++a) {
    dsos::AttrDef def;
    def.name = std::string(r.string());
    const std::uint8_t type = r.byte();
    if (!r.ok() || type > static_cast<std::uint8_t>(dsos::AttrType::kString)) {
      return nullptr;
    }
    def.type = static_cast<dsos::AttrType>(type);
    attrs.push_back(std::move(def));
  }
  const std::uint64_t index_count = r.varint();
  if (!r.ok() || index_count > r.remaining()) return nullptr;
  std::vector<dsos::IndexDef> indices;
  indices.reserve(static_cast<std::size_t>(index_count));
  for (std::uint64_t i = 0; i < index_count; ++i) {
    dsos::IndexDef def;
    def.name = std::string(r.string());
    const std::uint64_t id_count = r.varint();
    if (!r.ok() || id_count == 0 || id_count > r.remaining()) return nullptr;
    for (std::uint64_t k = 0; k < id_count; ++k) {
      const std::uint64_t id = r.varint();
      if (!r.ok() || id >= attr_count) return nullptr;
      def.attr_ids.push_back(static_cast<std::size_t>(id));
    }
    indices.push_back(std::move(def));
  }
  return std::make_shared<const dsos::Schema>(name, std::move(attrs),
                                              std::move(indices));
}

std::string encode_object_block(
    const std::vector<const dsos::Object*>& rows) {
  // Schema name table in first-appearance order.
  std::vector<std::string_view> names;
  std::map<std::string_view, std::uint64_t> name_idx;
  for (const dsos::Object* row : rows) {
    const std::string& name = row->schema->name();
    if (name_idx.emplace(name, names.size()).second) {
      names.push_back(name);
    }
  }

  std::string out;
  put_varint(out, names.size());
  for (const std::string_view name : names) put_string(out, name);
  put_varint(out, rows.size());
  InternTable interned;
  for (const dsos::Object* row : rows) {
    put_varint(out, name_idx.at(row->schema->name()));
    const auto& attrs = row->schema->attrs();
    for (std::size_t a = 0; a < attrs.size(); ++a) {
      if (attrs[a].type == dsos::AttrType::kString) {
        interned.put(out, std::get<std::string>(row->values[a]));
      } else {
        put_value(out, row->values[a], attrs[a].type);
      }
    }
  }
  return out;
}

bool decode_object_block(std::string_view block,
                         const SchemaResolver& resolve,
                         std::vector<dsos::Object>* out) {
  Reader r(block);
  const std::uint64_t schema_count = r.varint();
  if (!r.ok() || schema_count > r.remaining()) return false;
  std::vector<dsos::SchemaPtr> schemas;
  schemas.reserve(static_cast<std::size_t>(schema_count));
  for (std::uint64_t s = 0; s < schema_count; ++s) {
    dsos::SchemaPtr schema = resolve(r.string());
    if (!r.ok() || schema == nullptr) return false;
    schemas.push_back(std::move(schema));
  }
  const std::uint64_t row_count = r.varint();
  if (!r.ok() || row_count > r.remaining()) return false;

  std::vector<dsos::Object> rows;
  rows.reserve(static_cast<std::size_t>(row_count));
  std::vector<std::string> table;
  for (std::uint64_t i = 0; i < row_count; ++i) {
    const std::uint64_t schema_idx = r.varint();
    if (!r.ok() || schema_idx >= schemas.size()) return false;
    dsos::Object obj;
    obj.schema = schemas[static_cast<std::size_t>(schema_idx)];
    const auto& attrs = obj.schema->attrs();
    obj.values.reserve(attrs.size());
    for (const dsos::AttrDef& attr : attrs) {
      dsos::Value v;
      if (attr.type == dsos::AttrType::kString) {
        std::string s;
        if (!get_interned(r, table, s)) return false;
        v = std::move(s);
      } else if (!get_value(r, attr.type, v)) {
        return false;
      }
      obj.values.push_back(std::move(v));
    }
    rows.push_back(std::move(obj));
  }
  if (!r.ok() || !r.done()) return false;
  for (dsos::Object& obj : rows) out->push_back(std::move(obj));
  return true;
}

}  // namespace dlc::wire
