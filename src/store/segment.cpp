#include "store/segment.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>

#include "store/format.hpp"
#include "util/crc32.hpp"
#include "wire/objblock.hpp"
#include "wire/varint.hpp"

namespace dlc::store {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, sizeof(buf));
  out.append(buf, sizeof(buf));
}

/// Derives the row-dependent header fields: schema table (first
/// appearance order), per-indexed-attribute zones, timestamp range.
void derive_from_rows(SegmentMeta* meta,
                      const std::vector<const dsos::Object*>& rows) {
  meta->row_count = rows.size();
  meta->schemas.clear();
  meta->zones.clear();
  meta->min_time = 0.0;
  meta->max_time = 0.0;

  std::map<std::string_view, std::uint64_t> schema_idx;
  bool have_time = false;
  for (const dsos::Object* row : rows) {
    const dsos::SchemaPtr& schema = row->schema;
    auto [it, fresh] =
        schema_idx.emplace(schema->name(), meta->schemas.size());
    if (fresh) meta->schemas.push_back(schema);
    const std::uint64_t s_idx = it->second;

    const auto& attrs = schema->attrs();
    for (std::size_t a = 0; a < attrs.size(); ++a) {
      if (attrs[a].type != dsos::AttrType::kTimestamp) continue;
      const double t = std::get<double>(row->values[a]);
      if (!have_time) {
        have_time = true;
        meta->min_time = meta->max_time = t;
      } else {
        if (t < meta->min_time) meta->min_time = t;
        if (t > meta->max_time) meta->max_time = t;
      }
      break;  // first timestamp attribute only (the row's event time)
    }

    // Zones over the attrs any index references (mirrors
    // Container::register_schema's `indexed` set).
    std::vector<char> indexed(attrs.size(), 0);
    for (const dsos::IndexDef& def : schema->indices()) {
      for (const std::size_t id : def.attr_ids) indexed[id] = 1;
    }
    for (std::size_t a = 0; a < attrs.size(); ++a) {
      if (!indexed[a]) continue;
      SegmentZone* zone = nullptr;
      for (SegmentZone& z : meta->zones) {
        if (z.schema_idx == s_idx && z.attr_id == a) {
          zone = &z;
          break;
        }
      }
      const dsos::Value& v = row->values[a];
      if (zone == nullptr) {
        meta->zones.push_back(SegmentZone{s_idx, a, v, v});
      } else {
        if (dsos::compare_values(v, zone->min) < 0) zone->min = v;
        if (dsos::compare_values(v, zone->max) > 0) zone->max = v;
      }
    }
  }
}

std::string encode_header(const SegmentMeta& meta) {
  std::string h;
  wire::put_varint(h, kSegmentVersion);
  wire::put_varint(h, meta.id);
  wire::put_varint(h, meta.shard);
  wire::put_varint(h, meta.first_seq);
  wire::put_varint(h, meta.last_seq);
  wire::put_varint(h, meta.row_count);
  wire::put_double(h, meta.min_time);
  wire::put_double(h, meta.max_time);
  wire::put_varint(h, meta.created_unix_s);
  wire::put_varint(h, meta.replaces.size());
  for (const std::uint64_t id : meta.replaces) wire::put_varint(h, id);
  wire::put_varint(h, meta.schemas.size());
  for (const dsos::SchemaPtr& schema : meta.schemas) {
    wire::put_schema_def(h, *schema);
  }
  wire::put_varint(h, meta.zones.size());
  for (const SegmentZone& z : meta.zones) {
    wire::put_varint(h, z.schema_idx);
    wire::put_varint(h, z.attr_id);
    const dsos::AttrType type =
        meta.schemas[static_cast<std::size_t>(z.schema_idx)]
            ->attrs()[static_cast<std::size_t>(z.attr_id)]
            .type;
    wire::put_value(h, z.min, type);
    wire::put_value(h, z.max, type);
  }
  return h;
}

bool decode_header(std::string_view bytes, SegmentMeta* meta) {
  wire::Reader r(bytes);
  const std::uint64_t version = r.varint();
  if (!r.ok() || version != kSegmentVersion) return false;
  meta->id = r.varint();
  meta->shard = r.varint();
  meta->first_seq = r.varint();
  meta->last_seq = r.varint();
  meta->row_count = r.varint();
  meta->min_time = r.raw_double();
  meta->max_time = r.raw_double();
  meta->created_unix_s = r.varint();
  const std::uint64_t replaces = r.varint();
  if (!r.ok() || replaces > r.remaining()) return false;
  for (std::uint64_t i = 0; i < replaces; ++i) {
    meta->replaces.push_back(r.varint());
  }
  const std::uint64_t schemas = r.varint();
  if (!r.ok() || schemas > r.remaining()) return false;
  for (std::uint64_t i = 0; i < schemas; ++i) {
    dsos::SchemaPtr schema = wire::get_schema_def(r);
    if (schema == nullptr) return false;
    meta->schemas.push_back(std::move(schema));
  }
  const std::uint64_t zones = r.varint();
  if (!r.ok() || zones > r.remaining()) return false;
  for (std::uint64_t i = 0; i < zones; ++i) {
    SegmentZone z;
    z.schema_idx = r.varint();
    z.attr_id = r.varint();
    if (!r.ok() || z.schema_idx >= meta->schemas.size()) return false;
    const auto& attrs =
        meta->schemas[static_cast<std::size_t>(z.schema_idx)]->attrs();
    if (z.attr_id >= attrs.size()) return false;
    const dsos::AttrType type = attrs[static_cast<std::size_t>(z.attr_id)].type;
    if (!wire::get_value(r, type, z.min)) return false;
    if (!wire::get_value(r, type, z.max)) return false;
    meta->zones.push_back(std::move(z));
  }
  return r.ok() && r.done();
}

}  // namespace

bool write_segment(SegmentMeta* meta,
                   const std::vector<const dsos::Object*>& rows,
                   std::size_t fault_cap_bytes) {
  derive_from_rows(meta, rows);

  const std::string header = encode_header(*meta);
  const std::string data = wire::encode_object_block(rows);
  std::string file;
  file.reserve(kSegmentMagic.size() + 16 + header.size() + data.size());
  file.append(kSegmentMagic);
  put_u32(file, static_cast<std::uint32_t>(header.size()));
  put_u32(file, util::crc32(header));
  file += header;
  put_u32(file, static_cast<std::uint32_t>(data.size()));
  put_u32(file, util::crc32(data));
  file += data;

  const std::string tmp = meta->path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return false;
    const std::size_t n =
        fault_cap_bytes != 0 ? std::min(fault_cap_bytes, file.size())
                             : file.size();
    out.write(file.data(), static_cast<std::streamsize>(n));
    out.flush();
    if (!out.good()) return false;
  }
  if (fault_cap_bytes != 0) return false;  // died before the rename

  std::error_code ec;
  std::filesystem::rename(tmp, meta->path, ec);
  if (ec) return false;
  meta->file_bytes = file.size();
  return true;
}

std::optional<SegmentMeta> read_segment_meta(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;

  char magic[4];
  char lens[8];
  if (!in.read(magic, sizeof(magic))) return std::nullopt;
  if (std::string_view(magic, sizeof(magic)) != kSegmentMagic) {
    return std::nullopt;
  }
  if (!in.read(lens, sizeof(lens))) return std::nullopt;
  std::uint32_t header_len = 0;
  std::uint32_t header_crc = 0;
  std::memcpy(&header_len, lens, 4);
  std::memcpy(&header_crc, lens + 4, 4);

  std::error_code ec;
  const auto file_size = std::filesystem::file_size(path, ec);
  if (ec || file_size < 4 + 8 + static_cast<std::uintmax_t>(header_len) + 8) {
    return std::nullopt;
  }

  std::string header(header_len, '\0');
  if (!in.read(header.data(), header_len)) return std::nullopt;
  if (util::crc32(header) != header_crc) return std::nullopt;

  SegmentMeta meta;
  if (!decode_header(header, &meta)) return std::nullopt;
  meta.path = path;
  meta.file_bytes = static_cast<std::uint64_t>(file_size);

  // The data block must be exactly as long as its length prefix says —
  // anything else is a truncated or padded file.
  if (!in.read(lens, 8)) return std::nullopt;
  std::uint32_t data_len = 0;
  std::memcpy(&data_len, lens, 4);
  if (file_size != 4 + 8 + static_cast<std::uintmax_t>(header_len) + 8 +
                       static_cast<std::uintmax_t>(data_len)) {
    return std::nullopt;
  }
  return meta;
}

bool read_segment_rows(const SegmentMeta& meta,
                       std::vector<dsos::Object>* out) {
  std::ifstream in(meta.path, std::ios::binary);
  if (!in.is_open()) return false;

  char lens[8];
  if (!in.seekg(4)) return false;
  if (!in.read(lens, 8)) return false;
  std::uint32_t header_len = 0;
  std::memcpy(&header_len, lens, 4);
  if (!in.seekg(4 + 8 + static_cast<std::streamoff>(header_len))) {
    return false;
  }
  if (!in.read(lens, 8)) return false;
  std::uint32_t data_len = 0;
  std::uint32_t data_crc = 0;
  std::memcpy(&data_len, lens, 4);
  std::memcpy(&data_crc, lens + 4, 4);

  std::string data(data_len, '\0');
  if (!in.read(data.data(), data_len)) return false;
  if (util::crc32(data) != data_crc) return false;

  const wire::SchemaResolver resolve =
      [&meta](std::string_view name) -> dsos::SchemaPtr {
    for (const dsos::SchemaPtr& schema : meta.schemas) {
      if (schema->name() == name) return schema;
    }
    return nullptr;
  };
  std::vector<dsos::Object> rows;
  if (!wire::decode_object_block(data, resolve, &rows)) return false;
  if (rows.size() != meta.row_count) return false;
  for (dsos::Object& row : rows) out->push_back(std::move(row));
  return true;
}

bool segment_can_match(const SegmentMeta& meta, std::string_view schema_name,
                       const dsos::Filter& filter) {
  std::uint64_t schema_idx = meta.schemas.size();
  for (std::size_t s = 0; s < meta.schemas.size(); ++s) {
    if (meta.schemas[s]->name() == schema_name) {
      schema_idx = s;
      break;
    }
  }
  // No rows of this schema in the segment at all.
  if (schema_idx == meta.schemas.size()) return false;
  const dsos::Schema& schema =
      *meta.schemas[static_cast<std::size_t>(schema_idx)];

  for (const dsos::Condition& cond : filter) {
    const auto attr_id = schema.find_attr(cond.attr);
    // dsos::matches rejects every object on an unknown attribute.
    if (!attr_id) return false;
    const SegmentZone* zone = nullptr;
    for (const SegmentZone& z : meta.zones) {
      if (z.schema_idx == schema_idx && z.attr_id == *attr_id) {
        zone = &z;
        break;
      }
    }
    if (zone == nullptr) continue;  // unindexed attr: no zone to prune on
    if (!dsos::value_matches_type(cond.value,
                                  schema.attrs()[*attr_id].type)) {
      continue;  // mixed-type compares order by variant index; stay safe
    }
    const int vs_min = dsos::compare_values(cond.value, zone->min);
    const int vs_max = dsos::compare_values(cond.value, zone->max);
    switch (cond.cmp) {
      case dsos::Cmp::kEq:
        if (vs_min < 0 || vs_max > 0) return false;
        break;
      case dsos::Cmp::kNe:
        if (vs_min == 0 && vs_max == 0) return false;
        break;
      case dsos::Cmp::kLt:
        if (vs_min <= 0) return false;
        break;
      case dsos::Cmp::kLe:
        if (vs_min < 0) return false;
        break;
      case dsos::Cmp::kGt:
        if (vs_max >= 0) return false;
        break;
      case dsos::Cmp::kGe:
        if (vs_max > 0) return false;
        break;
    }
  }
  return true;
}

}  // namespace dlc::store
