// Object block: the at-rest encoding of dsos::Object rows.
//
// The durable store (src/store) persists rows in the wire codec's idiom
// rather than JSON: varint/zigzag integers, raw little-endian doubles,
// and a per-block string-interning table (file paths and producer names
// repeat heavily across a group commit, so each distinct string is
// stored once per block).  Unlike the transport frame (wire/codec.hpp),
// which is specialized to the darshan_data schema, a block is
// schema-generic: it names its schemas and encodes each row as a schema
// index plus values in attribute order, so the store can persist any
// registered schema and recovery can rebuild exact Objects.
//
// Blocks are fully self-contained (the interning table never spans
// blocks) for the same reason transport frames are: the enclosing WAL
// frame or segment is the unit of loss, and cross-block state would
// corrupt every block after a quarantined one.
//
// Schema *definitions* are encoded separately (put_schema_def) — the WAL
// writes them as dictionary frames and segments carry them in the
// header, so recovery needs no out-of-band schema registry.
//
// Single-value helpers (put_value/get_value) also serve the persisted
// zone maps in segment headers.  Both switch over every dsos::AttrType
// with no default, and the build treats a missing case as an error
// (-Werror=switch), so a type added to the schema layer cannot silently
// miss the durable format.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "dsos/schema.hpp"
#include "wire/varint.hpp"

namespace dlc::wire {

/// Appends one typed value (no interning — zone-map singles).  The
/// value's alternative must match `t` (validated at insert time).
void put_value(std::string& out, const dsos::Value& v, dsos::AttrType t);

/// Reads one typed value; false on malformed input.
bool get_value(Reader& r, dsos::AttrType t, dsos::Value& out);

/// Appends a full schema definition (name, typed attrs, joint indices).
void put_schema_def(std::string& out, const dsos::Schema& schema);

/// Reads a schema definition; nullptr on malformed input (bad type
/// byte, index referencing a missing attribute, truncation).
dsos::SchemaPtr get_schema_def(Reader& r);

/// Resolves a schema name during decode (recovery passes a lookup over
/// the schemas replayed from WAL dictionary frames / segment headers).
using SchemaResolver = std::function<dsos::SchemaPtr(std::string_view)>;

/// Encodes `rows` (any mix of schemas, order preserved) as one block.
std::string encode_object_block(const std::vector<const dsos::Object*>& rows);

/// Decodes a block; false on malformed input or an unresolvable schema
/// name.  Appends to `out` only on success (all-or-nothing, like a
/// dropped transport frame).
bool decode_object_block(std::string_view block,
                         const SchemaResolver& resolve,
                         std::vector<dsos::Object>* out);

}  // namespace dlc::wire
