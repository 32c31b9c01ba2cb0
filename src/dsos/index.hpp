// Order-preserving composite key encoding and the ordered index.
//
// Keys are encoded so that plain byte-wise comparison (std::string's
// operator<) matches the typed ordering of the attribute tuple:
//   * uint64      — 8 bytes big-endian
//   * int64       — sign bit flipped, then big-endian
//   * double/ts   — IEEE bits; negative values bit-inverted, positive get
//                   the sign bit set (classic total-order trick)
//   * string      — bytes with 0x00 escaped as {0x00,0x01}, terminated by
//                   {0x00,0x00} so shorter strings sort before extensions
//
// Because the encoding is prefix-composable, an equality constraint on the
// leading attributes of a joint index becomes a byte-prefix range scan —
// exactly the DSOS query pattern the paper describes for job_rank_time.
//
// The same encoding is the one equality a query applies: a condition
// equals a row's value when both encode to the same bytes, whether the
// condition sits in the scanned prefix or is checked per row.  For
// doubles that means the same bit pattern (NaN equals only the NaN it was
// written as; 0.0 and -0.0 differ).
//
// Storage: key bytes are interned into the owning container's per-shard
// Arena and the ordered map holds `string_view` keys, so an insert costs a
// bump allocation instead of one heap string per key per index.  The
// insert path additionally reuses a scratch KeyBytes buffer, and scans
// return the stored key views so queries never re-encode keys.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dsos/arena.hpp"
#include "dsos/schema.hpp"

namespace dlc::dsos {

/// Encoded composite key (byte-comparable).
using KeyBytes = std::string;

void encode_int64(KeyBytes& out, std::int64_t v);
void encode_uint64(KeyBytes& out, std::uint64_t v);
void encode_double(KeyBytes& out, double v);
void encode_string(KeyBytes& out, std::string_view v);

/// Encodes one typed value per its attribute type.
void encode_value(KeyBytes& out, const Value& v, AttrType type);

/// Appends the composite key of `obj` under index `def` to `out`.
void encode_key_into(KeyBytes& out, const Object& obj, const IndexDef& def);

/// Smallest string strictly greater than every string with prefix `p`
/// (i.e. p with a 0xFF... increment); empty optional when p is all-0xFF.
KeyBytes prefix_upper_bound(KeyBytes p);

/// Ordered multimap from encoded key to object slot (insertion-stable for
/// duplicate keys).  Key bytes live in the container's Arena.
class Index {
 public:
  explicit Index(IndexDef def) : def_(std::move(def)) {}

  const IndexDef& def() const { return def_; }

  /// (key view, object slot) — the view aliases arena-owned bytes valid
  /// for the container's lifetime.
  using Entry = std::pair<std::string_view, std::size_t>;

  /// Encodes the object's key into `arena` and inserts.  Single writer
  /// per index (the per-shard ingest invariant).
  void insert(const Object& obj, std::size_t slot, Arena& arena);

  /// Entries whose key starts with `prefix`, in key order; every entry
  /// for an empty prefix.
  std::vector<Entry> prefix_scan(const KeyBytes& prefix) const;

 private:
  IndexDef def_;
  KeyBytes scratch_;  // reused encode buffer (no per-event heap churn)
  std::multimap<std::string_view, std::size_t> map_;
};

}  // namespace dlc::dsos
