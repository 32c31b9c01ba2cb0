// The canonical DSOS schema for decoded Darshan-LDMS connector data.
//
// kDarshanFields below is the one declaration of the Table I record: each
// field's JSON key, whether it sits inside the `seg` list, its DSOS type,
// the value a message that does not carry it decodes to ("N/A", -1 or 0),
// and its position in the Fig. 3 sample message.  The DSOS schema and the
// CSV header (schema order, seg fields as `seg_<key>` / `seg:<key>`), the
// connector's JSON encoder (Fig. 3 order), both JSON decoders and the
// wire frame cursor all iterate or index this table, so they agree by
// construction; the static_asserts at the bottom reject a malformed one.
//
// Joint indices reproduce the paper's query setup: "combinations of the
// job ID, rank and timestamp are used to create joint indices where each
// index provided a different query performance", e.g. job_rank_time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "dsos/schema.hpp"

namespace dlc::core {

/// Table I field ids, in schema order (the Fig. 3 CSV column order).
enum class Field : std::uint8_t {
  kModule, kUid, kProducerName, kSwitches, kFile, kRank, kFlushes,
  kRecordId, kExe, kMaxByte, kType, kJobId, kOp, kCnt, kSegOff, kSegPtSel,
  kSegDur, kSegLen, kSegNdims, kSegRegHslab, kSegIrregHslab, kSegDataSet,
  kSegNpoints, kSegTimestamp,
};

/// What a field decodes to when a message does not carry it.
enum class Missing : std::uint8_t { kNA, kMinusOne, kZero };

struct FieldSpec {
  Field id;
  std::string_view key;  // JSON member name
  bool in_seg;           // member of the per-segment `seg` object
  dsos::AttrType type;
  Missing missing;
  std::uint8_t fig3;  // position in the Fig. 3 message
};

inline constexpr std::array<FieldSpec, 24> kDarshanFields = [] {
  using T = dsos::AttrType;
  using M = Missing;
  using F = Field;
  return std::array<FieldSpec, 24>{{
      {F::kModule, "module", false, T::kString, M::kNA, 7},
      {F::kUid, "uid", false, T::kUint64, M::kZero, 0},
      {F::kProducerName, "ProducerName", false, T::kString, M::kNA, 4},
      {F::kSwitches, "switches", false, T::kInt64, M::kMinusOne, 10},
      {F::kFile, "file", false, T::kString, M::kNA, 5},
      {F::kRank, "rank", false, T::kInt64, M::kZero, 3},
      {F::kFlushes, "flushes", false, T::kInt64, M::kMinusOne, 11},
      {F::kRecordId, "record_id", false, T::kUint64, M::kZero, 6},
      {F::kExe, "exe", false, T::kString, M::kNA, 1},
      {F::kMaxByte, "max_byte", false, T::kInt64, M::kMinusOne, 9},
      {F::kType, "type", false, T::kString, M::kNA, 8},
      {F::kJobId, "job_id", false, T::kUint64, M::kZero, 2},
      {F::kOp, "op", false, T::kString, M::kNA, 13},
      {F::kCnt, "cnt", false, T::kInt64, M::kZero, 12},
      {F::kSegOff, "off", true, T::kInt64, M::kMinusOne, 20},
      {F::kSegPtSel, "pt_sel", true, T::kInt64, M::kMinusOne, 15},
      {F::kSegDur, "dur", true, T::kDouble, M::kZero, 22},
      {F::kSegLen, "len", true, T::kInt64, M::kMinusOne, 21},
      {F::kSegNdims, "ndims", true, T::kInt64, M::kMinusOne, 18},
      {F::kSegRegHslab, "reg_hslab", true, T::kInt64, M::kMinusOne, 17},
      {F::kSegIrregHslab, "irreg_hslab", true, T::kInt64, M::kMinusOne, 16},
      {F::kSegDataSet, "data_set", true, T::kString, M::kNA, 14},
      {F::kSegNpoints, "npoints", true, T::kInt64, M::kMinusOne, 19},
      {F::kSegTimestamp, "timestamp", true, T::kTimestamp, M::kZero, 23},
  }};
}();

inline constexpr std::size_t kDarshanFieldCount = kDarshanFields.size();

constexpr const FieldSpec& field_spec(Field id) {
  return kDarshanFields[static_cast<std::size_t>(id)];
}

/// Number of top-level (non-seg) fields; they precede `seg` in Fig. 3.
inline constexpr std::size_t kTopFieldCount = [] {
  std::size_t n = 0;
  for (const FieldSpec& f : kDarshanFields) n += f.in_seg ? 0 : 1;
  return n;
}();

/// Field ids in Fig. 3 message order.
inline constexpr std::array<Field, kDarshanFieldCount> kFig3Order = [] {
  std::array<Field, kDarshanFieldCount> order{};
  for (const FieldSpec& f : kDarshanFields) order[f.fig3] = f.id;
  return order;
}();

/// The string a missing string field decodes to.
inline constexpr std::string_view kNotAvailable = "N/A";

/// The missing-value default of an int64 field.
constexpr std::int64_t missing_int(const FieldSpec& f) {
  return f.missing == Missing::kMinusOne ? -1 : 0;
}

/// The Value a field takes when a message does not carry it.
inline dsos::Value missing_value(const FieldSpec& f) {
  switch (f.type) {
    case dsos::AttrType::kInt64:
      return missing_int(f);
    case dsos::AttrType::kUint64:
      return std::uint64_t{0};
    case dsos::AttrType::kDouble:
    case dsos::AttrType::kTimestamp:
      return 0.0;
    case dsos::AttrType::kString:
      return std::string(kNotAvailable);
  }
  return {};
}

/// A darshan_data row with every field at its missing-value default.
inline const std::vector<dsos::Value>& darshan_default_row() {
  static const std::vector<dsos::Value> row = [] {
    std::vector<dsos::Value> values;
    values.reserve(kDarshanFieldCount);
    for (const FieldSpec& f : kDarshanFields) {
      values.push_back(missing_value(f));
    }
    return values;
  }();
  return row;
}

/// The C++ type of field `F`'s value.
template <Field F>
using FieldValue = dsos::ValueOf<field_spec(F).type>;

/// Sets one field of a row started from darshan_default_row().  The value
/// type must be exactly the field's, checked at compile time, so such
/// rows may skip make_object's runtime type validation.
template <Field F, typename V>
void set_field(std::vector<dsos::Value>& row, V&& v) {
  static_assert(std::is_same_v<std::decay_t<V>, FieldValue<F>>,
                "value type does not match the Table I field's AttrType");
  row[static_cast<std::size_t>(F)] = std::forward<V>(v);
}

/// Builds the darshan_data schema with the job_rank_time, job_time_rank
/// and time joint indices.
dsos::SchemaPtr darshan_data_schema();

/// The CSV header line of Fig. 3 (leading '#' included).
const char* darshan_csv_header();

// A malformed table fails the build rather than a decode.
static_assert([] {
  std::array<bool, kDarshanFieldCount> fig3_used{};
  for (std::size_t i = 0; i < kDarshanFieldCount; ++i) {
    const FieldSpec& f = kDarshanFields[i];
    // Ids follow table order, so field_spec() indexes the table.
    if (static_cast<std::size_t>(f.id) != i) return false;
    // Fig. 3 positions form a permutation; seg members come last.
    if (f.fig3 >= kDarshanFieldCount || fig3_used[f.fig3]) return false;
    if (f.in_seg != (f.fig3 >= kTopFieldCount)) return false;
    fig3_used[f.fig3] = true;
    // Strings default to "N/A", and only strings do; -1 is int64-only.
    const bool is_string = f.type == dsos::AttrType::kString;
    if (is_string != (f.missing == Missing::kNA)) return false;
    if (f.missing == Missing::kMinusOne && f.type != dsos::AttrType::kInt64) {
      return false;
    }
    for (std::size_t j = 0; j < i; ++j) {
      const FieldSpec& g = kDarshanFields[j];
      if (g.key == f.key && g.in_seg == f.in_seg) return false;
    }
  }
  return true;
}(), "kDarshanFields is malformed");

}  // namespace dlc::core
