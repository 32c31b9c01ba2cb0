// DataFrame: the pandas-stand-in behind the paper's "Python analysis
// modules".  Queried DSOS objects are converted into typed columns on
// which the figure pipelines run group-by/aggregate transformations.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "dsos/schema.hpp"
#include "util/stats.hpp"

namespace dlc::analysis {

enum class ColType { kInt, kDouble, kString };

enum class Agg { kCount, kSum, kMean, kMin, kMax, kStd, kCi95, kP50, kP95 };

struct AggSpec {
  std::string column;  // ignored for kCount
  Agg op = Agg::kCount;
  std::string out_name;
};

class DataFrame {
 public:
  using IntCol = std::vector<std::int64_t>;
  using DoubleCol = std::vector<double>;
  using StringCol = std::vector<std::string>;
  using Column = std::variant<IntCol, DoubleCol, StringCol>;

  DataFrame() = default;

  /// Builds a frame from DSOS query results; uint64/timestamp attrs map
  /// to int/double columns.  All schema attributes become columns.
  static DataFrame from_objects(const std::vector<const dsos::Object*>& objs);

  /// Like from_objects(objs), but only the attributes `attrs` of `schema`
  /// become columns, in that order; no other attribute is copied.  An
  /// empty `objs` still gives the typed (empty) columns.
  static DataFrame from_objects(const dsos::Schema& schema,
                                const std::vector<const dsos::Object*>& objs,
                                std::initializer_list<std::string_view> attrs);

  // --- construction -----------------------------------------------------
  void add_int_column(std::string name, IntCol data = {});
  void add_double_column(std::string name, DoubleCol data = {});
  void add_string_column(std::string name, StringCol data = {});

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return order_.size(); }
  const std::vector<std::string>& column_names() const { return order_; }
  bool has_column(std::string_view name) const;
  ColType column_type(std::string_view name) const;
  /// The `c`-th column's values (column_names()[c]), for whole-column
  /// walks without a by-name lookup per cell.
  const Column& column_at(std::size_t c) const { return columns_[c].data; }

  // --- element access ---------------------------------------------------
  std::int64_t get_int(std::size_t row, std::string_view col) const;
  double get_double(std::size_t row, std::string_view col) const;
  const std::string& get_string(std::size_t row, std::string_view col) const;
  /// Numeric access with int->double promotion.
  double get_number(std::size_t row, std::string_view col) const;

  /// Whole column as doubles (numeric columns only).
  std::vector<double> numbers(std::string_view col) const;

  // --- transformations (all return new frames) ---------------------------
  /// Group by `key_cols` (any types); one output row per distinct key with
  /// the key columns plus one column per aggregation.
  DataFrame group_by(const std::vector<std::string>& key_cols,
                     const std::vector<AggSpec>& aggs) const;

  /// Stable sort by a column (numeric or string), ascending.
  DataFrame sort_by(std::string_view col, bool descending = false) const;

  /// Left join on `key_cols` (present in both frames with matching
  /// types).  Each left row is paired with every matching right row
  /// (cartesian within a key); unmatched left rows keep their values and
  /// get zero/empty right columns.  Right key columns are not duplicated;
  /// other right columns that collide with left names get a "_right"
  /// suffix.
  DataFrame join(const DataFrame& right,
                 const std::vector<std::string>& key_cols) const;

  /// First n rows.
  DataFrame head(std::size_t n) const;

  /// CSV rendering (round-trippable for numeric/string content).
  std::string to_csv() const;

 private:
  struct NamedColumn {
    std::string name;
    Column data;
  };

  const Column& column(std::string_view name) const;
  void add_object_column(const std::vector<const dsos::Object*>& objs,
                         const dsos::AttrDef& attr, std::size_t attr_id);
  DataFrame select_rows(const std::vector<std::size_t>& idx) const;

  std::vector<NamedColumn> columns_;
  std::vector<std::string> order_;
  std::size_t rows_ = 0;
};

}  // namespace dlc::analysis
