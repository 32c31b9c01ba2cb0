#include "analysis/frame.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "util/strings.hpp"

namespace dlc::analysis {

DataFrame DataFrame::from_objects(
    const std::vector<const dsos::Object*>& objs) {
  DataFrame df;
  if (objs.empty()) return df;
  const dsos::Schema& schema = *objs.front()->schema;
  for (std::size_t a = 0; a < schema.attrs().size(); ++a) {
    df.add_object_column(objs, schema.attrs()[a], a);
  }
  return df;
}

DataFrame DataFrame::from_objects(
    const dsos::Schema& schema, const std::vector<const dsos::Object*>& objs,
    std::initializer_list<std::string_view> attrs) {
  DataFrame df;
  for (const std::string_view name : attrs) {
    const std::size_t a = schema.attr_id(name);
    df.add_object_column(objs, schema.attrs()[a], a);
  }
  return df;
}

void DataFrame::add_object_column(const std::vector<const dsos::Object*>& objs,
                                  const dsos::AttrDef& attr,
                                  std::size_t attr_id) {
  switch (attr.type) {
    case dsos::AttrType::kInt64:
    case dsos::AttrType::kUint64: {
      IntCol col;
      col.reserve(objs.size());
      for (const auto* obj : objs) {
        const auto& v = obj->values[attr_id];
        col.push_back(std::holds_alternative<std::int64_t>(v)
                          ? std::get<std::int64_t>(v)
                          : static_cast<std::int64_t>(
                                std::get<std::uint64_t>(v)));
      }
      add_int_column(attr.name, std::move(col));
      break;
    }
    case dsos::AttrType::kDouble:
    case dsos::AttrType::kTimestamp: {
      DoubleCol col;
      col.reserve(objs.size());
      for (const auto* obj : objs) {
        col.push_back(std::get<double>(obj->values[attr_id]));
      }
      add_double_column(attr.name, std::move(col));
      break;
    }
    case dsos::AttrType::kString: {
      StringCol col;
      col.reserve(objs.size());
      for (const auto* obj : objs) {
        col.push_back(std::get<std::string>(obj->values[attr_id]));
      }
      add_string_column(attr.name, std::move(col));
      break;
    }
  }
}

namespace {
template <typename Col>
void check_size(std::size_t rows, const Col& col, std::size_t existing_cols) {
  if (existing_cols > 0 && col.size() != rows) {
    throw std::invalid_argument("dataframe column length mismatch");
  }
}
}  // namespace

void DataFrame::add_int_column(std::string name, IntCol data) {
  check_size(rows_, data, columns_.size());
  if (columns_.empty()) rows_ = data.size();
  order_.push_back(name);
  columns_.push_back(NamedColumn{std::move(name), std::move(data)});
}

void DataFrame::add_double_column(std::string name, DoubleCol data) {
  check_size(rows_, data, columns_.size());
  if (columns_.empty()) rows_ = data.size();
  order_.push_back(name);
  columns_.push_back(NamedColumn{std::move(name), std::move(data)});
}

void DataFrame::add_string_column(std::string name, StringCol data) {
  check_size(rows_, data, columns_.size());
  if (columns_.empty()) rows_ = data.size();
  order_.push_back(name);
  columns_.push_back(NamedColumn{std::move(name), std::move(data)});
}

bool DataFrame::has_column(std::string_view name) const {
  return std::any_of(columns_.begin(), columns_.end(),
                     [&](const NamedColumn& c) { return c.name == name; });
}

const DataFrame::Column& DataFrame::column(std::string_view name) const {
  for (const auto& c : columns_) {
    if (c.name == name) return c.data;
  }
  throw std::out_of_range("dataframe: unknown column " + std::string(name));
}

ColType DataFrame::column_type(std::string_view name) const {
  const Column& c = column(name);
  if (std::holds_alternative<IntCol>(c)) return ColType::kInt;
  if (std::holds_alternative<DoubleCol>(c)) return ColType::kDouble;
  return ColType::kString;
}

std::int64_t DataFrame::get_int(std::size_t row, std::string_view col) const {
  return std::get<IntCol>(column(col)).at(row);
}

double DataFrame::get_double(std::size_t row, std::string_view col) const {
  return std::get<DoubleCol>(column(col)).at(row);
}

const std::string& DataFrame::get_string(std::size_t row,
                                         std::string_view col) const {
  return std::get<StringCol>(column(col)).at(row);
}

double DataFrame::get_number(std::size_t row, std::string_view col) const {
  const Column& c = column(col);
  if (const auto* ints = std::get_if<IntCol>(&c)) {
    return static_cast<double>(ints->at(row));
  }
  return std::get<DoubleCol>(c).at(row);
}

std::vector<double> DataFrame::numbers(std::string_view col) const {
  std::vector<double> out;
  out.reserve(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out.push_back(get_number(r, col));
  return out;
}

DataFrame DataFrame::select_rows(const std::vector<std::size_t>& idx) const {
  DataFrame out;
  for (const auto& c : columns_) {
    std::visit(
        [&](const auto& data) {
          std::decay_t<decltype(data)> sel;
          sel.reserve(idx.size());
          for (std::size_t i : idx) sel.push_back(data[i]);
          using T = std::decay_t<decltype(data)>;
          if constexpr (std::is_same_v<T, IntCol>) {
            out.add_int_column(c.name, std::move(sel));
          } else if constexpr (std::is_same_v<T, DoubleCol>) {
            out.add_double_column(c.name, std::move(sel));
          } else {
            out.add_string_column(c.name, std::move(sel));
          }
        },
        c.data);
  }
  return out;
}

DataFrame DataFrame::group_by(const std::vector<std::string>& key_cols,
                              const std::vector<AggSpec>& aggs) const {
  // Group key: unit-separator-joined rendering of the key values.
  auto key_of = [&](std::size_t row) {
    std::string key;
    for (const auto& kc : key_cols) {
      const Column& c = column(kc);
      if (const auto* ints = std::get_if<IntCol>(&c)) {
        key += std::to_string((*ints)[row]);
      } else if (const auto* dbls = std::get_if<DoubleCol>(&c)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", (*dbls)[row]);
        key += buf;
      } else {
        key += std::get<StringCol>(c)[row];
      }
      key.push_back('\x1f');
    }
    return key;
  };

  // Ordered map => deterministic output row order.
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t r = 0; r < rows_; ++r) {
    groups[key_of(r)].push_back(r);
  }

  DataFrame out;
  // Key columns (typed like the source).
  for (const auto& kc : key_cols) {
    const Column& c = column(kc);
    std::visit(
        [&](const auto& data) {
          std::decay_t<decltype(data)> col;
          col.reserve(groups.size());
          for (const auto& [key, idx] : groups) col.push_back(data[idx[0]]);
          using T = std::decay_t<decltype(data)>;
          if constexpr (std::is_same_v<T, IntCol>) {
            out.add_int_column(kc, std::move(col));
          } else if constexpr (std::is_same_v<T, DoubleCol>) {
            out.add_double_column(kc, std::move(col));
          } else {
            out.add_string_column(kc, std::move(col));
          }
        },
        c);
  }
  // Aggregate columns.
  for (const AggSpec& spec : aggs) {
    DoubleCol col;
    col.reserve(groups.size());
    for (const auto& [key, idx] : groups) {
      if (spec.op == Agg::kCount) {
        col.push_back(static_cast<double>(idx.size()));
        continue;
      }
      if (spec.op == Agg::kP50 || spec.op == Agg::kP95) {
        std::vector<double> values;
        values.reserve(idx.size());
        for (std::size_t r : idx) values.push_back(get_number(r, spec.column));
        col.push_back(SortedQuantiles(std::move(values))
                          .percentile(spec.op == Agg::kP50 ? 50 : 95));
        continue;
      }
      RunningStats stats;
      for (std::size_t r : idx) stats.add(get_number(r, spec.column));
      switch (spec.op) {
        case Agg::kSum:
          col.push_back(stats.sum());
          break;
        case Agg::kMean:
          col.push_back(stats.mean());
          break;
        case Agg::kMin:
          col.push_back(stats.min());
          break;
        case Agg::kMax:
          col.push_back(stats.max());
          break;
        case Agg::kStd:
          col.push_back(stats.stddev());
          break;
        case Agg::kCi95:
          col.push_back(stats.ci95_half_width());
          break;
        case Agg::kCount:
        case Agg::kP50:
        case Agg::kP95:
          break;  // handled above
      }
    }
    out.add_double_column(spec.out_name.empty()
                              ? spec.column + "_agg"
                              : spec.out_name,
                          std::move(col));
  }
  return out;
}

DataFrame DataFrame::join(const DataFrame& right,
                          const std::vector<std::string>& key_cols) const {
  // Render a composite string key per row (same trick as group_by).
  auto key_of = [&key_cols](const DataFrame& df, std::size_t row) {
    std::string key;
    for (const auto& kc : key_cols) {
      switch (df.column_type(kc)) {
        case ColType::kInt:
          key += std::to_string(df.get_int(row, kc));
          break;
        case ColType::kDouble: {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.17g", df.get_double(row, kc));
          key += buf;
          break;
        }
        case ColType::kString:
          key += df.get_string(row, kc);
          break;
      }
      key.push_back('\x1f');
    }
    return key;
  };

  std::map<std::string, std::vector<std::size_t>> right_rows;
  for (std::size_t r = 0; r < right.rows(); ++r) {
    right_rows[key_of(right, r)].push_back(r);
  }

  // Pair up row indices: (left, right-or-none).
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t l = 0; l < rows_; ++l) {
    const auto it = right_rows.find(key_of(*this, l));
    if (it == right_rows.end()) {
      pairs.emplace_back(l, kNone);
    } else {
      for (std::size_t r : it->second) pairs.emplace_back(l, r);
    }
  }

  DataFrame out;
  // Left columns verbatim.
  for (const auto& c : columns_) {
    std::visit(
        [&](const auto& data) {
          std::decay_t<decltype(data)> col;
          col.reserve(pairs.size());
          for (const auto& [l, r] : pairs) col.push_back(data[l]);
          using T = std::decay_t<decltype(data)>;
          if constexpr (std::is_same_v<T, IntCol>) {
            out.add_int_column(c.name, std::move(col));
          } else if constexpr (std::is_same_v<T, DoubleCol>) {
            out.add_double_column(c.name, std::move(col));
          } else {
            out.add_string_column(c.name, std::move(col));
          }
        },
        c.data);
  }
  // Right non-key columns, suffixing collisions.
  for (const auto& c : right.columns_) {
    if (std::find(key_cols.begin(), key_cols.end(), c.name) !=
        key_cols.end()) {
      continue;
    }
    const std::string out_name =
        out.has_column(c.name) ? c.name + "_right" : c.name;
    std::visit(
        [&](const auto& data) {
          using T = std::decay_t<decltype(data)>;
          T col;
          col.reserve(pairs.size());
          for (const auto& [l, r] : pairs) {
            col.push_back(r == kNone ? typename T::value_type{} : data[r]);
          }
          if constexpr (std::is_same_v<T, IntCol>) {
            out.add_int_column(out_name, std::move(col));
          } else if constexpr (std::is_same_v<T, DoubleCol>) {
            out.add_double_column(out_name, std::move(col));
          } else {
            out.add_string_column(out_name, std::move(col));
          }
        },
        c.data);
  }
  return out;
}

DataFrame DataFrame::sort_by(std::string_view col, bool descending) const {
  std::vector<std::size_t> idx(rows_);
  std::iota(idx.begin(), idx.end(), 0);
  const Column& c = column(col);
  std::visit(
      [&](const auto& data) {
        std::stable_sort(idx.begin(), idx.end(),
                         [&](std::size_t a, std::size_t b) {
                           return descending ? data[b] < data[a]
                                             : data[a] < data[b];
                         });
      },
      c);
  return select_rows(idx);
}

DataFrame DataFrame::head(std::size_t n) const {
  std::vector<std::size_t> idx;
  for (std::size_t r = 0; r < std::min(n, rows_); ++r) idx.push_back(r);
  return select_rows(idx);
}

std::string DataFrame::to_csv() const {
  std::string out = dlc::join(order_, ",") + "\n";
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c) out.push_back(',');
      std::visit(
          [&](const auto& data) {
            using T = std::decay_t<decltype(data)>;
            if constexpr (std::is_same_v<T, StringCol>) {
              out += csv_escape(data[r]);
            } else if constexpr (std::is_same_v<T, DoubleCol>) {
              char buf[32];
              std::snprintf(buf, sizeof(buf), "%.17g", data[r]);
              out += buf;
            } else {
              out += std::to_string(data[r]);
            }
          },
          columns_[c].data);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace dlc::analysis
