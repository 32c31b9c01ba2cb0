// Storage policies: the LDMS-style "decomposition" config that fans one
// decoded Darshan event stream into N rollup sinks (DESIGN.md §8).
//
// A policy names a filter predicate (equality/alternation match on
// Table I fields), a projection (the subset of dimensions kept as the
// rollup key) and a time-bucket width.  The textual DSL lives in
// DARSHAN_LDMS_ROLLUP_POLICIES — ';'-separated policy specs of
// space-separated tokens:
//
//   <name> key=<dim>[,<dim>...] bucket=<dur> [match=<dim>:<v>[|<v>...]
//          [,<dim>:<v>[|<v>...]]] [grace=<dur>]
//
//   op_counts key=job_id,op bucket=60s;
//   throughput key=job_id,op bucket=10s match=op:read|write
//
// Durations accept ns/us/ms/s/m suffixes (bare numbers are seconds).
// The literal value `default` expands to default_rollup_policies() —
// the four policies that cover the paper's Fig. 5–9 dashboard panels.
// Parsing never throws; malformed specs land in PolicySet::errors so a
// typo'd config fails loudly instead of silently rolling up nothing.
#pragma once

#include <algorithm>
#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "rollup/cell.hpp"

namespace dlc::rollup {

/// Dimensions a policy may key or match on: the rollup cell's key fields,
/// in cell order (the subset of Table I fields the Fig. 5–9 panels group
/// by).
inline constexpr std::size_t kRollupDimCount =
    std::ranges::count_if(kRollupCellFields, &CellField::dim);
inline constexpr std::array<std::string_view, kRollupDimCount> kRollupDims =
    [] {
      std::array<std::string_view, kRollupDimCount> dims{};
      std::size_t n = 0;
      for (const CellField& f : kRollupCellFields) {
        if (f.dim) dims[n++] = f.name;
      }
      return dims;
    }();

bool is_rollup_dim(std::string_view name);

/// One `match=<dim>:<v>|<v>` clause: the event's value of `attr` must
/// equal one of `values`.  Clauses AND together; values OR together.
struct MatchClause {
  std::string attr;
  std::vector<std::string> values;
};

struct PolicyConfig {
  std::string name;
  /// Projection: dimensions kept in the rollup key, canonical order.
  /// Unkeyed dimensions collapse ("*" / 0 in the cell key).
  std::vector<std::string> keys;
  /// Time-bucket width in seconds (> 0); events aggregate into absolute
  /// buckets [i*bucket_s, (i+1)*bucket_s).
  double bucket_s = 60.0;
  /// Reorder tolerance: a bucket seals only once the shard's max
  /// timestamp passes bucket end + grace.  Negative = 2 * bucket_s.
  double grace_s = -1.0;
  std::vector<MatchClause> match;

  double grace() const { return grace_s < 0 ? 2.0 * bucket_s : grace_s; }
  bool has_key(std::string_view dim) const;
};

struct PolicySet {
  std::vector<PolicyConfig> policies;
  /// Unparsable specs ("<spec>: <what>"), kept so env_config can reject
  /// the variable with a useful message.
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }
};

/// Parses the DSL (or the literal `default`); never throws.
PolicySet parse_rollup_policies(std::string_view text);

/// The built-in policy set covering the Fig. 5–9 panels:
///   op_counts       key=job_id,op            bucket=60s   (fig5, fig7s)
///   node_requests   key=job_id,ProducerName,op bucket=60s match=op:open|close
///   rank_durations  key=job_id,rank,op       bucket=3600s match=op:read|write
///   throughput      key=job_id,op            bucket=10s   match=op:read|write
std::vector<PolicyConfig> default_rollup_policies();

/// Renders a policy back to its DSL spec (round-trips through parse).
std::string to_string(const PolicyConfig& policy);

/// "10s" / "500ms" / "2m" / "10" -> seconds; false on malformed input.
bool parse_seconds(std::string_view text, double& out);

}  // namespace dlc::rollup
