// Implementations of the fuzz targets (see targets.hpp).  Invariant
// failures call fuzz_fail(), which prints and aborts — the signal every
// fuzzing driver (libFuzzer, standalone, gtest corpus test) understands.
#include "fuzz/targets.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/schema_darshan.hpp"
#include "darshan/events.hpp"
#include "darshan/log.hpp"
#include "dsos/cluster.hpp"
#include "dsos/schema.hpp"
#include "json/parser.hpp"
#include "json/scan.hpp"
#include "obs/trace.hpp"
#include "rollup/policy.hpp"
#include "store/store.hpp"
#include "wire/codec.hpp"

namespace dlc::fuzz {
namespace {

namespace fsys = std::filesystem;

[[noreturn]] void fuzz_fail(const char* target, const char* what) {
  std::fprintf(stderr, "FUZZ INVARIANT VIOLATED [%s]: %s\n", target, what);
  std::abort();
}

void require(bool ok, const char* target, const char* what) {
  if (!ok) fuzz_fail(target, what);
}

}  // namespace

// ------------------------------------------------------------ frames ----

int frame_cursor_one(const std::uint8_t* data, std::size_t size) {
  const std::string_view payload(reinterpret_cast<const char*>(data), size);
  (void)wire::looks_like_frame(payload);
  (void)wire::decode_frame_seq(payload);

  static const dsos::SchemaPtr schema = core::darshan_data_schema();
  const std::size_t n_attrs = schema->attrs().size();

  wire::FrameCursor cur(payload);
  std::vector<dsos::Value> values;
  obs::TraceContext trace;
  std::size_t rows = 0;
  int rc = 0;
  if (cur.ok()) {
    while ((rc = cur.next(values, &trace)) == 1) {
      require(values.size() == n_attrs, "frame_cursor",
              "cursor row is not in schema arity");
      ++rows;
      // Every decoded event consumes payload bytes; more rows than bytes
      // means the cursor stopped making progress.
      require(rows <= size + 1, "frame_cursor",
              "cursor produced more rows than the payload can hold");
    }
    require(rc == 0 || rc == -1, "frame_cursor",
            "cursor returned an undocumented code");
  }

  // The wrapped decoder is a thin shim over the cursor and must agree
  // byte-for-byte: a clean walk yields exactly the cursor's rows, any
  // malformed byte drops the whole frame.
  std::vector<obs::TraceContext> traces;
  const std::vector<dsos::Object> objs =
      wire::decode_frame(schema, payload, &traces);
  if (cur.ok() && rc == 0) {
    require(objs.size() == rows, "frame_cursor",
            "decode_frame row count disagrees with FrameCursor");
    require(traces.size() == objs.size(), "frame_cursor",
            "decode_frame trace count disagrees with its rows");
  } else {
    require(objs.empty(), "frame_cursor",
            "decode_frame accepted a frame the cursor rejected");
  }
  return 0;
}

// ------------------------------------------------------- json scanner ----

namespace {

/// One top-level member of a cleanly scanned object: a scalar token, or
/// the raw span of a nested value.
struct ScannedMember {
  std::string key;
  json::Token tok;
  std::string text;  // string tokens and nested spans own their bytes
  bool nested = false;
};

/// Whether a scanned member equals the DOM's value for its key: numbers
/// bit for bit, strings byte for byte, literals by kind, nested values
/// by parsing their span.
bool same_value(const ScannedMember& m, const json::Value& v) {
  if (m.nested) {
    const std::optional<json::Value> sub = json::parse(m.text);
    return sub.has_value() && *sub == v;
  }
  switch (m.tok.kind) {
    case json::Token::Kind::kInt:
      return v.is_int() && v.as_int() == m.tok.i;
    case json::Token::Kind::kUint:
      return v.is_uint() && v.as_uint() == m.tok.u;
    case json::Token::Kind::kDouble: {
      if (!v.is_double()) return false;
      const double d = v.as_double();
      return std::memcmp(&m.tok.d, &d, sizeof(d)) == 0;
    }
    case json::Token::Kind::kString:
      return v.is_string() && v.as_string() == m.text;
    default:
      return v.is_bool() || v.is_null();
  }
}

/// The flat object walk the decode fast path performs: members scanned
/// as scalars, nested values span-skipped.  True when the walk closes
/// the object and only whitespace follows; `members` then holds every
/// member in document order.
bool scan_object(std::string_view text, std::vector<ScannedMember>& members) {
  json::Scanner s(text);
  if (!s.enter_object()) return false;
  std::string key_scratch;
  std::string scratch;
  for (;;) {
    std::string_view key;
    const int m = s.next_member(key, key_scratch);
    if (m == 0) return s.at_end();
    if (m < 0) return false;
    ScannedMember member;
    member.key.assign(key.data(), key.size());
    if (s.peek_array() || s.peek_object()) {
      std::string_view span;
      if (!s.value_span(span)) return false;
      member.nested = true;
      member.text.assign(span.data(), span.size());
    } else {
      if (!s.scan_token(member.tok, scratch)) return false;
      member.text.assign(member.tok.sv.data(), member.tok.sv.size());
    }
    members.push_back(std::move(member));
  }
}

/// Drives the array cursor and the lone-scalar scan over the same bytes;
/// they must only terminate.
void scan_array_and_scalar(std::string_view text) {
  std::string scratch;
  {
    json::Scanner s(text);
    if (s.enter_array()) {
      while (s.next_element() == 1) {
        json::Token tok;
        const bool nested = s.peek_array() || s.peek_object();
        if (nested ? !s.skip_value() : !s.scan_token(tok, scratch)) break;
      }
      (void)s.at_end();
    }
  }
  json::Scanner s(text);
  json::Token tok;
  if (s.scan_token(tok, scratch)) (void)s.at_end();
}

}  // namespace

int json_scanner_one(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  scan_array_and_scalar(text);
  std::vector<ScannedMember> members;
  if (!scan_object(text, members)) return 0;

  // Subset contract: an object the fast path scans cleanly end-to-end
  // must also be accepted by the DOM parser (Scanner accepts a strict
  // subset of json::parse; see scan.hpp), with the same values.
  const std::optional<json::Value> dom = json::parse(text);
  require(dom.has_value(), "json_scanner",
          "Scanner accepted an object the DOM parser rejects");
  // Later duplicates win in the DOM, so check each key's last member.
  for (std::size_t i = 0; i < members.size(); ++i) {
    const ScannedMember& m = members[i];
    bool last = true;
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      if (members[j].key == m.key) last = false;
    }
    if (!last) continue;
    const json::Value* v = dom->find(m.key);
    require(v != nullptr, "json_scanner", "scanned key missing from the DOM");
    require(same_value(m, *v), "json_scanner",
            "scanned value differs from the DOM's");
  }
  return 0;
}

// ------------------------------------------------------ rollup policy ----

int rollup_policy_one(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const rollup::PolicySet set = rollup::parse_rollup_policies(text);
    for (const rollup::PolicyConfig& p : set.policies) {
      // Accepted policies must round-trip: render -> parse -> render is
      // a fixed point, and the re-parse accepts exactly one policy.
      const std::string spec = rollup::to_string(p);
      const rollup::PolicySet again = rollup::parse_rollup_policies(spec);
      require(again.ok(), "rollup_policy",
              "to_string() rendered a spec parse rejects");
      require(again.policies.size() == 1, "rollup_policy",
              "to_string() rendered a spec that parses to != 1 policy");
      require(rollup::to_string(again.policies[0]) == spec, "rollup_policy",
              "render -> parse -> render is not a fixed point");
    }
    double secs = 0.0;
    (void)rollup::parse_seconds(text.substr(0, std::min<std::size_t>(size, 32)),
                                secs);
  } catch (...) {
    fuzz_fail("rollup_policy", "parse_rollup_policies threw (contract: never)");
  }
  return 0;
}

// ----------------------------------------------------- store recovery ----

namespace {

dsos::SchemaPtr recovery_schema() {
  return dsos::SchemaBuilder("darshan_data")
      .attr("job_id", dsos::AttrType::kUint64)
      .attr("rank", dsos::AttrType::kInt64)
      .attr("timestamp", dsos::AttrType::kTimestamp)
      .attr("bytes", dsos::AttrType::kUint64)
      .attr("op", dsos::AttrType::kString)
      .index("job_rank_time", {"job_id", "rank", "timestamp"})
      .build();
}

dsos::ClusterConfig recovery_cluster_config() {
  dsos::ClusterConfig cfg;
  cfg.shard_count = 2;
  cfg.parallel_query = false;
  return cfg;
}

store::StoreConfig recovery_store_config(const std::string& dir) {
  store::StoreConfig cfg;
  cfg.mode = store::StoreMode::kTiered;
  cfg.dir = dir;
  cfg.wal_group_records = 8;
  return cfg;
}

/// Builds the template store directory once per process: two sessions
/// of group commits in each shard's WAL, with schema and data frames for
/// mutations to hit.
const std::string& template_store_dir() {
  static const std::string dir = [] {
    std::string d = (fsys::temp_directory_path() /
                     ("dlc_fuzz_store_template_" +
                      std::to_string(static_cast<std::uint64_t>(::getpid()))))
                        .string();
    fsys::remove_all(d);
    fsys::create_directories(d);
    const dsos::SchemaPtr schema = recovery_schema();
    dsos::DsosCluster db(recovery_cluster_config());
    db.register_schema(schema);
    store::Store st(recovery_store_config(d));
    st.open(db);
    for (int i = 0; i < 64; ++i) {
      db.insert(dsos::make_object(
          schema, {std::uint64_t{7}, std::int64_t{i % 4}, 100.0 + i,
                   std::uint64_t{64u + static_cast<unsigned>(i)},
                   std::string(i % 2 ? "write" : "read")}));
    }
    st.close();
    // A second session appends behind the recovered rows, so replay
    // crosses a reopen's sequence continuation.
    dsos::DsosCluster db2(recovery_cluster_config());
    store::Store st2(recovery_store_config(d));
    st2.open(db2);
    for (int i = 0; i < 16; ++i) {
      db2.insert(dsos::make_object(
          schema, {std::uint64_t{8}, std::int64_t{i % 4}, 200.0 + i,
                   std::uint64_t{32}, std::string("open")}));
    }
    st2.close();
    return d;
  }();
  return dir;
}

void copy_template(const std::string& dst) {
  fsys::remove_all(dst);
  fsys::create_directories(dst);
  for (const auto& entry : fsys::directory_iterator(template_store_dir())) {
    if (entry.is_regular_file()) {
      fsys::copy_file(entry.path(), fsys::path(dst) / entry.path().filename());
    }
  }
}

std::string recovered_rows(const std::string& dir) {
  const dsos::SchemaPtr schema = recovery_schema();
  dsos::DsosCluster db(recovery_cluster_config());
  db.register_schema(schema);
  store::Store st(recovery_store_config(dir));
  st.open(db);  // must not crash on any mutated dir
  std::string out;
  for (const dsos::Object* o : db.query("darshan_data", "job_rank_time")) {
    out += std::to_string(o->as_uint("job_id")) + "/";
    out += std::to_string(o->as_int("rank")) + "/";
    out += std::to_string(o->as_double("timestamp")) + "/";
    out += std::to_string(o->as_uint("bytes")) + "/";
    out += o->as_string("op") + ";";
  }
  st.close();
  return out;
}

}  // namespace

int store_recovery_one(const std::uint8_t* data, std::size_t size) {
  // The input is a mutation script over a copy of the template store
  // dir: records of 6 bytes [file, op, off_hi, off_lo, val, extra]
  // applied in order.  op % 4: 0 flip byte, 1 truncate, 2 append,
  // 3 overwrite run.
  static std::uint64_t iteration = 0;
  const std::string dir =
      (fsys::temp_directory_path() /
       ("dlc_fuzz_store_" + std::to_string(static_cast<std::uint64_t>(::getpid())) +
        "_" + std::to_string(iteration++)))
          .string();
  copy_template(dir);

  std::vector<fsys::path> files;
  for (const auto& entry : fsys::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());

  for (std::size_t i = 0; !files.empty() && i + 6 <= size; i += 6) {
    const fsys::path& f = files[data[i] % files.size()];
    const std::uint8_t op = data[i + 1] % 4;
    const std::size_t off = (static_cast<std::size_t>(data[i + 2]) << 8) |
                            data[i + 3];
    const char val = static_cast<char>(data[i + 4]);
    std::error_code ec;
    const std::uintmax_t fsize = fsys::file_size(f, ec);
    if (ec) continue;
    switch (op) {
      case 0:
      case 3: {
        std::fstream fs(f, std::ios::in | std::ios::out | std::ios::binary);
        if (!fs) break;
        const std::size_t pos = fsize == 0 ? 0 : off % fsize;
        fs.seekp(static_cast<std::streamoff>(pos));
        const std::size_t run = op == 3 ? 1u + data[i + 5] % 16u : 1u;
        for (std::size_t k = 0; k < run; ++k) fs.put(val);
        break;
      }
      case 1:
        fsys::resize_file(f, fsize == 0 ? 0 : off % fsize, ec);
        break;
      case 2: {
        std::ofstream fs(f, std::ios::app | std::ios::binary);
        if (!fs) break;
        const std::size_t run = 1u + data[i + 5] % 32u;
        for (std::size_t k = 0; k < run; ++k) fs.put(val);
        break;
      }
    }
  }

  // Recovery must not crash, and must be idempotent: opening the
  // recovered directory a second time yields exactly the same rows
  // (torn-tail truncation is itself durable).
  try {
    const std::string first = recovered_rows(dir);
    const std::string second = recovered_rows(dir);
    require(first == second, "store_recovery",
            "recovery is not idempotent: second open saw different rows");
  } catch (const store::StoreCrash&) {
    fuzz_fail("store_recovery", "recovery hit an (unarmed) crash point");
  } catch (const std::exception&) {
    // Allowed: open() documents logic_error/runtime_error for unusable
    // directories.  What it must never do is crash or corrupt silently.
  }
  fsys::remove_all(dir);
  return 0;
}

// -------------------------------------------------------- darshan log ----

namespace {

std::string encode_log(const darshan::Log& log) {
  std::ostringstream out;
  darshan::write_log(log, out);
  return out.str();
}

std::optional<darshan::Log> decode_log(std::string bytes) {
  std::istringstream in(std::move(bytes));
  return darshan::read_log(in);
}

}  // namespace

int darshan_log_one(const std::uint8_t* data, std::size_t size) {
  std::optional<darshan::Log> log;
  try {
    log = decode_log(std::string(reinterpret_cast<const char*>(data), size));
  } catch (...) {
    fuzz_fail("darshan_log", "read_log threw (contract: never)");
  }
  if (!log) return 0;
  // Non-canonical varints read but do not round-trip byte for byte, so
  // the contract is a fixed point one encode away.
  const std::string bytes = encode_log(*log);
  const std::optional<darshan::Log> again = decode_log(bytes);
  require(again.has_value(), "darshan_log",
          "read_log rejected bytes write_log wrote");
  require(encode_log(*again) == bytes, "darshan_log",
          "an accepted log does not re-encode to a fixed point");
  return 0;
}

}  // namespace dlc::fuzz
