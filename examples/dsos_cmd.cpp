// dsos_cmd: the command-line data-examination workflow the paper calls
// out ("DSOS ... allows for interaction via a command line interface
// which allows for fast query testing and data examination").
//
// With no arguments it runs a demo: generate a monitored IOR job, write
// its event database through a tiered store::Store into
// dlc_export/dsos_demo (replacing any earlier demo there), reopen that
// directory into a fresh cluster, and walk through the query commands.
// It exits 1 when the reopened row count differs from the rows stored.
// With arguments it reopens a store directory written earlier (a missing
// directory is an error, not created):
//
//   dsos_cmd <dir> schema                 # show schema and indices
//   dsos_cmd <dir> count                  # object count per shard
//   dsos_cmd <dir> query <index> [k=v]... # filtered, index-ordered rows
//   dsos_cmd <dir> export <index>         # CSV to stdout
//
// Exit status: 0 ok, 1 the store cannot be opened or the demo's reopened
// row count is wrong, 2 a bad command line (unknown command, condition
// or value).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/schema_darshan.hpp"
#include "dsos/csv.hpp"
#include "exp/specs.hpp"
#include "store/store.hpp"
#include "workloads/ior.hpp"

using namespace dlc;

namespace {

/// The demo's event database: four dsosd shards routed by rank.  The
/// store keeps one WAL and segment set per shard, so a reopen must use
/// the same shard count.
std::unique_ptr<dsos::DsosCluster> make_db() {
  dsos::ClusterConfig cfg;
  cfg.shard_count = 4;
  cfg.shard_attr = "rank";
  cfg.parallel_query = false;
  auto db = std::make_unique<dsos::DsosCluster>(cfg);
  db->register_schema(core::darshan_data_schema());
  return db;
}

store::StoreConfig store_config(const std::string& dir, bool create_dir) {
  store::StoreConfig cfg;
  cfg.mode = store::StoreMode::kTiered;
  cfg.dir = dir;
  cfg.create_dir = create_dir;
  return cfg;
}

/// Parses "attr=value" into a typed condition against darshan_data.
bool parse_condition(const dsos::SchemaPtr& schema, const std::string& token,
                     dsos::Filter& filter) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) return false;
  const std::string attr = token.substr(0, eq);
  const auto attr_id = schema->find_attr(attr);
  if (!attr_id) return false;
  auto value =
      dsos::parse_value(schema->attrs()[*attr_id].type, token.substr(eq + 1));
  if (!value) return false;
  filter.push_back({attr, dsos::Cmp::kEq, std::move(*value)});
  return true;
}

int run_command(dsos::DsosCluster& db, const std::vector<std::string>& args) {
  const auto schema = core::darshan_data_schema();
  const std::string& cmd = args[0];
  if (cmd == "schema") {
    std::printf("schema %s\n", schema->name().c_str());
    for (const auto& attr : schema->attrs()) {
      std::printf("  attr %-16s %s\n", attr.name.c_str(),
                  std::string(dsos::attr_type_name(attr.type)).c_str());
    }
    for (const auto& idx : schema->indices()) {
      std::printf("  index %s (", idx.name.c_str());
      for (std::size_t i = 0; i < idx.attr_ids.size(); ++i) {
        std::printf("%s%s", i ? "," : "",
                    schema->attrs()[idx.attr_ids[i]].name.c_str());
      }
      std::printf(")\n");
    }
    return 0;
  }
  if (cmd == "count") {
    for (std::size_t s = 0; s < db.shard_count(); ++s) {
      std::printf("%s: %zu objects\n", db.shard(s).name().c_str(),
                  db.shard(s).container().size());
    }
    std::printf("total: %zu\n", db.total_objects());
    return 0;
  }
  if (cmd == "query" || cmd == "export") {
    if (args.size() < 2) {
      std::fprintf(stderr, "%s needs an index name\n", cmd.c_str());
      return 2;
    }
    dsos::Filter filter;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (!parse_condition(schema, args[i], filter)) {
        std::fprintf(stderr, "bad condition: %s\n", args[i].c_str());
        return 2;
      }
    }
    const auto rows = db.query("darshan_data", args[1], filter);
    if (cmd == "export") {
      std::ostringstream out;
      dsos::export_csv(out, *schema, rows);
      std::fputs(out.str().c_str(), stdout);
    } else {
      std::printf("%zu rows (index %s)\n", rows.size(), args[1].c_str());
      std::size_t shown = 0;
      for (const auto* row : rows) {
        if (++shown > 10) {
          std::printf("  ... (%zu more)\n", rows.size() - 10);
          break;
        }
        std::printf("  job=%llu rank=%lld op=%-5s ts=%.3f dur=%.4f len=%lld\n",
                    static_cast<unsigned long long>(row->as_uint("job_id")),
                    static_cast<long long>(row->as_int("rank")),
                    row->as_string("op").c_str(),
                    row->as_double("seg_timestamp"),
                    row->as_double("seg_dur"),
                    static_cast<long long>(row->as_int("seg_len")));
      }
    }
    return 0;
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3) {
    const auto db = make_db();
    store::Store store(store_config(argv[1], /*create_dir=*/false));
    try {
      store.open(*db);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot open DSOS store %s: %s\n", argv[1],
                   e.what());
      return 1;
    }
    const std::vector<std::string> args(argv + 2, argv + argc);
    return run_command(*db, args);
  }

  // Demo mode: run the job into a store, reopen it, query.
  std::printf("== dsos_cmd demo: monitored IOR job -> durable DSOS store -> "
              "CLI queries ==\n\n");
  const std::string dir = "dlc_export/dsos_demo";
  // A store reopened on an earlier demo's directory would recover that
  // run's rows as well.
  std::filesystem::remove_all(dir);

  exp::ExperimentSpec spec = exp::base_spec(simfs::FsKind::kLustre);
  workloads::IorConfig ior_cfg;
  ior_cfg.use_mpiio = true;
  ior_cfg.collective = true;
  ior_cfg.segments = 2;
  ior_cfg.reorder_shift = 1;
  spec.workload = workloads::ior(ior_cfg);
  spec.exe = workloads::kIorExe;
  spec.node_count = 4;
  spec.ranks_per_node = 2;
  spec.job_id = 5150;
  spec.decode_to_dsos = true;
  std::uint64_t stored = 0;
  {
    const std::shared_ptr<dsos::DsosCluster> written = make_db();
    store::Store store(store_config(dir, /*create_dir=*/true));
    store.open(*written);
    spec.shared_dsos = written;
    const exp::RunResult result = exp::run_experiment(spec);
    stored = result.stored;
    std::printf("IOR job: %.1fs, %llu events stored\n\n", result.runtime_s,
                static_cast<unsigned long long>(stored));
    store.close();
  }

  const auto db = make_db();
  store::Store store(store_config(dir, /*create_dir=*/false));
  store.open(*db);
  std::printf("wrote %s through the store and reopened it (%zu objects)\n\n",
              dir.c_str(), db->total_objects());
  if (db->total_objects() != stored) {
    std::fprintf(stderr, "reopened %zu objects, stored %llu\n",
                 db->total_objects(),
                 static_cast<unsigned long long>(stored));
    return 1;
  }

  std::printf("$ dsos_cmd %s count\n", dir.c_str());
  run_command(*db, {"count"});
  std::printf("\n$ dsos_cmd %s query job_rank_time rank=3 op=write\n",
              dir.c_str());
  run_command(*db, {"query", "job_rank_time", "rank=3", "op=write"});
  std::printf("\n$ dsos_cmd %s schema\n", dir.c_str());
  run_command(*db, {"schema"});
  return 0;
}
