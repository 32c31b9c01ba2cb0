// Golden byte fixtures for every frozen encoding: connector JSON (both
// number formats), binary wire frames, the Fig. 3 CSV rendering, the WAL
// file, the rollup_cell row, the /api/rollup body, the
// raw figure frames (Figs. 5-9 and hot files), the Fig. 8 panel body and
// the darshan log.
//
// Each test encodes fixed inputs and compares the bytes against the files
// in tests/golden/, then decodes each fixture and compares the rows.  A
// mismatch writes the actual bytes under <tmp>/dlc_golden_actual/ so a
// deliberate format change can be reviewed and committed.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/figures.hpp"
#include "core/connector.hpp"
#include "core/decoder.hpp"
#include "core/schema_darshan.hpp"
#include "darshan/log.hpp"
#include "darshan_log_compare.hpp"
#include "dsos/cluster.hpp"
#include "rollup/cell.hpp"
#include "rollup/engine.hpp"
#include "rollup/policy.hpp"
#include "simfs/nfs.hpp"
#include "simhpc/cluster.hpp"
#include "simhpc/job.hpp"
#include "store/wal.hpp"
#include "websvc/service.hpp"
#include "wire/codec.hpp"
#include "wire/objblock.hpp"

namespace dlc {
namespace {

namespace fsys = std::filesystem;

std::string read_file(const fsys::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const fsys::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Compares `actual` with the committed fixture `name`.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string want = read_file(fsys::path(DLC_GOLDEN_DIR) / name);
  if (want == actual) return;
  const fsys::path dir = fsys::temp_directory_path() / "dlc_golden_actual";
  fsys::create_directories(dir);
  write_file(dir / name, actual);
  ADD_FAILURE() << "golden mismatch for " << name << " (" << want.size()
                << " vs " << actual.size() << " bytes); actual written to "
                << (dir / name).string();
}

/// Scratch directory removed on scope exit.
struct Scratch {
  fsys::path dir;
  explicit Scratch(const std::string& tag)
      : dir(fsys::temp_directory_path() / ("dlc_golden_" + tag)) {
    fsys::remove_all(dir);
    fsys::create_directories(dir);
  }
  ~Scratch() {
    std::error_code ec;
    fsys::remove_all(dir, ec);
  }
};

/// A two-rank job whose runtime supplies the connector's MET context.
struct JobFixture {
  sim::Engine engine;
  simhpc::Cluster cluster{simhpc::ClusterConfig{
      .node_count = 2, .first_node_id = 40, .node_prefix = "nid"}};
  std::unique_ptr<simfs::NfsModel> fs;
  std::unique_ptr<simhpc::Job> job;
  std::unique_ptr<darshan::Runtime> runtime;
  SimEpoch epoch;

  JobFixture() {
    fs = std::make_unique<simfs::NfsModel>(
        engine, simfs::NfsConfig{},
        std::make_shared<simfs::VariabilityProcess>(simfs::VariabilityConfig{},
                                                    1),
        1);
    simhpc::JobConfig jcfg;
    jcfg.job_id = 259903;
    jcfg.uid = 99066;
    jcfg.node_count = 2;
    jcfg.ranks_per_node = 1;
    job = std::make_unique<simhpc::Job>(engine, cluster, jcfg);
    darshan::RuntimeConfig rcfg;
    rcfg.exe = "/projects/ldms_darshan/mpi-io-test";
    runtime = std::make_unique<darshan::Runtime>(engine, *fs, *job, rcfg);
  }
};

const std::string kPath = "/fscratch/golden/testFile.00000001";

darshan::IoEvent event(darshan::Module m, darshan::Op op, SimTime end) {
  darshan::IoEvent e;
  e.module = m;
  e.op = op;
  e.rank = 1;
  e.record_id = 9'184'815'607'937'547'264ull;
  e.file_path = &kPath;
  e.max_byte = 65'535;
  e.switches = 2;
  e.flushes = 1;
  e.cnt = 7;
  e.offset = 4096;
  e.length = 65'536;
  e.start = end - 1234 * kMicrosecond;
  e.end = end;
  return e;
}

/// The four connector messages: an open (MET), a write (MOD), an HDF5
/// dataset read, and a traced MPI-IO write.
std::vector<darshan::IoEvent> events() {
  std::vector<darshan::IoEvent> out;
  out.push_back(event(darshan::Module::kPosix, darshan::Op::kOpen,
                      2 * kSecond + 17));
  out.push_back(event(darshan::Module::kPosix, darshan::Op::kWrite,
                      3 * kSecond + 250 * kMicrosecond));
  darshan::IoEvent h5 =
      event(darshan::Module::kH5D, darshan::Op::kRead, 4 * kSecond);
  h5.h5 = darshan::Hdf5Info{1, 0, 1, 2, 4096, "/group/dataset_0"};
  out.push_back(h5);
  out.push_back(event(darshan::Module::kMpiio, darshan::Op::kWrite,
                      5 * kSecond + 999));
  return out;
}

obs::TraceContext trace() {
  obs::TraceContext t;
  t.id = (std::uint64_t{259903} << 32) | 64;
  t.stamp(obs::Hop::kIntercepted, 5 * kSecond - 1234 * kMicrosecond + 999);
  t.stamp(obs::Hop::kPublished, 5 * kSecond + 999);
  return t;
}

/// One connector message per line; the last carries the trace member.
std::string json_messages(const JobFixture& job, json::NumberFormat fmt) {
  std::string out;
  json::Writer w(fmt);
  const auto evs = events();
  for (std::size_t i = 0; i < evs.size(); ++i) {
    core::DarshanLdmsConnector::format_message(w, evs[i], *job.runtime,
                                               job.epoch);
    std::string payload = w.str();
    if (i + 1 == evs.size()) obs::append_trace_member(&payload, trace());
    out += payload + "\n";
  }
  return out;
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

std::string csv(const std::vector<dsos::Object>& rows) {
  std::string out = std::string(core::darshan_csv_header()) + "\n";
  for (const dsos::Object& row : rows) out += core::to_csv_row(row) + "\n";
  return out;
}

std::vector<dsos::Object> decode_json(const std::string& text) {
  const auto schema = core::darshan_data_schema();
  std::vector<dsos::Object> rows;
  for (const std::string& msg : lines(text)) {
    std::vector<dsos::Object> fast;
    EXPECT_TRUE(core::decode_message_fast(schema, msg, fast)) << msg;
    const std::vector<dsos::Object> dom = core::decode_message(schema, msg);
    EXPECT_EQ(csv(fast), csv(dom)) << msg;
    rows.insert(rows.end(), dom.begin(), dom.end());
  }
  return rows;
}

struct Frames {
  std::string single, batched, traced;
};

Frames frames(const JobFixture& job) {
  const auto evs = events();
  const std::string& producer = job.job->producer_name(1);
  wire::FrameEncoder enc(
      core::DarshanLdmsConnector::encode_context(*job.runtime, job.epoch));
  Frames f;
  enc.add(evs[0], producer);
  f.single = enc.take_frame();
  // The HDF5 read follows the later-ending MPI-IO write: a negative
  // end delta.
  for (const std::size_t i : {0, 1, 3, 2}) enc.add(evs[i], producer);
  f.batched = enc.take_frame();
  const obs::TraceContext t = trace();
  enc.add(evs[3], producer, &t);
  f.traced = enc.take_frame();
  return f;
}

std::vector<dsos::Object> decode_frames(const std::vector<std::string>& fs) {
  const auto schema = core::darshan_data_schema();
  std::vector<dsos::Object> rows;
  for (const std::string& f : fs) {
    std::vector<obs::TraceContext> traces;
    const auto got = wire::decode_frame(schema, f, &traces);
    EXPECT_FALSE(got.empty());
    rows.insert(rows.end(), got.begin(), got.end());
  }
  return rows;
}

std::vector<const dsos::Object*> ptrs(const std::vector<dsos::Object>& rows) {
  std::vector<const dsos::Object*> out;
  for (const dsos::Object& row : rows) out.push_back(&row);
  return out;
}

TEST(Golden, ConnectorJsonMessages) {
  const JobFixture job;
  const std::string snprintf_text =
      json_messages(job, json::NumberFormat::kSnprintf);
  const std::string fast_text =
      json_messages(job, json::NumberFormat::kFastItoa);
  expect_golden("connector_snprintf.jsonl", snprintf_text);
  expect_golden("connector_fast.jsonl", fast_text);

  const auto rows = decode_json(read_file(
      fsys::path(DLC_GOLDEN_DIR) / "connector_snprintf.jsonl"));
  ASSERT_EQ(rows.size(), 4u);
  expect_golden("rows_json.csv", csv(rows));
  EXPECT_EQ(csv(decode_json(read_file(fsys::path(DLC_GOLDEN_DIR) /
                                      "connector_fast.jsonl"))),
            csv(rows));

  obs::TraceContext parsed;
  ASSERT_TRUE(obs::parse_trace_member(lines(snprintf_text).back(), &parsed));
  EXPECT_EQ(parsed.id, trace().id);
  EXPECT_EQ(parsed.hops, trace().hops);
}

TEST(Golden, WireFrames) {
  const JobFixture job;
  const Frames f = frames(job);
  expect_golden("frame_single.bin", f.single);
  expect_golden("frame_batched.bin", f.batched);
  expect_golden("frame_traced.bin", f.traced);

  const fsys::path dir(DLC_GOLDEN_DIR);
  const std::vector<std::string> fixtures = {
      read_file(dir / "frame_single.bin"), read_file(dir / "frame_batched.bin"),
      read_file(dir / "frame_traced.bin")};
  const auto rows = decode_frames(fixtures);
  ASSERT_EQ(rows.size(), 6u);
  expect_golden("rows_frames.csv", csv(rows));

  // The cursor the decoder's fast path walks yields the same rows and
  // recovers the trace block.
  std::vector<dsos::Object> cursor_rows;
  obs::TraceContext t;
  for (const std::string& frame : fixtures) {
    wire::FrameCursor cursor(frame);
    ASSERT_TRUE(cursor.ok());
    std::vector<dsos::Value> values;
    while (cursor.next(values, &t) == 1) {
      cursor_rows.push_back(
          dsos::make_object(core::darshan_data_schema(), std::move(values)));
      values = {};
    }
  }
  EXPECT_EQ(csv(cursor_rows), csv(rows));
  EXPECT_EQ(t.id, trace().id);
  EXPECT_EQ(t.hops, trace().hops);
}

TEST(Golden, WalFrames) {
  const JobFixture job;
  const auto rows =
      decode_json(json_messages(job, json::NumberFormat::kSnprintf));
  const Scratch scratch("wal");
  const std::string path = (scratch.dir / "wal-0.log").string();
  {
    store::WalWriter wal;
    ASSERT_TRUE(wal.open(path));
    ASSERT_TRUE(wal.append_schema(*core::darshan_data_schema()));
    ASSERT_TRUE(wal.append_group(41, ptrs(rows)));
    wal.close();
  }
  expect_golden("wal.bin", read_file(path));

  const std::string copy = (scratch.dir / "replay.log").string();
  write_file(copy, read_file(fsys::path(DLC_GOLDEN_DIR) / "wal.bin"));
  store::WalReplay replay;
  ASSERT_TRUE(store::replay_wal(copy, &replay));
  EXPECT_EQ(replay.torn_bytes, 0u);
  EXPECT_EQ(replay.first_seq, 41u);
  EXPECT_EQ(replay.last_seq, 44u);
  ASSERT_EQ(replay.schemas.size(), 1u);
  EXPECT_EQ(replay.schemas[0]->name(), "darshan_data");
  EXPECT_EQ(csv(replay.rows), csv(rows));
}

TEST(Golden, RollupCellRow) {
  const auto schema = rollup::rollup_cell_schema();
  rollup::CellKey key;
  key.job = 259903;
  key.producer = "nid00041";
  key.rank = 1;
  key.op = "write";
  key.module = "POSIX";
  key.bucket = 27'610'560;
  rollup::CellAgg agg;
  agg.add(65'536, 0.25);
  agg.add(-1, 0.001);
  agg.add(4096, 1.5);
  const dsos::Object row =
      rollup::cell_to_row(schema, "op_counts", key, 60.0, agg, 3, 1.6566336e9);
  std::string bytes;
  wire::put_schema_def(bytes, *schema);
  bytes += wire::encode_object_block({&row});
  expect_golden("rollup_cell.bin", bytes);

  const std::string fixture =
      read_file(fsys::path(DLC_GOLDEN_DIR) / "rollup_cell.bin");
  wire::Reader r(fixture);
  const dsos::SchemaPtr fixture_schema = wire::get_schema_def(r);
  ASSERT_NE(fixture_schema, nullptr);
  std::vector<dsos::Object> rows;
  ASSERT_TRUE(wire::decode_object_block(
      fixture.substr(fixture.size() - r.remaining()),
      [&](std::string_view) { return fixture_schema; }, &rows));
  ASSERT_EQ(rows.size(), 1u);
  rollup::RollupCell cell;
  std::uint64_t shard = 0;
  double watermark = 0.0;
  ASSERT_TRUE(rollup::row_to_cell(rows[0], cell, shard, watermark));
  EXPECT_EQ(cell.policy, "op_counts");
  EXPECT_EQ(cell.key, key);
  EXPECT_DOUBLE_EQ(cell.bucket_w, 60.0);
  EXPECT_EQ(cell.agg.count, agg.count);
  EXPECT_EQ(cell.agg.bytes, agg.bytes);
  EXPECT_DOUBLE_EQ(cell.agg.dur_sum, agg.dur_sum);
  EXPECT_DOUBLE_EQ(cell.agg.dur_min, agg.dur_min);
  EXPECT_DOUBLE_EQ(cell.agg.dur_max, agg.dur_max);
  EXPECT_EQ(cell.agg.dur_hist, agg.dur_hist);
  EXPECT_EQ(shard, 3u);
  EXPECT_DOUBLE_EQ(watermark, 1.6566336e9);
}

TEST(Golden, RollupApiResponse) {
  const JobFixture job;
  auto db = std::make_shared<dsos::DsosCluster>(dsos::ClusterConfig{});
  db->register_schema(core::darshan_data_schema());
  for (dsos::Object& row :
       decode_json(json_messages(job, json::NumberFormat::kSnprintf))) {
    db->insert(std::move(row));
  }
  rollup::RollupEngineConfig cfg;
  cfg.policies = rollup::default_rollup_policies();
  rollup::RollupEngine engine(cfg);
  engine.attach(*db);
  engine.flush();
  websvc::DashboardService service(db);
  service.set_rollup(&engine);
  const websvc::Response res = service.handle("/api/rollup/op_counts");
  ASSERT_EQ(res.status, 200);
  expect_golden("api_rollup_op_counts.json", res.body);
}

/// The websvc tests' demo database: jobs 1 and 2, ranks 0 and 1, one
/// write and one read each on nid00040; a job's two ranks share each
/// timestamp.
struct DemoDb {
  dsos::SchemaPtr schema = core::darshan_data_schema();
  std::shared_ptr<dsos::DsosCluster> db;

  DemoDb() {
    dsos::ClusterConfig cfg;
    cfg.shard_count = 2;
    cfg.shard_attr = "rank";
    cfg.parallel_query = false;
    db = std::make_shared<dsos::DsosCluster>(cfg);
    db->register_schema(schema);
    for (std::uint64_t job : {1u, 2u}) {
      for (std::int64_t rank : {0, 1}) {
        add(job, rank, "write", 100.0 + static_cast<double>(job), 0.5, 1024);
        add(job, rank, "read", 200.0 + static_cast<double>(job), 0.1, 512);
      }
    }
  }

  void add(std::uint64_t job, std::int64_t rank, const std::string& op,
           double ts, double dur, std::int64_t len,
           const std::string& producer = "nid00040",
           std::uint64_t record_id = 7) {
    db->insert(dsos::make_object(
        schema,
        {std::string("POSIX"), std::uint64_t{99066}, producer,
         std::int64_t{0}, std::string("N/A"), rank, std::int64_t{-1},
         record_id, std::string("N/A"), std::int64_t{len - 1},
         std::string("MOD"), job, op, std::int64_t{1}, std::int64_t{0},
         std::int64_t{-1}, dur, len, std::int64_t{-1}, std::int64_t{-1},
         std::int64_t{-1}, std::string("N/A"), std::int64_t{-1}, ts}));
  }
};

/// Every raw figure frame over jobs 1 and 2 (Figs. 8 and 9: job 2).
std::vector<std::pair<std::string, analysis::DataFrame>> figure_frames(
    const dsos::DsosCluster& db) {
  const std::vector<std::uint64_t> jobs = {1, 2};
  return {
      {"fig5", analysis::fig5_op_counts(db, jobs)},
      {"fig6", analysis::fig6_requests_per_node(db, jobs)},
      {"fig7", analysis::fig7_rank_durations(db, jobs)},
      {"fig7_summary", analysis::fig7_job_summary(db, jobs)},
      {"fig8", analysis::fig8_timeline(db, 2)},
      {"fig9", analysis::fig9_throughput_buckets(db, 2, 10.0)},
      {"hot_files", analysis::hot_files(db, jobs)},
  };
}

TEST(Golden, RawFigureFrames) {
  const DemoDb demo;
  for (const auto& [name, frame] : figure_frames(*demo.db)) {
    expect_golden("figure_" + name + ".csv", frame.to_csv());
  }
}

TEST(Golden, RawFigureFramesOverMixedOps) {
  // The demo rows plus an open and a close per rank on its own node (the
  // only rows Fig. 6 counts), an untraced read (seg_len -1) per rank on a
  // second file, and timestamps off the 10 s grid.
  DemoDb demo;
  for (std::uint64_t job : {1u, 2u}) {
    for (std::int64_t rank : {0, 1}) {
      const double j = static_cast<double>(job);
      const std::string node = "nid0004" + std::to_string(rank);
      demo.add(job, rank, "open", 90.5 + j, 0.002, -1, node, 8);
      demo.add(job, rank, "read", 250.25 + j + 0.5 * static_cast<double>(rank),
               0.05 * static_cast<double>(rank + 1), -1, node, 9);
      demo.add(job, rank, "close", 300.75 + j, 0.001, -1, node, 8);
    }
  }
  std::string all;
  for (const auto& [name, frame] : figure_frames(*demo.db)) {
    all += "# " + name + "\n" + frame.to_csv();
  }
  expect_golden("figures_mixed_ops.csv", all);
}

TEST(Golden, Fig8PanelBody) {
  const DemoDb demo;
  const websvc::DashboardService service(demo.db);
  const websvc::Response res = service.handle("/api/panel?module=fig8&job=2");
  ASSERT_EQ(res.status, 200);
  expect_golden("panel_fig8.json", res.body);
}

/// A hand-built darshan log over two modules: a POSIX record whose id is
/// past 2^63 and whose DXT trace steps back in offset and in start time,
/// and a shared MPI-IO record (rank -1) with -1 counters, no segments and
/// dropped ones.  Every POSIX counter differs from the others, so a
/// reordered field changes the bytes.
darshan::Log darshan_log() {
  darshan::Log log;
  log.job_id = 259903;
  log.uid = 99066;
  log.exe = "/projects/ldms_darshan/mpi-io-test -b 16m";
  log.nprocs = 2;
  log.start_time = 2 * kSecond;
  log.end_time = 9 * kSecond + 123;

  darshan::Log::RecordEntry posix;
  posix.record.module = darshan::Module::kPosix;
  posix.record.rank = 1;
  posix.record.record_id = 0xfedc'ba98'7654'3210ull;
  posix.record.file_path = kPath;
  darshan::RecordCounters& c = posix.record.counters;
  c.opens = 2;
  c.closes = 3;
  c.reads = 5;
  c.writes = 7;
  c.flushes = 11;
  c.seeks = 13;
  c.bytes_read = 65'553;
  c.bytes_written = std::uint64_t{1} << 40;
  c.max_byte_read = 8'590'000'127;
  c.max_byte_written = -1;
  c.rw_switches = 17;
  c.consec_reads = 19;
  c.consec_writes = 23;
  c.seq_reads = 29;
  c.seq_writes = 31;
  for (std::size_t i = 0; i < darshan::kSizeBinCount; ++i) {
    c.read_size_bins[i] = 37 + static_cast<std::int64_t>(i);
    c.write_size_bins[i] = 300 + 7 * static_cast<std::int64_t>(i);
  }
  c.f_open_start = 2.000017;
  c.f_open_end = 2.25;
  c.f_close_end = 8.75;
  c.f_read_time = 0.125;
  c.f_write_time = 1.5;
  c.f_meta_time = 0.0625;
  c.f_max_read_time = 0.03125;
  c.f_max_write_time = 0.5;
  using darshan::Op;
  posix.dxt = {
      {Op::kWrite, 4096, 65'536, 3 * kSecond + 250 * kMicrosecond,
       3 * kSecond + 500 * kMicrosecond},
      {Op::kWrite, 0, 4096, 3 * kSecond + 100 * kMicrosecond,
       3 * kSecond + 400 * kMicrosecond},
      {Op::kRead, std::uint64_t{1} << 33, 1 << 20, 5 * kSecond,
       5 * kSecond + 999},
  };
  log.records.push_back(posix);

  darshan::Log::RecordEntry shared;
  shared.record.module = darshan::Module::kMpiio;
  shared.record.rank = -1;
  shared.record.record_id = 42;
  shared.record.file_path = "/fscratch/golden/shared.h5";
  shared.record.counters.opens = 2;
  shared.record.counters.writes = 4;
  shared.record.counters.bytes_written = 16'384;
  shared.dxt_dropped = 1'000'000;
  log.records.push_back(shared);
  return log;
}

TEST(Golden, DarshanLog) {
  const darshan::Log log = darshan_log();
  std::ostringstream out;
  darshan::write_log(log, out);
  expect_golden("darshan_log.bin", out.str());

  std::istringstream in(
      read_file(fsys::path(DLC_GOLDEN_DIR) / "darshan_log.bin"));
  const std::optional<darshan::Log> got = darshan::read_log(in);
  ASSERT_TRUE(got.has_value());
  darshan::expect_same_log(*got, log);
}

}  // namespace
}  // namespace dlc
