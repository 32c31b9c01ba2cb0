// Tests for the darshan-runtime analogue: counters, DXT, event hook
// payloads, cnt/switches semantics, heatmap, log round-trip.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "darshan/derived.hpp"
#include "darshan/log.hpp"
#include "darshan/runtime.hpp"
#include "darshan_log_compare.hpp"
#include "sim/engine.hpp"
#include "simfs/nfs.hpp"
#include "simhpc/cluster.hpp"
#include "simhpc/job.hpp"
#include "wire/varint.hpp"

namespace dlc::darshan {
namespace {

struct Fixture {
  sim::Engine engine;
  simhpc::Cluster cluster{simhpc::ClusterConfig{.node_count = 4}};
  std::shared_ptr<simfs::VariabilityProcess> variability;
  std::unique_ptr<simfs::NfsModel> fs;
  std::unique_ptr<simhpc::Job> job;
  std::unique_ptr<Runtime> runtime;
  std::vector<IoEvent> events;

  explicit Fixture(std::size_t ranks = 2, RuntimeConfig cfg = {}) {
    simfs::VariabilityConfig vcfg;
    vcfg.epoch_sigma = 0.0;
    vcfg.ar_sigma = 0.0;
    variability = std::make_shared<simfs::VariabilityProcess>(vcfg, 1);
    simfs::NfsConfig ncfg;
    ncfg.jitter_sigma = 0.0;
    ncfg.small_io_batch = 1;
    fs = std::make_unique<simfs::NfsModel>(engine, ncfg, variability, 1);
    simhpc::JobConfig jcfg;
    jcfg.job_id = 259903;
    jcfg.node_count = ranks;
    jcfg.ranks_per_node = 1;
    job = std::make_unique<simhpc::Job>(engine, cluster, jcfg);
    runtime = std::make_unique<Runtime>(engine, *fs, *job, cfg);
    runtime->set_event_hook([this](const IoEvent& e) -> SimDuration {
      events.push_back(e);
      return 0;
    });
  }
};

sim::Task<void> simple_posix_session(Runtime& rt, int rank) {
  RankIo io = rt.rank(rank);
  const Fd fd = co_await io.open(Module::kPosix, "/scratch/data.out", true);
  co_await io.write(fd, 1000);
  co_await io.write(fd, 1000);
  co_await io.read_at(fd, 0, 500);
  co_await io.close(fd);
}

TEST(Runtime, CountersTrackOps) {
  Fixture fx(1);
  fx.engine.spawn(simple_posix_session(*fx.runtime, 0));
  fx.engine.run();

  const auto records = fx.runtime->records();
  ASSERT_EQ(records.size(), 1u);
  const auto& c = records[0]->counters;
  EXPECT_EQ(c.opens, 1);
  EXPECT_EQ(c.closes, 1);
  EXPECT_EQ(c.writes, 2);
  EXPECT_EQ(c.reads, 1);
  EXPECT_EQ(c.bytes_written, 2000u);
  EXPECT_EQ(c.bytes_read, 500u);
  EXPECT_EQ(c.max_byte_written, 1999);
  EXPECT_EQ(c.max_byte_read, 499);
  EXPECT_EQ(c.rw_switches, 1);
  EXPECT_GT(c.f_write_time, 0.0);
  EXPECT_GT(c.f_read_time, 0.0);
  EXPECT_GE(c.f_open_start, 0.0);
  EXPECT_GT(c.f_close_end, c.f_open_end);
}

TEST(Runtime, SequentialWritesAdvanceCursorAndCountConsec) {
  Fixture fx(1);
  fx.engine.spawn(simple_posix_session(*fx.runtime, 0));
  fx.engine.run();
  const auto& c = fx.runtime->records()[0]->counters;
  EXPECT_EQ(c.consec_writes, 1);  // second write directly follows the first
  EXPECT_EQ(c.seq_writes, 1);
}

TEST(Runtime, EventHookSeesEveryOpInOrder) {
  Fixture fx(1);
  fx.engine.spawn(simple_posix_session(*fx.runtime, 0));
  fx.engine.run();
  ASSERT_EQ(fx.events.size(), 5u);
  EXPECT_EQ(fx.events[0].op, Op::kOpen);
  EXPECT_EQ(fx.events[1].op, Op::kWrite);
  EXPECT_EQ(fx.events[2].op, Op::kWrite);
  EXPECT_EQ(fx.events[3].op, Op::kRead);
  EXPECT_EQ(fx.events[4].op, Op::kClose);
  EXPECT_EQ(fx.runtime->event_count(), 5u);
  // Absolute timestamps are monotone and end >= start.
  SimTime prev_end = -1;
  for (const auto& e : fx.events) {
    EXPECT_GE(e.end, e.start);
    EXPECT_GE(e.end, prev_end);
    prev_end = e.end;
  }
}

TEST(Runtime, CntIncrementsAndResetsOnClose) {
  Fixture fx(1);
  auto proc = [](Runtime& rt) -> sim::Task<void> {
    RankIo io = rt.rank(0);
    Fd fd = co_await io.open(Module::kPosix, "/a", true);
    co_await io.write(fd, 10);
    co_await io.close(fd);
    fd = co_await io.open(Module::kPosix, "/a", false);
    co_await io.read(fd, 10);
    co_await io.close(fd);
  };
  fx.engine.spawn(proc(*fx.runtime));
  fx.engine.run();
  ASSERT_EQ(fx.events.size(), 6u);
  EXPECT_EQ(fx.events[0].cnt, 1);  // open
  EXPECT_EQ(fx.events[1].cnt, 2);  // write
  EXPECT_EQ(fx.events[2].cnt, 3);  // close -> reset
  EXPECT_EQ(fx.events[3].cnt, 1);  // second open restarts at 1
  EXPECT_EQ(fx.events[4].cnt, 2);
  EXPECT_EQ(fx.events[5].cnt, 3);
}

TEST(Runtime, CntIsPerModulePerRank) {
  Fixture fx(2);
  auto proc = [](Runtime& rt, int rank, Module m) -> sim::Task<void> {
    RankIo io = rt.rank(rank);
    const Fd fd = co_await io.open(m, "/shared", true);
    co_await io.write(fd, 10);
    co_await io.close(fd);
  };
  fx.engine.spawn(proc(*fx.runtime, 0, Module::kPosix));
  fx.engine.spawn(proc(*fx.runtime, 1, Module::kPosix));
  fx.engine.spawn(proc(*fx.runtime, 0, Module::kStdio));
  fx.engine.run();
  // Each (module, rank) stream counts independently: all opens have cnt 1.
  int open_cnt_ones = 0;
  for (const auto& e : fx.events) {
    if (e.op == Op::kOpen) {
      EXPECT_EQ(e.cnt, 1);
      ++open_cnt_ones;
    }
  }
  EXPECT_EQ(open_cnt_ones, 3);
}

TEST(Runtime, OpenEventUsesSentinelFields) {
  Fixture fx(1);
  fx.engine.spawn(simple_posix_session(*fx.runtime, 0));
  fx.engine.run();
  const auto& open_event = fx.events[0];
  EXPECT_EQ(open_event.max_byte, -1);
  EXPECT_EQ(open_event.switches, -1);
  EXPECT_EQ(open_event.flushes, -1);
  EXPECT_EQ(open_event.length, 0u);
  // POSIX data events: switches real, flushes stays -1 (HDF5-only field).
  const auto& write_event = fx.events[1];
  EXPECT_EQ(write_event.switches, 0);
  EXPECT_EQ(write_event.flushes, -1);
  EXPECT_EQ(write_event.max_byte, 999);
}

TEST(Runtime, RecordIdIsStablePathHash) {
  Fixture fx(2);
  fx.engine.spawn(simple_posix_session(*fx.runtime, 0));
  fx.engine.spawn(simple_posix_session(*fx.runtime, 1));
  fx.engine.run();
  EXPECT_EQ(fx.events[0].record_id, fnv1a64("/scratch/data.out"));
  // Same file on both ranks -> same record id, distinct records.
  const auto records = fx.runtime->records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0]->record_id, records[1]->record_id);
  EXPECT_NE(records[0]->rank, records[1]->rank);
}

TEST(Runtime, DxtTracesDataOpsWithTimestamps) {
  Fixture fx(1);
  fx.engine.spawn(simple_posix_session(*fx.runtime, 0));
  fx.engine.run();
  const Log log = fx.runtime->finalize();
  ASSERT_EQ(log.records.size(), 1u);
  const auto& dxt = log.records[0].dxt;
  ASSERT_EQ(dxt.size(), 3u);  // 2 writes + 1 read; open/close not traced
  EXPECT_EQ(dxt[0].op, Op::kWrite);
  EXPECT_EQ(dxt[0].offset, 0u);
  EXPECT_EQ(dxt[0].length, 1000u);
  EXPECT_EQ(dxt[1].offset, 1000u);
  EXPECT_EQ(dxt[2].op, Op::kRead);
  EXPECT_LT(dxt[0].start, dxt[0].end);
  EXPECT_LE(dxt[0].end, dxt[1].start);
}

TEST(Runtime, DxtRespectsSegmentCap) {
  RuntimeConfig cfg;
  cfg.dxt_max_segments = 4;
  Fixture fx(1, cfg);
  auto proc = [](Runtime& rt) -> sim::Task<void> {
    RankIo io = rt.rank(0);
    const Fd fd = co_await io.open(Module::kPosix, "/a", true);
    for (int i = 0; i < 10; ++i) co_await io.write(fd, 8);
    co_await io.close(fd);
  };
  fx.engine.spawn(proc(*fx.runtime));
  fx.engine.run();
  const Log log = fx.runtime->finalize();
  EXPECT_EQ(log.records[0].dxt.size(), 4u);
  EXPECT_EQ(log.records[0].dxt_dropped, 6u);
}

TEST(Runtime, DxtCanBeDisabled) {
  RuntimeConfig cfg;
  cfg.dxt_enabled = false;
  Fixture fx(1, cfg);
  fx.engine.spawn(simple_posix_session(*fx.runtime, 0));
  fx.engine.run();
  const Log log = fx.runtime->finalize();
  EXPECT_TRUE(log.records[0].dxt.empty());
  // Events still fire: the connector does not depend on DXT storage.
  EXPECT_EQ(fx.events.size(), 5u);
}

TEST(Runtime, MpiioEmitsPosixSubEvents) {
  Fixture fx(1);
  auto proc = [](Runtime& rt) -> sim::Task<void> {
    RankIo io = rt.rank(0);
    const Fd fd = co_await io.open(Module::kMpiio, "/mpi.dat", true);
    co_await io.write(fd, 4096, simfs::IoFlags{});  // independent
    co_await io.write(fd, 4096,
                      simfs::IoFlags{.collective = true, .sync = false});
    co_await io.close(fd);
  };
  fx.engine.spawn(proc(*fx.runtime));
  fx.engine.run();
  int mpiio_writes = 0, posix_writes = 0;
  for (const auto& e : fx.events) {
    if (e.op != Op::kWrite) continue;
    if (e.module == Module::kMpiio) ++mpiio_writes;
    if (e.module == Module::kPosix) ++posix_writes;
  }
  EXPECT_EQ(mpiio_writes, 2);
  EXPECT_EQ(posix_writes, 3);  // 1 (independent) + 2 (collective two-phase)
}

TEST(Runtime, MpiioPosixLayerCanBeDisabled) {
  RuntimeConfig cfg;
  cfg.mpiio_emits_posix = false;
  Fixture fx(1, cfg);
  auto proc = [](Runtime& rt) -> sim::Task<void> {
    RankIo io = rt.rank(0);
    const Fd fd = co_await io.open(Module::kMpiio, "/mpi.dat", true);
    co_await io.write(fd, 4096, simfs::IoFlags{.collective = true,
                                               .sync = false});
    co_await io.close(fd);
  };
  fx.engine.spawn(proc(*fx.runtime));
  fx.engine.run();
  for (const auto& e : fx.events) EXPECT_NE(e.module, Module::kPosix);
}

TEST(Runtime, Hdf5EventsCarryDatasetMetadata) {
  Fixture fx(1);
  auto proc = [](Runtime& rt) -> sim::Task<void> {
    RankIo io = rt.rank(0);
    const Fd fd = co_await io.open(Module::kH5D, "/sim.h5", true);
    Hdf5Info info;
    info.data_set = "/level0/pressure";
    info.ndims = 3;
    info.npoints = 64 * 64 * 64;
    info.reg_hslab = 1;
    info.pt_sel = 0;
    co_await io.h5d_write(fd, info, 0, 1 << 20);
    co_await io.flush(fd);
    co_await io.close(fd);
  };
  fx.engine.spawn(proc(*fx.runtime));
  fx.engine.run();
  const auto& write_event = fx.events[1];
  EXPECT_EQ(write_event.module, Module::kH5D);
  EXPECT_EQ(write_event.h5.data_set, "/level0/pressure");
  EXPECT_EQ(write_event.h5.ndims, 3);
  EXPECT_EQ(write_event.h5.npoints, 64 * 64 * 64);
  const auto& flush_event = fx.events[2];
  EXPECT_EQ(flush_event.op, Op::kFlush);
  EXPECT_EQ(flush_event.flushes, 1);  // H5 modules report real flush counts
}

TEST(Runtime, SeekCountsWithoutIo) {
  Fixture fx(1);
  auto proc = [](Runtime& rt) -> sim::Task<void> {
    RankIo io = rt.rank(0);
    const Fd fd = co_await io.open(Module::kPosix, "/a", true);
    io.seek(fd, 4096);
    co_await io.write(fd, 100);
    co_await io.close(fd);
  };
  fx.engine.spawn(proc(*fx.runtime));
  fx.engine.run();
  const auto& c = fx.runtime->records()[0]->counters;
  EXPECT_EQ(c.seeks, 1);
  // Write landed at the seeked offset.
  EXPECT_EQ(c.max_byte_written, 4195);
}

TEST(Runtime, BadFdThrows) {
  Fixture fx(1);
  auto proc = [](Runtime& rt, bool& threw) -> sim::Task<void> {
    RankIo io = rt.rank(0);
    try {
      co_await io.write(99, 10);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
  };
  bool threw = false;
  fx.engine.spawn(proc(*fx.runtime, threw));
  fx.engine.run();
  EXPECT_TRUE(threw);
}

TEST(Runtime, UseAfterCloseThrows) {
  Fixture fx(1);
  auto proc = [](Runtime& rt, bool& threw) -> sim::Task<void> {
    RankIo io = rt.rank(0);
    const Fd fd = co_await io.open(Module::kPosix, "/a", true);
    co_await io.close(fd);
    try {
      co_await io.write(fd, 10);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
  };
  bool threw = false;
  fx.engine.spawn(proc(*fx.runtime, threw));
  fx.engine.run();
  EXPECT_TRUE(threw);
}

TEST(Runtime, HeatmapAccumulatesPerRank) {
  Fixture fx(2);
  fx.engine.spawn(simple_posix_session(*fx.runtime, 0));
  fx.engine.spawn(simple_posix_session(*fx.runtime, 1));
  fx.engine.run();
  const Heatmap& hm = fx.runtime->heatmap();
  std::uint64_t write_total = 0, read_total = 0;
  for (std::size_t r = 0; r < hm.ranks(); ++r) {
    for (std::size_t b = 0; b < hm.bins(r); ++b) {
      write_total += hm.at(r, b).write_bytes;
      read_total += hm.at(r, b).read_bytes;
    }
  }
  EXPECT_EQ(write_total, 4000u);
  EXPECT_EQ(read_total, 1000u);
}

TEST(Log, BinaryRoundTrip) {
  Fixture fx(2);
  fx.engine.spawn(simple_posix_session(*fx.runtime, 0));
  fx.engine.spawn(simple_posix_session(*fx.runtime, 1));
  fx.engine.run();
  fx.job->note_end(fx.engine.now());
  const Log original = fx.runtime->finalize();
  ASSERT_EQ(counter_values(RecordCounters{}).size(), 43u);

  std::stringstream stream;
  write_log(original, stream);
  const auto parsed = read_log(stream);
  ASSERT_TRUE(parsed.has_value());
  expect_same_log(*parsed, original);
}

/// Peak resident set of this process so far, in KiB.
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(Log, RejectsCorruptInput) {
  std::stringstream empty;
  EXPECT_FALSE(read_log(empty).has_value());
  std::stringstream bad("NOTALOGFILE");
  EXPECT_FALSE(read_log(bad).has_value());
  // A fixed-width v1 header: magic "DLCL", version 1, a job id.
  std::stringstream v1(std::string("DLCL\x01\0\0\0\x3f\xf7\x03\0\0\0\0\0", 16));
  EXPECT_FALSE(read_log(v1).has_value());

  Fixture fx(1);
  fx.engine.spawn(simple_posix_session(*fx.runtime, 0));
  fx.engine.run();
  std::stringstream full;
  write_log(fx.runtime->finalize(), full);
  const std::string bytes = full.str();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::stringstream prefix(bytes.substr(0, n));
    EXPECT_FALSE(read_log(prefix).has_value()) << "prefix of " << n;
  }

  // A rank past int's range is rejected, not truncated.
  Log wide;
  wide.records.emplace_back().record.rank = std::numeric_limits<int>::max();
  std::stringstream widest;
  write_log(wide, widest);
  ASSERT_TRUE(read_log(widest).has_value());
  std::string from, to;
  wire::put_zigzag(from, std::numeric_limits<int>::max());
  wire::put_zigzag(to, std::int64_t{std::numeric_limits<int>::max()} + 1);
  ASSERT_EQ(from.size(), to.size());
  std::string past = widest.str();
  past.replace(past.find(from), from.size(), to);
  std::stringstream past_int(past);
  EXPECT_FALSE(read_log(past_int).has_value());

  // Twelve bytes that declare a 1 GiB body: rejected without allocating
  // the claim.
  const std::uint64_t claim = std::uint64_t{1} << 30;
  std::string header = "DLC2";
  header.append(reinterpret_cast<const char*>(&claim), sizeof(claim));
  const long rss_before = peak_rss_kib();
  std::stringstream huge(header);
  EXPECT_FALSE(read_log(huge).has_value());
  EXPECT_LT(peak_rss_kib() - rss_before, 64 * 1024);
}

TEST(Log, TextDumpMentionsKeyFields) {
  Fixture fx(1);
  fx.engine.spawn(simple_posix_session(*fx.runtime, 0));
  fx.engine.run();
  const std::string text = log_to_text(fx.runtime->finalize());
  EXPECT_NE(text.find("POSIX"), std::string::npos);
  EXPECT_NE(text.find("/scratch/data.out"), std::string::npos);
  EXPECT_NE(text.find("bytes_written=2000"), std::string::npos);
}

TEST(ModuleNames, RoundTrip) {
  for (std::size_t i = 0; i < kModuleCount; ++i) {
    const auto m = static_cast<Module>(i);
    Module parsed;
    ASSERT_TRUE(module_from_name(module_name(m), parsed));
    EXPECT_EQ(parsed, m);
  }
  Module m;
  EXPECT_FALSE(module_from_name("NOPE", m));
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const auto op = static_cast<Op>(i);
    Op parsed;
    ASSERT_TRUE(op_from_name(op_name(op), parsed));
    EXPECT_EQ(parsed, op);
  }
}

TEST(SizeBins, EdgesMatchDarshan) {
  EXPECT_EQ(size_bin_index(0), 0u);
  EXPECT_EQ(size_bin_index(100), 0u);
  EXPECT_EQ(size_bin_index(101), 1u);
  EXPECT_EQ(size_bin_index(1024), 1u);
  EXPECT_EQ(size_bin_index(1 << 20), 4u);
  EXPECT_EQ(size_bin_index(16u << 20), 7u);
  EXPECT_EQ(size_bin_index(2ull << 30), 9u);
  EXPECT_EQ(size_bin_name(0), "0_100");
  EXPECT_EQ(size_bin_name(9), "1G_PLUS");
}


// ------------------------------------------------------------- derived ----

TEST(Derived, SharedRecordReductionMergesRanks) {
  Fixture fx(2);
  fx.engine.spawn(simple_posix_session(*fx.runtime, 0));
  fx.engine.spawn(simple_posix_session(*fx.runtime, 1));
  fx.engine.run();
  const Log log = fx.runtime->finalize();
  ASSERT_EQ(log.records.size(), 2u);

  const Log reduced = reduce_shared_records(log);
  ASSERT_EQ(reduced.records.size(), 1u);
  const auto& entry = reduced.records[0];
  EXPECT_EQ(entry.record.rank, -1);  // shared marker
  EXPECT_EQ(entry.record.counters.opens, 2);
  EXPECT_EQ(entry.record.counters.writes, 4);
  EXPECT_EQ(entry.record.counters.bytes_written, 4000u);
  // DXT segments concatenated and time-sorted.
  ASSERT_EQ(entry.dxt.size(), 6u);
  for (std::size_t i = 1; i < entry.dxt.size(); ++i) {
    EXPECT_LE(entry.dxt[i - 1].start, entry.dxt[i].start);
  }
}

TEST(Derived, ReductionKeepsDistinctFilesApart) {
  Fixture fx(1);
  auto proc = [](Runtime& rt) -> sim::Task<void> {
    RankIo io = rt.rank(0);
    Fd a = co_await io.open(Module::kPosix, "/a", true);
    co_await io.write(a, 10);
    co_await io.close(a);
    Fd b = co_await io.open(Module::kPosix, "/b", true);
    co_await io.read(b, 10);
    co_await io.close(b);
  };
  fx.engine.spawn(proc(*fx.runtime));
  fx.engine.run();
  const Log reduced = reduce_shared_records(fx.runtime->finalize());
  EXPECT_EQ(reduced.records.size(), 2u);
  for (const auto& e : reduced.records) {
    EXPECT_EQ(e.record.rank, 0);  // single-rank records keep their rank
  }
}

TEST(Derived, PerfEstimateUsesSlowestRank) {
  Log log;
  log.nprocs = 2;
  Log::RecordEntry fast;
  fast.record.rank = 0;
  fast.record.counters.bytes_written = 100 * 1024 * 1024;
  fast.record.counters.f_write_time = 1.0;
  Log::RecordEntry slow;
  slow.record.rank = 1;
  slow.record.counters.bytes_written = 100 * 1024 * 1024;
  slow.record.counters.f_write_time = 4.0;
  log.records = {fast, slow};

  const PerfEstimate est = estimate_performance(log);
  EXPECT_EQ(est.total_bytes, 200ull * 1024 * 1024);
  EXPECT_EQ(est.slowest_rank, 1);
  EXPECT_DOUBLE_EQ(est.slowest_rank_io_time, 4.0);
  EXPECT_DOUBLE_EQ(est.agg_perf_by_slowest_mibs, 200.0 / 4.0);
}

TEST(Derived, PerfEstimateEmptyLog) {
  const PerfEstimate est = estimate_performance(Log{});
  EXPECT_EQ(est.total_bytes, 0u);
  EXPECT_DOUBLE_EQ(est.agg_perf_by_slowest_mibs, 0.0);
}

TEST(Derived, FileCountSummaryCategorises) {
  Fixture fx(2);
  auto proc = [](Runtime& rt, int rank) -> sim::Task<void> {
    RankIo io = rt.rank(rank);
    // Shared read/write file.
    Fd shared = co_await io.open(Module::kPosix, "/shared", true);
    co_await io.write(shared, 10);
    co_await io.read_at(shared, 0, 5);
    co_await io.close(shared);
    if (rank == 0) {
      // Rank-private write-only and read-only files.
      Fd w = co_await io.open(Module::kPosix, "/write-only", true);
      co_await io.write(w, 10);
      co_await io.close(w);
      Fd r = co_await io.open(Module::kPosix, "/read-only", false);
      co_await io.read(r, 10);
      co_await io.close(r);
    }
  };
  fx.engine.spawn(proc(*fx.runtime, 0));
  fx.engine.spawn(proc(*fx.runtime, 1));
  fx.engine.run();
  const FileCountSummary summary = count_files(fx.runtime->finalize());
  EXPECT_EQ(summary.total, 3u);
  EXPECT_EQ(summary.read_write, 1u);
  EXPECT_EQ(summary.write_only, 1u);
  EXPECT_EQ(summary.read_only, 1u);
  EXPECT_EQ(summary.shared, 1u);
}

TEST(Derived, ModuleTotalsSplitByLayer) {
  Fixture fx(1);
  auto proc = [](Runtime& rt) -> sim::Task<void> {
    RankIo io = rt.rank(0);
    Fd p = co_await io.open(Module::kPosix, "/p", true);
    co_await io.write(p, 100);
    co_await io.close(p);
    Fd s = co_await io.open(Module::kStdio, "/s", false);
    co_await io.read(s, 50);
    co_await io.close(s);
  };
  fx.engine.spawn(proc(*fx.runtime));
  fx.engine.run();
  const auto totals = module_totals(fx.runtime->finalize());
  ASSERT_TRUE(totals.contains("POSIX"));
  ASSERT_TRUE(totals.contains("STDIO"));
  EXPECT_EQ(totals.at("POSIX").bytes_written, 100u);
  EXPECT_EQ(totals.at("POSIX").reads, 0);
  EXPECT_EQ(totals.at("STDIO").bytes_read, 50u);
  EXPECT_GT(totals.at("STDIO").read_time, 0.0);
}


TEST(Derived, RegressionDetection) {
  auto log_with_perf = [](double io_time) {
    Log log;
    Log::RecordEntry entry;
    entry.record.rank = 0;
    entry.record.counters.bytes_written = 1024ull * 1024 * 1024;
    entry.record.counters.f_write_time = io_time;
    log.records.push_back(entry);
    return log;
  };
  // History around 1024 MiB/s (1 GiB in ~1 s).
  const std::vector<Log> history = {log_with_perf(1.0), log_with_perf(1.1),
                                    log_with_perf(0.9), log_with_perf(1.05)};
  // A current run 3x slower -> regression.
  const RegressionReport bad =
      check_regression(history, log_with_perf(3.0), 0.8);
  EXPECT_TRUE(bad.is_regression);
  EXPECT_LT(bad.ratio, 0.5);
  EXPECT_NEAR(bad.baseline_mibs, 1024.0 / 1.025, 1.0);
  // A normal run -> no regression.
  const RegressionReport ok =
      check_regression(history, log_with_perf(1.02), 0.8);
  EXPECT_FALSE(ok.is_regression);
  EXPECT_NEAR(ok.ratio, 1.0, 0.15);
}

TEST(Derived, RegressionNeedsHistory) {
  Log log;
  Log::RecordEntry entry;
  entry.record.counters.bytes_written = 1000;
  entry.record.counters.f_write_time = 1.0;
  log.records.push_back(entry);
  const RegressionReport r = check_regression({log}, log, 0.8);
  EXPECT_FALSE(r.is_regression);
  EXPECT_EQ(r.baseline_mibs, 0.0);
  // Degenerate current run (no I/O time) is never flagged.
  const RegressionReport r2 = check_regression({log, log}, Log{}, 0.8);
  EXPECT_FALSE(r2.is_regression);
}


// -------------------------------------------------------- log encoding ----

TEST(LogCompress, VarintRoundTrip) {
  for (const std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 21, 1ull << 35,
        ~0ull}) {
    std::string buf;
    wire::put_varint(buf, v);
    wire::Reader in(buf);
    EXPECT_EQ(in.varint(), v);
    EXPECT_TRUE(in.ok()) << v;
    EXPECT_TRUE(in.done()) << v;
  }
  // Truncated input fails cleanly.
  std::string buf;
  wire::put_varint(buf, 1ull << 40);
  buf.pop_back();
  wire::Reader in(buf);
  in.varint();
  EXPECT_FALSE(in.ok());
}

TEST(LogCompress, ZigzagRoundTrip) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{63},
        std::int64_t{-64}, std::int64_t{1} << 40, -(std::int64_t{1} << 40),
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(wire::zigzag_decode(wire::zigzag_encode(v)), v) << v;
  }
  // Small magnitudes encode small.
  EXPECT_LT(wire::zigzag_encode(-2), 8u);
}

TEST(LogCompress, RoundTripEqualsUncompressed) {
  Fixture fx(2);
  auto proc = [](Runtime& rt, int rank) -> sim::Task<void> {
    RankIo io = rt.rank(rank);
    const Fd fd = co_await io.open(Module::kPosix, "/c/data", true);
    for (int i = 0; i < 50; ++i) co_await io.write(fd, 4096);
    for (int i = 0; i < 20; ++i) co_await io.read_at(fd, i * 4096ull, 4096);
    co_await io.close(fd);
  };
  fx.engine.spawn(proc(*fx.runtime, 0));
  fx.engine.spawn(proc(*fx.runtime, 1));
  fx.engine.run();
  const Log original = fx.runtime->finalize();

  std::stringstream stream;
  write_log(original, stream);
  const auto parsed = read_log(stream);
  ASSERT_TRUE(parsed.has_value());
  expect_same_log(*parsed, original);
}

TEST(LogCompress, CompressesDxtHeavyLogs) {
  Fixture fx(1);
  auto proc = [](Runtime& rt) -> sim::Task<void> {
    RankIo io = rt.rank(0);
    const Fd fd = co_await io.open(Module::kPosix, "/c/data", true);
    for (int i = 0; i < 2000; ++i) co_await io.write(fd, 4096);
    co_await io.close(fd);
  };
  fx.engine.spawn(proc(*fx.runtime));
  fx.engine.run();
  const Log log = fx.runtime->finalize();

  std::size_t segments = 0;
  for (const Log::RecordEntry& entry : log.records) {
    segments += entry.dxt.size();
  }
  ASSERT_GE(segments, 2000u);
  // A fixed-width segment takes 33 bytes; the deltas take under half.
  std::stringstream packed;
  write_log(log, packed);
  EXPECT_LT(static_cast<double>(packed.str().size()),
            16.5 * static_cast<double>(segments))
      << "packed=" << packed.str().size() << " segments=" << segments;
}

TEST(LogCompress, RejectsCorruptInput) {
  std::stringstream empty;
  EXPECT_FALSE(read_log(empty).has_value());
  std::stringstream wrong_magic("DLCLxxxxxxx");
  EXPECT_FALSE(read_log(wrong_magic).has_value());
  Fixture fx(1);
  fx.engine.spawn(simple_posix_session(*fx.runtime, 0));
  fx.engine.run();
  std::stringstream full;
  write_log(fx.runtime->finalize(), full);
  const std::string bytes = full.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() * 2 / 3));
  EXPECT_FALSE(read_log(truncated).has_value());
}


TEST(Derived, AccessPatternClassifiesSequentialRun) {
  Fixture fx(1);
  auto proc = [](Runtime& rt) -> sim::Task<void> {
    RankIo io = rt.rank(0);
    const Fd fd = co_await io.open(Module::kPosix, "/seq", true);
    for (int i = 0; i < 50; ++i) co_await io.write(fd, 1 << 20);  // cursor
    co_await io.close(fd);
  };
  fx.engine.spawn(proc(*fx.runtime));
  fx.engine.run();
  const AccessPattern p = access_pattern_summary(fx.runtime->finalize());
  EXPECT_EQ(p.total_writes, 50);
  EXPECT_GT(p.consec_write_pct, 90.0);  // 49 of 50 follow directly
  EXPECT_EQ(p.classification, "sequential");
  EXPECT_EQ(p.common_write_size, "100K_1M");  // 1 MiB falls in (100K,1M]
}

TEST(Derived, AccessPatternClassifiesRandomRun) {
  Fixture fx(1);
  auto proc = [](Runtime& rt) -> sim::Task<void> {
    RankIo io = rt.rank(0);
    const Fd fd = co_await io.open(Module::kPosix, "/rand", true);
    Rng rng(3);
    std::uint64_t prev = 1u << 30;
    for (int i = 0; i < 60; ++i) {
      // Strictly decreasing offsets: never sequential.
      prev -= static_cast<std::uint64_t>(rng.uniform_int(4096, 1 << 20));
      co_await io.write_at(fd, prev, 512);
    }
    co_await io.close(fd);
  };
  fx.engine.spawn(proc(*fx.runtime));
  fx.engine.run();
  const AccessPattern p = access_pattern_summary(fx.runtime->finalize());
  EXPECT_EQ(p.classification, "random");
  EXPECT_LT(p.seq_write_pct, 10.0);
}

TEST(Derived, AccessPatternEmptyLog) {
  const AccessPattern p = access_pattern_summary(Log{});
  EXPECT_EQ(p.classification, "no-io");
  EXPECT_TRUE(p.common_read_size.empty());
}

}  // namespace
}  // namespace dlc::darshan
