// Tests for the Darshan-LDMS Connector: message schema (Fig. 3 / Table I),
// MET/MOD typing, N/A|-1 fill, sampling, cost charging, ablation modes,
// decoder and end-to-end mini pipeline into DSOS.
#include <gtest/gtest.h>

#include <memory>

#include "core/connector.hpp"
#include "core/decoder.hpp"
#include "core/schema_darshan.hpp"
#include "json/parser.hpp"
#include "json/scan.hpp"
#include "ldms/store.hpp"
#include "sim/engine.hpp"
#include "simfs/nfs.hpp"
#include "simhpc/cluster.hpp"
#include "simhpc/job.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "wire/codec.hpp"

namespace dlc::core {
namespace {

using darshan::Fd;
using darshan::Module;

struct Pipeline {
  sim::Engine engine;
  simhpc::Cluster cluster{simhpc::ClusterConfig{.node_count = 4,
                                                .first_node_id = 40,
                                                .node_prefix = "nid"}};
  std::shared_ptr<simfs::VariabilityProcess> variability;
  std::unique_ptr<simfs::NfsModel> fs;
  std::unique_ptr<simhpc::Job> job;
  std::unique_ptr<darshan::Runtime> runtime;
  std::vector<std::unique_ptr<ldms::LdmsDaemon>> node_daemons;
  std::unique_ptr<ldms::LdmsDaemon> aggregator;
  std::unique_ptr<DarshanLdmsConnector> connector;

  static const std::string& store_row_or(const ldms::CsvStore& store,
                                         std::size_t index) {
    static const std::string kEmpty;
    return index < store.rows().size() ? store.rows()[index] : kEmpty;
  }

  explicit Pipeline(ConnectorConfig ccfg = {}, std::size_t ranks = 2) {
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
    jcfg.uid = 99066;
    jcfg.node_count = ranks;
    jcfg.ranks_per_node = 1;
    job = std::make_unique<simhpc::Job>(engine, cluster, jcfg);
    darshan::RuntimeConfig rcfg;
    rcfg.exe = "/home/user/mpi-io-test";
    runtime = std::make_unique<darshan::Runtime>(engine, *fs, *job, rcfg);
    for (std::size_t n = 0; n < cluster.node_count(); ++n) {
      node_daemons.push_back(
          std::make_unique<ldms::LdmsDaemon>(&engine, cluster.node_name(n)));
    }
    aggregator = std::make_unique<ldms::LdmsDaemon>(&engine, "shirley");
    for (auto& d : node_daemons) {
      d->add_forward(ccfg.stream_tag, *aggregator,
                     ldms::ForwardConfig{.queue_capacity = 1 << 20,
                                         .hop_latency = 10 * kMicrosecond,
                                         .bandwidth_bytes_per_sec = 0});
    }
    connector = std::make_unique<DarshanLdmsConnector>(
        *runtime,
        [this](int rank) {
          return node_daemons[job->node_of_rank(
                                  static_cast<std::size_t>(rank))]
              .get();
        },
        ccfg);
  }
};

sim::Task<void> session(darshan::Runtime& rt, int rank) {
  darshan::RankIo io = rt.rank(rank);
  const Fd fd = co_await io.open(Module::kPosix, "/scratch/out.dat", true);
  co_await io.write(fd, 1 << 20);
  co_await io.read_at(fd, 0, 4096);
  co_await io.close(fd);
}

TEST(Connector, MessageMatchesFig3Schema) {
  Pipeline p;
  ldms::CsvStore store;
  store.attach(*p.aggregator, "darshanConnector");
  p.engine.spawn(session(*p.runtime, 0));
  p.engine.run();

  ASSERT_EQ(store.rows().size(), 4u);  // open, write, read, close
  const auto open_msg = json::parse(store.rows()[0]);
  ASSERT_TRUE(open_msg.has_value());
  EXPECT_EQ(open_msg->get_uint("uid"), 99066u);
  EXPECT_EQ(open_msg->get_string("exe"), "/home/user/mpi-io-test");
  EXPECT_EQ(open_msg->get_uint("job_id"), 259903u);
  EXPECT_EQ(open_msg->get_int("rank"), 0);
  EXPECT_EQ(open_msg->get_string("ProducerName"), "nid00040");
  EXPECT_EQ(open_msg->get_string("file"), "/scratch/out.dat");
  EXPECT_EQ(open_msg->get_uint("record_id"), fnv1a64("/scratch/out.dat"));
  EXPECT_EQ(open_msg->get_string("module"), "POSIX");
  EXPECT_EQ(open_msg->get_string("type"), "MET");
  EXPECT_EQ(open_msg->get_int("max_byte"), -1);
  EXPECT_EQ(open_msg->get_int("switches"), -1);
  EXPECT_EQ(open_msg->get_int("flushes"), -1);
  EXPECT_EQ(open_msg->get_int("cnt"), 1);
  EXPECT_EQ(open_msg->get_string("op"), "open");
  const auto& seg = open_msg->find("seg")->as_array();
  ASSERT_EQ(seg.size(), 1u);
  EXPECT_EQ(seg[0].get_string("data_set"), "N/A");
  EXPECT_EQ(seg[0].get_int("pt_sel"), -1);
  EXPECT_EQ(seg[0].get_int("ndims"), -1);
  EXPECT_EQ(seg[0].get_int("len"), -1);
  EXPECT_GT(seg[0].get_double("timestamp"), 1.6e9);  // absolute epoch time
}

TEST(Connector, ModMessagesElideMetadata) {
  Pipeline p;
  ldms::CsvStore store;
  store.attach(*p.aggregator, "darshanConnector");
  p.engine.spawn(session(*p.runtime, 0));
  p.engine.run();
  const auto write_msg = json::parse(store.rows()[1]);
  EXPECT_EQ(write_msg->get_string("type"), "MOD");
  EXPECT_EQ(write_msg->get_string("exe"), "N/A");
  EXPECT_EQ(write_msg->get_string("file"), "N/A");
  EXPECT_EQ(write_msg->get_string("op"), "write");
  EXPECT_EQ(write_msg->get_int("max_byte"), (1 << 20) - 1);
  EXPECT_EQ(write_msg->get_int("switches"), 0);
  const auto& seg = write_msg->find("seg")->as_array();
  EXPECT_EQ(seg[0].get_int("off"), 0);
  EXPECT_EQ(seg[0].get_int("len"), 1 << 20);
  EXPECT_GT(seg[0].get_double("dur"), 0.0);
}

TEST(Connector, ProducerNameTracksRankNode) {
  Pipeline p(ConnectorConfig{}, 2);
  ldms::CsvStore store;
  store.attach(*p.aggregator, "darshanConnector");
  p.engine.spawn(session(*p.runtime, 0));
  p.engine.spawn(session(*p.runtime, 1));
  p.engine.run();
  int saw_40 = 0, saw_41 = 0;
  for (const auto& row : store.rows()) {
    const auto msg = json::parse(row);
    const auto producer = msg->get_string("ProducerName");
    saw_40 += producer == "nid00040";
    saw_41 += producer == "nid00041";
  }
  EXPECT_EQ(saw_40, 4);
  EXPECT_EQ(saw_41, 4);
}

TEST(Connector, ChargesFormattingCostToVirtualTime) {
  ConnectorConfig on;
  on.charge_costs = true;
  ConnectorConfig off;
  off.charge_costs = false;
  SimTime with_cost, without_cost;
  {
    Pipeline p(on, 1);
    p.engine.spawn(session(*p.runtime, 0));
    p.engine.run();
    with_cost = p.engine.now();
    EXPECT_GT(p.connector->stats().charged, 0);
  }
  {
    Pipeline p(off, 1);
    p.engine.spawn(session(*p.runtime, 0));
    p.engine.run();
    without_cost = p.engine.now();
    EXPECT_EQ(p.connector->stats().charged, 0);
  }
  EXPECT_GT(with_cost, without_cost);
}

TEST(Connector, NoneModeSkipsFormattingButPublishes) {
  ConnectorConfig cfg;
  cfg.format = FormatMode::kNone;
  Pipeline p(cfg, 1);
  ldms::CountingStore store;
  store.attach(*p.aggregator, "darshanConnector");
  p.engine.spawn(session(*p.runtime, 0));
  p.engine.run();
  EXPECT_EQ(store.stored(), 4u);
  // Only the publish cost is charged: far below one format_base per event.
  EXPECT_LT(p.connector->stats().charged,
            4 * p.connector->config().costs.format_base);
  EXPECT_EQ(p.connector->stats().charged,
            4 * p.connector->config().costs.publish_cost);
}

TEST(Connector, FastJsonCostsLessThanSnprintf) {
  ConnectorConfig slow;
  slow.format = FormatMode::kSnprintfJson;
  ConnectorConfig fast;
  fast.format = FormatMode::kFastJson;
  SimDuration slow_charge, fast_charge;
  {
    Pipeline p(slow, 1);
    p.engine.spawn(session(*p.runtime, 0));
    p.engine.run();
    slow_charge = p.connector->stats().charged;
  }
  {
    Pipeline p(fast, 1);
    p.engine.spawn(session(*p.runtime, 0));
    p.engine.run();
    fast_charge = p.connector->stats().charged;
  }
  EXPECT_LT(fast_charge, slow_charge / 4);
}

TEST(Connector, SamplingPublishesEveryNth) {
  ConnectorConfig cfg;
  cfg.sample_every_n = 4;
  Pipeline p(cfg, 1);
  ldms::CountingStore store;
  store.attach(*p.aggregator, "darshanConnector");
  auto many_ops = [](darshan::Runtime& rt) -> sim::Task<void> {
    darshan::RankIo io = rt.rank(0);
    const Fd fd = co_await io.open(Module::kPosix, "/f", true);
    for (int i = 0; i < 16; ++i) co_await io.write(fd, 100);
    co_await io.close(fd);
  };
  p.engine.spawn(many_ops(*p.runtime));
  p.engine.run();
  // open + close always published; 16 writes sampled 1-in-4.
  EXPECT_EQ(p.connector->stats().events_seen, 18u);
  EXPECT_EQ(p.connector->stats().messages_published, 2u + 4u);
  EXPECT_EQ(p.connector->stats().events_sampled_out, 12u);
  EXPECT_EQ(store.stored(), 6u);
}

TEST(Connector, SamplingReducesCharge) {
  auto run_with_n = [](std::uint64_t n) {
    ConnectorConfig cfg;
    cfg.sample_every_n = n;
    Pipeline p(cfg, 1);
    auto many_ops = [](darshan::Runtime& rt) -> sim::Task<void> {
      darshan::RankIo io = rt.rank(0);
      const Fd fd = co_await io.open(Module::kPosix, "/f", true);
      for (int i = 0; i < 100; ++i) co_await io.write(fd, 100);
      co_await io.close(fd);
    };
    p.engine.spawn(many_ops(*p.runtime));
    p.engine.run();
    return p.connector->stats().charged;
  };
  const auto full = run_with_n(1);
  const auto tenth = run_with_n(10);
  EXPECT_LT(tenth, full / 5);
}

TEST(Connector, PublishDisabledObservesOnly) {
  ConnectorConfig cfg;
  cfg.publish = false;
  Pipeline p(cfg, 1);
  ldms::CountingStore store;
  store.attach(*p.aggregator, "darshanConnector");
  p.engine.spawn(session(*p.runtime, 0));
  p.engine.run();
  EXPECT_EQ(store.stored(), 0u);
  EXPECT_EQ(p.connector->stats().events_seen, 4u);
  EXPECT_EQ(p.connector->stats().messages_published, 0u);
}

// ------------------------------------------------------------- decoder ----

TEST(Decoder, DecodesConnectorMessage) {
  Pipeline p;
  dsos::DsosCluster cluster(dsos::ClusterConfig{.shard_count = 2,
                                                .shard_attr = "rank",
                                                .parallel_query = false});
  DarshanDecoder decoder(*p.aggregator, "darshanConnector", cluster);
  p.engine.spawn(session(*p.runtime, 0));
  p.engine.run();
  EXPECT_EQ(decoder.decoded(), 4u);
  EXPECT_EQ(decoder.malformed(), 0u);
  EXPECT_EQ(cluster.total_objects(), 4u);

  const auto rows = cluster.query("darshan_data", "job_rank_time");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0]->as_string("op"), "open");
  EXPECT_EQ(rows[0]->as_string("type"), "MET");
  EXPECT_EQ(rows[3]->as_string("op"), "close");
  EXPECT_EQ(rows[1]->as_uint("record_id"), fnv1a64("/scratch/out.dat"));
  // Timestamps strictly increase along the rank's timeline.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i]->as_double("seg_timestamp"),
              rows[i - 1]->as_double("seg_timestamp"));
  }
}

TEST(Decoder, RejectsMalformedPayloads) {
  dsos::DsosCluster cluster(dsos::ClusterConfig{.shard_count = 1,
                                                .shard_attr = "rank",
                                                .parallel_query = false});
  sim::Engine engine;
  ldms::LdmsDaemon daemon(&engine, "d");
  DarshanDecoder decoder(daemon, "t", cluster);
  // Unknown members nested past the scanner's depth bound: 100,000
  // arrays (~200 KB, too deep to parse without a bound), and
  // kMaxDepth + 2, which the DOM would decode.  The decoder has no DOM
  // fallback, so both count as malformed.
  const auto nested = [](std::size_t depth) {
    return R"({"x":)" + std::string(depth, '[') + std::string(depth, ']') +
           R"(,"seg":[{"timestamp":1.0}]})";
  };
  const std::string deep = nested(100000);
  const std::string past_scanner = nested(json::Scanner::kMaxDepth + 2);
  ASSERT_EQ(decode_message(darshan_data_schema(), past_scanner).size(), 1u);
  auto proc = [&](ldms::LdmsDaemon& d) -> sim::Task<void> {
    d.publish("t", ldms::PayloadFormat::kJson, "{not json");
    d.publish("t", ldms::PayloadFormat::kJson, "{\"no\":\"seg\"}");
    d.publish("t", ldms::PayloadFormat::kString, "plain");
    d.publish("t", ldms::PayloadFormat::kJson, deep);
    d.publish("t", ldms::PayloadFormat::kJson, past_scanner);
    co_return;
  };
  engine.spawn(proc(daemon));
  engine.run();
  EXPECT_EQ(decoder.decoded(), 0u);
  EXPECT_EQ(decoder.malformed(), 5u);
}

TEST(Decoder, CsvRowMatchesHeaderArity) {
  const auto schema = darshan_data_schema();
  const std::string header(darshan_csv_header());
  const auto msgs = decode_message(
      schema,
      R"({"uid":1,"exe":"/e","job_id":2,"rank":0,"ProducerName":"n","file":"/f",)"
      R"("record_id":3,"module":"POSIX","type":"MET","max_byte":-1,)"
      R"("switches":-1,"flushes":-1,"cnt":1,"op":"open",)"
      R"("seg":[{"data_set":"N/A","pt_sel":-1,"irreg_hslab":-1,"reg_hslab":-1,)"
      R"("ndims":-1,"npoints":-1,"off":-1,"len":-1,"dur":0.1,"timestamp":1.5}]})");
  ASSERT_EQ(msgs.size(), 1u);
  const std::string row = to_csv_row(msgs[0]);
  EXPECT_EQ(dlc::split(row, ',').size(), dlc::split(header, ',').size());
}

TEST(Decoder, MultiSegmentMessagesFlatten) {
  const auto schema = darshan_data_schema();
  const auto msgs = decode_message(
      schema,
      R"({"uid":1,"exe":"N/A","job_id":2,"rank":0,"ProducerName":"n",)"
      R"("file":"N/A","record_id":3,"module":"POSIX","type":"MOD",)"
      R"("max_byte":99,"switches":0,"flushes":-1,"cnt":2,"op":"write",)"
      R"("seg":[{"off":0,"len":50,"dur":0.1,"timestamp":1.0},)"
      R"({"off":50,"len":50,"dur":0.2,"timestamp":2.0}]})");
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].as_int("seg_off"), 0);
  EXPECT_EQ(msgs[1].as_int("seg_off"), 50);
  // Missing HDF5 fields fall back to sentinels.
  EXPECT_EQ(msgs[0].as_int("seg_ndims"), -1);
  EXPECT_EQ(msgs[0].as_string("seg_data_set"), "N/A");
}

// One single-event binary frame; `end` varies the payload slightly.
std::string one_event_frame(SimTime end) {
  wire::EncodeContext ctx;
  ctx.uid = 1;
  ctx.job_id = 2;
  ctx.exe = "/e";
  ctx.epoch_seconds = 0.0;
  wire::FrameEncoder enc(ctx);
  darshan::IoEvent e;
  e.module = Module::kPosix;
  e.op = darshan::Op::kWrite;
  e.rank = 0;
  e.record_id = 7;
  e.cnt = 1;
  e.start = end - kMicrosecond;
  e.end = end;
  enc.add(e, "nid1");
  return enc.take_frame();
}

ldms::StreamMessage sequenced_frame(std::uint64_t seq) {
  ldms::StreamMessage msg;
  msg.tag = "t";
  msg.format = ldms::PayloadFormat::kBinary;
  msg.payload = one_event_frame(static_cast<SimTime>(seq) * kMillisecond);
  msg.producer = "nid1";
  msg.seq = seq;
  return msg;
}

TEST(Decoder, OutOfOrderBinaryFramesDecodeIndependently) {
  dsos::DsosCluster cluster(dsos::ClusterConfig{.shard_count = 1,
                                                .shard_attr = "rank",
                                                .parallel_query = false});
  sim::Engine engine;
  ldms::LdmsDaemon daemon(&engine, "d");
  DarshanDecoder decoder(daemon, "t", cluster, /*dedup_redelivered=*/true);
  // Arrival order 2, 1, 3: frames are self-contained, so reordering can
  // never corrupt decode — every row lands, and the tracker records the
  // straggler.
  daemon.bus().publish(sequenced_frame(2));
  daemon.bus().publish(sequenced_frame(1));
  daemon.bus().publish(sequenced_frame(3));
  EXPECT_EQ(decoder.decoded(), 3u);
  EXPECT_EQ(decoder.malformed(), 0u);
  EXPECT_EQ(decoder.duplicates_dropped(), 0u);
  const auto* st = decoder.tracker().stats("nid1");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->unique, 3u);
  EXPECT_EQ(st->reordered, 1u);
  EXPECT_EQ(st->lost(), 0u);
}

TEST(Decoder, DuplicatedBinaryFramesAreDroppedWhenDedupEnabled) {
  dsos::DsosCluster cluster(dsos::ClusterConfig{.shard_count = 1,
                                                .shard_attr = "rank",
                                                .parallel_query = false});
  sim::Engine engine;
  ldms::LdmsDaemon daemon(&engine, "d");
  DarshanDecoder decoder(daemon, "t", cluster, /*dedup_redelivered=*/true);
  daemon.bus().publish(sequenced_frame(1));
  daemon.bus().publish(sequenced_frame(2));
  daemon.bus().publish(sequenced_frame(1));  // at-least-once redelivery
  daemon.bus().publish(sequenced_frame(2));
  EXPECT_EQ(decoder.decoded(), 2u);  // each unique frame ingested once
  EXPECT_EQ(decoder.duplicates_dropped(), 2u);
  EXPECT_EQ(cluster.total_objects(), 2u);
  EXPECT_EQ(decoder.tracker().stats("nid1")->duplicates, 2u);
}

TEST(Decoder, DuplicatesIngestButAreCountedWhenDedupDisabled) {
  dsos::DsosCluster cluster(dsos::ClusterConfig{.shard_count = 1,
                                                .shard_attr = "rank",
                                                .parallel_query = false});
  sim::Engine engine;
  ldms::LdmsDaemon daemon(&engine, "d");
  DarshanDecoder decoder(daemon, "t", cluster);  // best-effort default
  daemon.bus().publish(sequenced_frame(1));
  daemon.bus().publish(sequenced_frame(1));
  // Historical behaviour preserved: both copies land in DSOS...
  EXPECT_EQ(decoder.decoded(), 2u);
  EXPECT_EQ(decoder.duplicates_dropped(), 0u);
  // ...but the tracker still makes the duplication visible.
  EXPECT_EQ(decoder.tracker().stats("nid1")->duplicates, 1u);
}

TEST(Schema, JointIndicesExist) {
  const auto schema = darshan_data_schema();
  EXPECT_TRUE(schema->find_index("job_rank_time").has_value());
  EXPECT_TRUE(schema->find_index("job_time_rank").has_value());
  EXPECT_TRUE(schema->find_index("time").has_value());
  EXPECT_EQ(schema->attrs().size(), 24u);
}


// ------------------------------------------------ filters & rate limits ---

TEST(Connector, ModuleFilterDropsOtherModules) {
  ConnectorConfig cfg;
  cfg.module_filter = {darshan::Module::kMpiio};
  Pipeline p(cfg, 1);
  ldms::CsvStore store;
  store.attach(*p.aggregator, "darshanConnector");
  auto proc = [](darshan::Runtime& rt) -> sim::Task<void> {
    darshan::RankIo io = rt.rank(0);
    const Fd posix_fd = co_await io.open(Module::kPosix, "/p", true);
    co_await io.write(posix_fd, 10);
    co_await io.close(posix_fd);
    const Fd mpi_fd = co_await io.open(Module::kMpiio, "/m", true);
    co_await io.write(mpi_fd, 10);
    co_await io.close(mpi_fd);
  };
  p.engine.spawn(proc(*p.runtime));
  p.engine.run();
  // Only the MPIIO-layer events pass (the POSIX sub-event is filtered).
  ASSERT_EQ(store.rows().size(), 3u);
  for (const auto& row : store.rows()) {
    EXPECT_NE(row.find("\"module\":\"MPIIO\""), std::string::npos) << row;
  }
  EXPECT_GT(p.connector->stats().events_sampled_out, 0u);
}

TEST(Connector, RateLimitBoundsPublishRate) {
  ConnectorConfig cfg;
  cfg.min_publish_interval = 10 * kSecond;
  Pipeline p(cfg, 1);
  ldms::CountingStore store;
  store.attach(*p.aggregator, "darshanConnector");
  auto proc = [](darshan::Runtime& rt) -> sim::Task<void> {
    darshan::RankIo io = rt.rank(0);
    const Fd fd = co_await io.open(Module::kPosix, "/f", true);
    // 100 writes in quick succession: far faster than 1 per 10s.
    for (int i = 0; i < 100; ++i) co_await io.write(fd, 100);
    co_await io.close(fd);
  };
  p.engine.spawn(proc(*p.runtime));
  p.engine.run();
  const double runtime_s = to_seconds(p.engine.now());
  const auto data_published = p.connector->stats().messages_published - 2;
  // At most one data event per 10 s window (plus the first).
  EXPECT_LE(static_cast<double>(data_published), runtime_s / 10.0 + 1.0);
  EXPECT_GT(p.connector->stats().events_sampled_out, 50u);
  // Open/close always pass.
  EXPECT_GE(store.stored(), 2u);
}

TEST(Connector, RateLimitAndSamplingCompose) {
  ConnectorConfig cfg;
  cfg.sample_every_n = 2;
  cfg.min_publish_interval = kSecond;
  Pipeline p(cfg, 1);
  auto proc = [](darshan::Runtime& rt) -> sim::Task<void> {
    darshan::RankIo io = rt.rank(0);
    const Fd fd = co_await io.open(Module::kPosix, "/f", true);
    for (int i = 0; i < 20; ++i) co_await io.write(fd, 100);
    co_await io.close(fd);
  };
  p.engine.spawn(proc(*p.runtime));
  p.engine.run();
  // Both mitigations applied: strictly fewer messages than either alone
  // would allow at most.
  EXPECT_LT(p.connector->stats().messages_published, 12u);
  EXPECT_EQ(p.connector->stats().events_seen, 22u);
}



TEST(Connector, MessageFieldOrderMatchesFig3) {
  Pipeline p;
  ldms::CsvStore store;
  store.attach(*p.aggregator, "darshanConnector");
  p.engine.spawn(session(*p.runtime, 0));
  p.engine.run();
  // The paper's sample message (Fig. 3) fixes the field order; verify the
  // raw text, not just the parsed content.
  const std::string& raw = p.store_row_or(store, 0);
  const char* expected_order[] = {"\"uid\":",      "\"exe\":",
                                  "\"job_id\":",   "\"rank\":",
                                  "\"ProducerName\":", "\"file\":",
                                  "\"record_id\":", "\"module\":",
                                  "\"type\":",     "\"max_byte\":",
                                  "\"switches\":", "\"flushes\":",
                                  "\"cnt\":",      "\"op\":",
                                  "\"seg\":"};
  std::size_t pos = 0;
  for (const char* field : expected_order) {
    const std::size_t found = raw.find(field, pos);
    ASSERT_NE(found, std::string::npos) << field << " out of order in " << raw;
    pos = found;
  }
}

TEST(Decoder, FuzzedPayloadsNeverCrash) {
  // Mutate a valid message with random byte edits; the decoder must either
  // decode or count the payload malformed — never throw or crash.
  Pipeline p;
  ldms::CsvStore store;
  store.attach(*p.aggregator, "darshanConnector");
  p.engine.spawn(session(*p.runtime, 0));
  p.engine.run();
  const std::string valid = store.rows()[1];

  const auto schema = darshan_data_schema();
  Rng rng(20260706);
  int decoded = 0, rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = valid;
    const int edits = static_cast<int>(rng.uniform_int(1, 6));
    for (int e = 0; e < edits; ++e) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.uniform_int(32, 126)));
          break;
      }
      if (mutated.empty()) mutated = "x";
    }
    const auto objects = decode_message(schema, mutated);
    objects.empty() ? ++rejected : ++decoded;
  }
  // Most mutations break the JSON; some survive.  Both paths executed.
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(decoded + rejected, 2000);
}

// Renders decoded rows so equivalence checks compare bytes, not spot
// fields.
std::string rows_csv(const std::vector<dsos::Object>& rows) {
  std::string out;
  for (const auto& row : rows) {
    out += to_csv_row(row);
    out += '\n';
  }
  return out;
}

TEST(Decoder, FastPathMatchesDomOnConnectorPayloads) {
  const auto schema = darshan_data_schema();
  const std::vector<std::string> payloads{
      // Canonical single-segment message.
      R"({"uid":1,"exe":"/e","job_id":2,"rank":0,"ProducerName":"n","file":"/f",)"
      R"("record_id":3,"module":"POSIX","type":"MET","max_byte":-1,)"
      R"("switches":-1,"flushes":-1,"cnt":1,"op":"open",)"
      R"("seg":[{"data_set":"N/A","pt_sel":-1,"irreg_hslab":-1,"reg_hslab":-1,)"
      R"("ndims":-1,"npoints":-1,"off":-1,"len":-1,"dur":0.1,"timestamp":1.5}]})",
      // Multi-segment with missing fields (sentinel fallbacks).
      R"({"uid":1,"job_id":2,"rank":3,"module":"MPIIO","type":"MOD","cnt":2,)"
      R"("op":"write","seg":[{"off":0,"len":50,"dur":0.1,"timestamp":1.0},)"
      R"({"off":50,"len":50,"dur":0.2,"timestamp":2.0}]})",
      // Escapes in strings and wrong-typed numeric fields.
      R"({"uid":"not-a-number","exe":"/bin\t\"x\"","job_id":2.75,"rank":-4,)"
      R"("module":"POSIX","type":"MET","op":"open\\close",)"
      R"("seg":[{"dur":"bad","timestamp":3}]})",
      // Duplicate keys: last one wins in both paths.
      R"({"rank":1,"rank":7,"module":"POSIX","op":"open",)"
      R"("seg":[{"timestamp":1.0,"timestamp":2.0}]})",
      // Unknown extra members are skipped (objects, arrays, literals).
      R"({"rank":1,"module":"POSIX","extra":{"a":[1,2,{"b":null}]},)"
      R"("more":true,"seg":[{"timestamp":1.0}]})",
      // Empty segment list decodes to zero rows.
      R"({"rank":1,"module":"POSIX","seg":[]})",
      // Non-object segment entries are skipped, like the DOM loop.
      R"({"rank":1,"module":"POSIX","seg":[1,{"timestamp":2.0},"x"]})",
      // \u escapes (json::Writer emits \u00XX for control bytes), in
      // values and keys: ASCII, two- and three-byte UTF-8, and a lone
      // surrogate half passed through as its own three bytes.
      R"({"op":"\u0041","exe":"/a\u00e9\u20ac\u0001","rank":1,)"
      R"("file":"\ud800","\u0072ank":2,"seg":[{"data_set":"\u00E9",)"
      R"("timestamp":1.0},{"x":"\u0000","timestamp":2.0}]})",
      // The deepest unknown member the scanner skips.
      R"({"x":)" + std::string(json::Scanner::kMaxDepth + 1, '[') +
          std::string(json::Scanner::kMaxDepth + 1, ']') +
          R"(,"seg":[{"timestamp":1.0}]})",
  };
  for (const std::string& payload : payloads) {
    std::vector<dsos::Object> fast;
    ASSERT_TRUE(decode_message_fast(schema, payload, fast)) << payload;
    EXPECT_EQ(rows_csv(fast), rows_csv(decode_message(schema, payload)))
        << payload;
  }
}

TEST(Decoder, FastPathFallsBackOnUnsupportedInput) {
  const auto schema = darshan_data_schema();
  // Malformed JSON, trailing garbage, wrong top-level type, and nesting
  // past Scanner::kMaxDepth: the scanner refuses (the decoder counts the
  // payload malformed), never mis-decodes.
  const std::string too_deep(json::Scanner::kMaxDepth + 2, '[');
  const std::vector<std::string> rejected{
      R"({"rank":1,"seg":[{"timestamp":1.0}]} trailing)",
      R"({"rank":1,"seg":[{"timestamp":1.0})",
      R"([{"rank":1}])",
      R"({"rank":1 "seg":[]})",
      R"({"op":"\u00G1","seg":[{"timestamp":1.0}]})",
      R"({"op":"\u00e","seg":[{"timestamp":1.0}]})",
      R"({"x":)" + too_deep + std::string(too_deep.size(), ']') +
          R"(,"seg":[{"timestamp":1.0}]})",
  };
  for (const std::string& payload : rejected) {
    std::vector<dsos::Object> fast;
    EXPECT_FALSE(decode_message_fast(schema, payload, fast)) << payload;
  }
}

TEST(Decoder, FastPathEquivalentUnderFuzzedMutation) {
  // Property: whenever the zero-copy scanner accepts a payload, its rows
  // are byte-identical to the DOM decoder's.  Mutations exercise partial
  // JSON, shuffled types, and broken numbers.
  Pipeline p;
  ldms::CsvStore store;
  store.attach(*p.aggregator, "darshanConnector");
  p.engine.spawn(session(*p.runtime, 0));
  p.engine.run();
  const std::string valid = store.rows()[1];

  const auto schema = darshan_data_schema();
  Rng rng(20260807);
  int fast_ok = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = valid;
    const int edits = static_cast<int>(rng.uniform_int(1, 6));
    for (int e = 0; e < edits; ++e) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.uniform_int(32, 126)));
          break;
      }
      if (mutated.empty()) mutated = "x";
    }
    std::vector<dsos::Object> fast;
    if (decode_message_fast(schema, mutated, fast)) {
      ++fast_ok;
      ASSERT_EQ(rows_csv(fast), rows_csv(decode_message(schema, mutated)))
          << mutated;
    }
  }
  EXPECT_GT(fast_ok, 0);  // the equivalence branch actually executed
}

TEST(Decoder, NumberTokensAgreeAcrossSkipScanParseAndRows) {
  // One number grammar (json/number.hpp): skip_value, which validates
  // without converting, must accept exactly the tokens scan_token and
  // json::parse accept.  Each token also rides a payload three ways:
  // skipped (an unknown top-level member), spanned then skipped (an
  // unknown seg member), spanned then decoded (seg "dur"), and decoded
  // into the integer fields "rank" (int64) and "record_id" (uint64),
  // where a double out of range yields the field's fallback.
  struct Case {
    const char* token;
    bool number;
  };
  const Case cases[] = {
      {"1e", false},
      {"1e+", false},
      {"-", false},
      {".", false},
      {"-.", false},
      {"-e5", false},
      {".5", true},
      {"1.", true},
      {"1.e5", true},
      {"-0", true},
      {"1E+2", true},
      {"18446744073709551616", true},
      {"1e400", true},
      {"-1e400", true},
      {"-5.0", true},
      {"1e20", true},
      {"1e-400", true},
  };
  const auto schema = darshan_data_schema();
  for (const Case& c : cases) {
    const std::string t = c.token;
    json::Scanner skip(t);
    const bool skipped = skip.skip_value() && skip.at_end();
    json::Scanner scan(t);
    json::Token tok;
    std::string scratch;
    const bool scanned = scan.scan_token(tok, scratch) && scan.at_end();
    EXPECT_EQ(skipped, c.number) << t;
    EXPECT_EQ(scanned, c.number) << t;
    EXPECT_EQ(json::parse(t).has_value(), c.number) << t;

    const std::string payloads[] = {
        R"({"rank":1,"module":"POSIX","extra":)" + t +
            R"(,"seg":[{"timestamp":1.0}]})",
        R"({"rank":1,"module":"POSIX","seg":[{"timestamp":1.0,"extra":)" +
            t + "}]}",
        R"({"rank":1,"module":"POSIX","seg":[{"timestamp":1.0,"dur":)" + t +
            "}]}",
        R"({"module":"POSIX","rank":)" + t + R"(,"seg":[{"timestamp":1.0}]})",
        R"({"rank":1,"record_id":)" + t + R"(,"seg":[{"timestamp":1.0}]})",
    };
    for (const std::string& payload : payloads) {
      std::vector<dsos::Object> fast;
      EXPECT_EQ(decode_message_fast(schema, payload, fast), c.number)
          << payload;
      const auto dom = decode_message(schema, payload);
      EXPECT_EQ(dom.size(), c.number ? 1u : 0u) << payload;
      EXPECT_EQ(rows_csv(fast), rows_csv(dom)) << payload;
    }
  }
  // The values themselves: a double outside int64 (rank) or uint64
  // (record_id) yields the field's fallback, 0 for both.
  const struct {
    const char* token;
    std::int64_t rank;
    std::uint64_t record_id;
  } ints[] = {
      {"1e400", 0, 0},
      {"-1e400", 0, 0},
      {"-5.0", -5, 0},
      {"1e20", 0, 0},
      {"1e19", 0, 10000000000000000000ULL},
  };
  for (const auto& c : ints) {
    const std::string t = c.token;
    std::vector<dsos::Object> rows;
    ASSERT_TRUE(decode_message_fast(
        schema,
        R"({"rank":)" + t + R"(,"record_id":)" + t +
            R"(,"seg":[{"timestamp":1.0}]})",
        rows))
        << t;
    ASSERT_EQ(rows.size(), 1u) << t;
    EXPECT_EQ(rows[0].as_int("rank"), c.rank) << t;
    EXPECT_EQ(rows[0].as_uint("record_id"), c.record_id) << t;
  }
}

// ----------------------------------------------------- binary fast path ----
//
// The decoder's kBinary branch defaults to the FrameCursor fast path
// (make_object_unchecked, per-frame obs stamping).  decode_frame wraps
// the same cursor, so the two A/B arms must be byte-identical on good
// frames AND agree on malformed counting — set_binary_fastpath(false) is
// only trustworthy as a diagnostic if flipping it changes nothing.

std::string cluster_csv(const dsos::DsosCluster& cluster) {
  std::string out;
  for (const dsos::Object* obj :
       cluster.query("darshan_data", "job_rank_time")) {
    out += to_csv_row(*obj);
    out += '\n';
  }
  return out;
}

TEST(Decoder, BinaryFastPathByteIdenticalToWrappedDecode) {
  // Frames exercising every optional block, plus one corrupt payload.
  std::vector<std::string> frames;
  {
    wire::EncodeContext ctx;
    ctx.uid = 99066;
    ctx.job_id = 7;
    ctx.exe = "/projects/ldms_darshan/mpi-io-test";
    ctx.epoch_seconds = 1.6e9;
    wire::FrameEncoder enc(ctx);
    const std::string path = "/fscratch/testFile";
    darshan::IoEvent open;
    open.op = darshan::Op::kOpen;
    open.rank = 1;
    open.file_path = &path;
    open.end = kSecond;
    enc.add(open, "nid1");
    darshan::IoEvent write;
    write.op = darshan::Op::kWrite;
    write.rank = 2;
    write.offset = 4096;
    write.length = 65536;
    write.end = 2 * kSecond;
    enc.add(write, "nid1");
    frames.push_back(enc.take_frame());
    darshan::IoEvent h5;
    h5.module = darshan::Module::kH5D;
    h5.op = darshan::Op::kRead;
    h5.rank = 3;
    h5.h5.ndims = 2;
    h5.h5.npoints = 1024;
    h5.h5.data_set = "/dset/a";
    h5.end = 3 * kSecond;
    enc.add(h5, "nid2");
    frames.push_back(enc.take_frame());
  }
  frames.push_back("Wgarbage-not-a-frame");

  struct Arm {
    std::string csv;
    std::uint64_t decoded = 0;
    std::uint64_t frames_decoded = 0;
    std::uint64_t malformed = 0;
  };
  const auto run = [&](bool fastpath) {
    dsos::DsosCluster cluster(dsos::ClusterConfig{.shard_count = 2,
                                                  .shard_attr = "rank",
                                                  .parallel_query = false});
    sim::Engine engine;
    ldms::LdmsDaemon daemon(&engine, "d");
    DarshanDecoder decoder(daemon, "t", cluster);
    decoder.set_binary_fastpath(fastpath);
    EXPECT_EQ(decoder.binary_fastpath(), fastpath);
    for (const std::string& f : frames) {
      daemon.publish("t", ldms::PayloadFormat::kBinary, f);
    }
    return Arm{cluster_csv(cluster), decoder.decoded(),
               decoder.frames_decoded(), decoder.malformed()};
  };
  const Arm fast = run(true);
  const Arm slow = run(false);
  EXPECT_FALSE(fast.csv.empty());
  EXPECT_EQ(fast.csv, slow.csv);  // byte-identical rows, same order
  EXPECT_EQ(fast.decoded, slow.decoded);
  EXPECT_EQ(fast.frames_decoded, slow.frames_decoded);
  EXPECT_EQ(fast.malformed, slow.malformed);
  EXPECT_EQ(fast.decoded, 3u);
  EXPECT_EQ(fast.malformed, 1u);
}

TEST(Decoder, BinaryRowsMatchJsonRowsOnMicrosecondGrid) {
  // The codec doc promises the binary path differs from JSON only in
  // precision (codec.hpp): the JSON writer prints six fractional digits
  // while frames carry exact nanoseconds.  On a whole-microsecond time
  // grid both renderings denote the same doubles, so the decoded rows
  // must be byte-identical — the honest cross-format identity check.
  const auto schema = darshan_data_schema();
  wire::EncodeContext ctx;
  ctx.uid = 7;
  ctx.job_id = 9;
  ctx.exe = "/bin/app";
  ctx.epoch_seconds = 1.6e9;
  wire::FrameEncoder enc(ctx);
  const std::string path = "/fscratch/f";
  darshan::IoEvent open;
  open.op = darshan::Op::kOpen;
  open.rank = 3;
  open.record_id = 11;
  open.switches = 0;
  open.cnt = 1;
  open.file_path = &path;
  open.start = 3 * kSecond;
  open.end = 3 * kSecond + 1 * kMillisecond;
  enc.add(open, "nid9");
  darshan::IoEvent write;
  write.op = darshan::Op::kWrite;
  write.rank = 3;
  write.record_id = 11;
  write.max_byte = 4095;
  write.switches = 0;
  write.cnt = 5;
  write.offset = 0;
  write.length = 4096;
  write.start = 3 * kSecond + 1 * kMillisecond;
  write.end = 3 * kSecond + 1250 * kMicrosecond;
  enc.add(write, "nid9");
  const auto binary_rows = wire::decode_frame(schema, enc.take_frame());
  ASSERT_EQ(binary_rows.size(), 2u);

  // The same two events as the connector's JSON mode renders them
  // (Fig. 3 member order, %.6f doubles, MET/MOD metadata elision).
  const std::string open_json =
      R"({"uid":7,"exe":"/bin/app","job_id":9,"rank":3,"ProducerName":"nid9",)"
      R"("file":"/fscratch/f","record_id":11,"module":"POSIX","type":"MET",)"
      R"("max_byte":-1,"switches":0,"flushes":-1,"cnt":1,"op":"open",)"
      R"("seg":[{"data_set":"N/A","pt_sel":-1,"irreg_hslab":-1,)"
      R"("reg_hslab":-1,"ndims":-1,"npoints":-1,"off":-1,"len":-1,)"
      R"("dur":0.001000,"timestamp":1600000003.001000}]})";
  const std::string write_json =
      R"({"uid":7,"exe":"N/A","job_id":9,"rank":3,"ProducerName":"nid9",)"
      R"("file":"N/A","record_id":11,"module":"POSIX","type":"MOD",)"
      R"("max_byte":4095,"switches":0,"flushes":-1,"cnt":5,"op":"write",)"
      R"("seg":[{"data_set":"N/A","pt_sel":-1,"irreg_hslab":-1,)"
      R"("reg_hslab":-1,"ndims":-1,"npoints":-1,"off":0,"len":4096,)"
      R"("dur":0.000250,"timestamp":1600000003.001250}]})";
  std::string json_csv;
  for (const std::string& payload : {open_json, write_json}) {
    const auto rows = decode_message(schema, payload);
    ASSERT_EQ(rows.size(), 1u) << payload;
    json_csv += rows_csv(rows);
  }
  EXPECT_EQ(rows_csv(binary_rows), json_csv);
}

}  // namespace
}  // namespace dlc::core
