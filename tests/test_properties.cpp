// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// invariants that must hold across the whole configuration space —
// file-system models, connector modes, transport capacities, sampling
// rates.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <tuple>

#include <limits>
#include <random>

#include "bounded_queue.hpp"
#include "core/connector.hpp"
#include "core/decoder.hpp"
#include "core/schema_darshan.hpp"
#include "json/parser.hpp"
#include "ldms/store.hpp"
#include "sim/engine.hpp"
#include "simfs/lustre.hpp"
#include "simfs/nfs.hpp"
#include "simhpc/cluster.hpp"
#include "simhpc/job.hpp"
#include "util/spsc_ring.hpp"
#include "wire/codec.hpp"

namespace dlc {
namespace {

std::shared_ptr<simfs::VariabilityProcess> flat_variability() {
  simfs::VariabilityConfig cfg;
  cfg.epoch_sigma = 0.0;
  cfg.ar_sigma = 0.0;
  return std::make_shared<simfs::VariabilityProcess>(cfg, 1);
}

std::unique_ptr<simfs::FileSystem> make_fs(sim::Engine& engine,
                                           simfs::FsKind kind) {
  if (kind == simfs::FsKind::kNfs) {
    simfs::NfsConfig cfg;
    cfg.jitter_sigma = 0.0;
    cfg.small_io_batch = 1;
    cfg.read_cache_bandwidth_bytes_per_sec = 0;  // exercise the server path
    return std::make_unique<simfs::NfsModel>(engine, cfg, flat_variability(),
                                             1);
  }
  simfs::LustreConfig cfg;
  cfg.jitter_sigma = 0.0;
  cfg.small_io_batch = 1;
  cfg.read_cache_bandwidth_bytes_per_sec = 0;
  return std::make_unique<simfs::LustreModel>(engine, cfg, flat_variability(),
                                              1);
}

// ------------------------------------------------- fs model properties ----

// (fs kind, collective, op-is-write)
using FsParam = std::tuple<simfs::FsKind, bool, bool>;

class FsModelProperty : public ::testing::TestWithParam<FsParam> {};

SimDuration run_one_op(simfs::FsKind kind, bool collective, bool write,
                       std::uint64_t bytes) {
  sim::Engine engine;
  auto fs = make_fs(engine, kind);
  SimDuration dur = 0;
  auto proc = [](simfs::FileSystem& f, bool is_write, bool coll,
                 std::uint64_t n, SimDuration& out) -> sim::Task<void> {
    const simfs::IoFlags flags{.collective = coll, .sync = false};
    if (is_write) {
      out = co_await f.write(0, "/prop/file", 0, n, flags);
    } else {
      out = co_await f.read(0, "/prop/file", 0, n, flags);
    }
  };
  engine.spawn(proc(*fs, write, collective, bytes, dur));
  engine.run();
  return dur;
}

TEST_P(FsModelProperty, DurationIsPositive) {
  const auto [kind, collective, write] = GetParam();
  EXPECT_GT(run_one_op(kind, collective, write, 4096), 0);
}

TEST_P(FsModelProperty, DurationMonotoneInBytes) {
  const auto [kind, collective, write] = GetParam();
  SimDuration prev = 0;
  for (const std::uint64_t bytes :
       {1ull << 12, 1ull << 16, 1ull << 20, 1ull << 24, 1ull << 27}) {
    const SimDuration dur = run_one_op(kind, collective, write, bytes);
    EXPECT_GE(dur, prev) << "bytes=" << bytes;
    prev = dur;
  }
}

TEST_P(FsModelProperty, DeterministicGivenSeed) {
  const auto [kind, collective, write] = GetParam();
  EXPECT_EQ(run_one_op(kind, collective, write, 1 << 20),
            run_one_op(kind, collective, write, 1 << 20));
}

INSTANTIATE_TEST_SUITE_P(
    AllFsModes, FsModelProperty,
    ::testing::Combine(::testing::Values(simfs::FsKind::kNfs,
                                         simfs::FsKind::kLustre),
                       ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<FsParam>& info) {
      return std::string(simfs::fs_kind_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_coll" : "_indep") +
             (std::get<2>(info.param) ? "_write" : "_read");
    });

// --------------------------------------------- connector message sweep ----

struct MessagePipeline {
  sim::Engine engine;
  simhpc::Cluster cluster{simhpc::ClusterConfig{}};
  std::shared_ptr<simfs::VariabilityProcess> variability = flat_variability();
  std::unique_ptr<simfs::NfsModel> fs;
  std::unique_ptr<simhpc::Job> job;
  std::unique_ptr<darshan::Runtime> runtime;
  ldms::LdmsDaemon daemon{&engine, "nid00040"};
  ldms::CsvStore store;
  std::unique_ptr<core::DarshanLdmsConnector> connector;

  MessagePipeline() {
    simfs::NfsConfig cfg;
    cfg.jitter_sigma = 0;
    cfg.small_io_batch = 1;
    fs = std::make_unique<simfs::NfsModel>(engine, cfg, variability, 1);
    simhpc::JobConfig jcfg;
    jcfg.node_count = 1;
    job = std::make_unique<simhpc::Job>(engine, cluster, jcfg);
    runtime = std::make_unique<darshan::Runtime>(engine, *fs, *job);
    store.attach(daemon, "darshanConnector");
    connector = std::make_unique<core::DarshanLdmsConnector>(
        *runtime, [this](int) { return &daemon; }, core::ConnectorConfig{});
  }
};

class MessageSchemaProperty
    : public ::testing::TestWithParam<darshan::Module> {};

TEST_P(MessageSchemaProperty, EveryOpYieldsParsableCompleteMessage) {
  const darshan::Module module = GetParam();
  MessagePipeline p;
  auto proc = [](darshan::Runtime& rt, darshan::Module m) -> sim::Task<void> {
    darshan::RankIo io = rt.rank(0);
    const darshan::Fd fd = co_await io.open(m, "/prop/file.dat", true);
    co_await io.write(fd, 4096);
    co_await io.read_at(fd, 0, 1024);
    co_await io.flush(fd);
    co_await io.close(fd);
  };
  p.engine.spawn(proc(*p.runtime, module));
  p.engine.run();

  // MPIIO additionally emits POSIX sub-events.
  const std::size_t expected =
      module == darshan::Module::kMpiio ? 7u : 5u;
  ASSERT_EQ(p.store.rows().size(), expected);

  static const char* kRequired[] = {"uid",     "exe",    "job_id", "rank",
                                    "ProducerName", "file", "record_id",
                                    "module",  "type",   "max_byte",
                                    "switches", "flushes", "cnt", "op"};
  for (const std::string& row : p.store.rows()) {
    const auto msg = json::parse(row);
    ASSERT_TRUE(msg.has_value()) << row;
    for (const char* field : kRequired) {
      EXPECT_TRUE(msg->find(field) != nullptr) << field << " in " << row;
    }
    const auto* seg = msg->find("seg");
    ASSERT_TRUE(seg && seg->is_array() && seg->as_array().size() == 1) << row;
    // MET if and only if open.
    const bool is_open = msg->get_string("op") == "open";
    EXPECT_EQ(msg->get_string("type") == "MET", is_open) << row;
    // Non-HDF5 modules carry the -1 / N/A HDF5 sentinels.
    const auto& s = seg->as_array()[0];
    const std::string mod_name = msg->get_string("module");
    if (mod_name != "H5F" && mod_name != "H5D") {
      EXPECT_EQ(s.get_int("ndims"), -1);
      EXPECT_EQ(s.get_string("data_set"), "N/A");
    }
    EXPECT_GT(s.get_double("timestamp"), 1.6e9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModules, MessageSchemaProperty,
    ::testing::Values(darshan::Module::kPosix, darshan::Module::kMpiio,
                      darshan::Module::kStdio, darshan::Module::kH5F,
                      darshan::Module::kH5D),
    [](const ::testing::TestParamInfo<darshan::Module>& info) {
      return std::string(darshan::module_name(info.param));
    });

// ------------------------------------------------- sampling rate sweep ----

class SamplingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SamplingProperty, PublishedCountMatchesFormula) {
  const std::uint64_t n = GetParam();
  MessagePipeline base;  // reuse wiring but swap connector config
  core::ConnectorConfig cfg;
  cfg.sample_every_n = n;
  base.connector = std::make_unique<core::DarshanLdmsConnector>(
      *base.runtime, [&base](int) { return &base.daemon; }, cfg);

  constexpr int kWrites = 120;
  auto proc = [](darshan::Runtime& rt) -> sim::Task<void> {
    darshan::RankIo io = rt.rank(0);
    const darshan::Fd fd =
        co_await io.open(darshan::Module::kPosix, "/f", true);
    for (int i = 0; i < kWrites; ++i) co_await io.write(fd, 64);
    co_await io.close(fd);
  };
  base.engine.spawn(proc(*base.runtime));
  base.engine.run();

  const auto& stats = base.connector->stats();
  EXPECT_EQ(stats.events_seen, kWrites + 2u);
  // Data events pass when the per-rank counter is divisible by n; the
  // counter includes open/close, but only data events can be skipped.
  std::uint64_t expected_data = 0;
  for (std::uint64_t count = 2; count < kWrites + 2u; ++count) {
    if (n <= 1 || count % n == 0) ++expected_data;
  }
  EXPECT_EQ(stats.messages_published, expected_data + 2);
  EXPECT_EQ(stats.messages_published + stats.events_sampled_out,
            stats.events_seen);
}

INSTANTIATE_TEST_SUITE_P(Rates, SamplingProperty,
                         ::testing::Values(1, 2, 3, 10, 60, 1000));

// ------------------------------------------- transport capacity sweep ----

class QueueCapacityProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QueueCapacityProperty, LossesShrinkWithCapacity) {
  const std::size_t capacity = GetParam();
  sim::Engine engine;
  ldms::LdmsDaemon src(&engine, "src");
  ldms::LdmsDaemon dst(&engine, "dst");
  ldms::ForwardConfig cfg;
  cfg.queue_capacity = capacity;
  cfg.hop_latency = kSecond;  // slow drain => overflow pressure
  cfg.bandwidth_bytes_per_sec = 0;
  src.add_forward("t", dst, cfg);
  constexpr std::uint64_t kBurst = 64;
  auto proc = [](ldms::LdmsDaemon& d) -> sim::Task<void> {
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      d.publish("t", ldms::PayloadFormat::kString, "x");
    }
    co_return;
  };
  engine.spawn(proc(src));
  engine.run();
  // Conservation: forwarded + dropped == burst.
  EXPECT_EQ(src.forwarded() + src.dropped(), kBurst);
  // The publisher never yields during the burst, so the pump cannot drain
  // concurrently: exactly `capacity` messages queue, the rest drop.
  const std::uint64_t expected_drops =
      kBurst > capacity ? kBurst - capacity : 0;
  EXPECT_EQ(src.dropped(), expected_drops);
}

INSTANTIATE_TEST_SUITE_P(Capacities, QueueCapacityProperty,
                         ::testing::Values(1, 4, 16, 63, 64, 128));

// ---------------------------------------- bounded queue edge cases --------

TEST(BoundedQueueProperty, ZeroCapacityRejectsEveryPush) {
  BoundedQueue<int> q(0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(q.try_push(i));
    EXPECT_FALSE(q.try_push(i, 1));
  }
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.size_bytes(), 0u);
  EXPECT_FALSE(q.try_pop().has_value());
  q.close();
  EXPECT_FALSE(q.pop().has_value());  // closed + empty => end-of-stream
}

TEST(BoundedQueueProperty, ByteCapIsInclusiveAtTheBoundary) {
  BoundedQueue<int> q(16, 100);
  EXPECT_TRUE(q.try_push(1, 60));
  EXPECT_TRUE(q.try_push(2, 40));  // lands exactly on the cap
  EXPECT_EQ(q.size_bytes(), 100u);
  EXPECT_FALSE(q.try_push(3, 1));  // anything past it is refused
  EXPECT_EQ(q.size_bytes(), 100u);
  ASSERT_TRUE(q.try_pop().has_value());  // frees 60
  EXPECT_TRUE(q.try_push(4, 60));        // exactly full again
  EXPECT_EQ(q.size_bytes(), 100u);
}

TEST(BoundedQueueProperty, HugeItemCostCannotWrapPastTheCap) {
  BoundedQueue<int> q(16, 100);
  ASSERT_TRUE(q.try_push(1, 30));
  // bytes_ + cost overflows std::size_t; naive `bytes_ + bytes > cap`
  // arithmetic would wrap around and admit the item.
  EXPECT_FALSE(q.try_push(2, std::numeric_limits<std::size_t>::max() - 10));
  EXPECT_FALSE(q.try_push(3, std::numeric_limits<std::size_t>::max()));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.size_bytes(), 30u);
}

TEST(SpscRingProperty, HugeItemCostCannotWrapPastTheCap) {
  SpscRing<int> q(16, 100);
  ASSERT_TRUE(q.try_push(1, 30));
  EXPECT_FALSE(q.try_push(2, std::numeric_limits<std::size_t>::max() - 10));
  EXPECT_FALSE(q.try_push(3, std::numeric_limits<std::size_t>::max()));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.size_bytes(), 30u);
}

class QueueByteCapProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QueueByteCapProperty, AccountingStaysExactUnderRandomChurn) {
  // The lock-free ring and its BoundedQueue oracle see the same churn;
  // both must match the model step for step.
  const std::size_t cap_bytes = GetParam();
  SpscRing<std::size_t> ring(64, cap_bytes);
  BoundedQueue<std::size_t> oracle(64, cap_bytes);
  std::mt19937 rng(static_cast<unsigned>(cap_bytes) * 7919u + 1u);
  std::uniform_int_distribution<std::size_t> cost(0, cap_bytes / 2 + 3);
  std::deque<std::size_t> model;  // byte costs the queues must be holding
  std::size_t model_bytes = 0;
  for (int step = 0; step < 2000; ++step) {
    if (rng() % 3 != 0) {
      const std::size_t c = cost(rng);
      const bool fits =
          model.size() < 64 && c <= cap_bytes - model_bytes;
      EXPECT_EQ(ring.try_push(c, c), fits);
      EXPECT_EQ(oracle.try_push(c, c), fits);
      if (fits) {
        model.push_back(c);
        model_bytes += c;
      }
    } else if (!model.empty()) {
      const auto from_ring = ring.try_pop();
      const auto from_oracle = oracle.try_pop();
      ASSERT_TRUE(from_ring.has_value());
      ASSERT_TRUE(from_oracle.has_value());
      EXPECT_EQ(*from_ring, model.front());  // FIFO order preserved
      EXPECT_EQ(*from_oracle, model.front());
      model_bytes -= model.front();
      model.pop_front();
    }
    EXPECT_EQ(ring.size(), model.size());
    EXPECT_EQ(ring.size_bytes(), model_bytes);
    EXPECT_EQ(oracle.size(), model.size());
    EXPECT_EQ(oracle.size_bytes(), model_bytes);
    EXPECT_LE(ring.size_bytes(), cap_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(ByteCaps, QueueByteCapProperty,
                         ::testing::Values(1, 7, 64, 1024));

// --------------------------------------- wire format round-trip fidelity ----

// The JSON path (format_message -> decode_message) and the binary path
// (FrameEncoder -> decode_frame) must produce identical darshan_data rows
// for arbitrary event streams.  The only licensed difference: the JSON
// writer prints seg_dur / seg_timestamp with six fractional digits while
// the frame carries exact nanoseconds, so those two compare with a 1e-6
// tolerance and everything else compares exactly.
class WireRoundTripProperty : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(WireRoundTripProperty, BinaryDecodesIdenticallyToJson) {
  MessagePipeline p;
  const SimEpoch epoch;
  const auto schema = core::darshan_data_schema();
  std::mt19937 rng(GetParam());

  const std::vector<std::string> paths = {
      "/fscratch/testFile", "/projects/run/output.h5",
      "/fscratch/deep/nested/dir/checkpoint.0001.dat"};
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> module_dist(0,
                                                 darshan::kModuleCount - 1);
  std::uniform_int_distribution<int> op_dist(0, darshan::kOpCount - 1);
  std::uniform_int_distribution<std::int64_t> small(0, 1 << 20);
  std::uniform_int_distribution<std::uint64_t> wide(
      0, std::numeric_limits<std::uint64_t>::max() / 2);

  wire::FrameEncoder encoder(
      core::DarshanLdmsConnector::encode_context(*p.runtime, epoch));
  json::Writer writer;
  const std::size_t ranks = p.runtime->job().rank_count();

  std::vector<dsos::Object> json_rows;
  constexpr int kEvents = 200;
  SimTime clock = 0;
  for (int i = 0; i < kEvents; ++i) {
    darshan::IoEvent e;
    e.module = static_cast<darshan::Module>(module_dist(rng));
    e.op = static_cast<darshan::Op>(op_dist(rng));
    e.rank = static_cast<int>(wide(rng) % ranks);
    e.record_id = wide(rng);
    // Opens sometimes lack a resolvable path; both paths must then fall
    // back to the "N/A" placeholder.
    e.file_path = coin(rng) ? &paths[wide(rng) % paths.size()] : nullptr;
    e.max_byte = coin(rng) ? -1 : small(rng);
    e.switches = coin(rng) ? -1 : small(rng);
    e.flushes = coin(rng) ? -1 : small(rng);
    e.cnt = small(rng);
    e.offset = wide(rng);
    e.length = static_cast<std::uint64_t>(small(rng));
    // Ranks interleave, so the per-frame timestamp deltas go both ways.
    clock += small(rng) - (1 << 19);
    e.end = clock;
    e.start = e.end - small(rng);
    if (coin(rng)) {
      e.h5.pt_sel = small(rng);
      e.h5.irreg_hslab = coin(rng) ? -1 : small(rng);
      e.h5.reg_hslab = small(rng);
      e.h5.ndims = small(rng) % 4;
      e.h5.npoints = small(rng);
    }
    if (coin(rng)) e.h5.data_set = "/group/dset" + std::to_string(i % 3);

    core::DarshanLdmsConnector::format_message(writer, e, *p.runtime, epoch);
    auto decoded = core::decode_message(schema, writer.str());
    ASSERT_EQ(decoded.size(), 1u) << writer.str();
    json_rows.push_back(std::move(decoded[0]));

    encoder.add(e, p.runtime->job().producer_name(
                       static_cast<std::size_t>(e.rank)));
  }

  const auto binary_rows = wire::decode_frame(schema, encoder.take_frame());
  ASSERT_EQ(binary_rows.size(), json_rows.size());
  for (std::size_t i = 0; i < json_rows.size(); ++i) {
    for (std::size_t a = 0; a < schema->attrs().size(); ++a) {
      const auto& name = schema->attrs()[a].name;
      const dsos::Value& jv = json_rows[i].at(a);
      const dsos::Value& bv = binary_rows[i].at(a);
      if (name == "seg_dur" || name == "seg_timestamp") {
        EXPECT_NEAR(std::get<double>(jv), std::get<double>(bv), 1e-6)
            << "event " << i << " attr " << name;
      } else {
        EXPECT_EQ(jv, bv) << "event " << i << " attr " << name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTripProperty,
                         ::testing::Values(1u, 42u, 2026u, 0xdecafu));

}  // namespace
}  // namespace dlc

// ------------------------------------------- workload x fs integration ----

#include "exp/specs.hpp"
#include "workloads/hacc_io.hpp"
#include "workloads/hmmer.hpp"
#include "workloads/ior.hpp"
#include "workloads/mpi_io_test.hpp"
#include "workloads/sw4.hpp"

namespace dlc {
namespace {

enum class App { kMpiIoTest, kHaccIo, kHmmer, kSw4, kIor };

const char* app_name(App app) {
  switch (app) {
    case App::kMpiIoTest:
      return "MpiIoTest";
    case App::kHaccIo:
      return "HaccIo";
    case App::kHmmer:
      return "Hmmer";
    case App::kSw4:
      return "Sw4";
    case App::kIor:
      return "Ior";
  }
  return "?";
}

using AppFsParam = std::tuple<App, simfs::FsKind>;

class WorkloadPipelineProperty
    : public ::testing::TestWithParam<AppFsParam> {};

TEST_P(WorkloadPipelineProperty, RunsCleanlyThroughFullPipeline) {
  const auto [app, fs] = GetParam();
  exp::ExperimentSpec spec = exp::base_spec(fs);
  spec.node_count = 2;
  spec.ranks_per_node = 2;
  spec.decode_to_dsos = true;
  switch (app) {
    case App::kMpiIoTest: {
      workloads::MpiIoTestConfig cfg;
      cfg.iterations = 2;
      cfg.block_size = 1 << 20;
      spec.workload = workloads::mpi_io_test(cfg);
      break;
    }
    case App::kHaccIo: {
      workloads::HaccIoConfig cfg;
      cfg.particles_per_rank = 20'000;
      cfg.initial_compute = 0;
      spec.workload = workloads::hacc_io(cfg);
      break;
    }
    case App::kHmmer: {
      workloads::HmmerConfig cfg;
      cfg.profiles = 50;
      cfg.reads_per_profile = 4;
      cfg.writes_per_profile = 3;
      spec.workload = workloads::hmmer_build(cfg);
      break;
    }
    case App::kSw4: {
      workloads::Sw4Config cfg;
      cfg.timesteps = 6;
      cfg.checkpoint_every = 3;
      cfg.image_every = 6;
      cfg.grid_points_per_rank = 10'000;
      cfg.compute_per_step = 10 * kMillisecond;
      spec.workload = workloads::sw4(cfg);
      break;
    }
    case App::kIor: {
      workloads::IorConfig cfg;
      cfg.segments = 2;
      cfg.reorder_shift = 1;
      spec.workload = workloads::ior(cfg);
      break;
    }
  }
  const exp::RunResult r = exp::run_experiment(spec);
  // Pipeline invariants that must hold for every app on every fs:
  EXPECT_GT(r.runtime_s, 0.0);
  EXPECT_GT(r.events, 0u);
  EXPECT_EQ(r.messages, r.events);   // n=1 sampling publishes everything
  EXPECT_EQ(r.stored, r.messages);   // default queues never overflow here
  EXPECT_EQ(r.dropped, 0u);
  ASSERT_TRUE(r.dsos != nullptr);
  EXPECT_EQ(r.dsos->total_objects(), r.stored);
  // Every stored event carries a plausible absolute timestamp.
  for (const auto* obj : r.dsos->query("darshan_data", "time")) {
    EXPECT_GT(obj->as_double("seg_timestamp"), 1.6e9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAppsAllFs, WorkloadPipelineProperty,
    ::testing::Combine(::testing::Values(App::kMpiIoTest, App::kHaccIo,
                                         App::kHmmer, App::kSw4, App::kIor),
                       ::testing::Values(simfs::FsKind::kNfs,
                                         simfs::FsKind::kLustre)),
    [](const ::testing::TestParamInfo<AppFsParam>& info) {
      return std::string(app_name(std::get<0>(info.param))) + "_" +
             std::string(simfs::fs_kind_name(std::get<1>(info.param)));
    });

// ----------------------------------------- wire format pipeline parity ----

class WireFormatPipelineProperty
    : public ::testing::TestWithParam<core::WireFormat> {};

// The same workload must land the same rows in DSOS whichever wire format
// carries them; only the message count and byte volume may differ.
TEST_P(WireFormatPipelineProperty, SameRowsFewerBytesThroughFullPipeline) {
  const auto run_with = [](core::WireFormat wf) {
    exp::ExperimentSpec spec = exp::base_spec(simfs::FsKind::kNfs);
    spec.node_count = 2;
    spec.ranks_per_node = 2;
    spec.decode_to_dsos = true;
    spec.connector.wire_format = wf;
    workloads::MpiIoTestConfig cfg;
    cfg.iterations = 2;
    cfg.block_size = 1 << 20;
    spec.workload = workloads::mpi_io_test(cfg);
    return exp::run_experiment(spec);
  };

  const exp::RunResult json = run_with(core::WireFormat::kJson);
  const exp::RunResult r = run_with(GetParam());
  EXPECT_EQ(r.events, json.events);
  EXPECT_EQ(r.dropped, 0u);
  ASSERT_TRUE(r.dsos != nullptr);
  // Every event reaches storage as exactly one row in every mode.
  EXPECT_EQ(r.dsos->total_objects(), r.events);
  EXPECT_EQ(r.dsos->total_objects(), json.dsos->total_objects());
  if (GetParam() == core::WireFormat::kBinaryBatched) {
    EXPECT_LT(r.messages, r.events);  // frames coalesce events
  } else {
    EXPECT_EQ(r.messages, r.events);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, WireFormatPipelineProperty,
    ::testing::Values(core::WireFormat::kJson, core::WireFormat::kBinary,
                      core::WireFormat::kBinaryBatched),
    [](const ::testing::TestParamInfo<core::WireFormat>& info) {
      return std::string(core::wire_format_name(info.param));
    });

}  // namespace
}  // namespace dlc
