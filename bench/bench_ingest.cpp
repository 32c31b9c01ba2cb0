// Storage-side ingest benchmark: serial vs parallel sharded ingest.
//
// The DSOS tier exists so decoded Darshan events can be stored and
// queried in parallel across dsosd shards; this benchmark measures
// whether the reproduction's sink actually scales.  For each shard count
// it decodes the SAME pre-rendered connector JSON payloads (the zero-copy
// scanner — the decoder's real path) and ingests them
//   serial:    decode + Container::insert inline on one thread,
//   parallel:  decode on the caller, insert via dsos::IngestExecutor with
//              one worker per shard,
// then verifies the two clusters are BYTE-IDENTICAL under a full
// job_rank_time query (fatal on mismatch, --check or not: determinism is
// correctness, not performance).
//
// Two further phases measure the multi-million-events/sec hot path:
//
//   stages:    a serial diagnostic split of the JSON path's per-event cost
//              into decode / route / enqueue / commit ns, so a regression
//              in any one stage is visible without bisecting the pipeline,
//   hot path:  pre-encoded binary_batched wire frames walked by
//              wire::FrameCursor straight into dsos::make_object_unchecked
//              and a pinned (ConnectorConfig::pin "auto") SpscRing
//              IngestExecutor — no JSON text, no DOM, no per-event
//              validation — gated against the COMMITTED JSON-path baseline
//              (kCommittedParallelEps below), not a same-run rerun, so
//              faster hardware cannot inflate the bar.
//
// Each configuration is timed kReps (3) times and the row reports the
// median run, so a single scheduler hiccup cannot flip a gate.  Every row
// also records the hardware threads the parallel run actually used
// (workers + decoding caller, capped by the host), making cross-machine
// BENCH_ingest.json comparisons honest.
//
// Writes BENCH_ingest.json (override path: DLC_BENCH_OUT) with events/sec,
// bytes/event and speedup per shard count, the per-stage ns/event split,
// and the hot-path block (format, frames, threads, pin provenance,
// speedup vs the committed baseline).  --check adds the fatal perf
// gates: parallel >= 1.5x serial events/sec at >= 4 shards and the binary
// hot path >= 5x the committed baseline (both enforced only when
// util::effective_cpus() — hardware threads bounded by the CPU affinity
// mask and any cgroup quota, so a 64-core host confined to one core does
// not enforce an impossible gate — reports >= 4; otherwise the gate
// prints a loud SKIPPED marker, the same reasoning that keeps timing
// gates out of sanitizer builds).  Scale knob: DLC_INGEST_EVENTS.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/decoder.hpp"
#include "core/schema_darshan.hpp"
#include "darshan/events.hpp"
#include "dsos/cluster.hpp"
#include "dsos/ingest.hpp"
#include "exp/table.hpp"
#include "json/writer.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"
#include "util/spsc_ring.hpp"
#include "wire/codec.hpp"

using namespace dlc;

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name)) {
    const long parsed = std::atol(v);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One connector-format JSON message (same member order as
/// core::DarshanLdmsConnector::format_message, one seg per message).
std::string make_payload(Rng& rng, std::uint64_t job, std::int64_t ranks,
                         double ts) {
  const std::int64_t rank = rng.uniform_int(0, ranks - 1);
  const bool write = rng.uniform() < 0.5;
  json::Writer w;
  w.begin_object();
  w.member("uid", std::uint64_t{99066});
  w.member("exe", "/projects/ovis/bench/mpi-io-test");
  w.member("job_id", job);
  w.member("rank", rank);
  w.member("ProducerName", "nid" + std::to_string(41 + rank % 4));
  w.member("file", "darshan-output/mpi-io-test.tmp.dat");
  w.member("record_id", rng.next_u64());
  w.member("module", "POSIX");
  w.member("type", "MOD");
  w.member("max_byte", static_cast<std::int64_t>(rng.next_u64() % (1 << 22)));
  w.member("switches", std::int64_t{0});
  w.member("flushes", std::int64_t{-1});
  w.member("cnt", static_cast<std::int64_t>(rng.next_u64() % 64));
  w.member("op", write ? "write" : "read");
  w.key("seg");
  w.begin_array();
  w.begin_object();
  w.member("data_set", "N/A");
  w.member("pt_sel", std::int64_t{-1});
  w.member("irreg_hslab", std::int64_t{-1});
  w.member("reg_hslab", std::int64_t{-1});
  w.member("ndims", std::int64_t{-1});
  w.member("npoints", std::int64_t{-1});
  w.member("off", static_cast<std::int64_t>(rng.next_u64() % (1 << 22)));
  w.member("len", static_cast<std::int64_t>(rng.next_u64() % (1 << 20)));
  w.member("dur", rng.uniform(0.0001, 0.05));
  w.member("timestamp", ts);
  w.end_object();
  w.end_array();
  w.end_object();
  return w.take();
}

std::vector<std::string> make_payloads(std::size_t count) {
  Rng rng(17);
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t job = 1 + i % 4;
    const double ts = 1.6e9 + 0.001 * static_cast<double>(i);
    out.push_back(make_payload(rng, job, /*ranks=*/64, ts));
  }
  return out;
}

/// The decoder's real JSON path: the zero-copy scan, whose declined
/// payloads are malformed and yield no rows.
void decode_payload(const dsos::SchemaPtr& schema, const std::string& payload,
                    std::vector<dsos::Object>& rows) {
  if (!core::decode_message_fast(schema, payload, rows)) rows.clear();
}

std::unique_ptr<dsos::DsosCluster> make_cluster(const dsos::SchemaPtr& schema,
                                                std::size_t shards) {
  dsos::ClusterConfig cfg;
  cfg.shard_count = shards;
  cfg.shard_attr = "rank";
  auto cluster = std::make_unique<dsos::DsosCluster>(cfg);
  cluster->register_schema(schema);
  return cluster;
}

struct IngestRun {
  std::unique_ptr<dsos::DsosCluster> cluster;
  double seconds = 0.0;
  std::uint64_t backpressure_waits = 0;
  /// Rows per commit group (inserted / groups); 0 for serial ingest,
  /// which commits nothing before the caller does.
  double rows_per_commit = 0.0;
  /// OS threads that actually carried the run: 1 for serial, the worker
  /// count plus the decoding caller for parallel, capped at what the
  /// host can schedule concurrently.
  std::size_t threads_used = 1;
};

double rows_per_commit(const dsos::IngestStats& stats) {
  return stats.batches == 0 ? 0.0
                            : static_cast<double>(stats.inserted) /
                                  static_cast<double>(stats.batches);
}

/// Timing noise guard: each configuration runs kReps times and the row
/// reports the median run (clusters in the discarded runs are dropped).
constexpr std::size_t kReps = 3;

template <typename RunOnce>
IngestRun median_run(RunOnce&& run_once) {
  std::vector<IngestRun> runs;
  runs.reserve(kReps);
  for (std::size_t i = 0; i < kReps; ++i) runs.push_back(run_once());
  std::sort(runs.begin(), runs.end(),
            [](const IngestRun& a, const IngestRun& b) {
              return a.seconds < b.seconds;
            });
  return std::move(runs[kReps / 2]);
}

IngestRun run_serial(const dsos::SchemaPtr& schema, std::size_t shards,
                     const std::vector<std::string>& payloads) {
  IngestRun run;
  run.cluster = make_cluster(schema, shards);
  std::vector<dsos::Object> rows;
  const double t0 = now_seconds();
  for (const std::string& p : payloads) {
    decode_payload(schema, p, rows);
    for (auto& obj : rows) run.cluster->insert(std::move(obj));
  }
  run.seconds = now_seconds() - t0;
  return run;
}

IngestRun run_parallel(const dsos::SchemaPtr& schema, std::size_t shards,
                       std::size_t workers,
                       const std::vector<std::string>& payloads) {
  IngestRun run;
  run.cluster = make_cluster(schema, shards);
  std::vector<dsos::Object> rows;
  dsos::IngestConfig icfg;
  icfg.workers = workers;
  const double t0 = now_seconds();
  {
    dsos::IngestExecutor ingest(*run.cluster, icfg);
    for (const std::string& p : payloads) {
      decode_payload(schema, p, rows);
      for (auto& obj : rows) ingest.submit(std::move(obj));
    }
    ingest.drain();  // inside the timed region: cost of determinism
    run.backpressure_waits = ingest.stats().backpressure_waits;
    run.rows_per_commit = rows_per_commit(ingest.stats());
    run.threads_used = ingest.workers() + 1;  // workers + decoding caller
    run.threads_used = std::min(run.threads_used, util::effective_cpus());
  }
  run.seconds = now_seconds() - t0;
  return run;
}

/// Canonical byte rendering of the full job_rank_time ordering.
std::string fingerprint(const dsos::DsosCluster& cluster) {
  std::string out;
  for (const dsos::Object* obj :
       cluster.query("darshan_data", "job_rank_time")) {
    out += core::to_csv_row(*obj);
    out.push_back('\n');
  }
  return out;
}

// ---------------------------------------------------------------------------
// Binary hot path: wire frames -> FrameCursor -> pinned SpscRing executor.

/// The committed baseline the binary hot path is gated against: the best
/// parallel ingest rate in the repo's committed BENCH_ingest.json at the
/// time the hot path landed (commit 81e8833: 2 shards, JSON decode on the
/// caller thread).  A frozen constant rather than a same-run rerun of the
/// JSON phase, so running on faster hardware raises BOTH paths and the
/// >= 5x ratio stays a statement about the hot path, not the host.  That
/// committed artifact recorded "hardware_threads":1 with no affinity /
/// quota provenance — the run was confined to one CPU — which is exactly
/// the trap the effective-CPU waiver below exists for; this binary now
/// records the full util::cpu_budget() breakdown alongside every gate.
constexpr double kCommittedParallelEps = 253257.755817;

/// Events per binary_batched frame — the connector batcher's amortisation
/// unit (interning table, header, per-frame obs/trace stamping).
constexpr std::size_t kEventsPerFrame = 512;

/// Shards/workers for the hot-path run: the smallest count the >= 5x gate
/// is specified at (4 effective hardware threads).
constexpr std::size_t kHotShards = 4;

/// Pre-encoded binary_batched frames mirroring make_payload's field mix
/// (POSIX read/write, 64 ranks, same producer rotation).  End times step
/// on a whole-microsecond grid so the seg_dur / seg_timestamp doubles are
/// exactly representable on every surface the identity gate compares.
std::vector<std::string> make_frames(std::size_t count) {
  Rng rng(23);
  wire::EncodeContext ctx;
  ctx.uid = 99066;
  ctx.job_id = 1;
  ctx.exe = "/projects/ovis/bench/mpi-io-test";
  ctx.epoch_seconds = 1.6e9;
  wire::FrameEncoder enc(ctx);
  std::vector<std::string> frames;
  SimTime end = 0;
  for (std::size_t i = 0; i < count; ++i) {
    darshan::IoEvent e;
    e.module = darshan::Module::kPosix;
    e.op = rng.uniform() < 0.5 ? darshan::Op::kWrite : darshan::Op::kRead;
    e.rank = static_cast<int>(rng.uniform_int(0, 63));
    e.record_id = rng.next_u64();
    e.max_byte = static_cast<std::int64_t>(rng.next_u64() % (1 << 22));
    e.switches = 0;
    e.flushes = -1;
    e.cnt = static_cast<std::int64_t>(rng.next_u64() % 64);
    e.offset = rng.next_u64() % (1 << 22);
    e.length = rng.next_u64() % (1 << 20);
    end += static_cast<SimDuration>(1 + rng.next_u64() % 1000) * kMicrosecond;
    e.start = end - kMicrosecond;
    e.end = end;
    enc.add(e, "nid" + std::to_string(41 + e.rank % 4));
    if (enc.event_count() == kEventsPerFrame) {
      frames.push_back(enc.take_frame());
    }
  }
  if (!enc.empty()) frames.push_back(enc.take_frame());
  return frames;
}

/// Serial hot-path reference: cursor-walk every frame, insert inline.
/// Also the identity reference the parallel run must reproduce.
IngestRun run_hot_serial(const dsos::SchemaPtr& schema,
                         const std::vector<std::string>& frames) {
  IngestRun run;
  run.cluster = make_cluster(schema, kHotShards);
  std::vector<dsos::Value> values;
  const double t0 = now_seconds();
  for (const std::string& f : frames) {
    wire::FrameCursor cursor(f);
    for (;;) {
      const int step = cursor.next(values, nullptr);
      if (step <= 0) break;  // bench frames are well-formed by construction
      run.cluster->insert(dsos::make_object_unchecked(schema,
                                                      std::move(values)));
      values = {};
    }
  }
  run.seconds = now_seconds() - t0;
  return run;
}

/// The hot path proper: FrameCursor -> make_object_unchecked -> pinned
/// SpscRing executor (one writer per shard, pin "auto" placement
/// resolved the same way exp::run_experiment resolves it).
IngestRun run_hot_parallel(const dsos::SchemaPtr& schema,
                           const std::vector<int>& pin_cpus,
                           const std::vector<std::string>& frames) {
  IngestRun run;
  run.cluster = make_cluster(schema, kHotShards);
  dsos::IngestConfig icfg;
  icfg.workers = kHotShards;
  icfg.pin_cpus = pin_cpus;
  const double t0 = now_seconds();
  {
    dsos::IngestExecutor ingest(*run.cluster, icfg);
    std::vector<dsos::Value> values;
    for (const std::string& f : frames) {
      wire::FrameCursor cursor(f);
      for (;;) {
        const int step = cursor.next(values, nullptr);
        if (step <= 0) break;
        ingest.submit(dsos::make_object_unchecked(schema, std::move(values)));
        values = {};
      }
    }
    ingest.drain();
    run.backpressure_waits = ingest.stats().backpressure_waits;
    run.rows_per_commit = rows_per_commit(ingest.stats());
    run.threads_used = ingest.workers() + 1;
    run.threads_used = std::min(run.threads_used, util::effective_cpus());
  }
  run.seconds = now_seconds() - t0;
  return run;
}

// ---------------------------------------------------------------------------
// Per-stage serial breakdown of the JSON path's per-event cost.

struct StageNs {
  double decode = 0.0;   // JSON text -> dsos::Object rows
  double route = 0.0;    // shard selection (hash of the shard attr)
  double enqueue = 0.0;  // SpscRing push + pop round trip (the hand-off)
  double commit = 0.0;   // single-writer insert + durability barrier
};

/// Serial diagnostic split: each pipeline stage timed in isolation over
/// the same decoded rows, so a regression shows WHERE the time went
/// without bisecting.  The stages are measured back-to-back, not nested,
/// so they do not sum exactly to the serial ingest rate above — they are
/// a ratio diagnostic, not an accounting identity.
StageNs measure_stage_ns(const dsos::SchemaPtr& schema,
                         const std::vector<std::string>& payloads) {
  StageNs out;
  const double n = static_cast<double>(payloads.size());
  std::vector<dsos::Object> all;
  all.reserve(payloads.size());
  {
    std::vector<dsos::Object> rows;
    const double t0 = now_seconds();
    for (const std::string& p : payloads) {
      decode_payload(schema, p, rows);
      for (auto& obj : rows) all.push_back(std::move(obj));
    }
    out.decode = (now_seconds() - t0) * 1e9 / n;
  }
  auto cluster = make_cluster(schema, kHotShards);
  std::vector<std::size_t> shard_of(all.size());
  {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < all.size(); ++i) {
      shard_of[i] = cluster->route(all[i]);
    }
    out.route = (now_seconds() - t0) * 1e9 / n;
  }
  {
    SpscRing<dsos::Object> ring(1024);
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < all.size(); ++i) {
      ring.try_push(std::move(all[i]));
      all[i] = std::move(*ring.try_pop());
    }
    out.enqueue = (now_seconds() - t0) * 1e9 / n;
  }
  {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < all.size(); ++i) {
      cluster->insert_at(shard_of[i], std::move(all[i]));
    }
    for (std::size_t s = 0; s < cluster->shard_count(); ++s) {
      cluster->commit_shard(s);
    }
    out.commit = (now_seconds() - t0) * 1e9 / n;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool check = argc > 1 && std::string(argv[1]) == "--check";
  const std::size_t events = env_size("DLC_INGEST_EVENTS", 60000);
  const auto schema = core::darshan_data_schema();

  std::printf("== DSOS ingest: serial vs parallel sharded executor ==\n\n");
  const std::vector<std::string> payloads = make_payloads(events);
  std::size_t payload_bytes = 0;
  for (const auto& p : payloads) payload_bytes += p.size();
  const double bytes_per_event =
      static_cast<double>(payload_bytes) / static_cast<double>(events);
  std::printf("%zu events, %.1f payload bytes/event, shard attr \"rank\"\n\n",
              events, bytes_per_event);

  bool ok = true;
  const auto gate = [&](bool cond, const std::string& what) {
    std::printf("  [%s] %s\n", cond ? "PASS" : "FAIL", what.c_str());
    ok = ok && cond;
  };

  struct ShardResult {
    std::size_t shards;
    double serial_eps;
    double parallel_eps;
    double speedup;
    std::uint64_t backpressure_waits;
    double rows_per_commit;
    std::size_t threads_used;
  };
  std::vector<ShardResult> shard_results;
  bool identical = true;

  std::printf("timings are the median of %zu runs per configuration\n\n",
              kReps);
  exp::TextTable table({"Shards", "Threads", "Serial ev/s", "Parallel ev/s",
                        "Speedup", "Backpressure", "Rows/commit",
                        "Identical"});
  for (const std::size_t shards : {1, 2, 4, 8}) {
    const IngestRun serial = median_run(
        [&] { return run_serial(schema, shards, payloads); });
    const IngestRun parallel = median_run(
        [&] { return run_parallel(schema, shards, shards, payloads); });
    const std::string fp_serial = fingerprint(*serial.cluster);
    const std::string fp_parallel = fingerprint(*parallel.cluster);
    const bool same = fp_serial == fp_parallel && !fp_serial.empty();
    identical = identical && same;
    ShardResult r;
    r.shards = shards;
    r.serial_eps = static_cast<double>(events) / serial.seconds;
    r.parallel_eps = static_cast<double>(events) / parallel.seconds;
    r.speedup = r.parallel_eps / r.serial_eps;
    r.backpressure_waits = parallel.backpressure_waits;
    r.rows_per_commit = parallel.rows_per_commit;
    r.threads_used = parallel.threads_used;
    shard_results.push_back(r);
    table.add_row({std::to_string(shards), std::to_string(r.threads_used),
                   exp::cell_f(r.serial_eps, 0),
                   exp::cell_f(r.parallel_eps, 0), exp::cell_f(r.speedup, 2),
                   exp::cell_u(r.backpressure_waits),
                   exp::cell_f(r.rows_per_commit, 1), same ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());

  // Per-stage serial breakdown: where a JSON-path event's time goes.
  const StageNs stages = measure_stage_ns(schema, payloads);
  std::printf("Per-stage serial cost (ns/event, measured in isolation):\n");
  std::printf("  decode %8.1f   route %6.1f   enqueue %6.1f   commit %6.1f\n\n",
              stages.decode, stages.route, stages.enqueue, stages.commit);

  // Binary hot path: wire frames through the pinned lock-free executor.
  const std::vector<std::string> frames = make_frames(events);
  std::size_t frame_bytes = 0;
  for (const auto& f : frames) frame_bytes += f.size();
  util::PinPolicy pin_policy;
  util::parse_pin_policy("auto", pin_policy);
  const std::vector<int> pin_cpus = util::resolve_pin_cpus(pin_policy);
  const IngestRun hot_serial =
      median_run([&] { return run_hot_serial(schema, frames); });
  const IngestRun hot =
      median_run([&] { return run_hot_parallel(schema, pin_cpus, frames); });
  const bool hot_identical =
      fingerprint(*hot_serial.cluster) == fingerprint(*hot.cluster) &&
      !frames.empty();
  const double hot_serial_eps =
      static_cast<double>(events) / hot_serial.seconds;
  const double hot_eps = static_cast<double>(events) / hot.seconds;
  const double hot_speedup = hot_eps / kCommittedParallelEps;
  std::printf("Binary hot path (wire frames -> FrameCursor -> pinned "
              "executor, %zu shards):\n",
              kHotShards);
  std::printf("  %zu frames, %zu events/frame, %.1f frame bytes/event, "
              "pinned cpus=%zu\n",
              frames.size(), kEventsPerFrame,
              static_cast<double>(frame_bytes) / static_cast<double>(events),
              pin_cpus.size());
  std::printf("  serial %10.0f ev/s   parallel %10.0f ev/s (%zu threads, "
              "%.1f rows/commit)\n",
              hot_serial_eps, hot_eps, hot.threads_used, hot.rows_per_commit);
  std::printf("  vs committed JSON baseline %.0f ev/s: %.2fx\n\n",
              kCommittedParallelEps, hot_speedup);

  // BENCH_ingest.json — the repo's benchmark trajectory artifact.
  {
    const char* out_path = std::getenv("DLC_BENCH_OUT");
    const std::string path = out_path ? out_path : "BENCH_ingest.json";
    json::Writer w;
    w.begin_object();
    w.member("bench", "ingest");
    w.member("events", static_cast<std::uint64_t>(events));
    w.member("payload_bytes_per_event", bytes_per_event);
    const util::CpuBudget cpus = util::cpu_budget();
    w.member("hardware_threads",
             static_cast<std::uint64_t>(cpus.hardware_threads));
    w.member("affinity_cpus", static_cast<std::uint64_t>(cpus.affinity));
    w.member("cgroup_quota_cpus",
             static_cast<std::uint64_t>(cpus.quota_cpus));
    w.member("effective_cpus", static_cast<std::uint64_t>(cpus.effective));
    w.member("effective_cpus_source", cpus.source);
    w.member("runs_per_config", static_cast<std::uint64_t>(kReps));
    w.member("timing", "median");
    w.key("shard_counts");
    w.begin_array();
    for (const ShardResult& r : shard_results) {
      w.begin_object();
      w.member("shards", static_cast<std::uint64_t>(r.shards));
      w.member("threads_used", static_cast<std::uint64_t>(r.threads_used));
      w.member("serial_events_per_sec", r.serial_eps);
      w.member("parallel_events_per_sec", r.parallel_eps);
      w.member("speedup", r.speedup);
      w.member("backpressure_waits", r.backpressure_waits);
      w.member("rows_per_commit", r.rows_per_commit);
      w.end_object();
    }
    w.end_array();
    w.member("results_byte_identical", identical);
    w.key("baseline");
    w.begin_object();
    w.member("source",
             "committed BENCH_ingest.json at 81e8833 (best parallel row, "
             "2 shards, JSON path)");
    w.member("parallel_events_per_sec", kCommittedParallelEps);
    w.end_object();
    w.key("stage_ns_per_event");
    w.begin_object();
    w.member("decode_ns", stages.decode);
    w.member("route_ns", stages.route);
    w.member("enqueue_ns", stages.enqueue);
    w.member("commit_ns", stages.commit);
    w.end_object();
    w.key("hot_path");
    w.begin_object();
    w.member("format", "binary_batched");
    w.member("frames", static_cast<std::uint64_t>(frames.size()));
    w.member("events_per_frame", static_cast<std::uint64_t>(kEventsPerFrame));
    w.member("frame_bytes_per_event",
             static_cast<double>(frame_bytes) / static_cast<double>(events));
    w.member("shards", static_cast<std::uint64_t>(kHotShards));
    w.member("threads_used", static_cast<std::uint64_t>(hot.threads_used));
    w.member("pin", pin_cpus.empty() ? "none" : "auto");
    w.member("pinned_cpus", static_cast<std::uint64_t>(pin_cpus.size()));
    w.member("serial_events_per_sec", hot_serial_eps);
    w.member("events_per_sec", hot_eps);
    w.member("speedup_vs_committed_baseline", hot_speedup);
    w.member("backpressure_waits", hot.backpressure_waits);
    w.member("rows_per_commit", hot.rows_per_commit);
    w.member("byte_identical", hot_identical);
    w.end_object();
    w.end_object();
    std::ofstream out(path);
    out << w.str() << "\n";
    std::printf("wrote %s\n\n", path.c_str());
  }

  // Correctness gate: ALWAYS fatal.  Parallel ingest that changes query
  // results is a bug regardless of benchmarking mode.
  gate(identical,
       "parallel and serial ingest produce byte-identical query results");
  gate(hot_identical,
       "binary hot path: pinned-parallel and serial cursor ingest are "
       "byte-identical");
  if (check) {
    // The speedup gate needs real parallelism to be meaningful: the caller
    // thread decodes while >= 4 workers insert, so when the process can
    // really run on fewer than 4 CPUs — few hardware threads, a narrow
    // affinity mask, or a cgroup quota (util::cpu_budget) — the workers
    // time-slice and the gate would fail on physics, not on a regression.
    const util::CpuBudget cpus = util::cpu_budget();
    for (const ShardResult& r : shard_results) {
      if (r.shards < 4) continue;
      char buf[256];
      if (cpus.effective < 4) {
        std::snprintf(buf, sizeof(buf),
                      "  [SKIPPED] perf gate WAIVED: parallel >= 1.5x serial "
                      "events/sec at %zu shards (effective CPUs %zu via %s: "
                      "hw=%zu affinity=%zu quota=%zu; got %.2fx)\n",
                      r.shards, cpus.effective, cpus.source.c_str(),
                      cpus.hardware_threads, cpus.affinity, cpus.quota_cpus,
                      r.speedup);
        std::printf("%s", buf);
        continue;
      }
      std::snprintf(buf, sizeof(buf),
                    "parallel >= 1.5x serial events/sec at %zu shards "
                    "(got %.2fx)",
                    r.shards, r.speedup);
      gate(r.speedup >= 1.5, buf);
    }
    // The tentpole gate: the binary hot path must beat the COMMITTED
    // JSON-path baseline by >= 5x.  Same effective-CPU waiver as above —
    // the hot path is 4 pinned writers plus the cursor-walking caller, so
    // below 4 effective CPUs the ratio measures time-slicing, not the
    // hot path.
    {
      char buf[320];
      if (cpus.effective < 4) {
        std::snprintf(buf, sizeof(buf),
                      "  [SKIPPED] perf gate WAIVED: binary hot path >= 5x "
                      "committed baseline %.0f ev/s (effective CPUs %zu via "
                      "%s: hw=%zu affinity=%zu quota=%zu; got %.2fx at "
                      "%.0f ev/s)\n",
                      kCommittedParallelEps, cpus.effective,
                      cpus.source.c_str(), cpus.hardware_threads,
                      cpus.affinity, cpus.quota_cpus, hot_speedup, hot_eps);
        std::printf("%s", buf);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "binary hot path >= 5x committed baseline %.0f ev/s "
                      "(got %.2fx at %.0f ev/s)",
                      kCommittedParallelEps, hot_speedup, hot_eps);
        gate(hot_speedup >= 5.0, buf);
      }
    }
  }

  if (!ok) {
    std::printf("\ningest gate FAILED\n");
    return 1;
  }
  std::printf("\ningest gate passed\n");
  return 0;
}
