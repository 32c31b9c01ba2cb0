// Tests for the pipeline self-telemetry subsystem (src/obs): log-bucket
// histogram properties, trace-context serialization (JSON member and wire
// codec block), the metrics registry + Prometheus exposition, sampler
// metric-name stability across restarts, the slow-span exemplar ring and
// the full-pipeline end-to-end trace under an at-least-once fault plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/schema_darshan.hpp"
#include "exp/pipeline.hpp"
#include "exp/specs.hpp"
#include "json/parser.hpp"
#include "ldms/daemon.hpp"
#include "ldms/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "relia/fault.hpp"
#include "sim/engine.hpp"
#include "util/stats.hpp"
#include "websvc/dashboard.hpp"
#include "websvc/service.hpp"
#include "wire/codec.hpp"
#include "workloads/mpi_io_test.hpp"

namespace dlc {
namespace {

// ------------------------------------------------- log-bucket geometry ----

TEST(LogBuckets, EveryValueFallsInsideItsBucketBounds) {
  std::vector<std::uint64_t> probes = {0, 1, 2, 3};
  for (int oct = 2; oct < 64; ++oct) {
    const std::uint64_t base = std::uint64_t{1} << oct;
    for (const std::uint64_t v :
         {base - 1, base, base + 1, base + base / 4, base + base / 2,
          2 * base - 1}) {
      probes.push_back(v);
    }
  }
  for (const std::uint64_t v : probes) {
    const std::uint32_t idx = log_bucket_index(v);
    ASSERT_LT(idx, kLogBucketCount) << v;
    EXPECT_LE(log_bucket_lo(idx), v) << "v=" << v << " idx=" << idx;
    EXPECT_GE(log_bucket_hi(idx), v) << "v=" << v << " idx=" << idx;
  }
}

TEST(LogBuckets, IndexIsMonotoneAndBoundsNonDecreasing) {
  // Bucket index never decreases as the sample grows ...
  std::uint32_t prev_idx = log_bucket_index(0);
  for (std::uint64_t v = 1; v < (1u << 16); ++v) {
    const std::uint32_t idx = log_bucket_index(v);
    EXPECT_GE(idx, prev_idx) << v;
    prev_idx = idx;
  }
  // ... and bucket bounds never decrease as the index grows (octaves 0/1
  // contain unreachable sub-buckets whose bounds repeat, but never go
  // backwards — the cumulative walk in log_bucket_percentile relies on
  // this ordering).
  for (std::uint32_t idx = 1; idx < kLogBucketCount; ++idx) {
    EXPECT_LE(log_bucket_lo(idx), log_bucket_hi(idx)) << idx;
    EXPECT_GE(log_bucket_lo(idx), log_bucket_lo(idx - 1)) << idx;
    EXPECT_GE(log_bucket_hi(idx), log_bucket_hi(idx - 1)) << idx;
  }
}

TEST(LogBuckets, RelativeWidthBoundedByQuarter) {
  // One bucket width <= 25% of the value for octave >= 2: the quantile
  // error bound quoted in DESIGN.md "Self-telemetry".
  for (std::uint32_t idx = 1 + 2 * kLogBucketsPerOctave;
       idx < kLogBucketCount; ++idx) {
    const double lo = static_cast<double>(log_bucket_lo(idx));
    const double hi = static_cast<double>(log_bucket_hi(idx));
    EXPECT_LE(hi - lo, lo * 0.25 + 1.0) << idx;
  }
}

// ------------------------------------------------------ LogHistogram ------

TEST(LogHistogram, ShardMergeMatchesSingleThreadedRecording) {
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> samples(20'000);
  for (auto& s : samples) {
    // Log-uniform over ~9 decades, like latency data.
    const double mag = std::uniform_real_distribution<double>(0.0, 30.0)(rng);
    s = static_cast<std::uint64_t>(std::exp2(mag));
  }

  obs::LogHistogram single;
  for (const std::uint64_t s : samples) single.record(s);

  // Same multiset recorded from four threads: each writer stripes onto a
  // thread-local shard, so the merged snapshot exercises merge-on-scrape.
  obs::LogHistogram striped;
  std::vector<std::thread> threads;
  const std::size_t quarter = samples.size() / 4;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t begin = static_cast<std::size_t>(t) * quarter;
      const std::size_t end = t == 3 ? samples.size() : begin + quarter;
      for (std::size_t i = begin; i < end; ++i) striped.record(samples[i]);
    });
  }
  for (auto& th : threads) th.join();

  const auto a = single.snapshot();
  const auto b = striped.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_DOUBLE_EQ(a.percentile(50.0), b.percentile(50.0));
  EXPECT_DOUBLE_EQ(a.percentile(99.0), b.percentile(99.0));
}

TEST(LogHistogram, PercentileWithinOneBucketOfExact) {
  std::mt19937_64 rng(11);
  obs::LogHistogram hist;
  std::vector<std::uint64_t> samples(5'000);
  for (auto& s : samples) {
    const double mag = std::uniform_real_distribution<double>(0.0, 24.0)(rng);
    s = static_cast<std::uint64_t>(std::exp2(mag));
    hist.record(s);
  }
  std::sort(samples.begin(), samples.end());
  const auto snap = hist.snapshot();
  for (const double p : {1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    // Exact order statistic at the same rank convention the bucket walk
    // uses (1-based, ceil).
    const auto rank = static_cast<std::size_t>(std::max(
        1.0, std::ceil(p / 100.0 * static_cast<double>(samples.size()))));
    const std::uint64_t exact = samples[rank - 1];
    const double est = snap.percentile(p);
    // The estimate interpolates within the bucket containing the exact
    // order statistic, so it stays inside that bucket's [lo, hi] bounds.
    EXPECT_GE(est, static_cast<double>(log_bucket_lo(log_bucket_index(exact))))
        << "p=" << p;
    EXPECT_LE(est, static_cast<double>(log_bucket_hi(log_bucket_index(exact))))
        << "p=" << p;
  }
  EXPECT_EQ(snap.count, samples.size());
  EXPECT_EQ(snap.max, samples.back());
}

TEST(LogHistogram, StatsPercentileShimStillExact) {
  // The exact counterpart of the streaming histogram: SortedQuantiles
  // (which replaced the free util::percentile) returns linear-
  // interpolated order statistics of an unsorted sample, at rank
  // p/100 * (n - 1) over the sorted values {1, 2, 3, 4, 5}.
  const SortedQuantiles q(std::vector<double>{5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(q.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.percentile(12.5), 1.5);
  EXPECT_DOUBLE_EQ(q.percentile(25.0), 2.0);
  EXPECT_DOUBLE_EQ(q.percentile(50.0), 3.0);
  EXPECT_DOUBLE_EQ(q.percentile(75.0), 4.0);
  EXPECT_DOUBLE_EQ(q.percentile(99.0), 4.96);
  EXPECT_DOUBLE_EQ(q.percentile(100.0), 5.0);
}

// ------------------------------------------------------- TraceContext -----

obs::TraceContext full_trace(std::uint64_t id, std::int64_t base) {
  obs::TraceContext t;
  t.id = id;
  for (std::size_t h = 0; h < obs::kHopCount; ++h) {
    t.stamp(static_cast<obs::Hop>(h), base + static_cast<std::int64_t>(h) * 10);
  }
  return t;
}

TEST(Trace, CompletenessMonotonicityAndE2e) {
  obs::TraceContext t = full_trace(42, 1'000);
  EXPECT_TRUE(t.sampled());
  EXPECT_TRUE(t.complete());
  EXPECT_TRUE(t.monotonic());
  EXPECT_EQ(t.e2e_ns(), 70);

  obs::TraceContext partial;
  partial.id = 1;
  partial.stamp(obs::Hop::kIntercepted, 100);
  EXPECT_FALSE(partial.complete());
  EXPECT_TRUE(partial.monotonic());  // unset hops are skipped
  EXPECT_EQ(partial.e2e_ns(), 0);

  obs::TraceContext backwards = full_trace(2, 1'000);
  backwards.stamp(obs::Hop::kDecoded, 0);
  EXPECT_FALSE(backwards.monotonic());
}

TEST(Trace, JsonMemberRoundTrip) {
  obs::TraceContext t;
  t.id = (std::uint64_t{77} << 32) | 9;
  t.stamp(obs::Hop::kIntercepted, 123'456'789);
  t.stamp(obs::Hop::kPublished, 123'500'000);

  std::string payload = R"({"job_id":77,"rank":3})";
  obs::append_trace_member(&payload, t);
  // Still a valid JSON object with the original members intact.
  const auto doc = json::parse(payload);
  ASSERT_TRUE(doc);
  EXPECT_EQ(doc->get_uint("job_id"), 77u);
  ASSERT_NE(doc->find("trace"), nullptr);

  obs::TraceContext back;
  ASSERT_TRUE(obs::parse_trace_member(payload, &back));
  EXPECT_EQ(back.id, t.id);
  EXPECT_EQ(back.hop(obs::Hop::kIntercepted), 123'456'789);
  EXPECT_EQ(back.hop(obs::Hop::kPublished), 123'500'000);

  obs::TraceContext none;
  EXPECT_FALSE(obs::parse_trace_member(R"({"job_id":77})", &none));
}

// ----------------------------------------------------- wire trace block ---

wire::EncodeContext obs_test_context() {
  wire::EncodeContext ctx;
  ctx.uid = 99066;
  ctx.job_id = 77;
  ctx.exe = "/projects/ldms_darshan/mpi-io-test";
  ctx.epoch_seconds = 1'656'633'600.0;
  return ctx;
}

darshan::IoEvent obs_test_event(SimTime end) {
  darshan::IoEvent e;
  e.module = darshan::Module::kPosix;
  e.op = darshan::Op::kWrite;
  e.rank = 3;
  e.record_id = 42;
  e.offset = 4096;
  e.length = 4096;
  e.cnt = 1;
  e.start = end - 5 * kMicrosecond;
  e.end = end;
  return e;
}

TEST(WireTrace, BlockRoundTripsThroughFrame) {
  wire::FrameEncoder enc(obs_test_context());
  obs::TraceContext t;
  t.id = (std::uint64_t{77} << 32) | 3;
  t.stamp(obs::Hop::kIntercepted, kSecond - 5 * kMicrosecond);
  t.stamp(obs::Hop::kPublished, kSecond);
  enc.add(obs_test_event(kSecond), "nid00052", &t);
  enc.add(obs_test_event(kSecond + kMillisecond), "nid00052", nullptr);

  std::vector<obs::TraceContext> traces;
  const auto objs = wire::decode_frame(core::darshan_data_schema(),
                                       enc.take_frame(), &traces);
  ASSERT_EQ(objs.size(), 2u);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].id, t.id);
  EXPECT_EQ(traces[0].hop(obs::Hop::kIntercepted),
            kSecond - 5 * kMicrosecond);
  EXPECT_EQ(traces[0].hop(obs::Hop::kPublished), kSecond);
  // The untraced event decodes to an unsampled context.
  EXPECT_FALSE(traces[1].sampled());
}

TEST(WireTrace, TracingOffFramesAreByteIdentical) {
  // The acceptance bar for "tracing costs nothing when off": the 2-arg
  // add, a nullptr trace and an unsampled context all produce the exact
  // bytes of the pre-trace codec.
  const darshan::IoEvent e = obs_test_event(kSecond);
  wire::FrameEncoder plain(obs_test_context());
  plain.add(e, "nid00052");
  const std::string baseline = plain.take_frame();

  wire::FrameEncoder with_null(obs_test_context());
  with_null.add(e, "nid00052", nullptr);
  EXPECT_EQ(with_null.take_frame(), baseline);

  wire::FrameEncoder with_unsampled(obs_test_context());
  const obs::TraceContext unsampled;  // id == 0
  with_unsampled.add(e, "nid00052", &unsampled);
  EXPECT_EQ(with_unsampled.take_frame(), baseline);
}

// ---------------------------------------------------------- registry ------

TEST(Registry, HandlesAreStableAndValuesResolve) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("dlc.test.count");
  obs::Gauge& g = reg.gauge("dlc.test.depth");
  obs::LogHistogram& h = reg.histogram("dlc.test.lat_ns");
  c.add(3);
  g.set_max(7);
  g.set_max(5);  // high-watermark: stays 7
  for (std::uint64_t v : {100u, 200u, 300u, 400u}) h.record(v);

  // get-or-create returns the same instrument.
  EXPECT_EQ(&reg.counter("dlc.test.count"), &c);
  EXPECT_EQ(reg.value("dlc.test.count"), 3.0);
  EXPECT_EQ(reg.value("dlc.test.depth"), 7.0);
  EXPECT_EQ(reg.value("dlc.test.lat_ns.count"), 4.0);
  EXPECT_EQ(reg.value("dlc.test.lat_ns.max"), 400.0);
  EXPECT_GE(reg.value("dlc.test.lat_ns.p50").value_or(0.0), 200.0);
  EXPECT_FALSE(reg.value("dlc.test.absent").has_value());

  // flatten() expands histograms and sorts by name.
  const auto rows = reg.flatten();
  ASSERT_FALSE(rows.empty());
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end(),
                             [](const auto& a, const auto& b) {
                               return a.first < b.first;
                             }));
  const auto has_row = [&](const std::string& name) {
    return std::any_of(rows.begin(), rows.end(),
                       [&](const auto& r) { return r.first == name; });
  };
  EXPECT_TRUE(has_row("dlc.test.count"));
  EXPECT_TRUE(has_row("dlc.test.lat_ns.p99"));

  // reset_values zeroes in place; cached references stay valid.
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
  c.add(1);
  EXPECT_EQ(reg.value("dlc.test.count"), 1.0);
}

TEST(Registry, PrometheusExpositionParses) {
  obs::Registry reg;
  reg.counter("dlc.bus.published").add(12);
  reg.gauge("dlc.ingest.queue_depth").set(4);
  obs::LogHistogram& h = reg.histogram("dlc.trace.e2e_ns");
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v * 1000);

  const std::string text = reg.prometheus_text();
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');

  // Exposition-format check: every line is either `# TYPE <name> <kind>`
  // or `<name>[{labels}] <value>` with a valid metric name and a value
  // that parses as a double.
  std::size_t samples = 0;
  std::size_t types = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const auto valid_name = [](const std::string& n) {
      if (n.empty() || (!std::isalpha(static_cast<unsigned char>(n[0])) &&
                        n[0] != '_' && n[0] != ':')) {
        return false;
      }
      return std::all_of(n.begin(), n.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == ':';
      });
    };
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      EXPECT_TRUE(valid_name(rest.substr(0, sp))) << line;
      const std::string kind = rest.substr(sp + 1);
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "summary")
          << line;
      ++types;
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    std::string name = line.substr(0, sp);
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      name = name.substr(0, brace);
    }
    EXPECT_TRUE(valid_name(name)) << line;
    char* end = nullptr;
    const std::string value = line.substr(sp + 1);
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << line;
    ++samples;
  }
  EXPECT_GT(types, 0u);
  EXPECT_GT(samples, 0u);

  // Dots are mangled to underscores; summaries expose quantile labels.
  EXPECT_NE(text.find("dlc_bus_published 12"), std::string::npos);
  EXPECT_NE(text.find("dlc_ingest_queue_depth 4"), std::string::npos);
  EXPECT_NE(text.find("dlc_trace_e2e_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("dlc_trace_e2e_ns_count 100"), std::string::npos);
  EXPECT_EQ(text.find("dlc.bus"), std::string::npos);
}

// --------------------------------------------------- sampler stability ----

TEST(Samplers, MetricNamesStableAcrossRestart) {
  // Satellite (a): the samplers' metric_names() vectors are built from
  // the shared channel lists, so a daemon restart (new sampler instance)
  // cannot change or reorder the set schema, and the registry mirror
  // names are the same channels under the dotted prefix.
  sim::Engine engine;
  ldms::LdmsDaemon d1(&engine, "nid00040");
  ldms::LdmsDaemon d2(&engine, "nid00040");  // the "restart"

  ldms::BusBytesSampler bus_a(d1), bus_b(d2);
  EXPECT_EQ(bus_a.metric_names(), bus_b.metric_names());
  EXPECT_EQ(bus_a.metric_names(), ldms::bus_bytes_channels());
  ASSERT_EQ(ldms::bus_bytes_channels().size(),
            static_cast<std::size_t>(ldms::BusChannel::kCount));

  ldms::TransportHealthSampler th_a(d1), th_b(d2);
  EXPECT_EQ(th_a.metric_names(), th_b.metric_names());
  EXPECT_EQ(th_a.metric_names(), ldms::transport_health_channels());
  ASSERT_EQ(ldms::transport_health_channels().size(),
            static_cast<std::size_t>(ldms::TransportChannel::kCount));

  // Registry mirror names derive from the same entries.
  EXPECT_EQ(ldms::bus_metric_name(ldms::BusChannel::kBytesJson),
            "dlc.bus.bytes_json");
  EXPECT_EQ(
      ldms::transport_metric_name(ldms::TransportChannel::kRedelivered),
      "dlc.transport.redelivered");
  for (std::size_t c = 0; c < ldms::transport_health_channels().size(); ++c) {
    EXPECT_EQ(ldms::transport_metric_name(
                  static_cast<ldms::TransportChannel>(c)),
              "dlc.transport." + ldms::transport_health_channels()[c]);
  }

  // Sampled values stay parallel to the names.
  std::vector<double> out;
  th_a.sample(0, out);
  EXPECT_EQ(out.size(), th_a.metric_names().size());
}

TEST(Samplers, ObsSelfSamplerReadsRegistry) {
  obs::Registry reg;
  reg.counter("dlc.bus.published").add(21);
  reg.counter("dlc.trace.completed").add(5);
  reg.histogram("dlc.trace.e2e_ns").record(4096);

  ldms::ObsSelfSampler a(reg), b(reg);
  EXPECT_EQ(a.metric_names(), b.metric_names());
  ASSERT_FALSE(a.metric_names().empty());

  std::vector<double> out;
  a.sample(0, out);
  ASSERT_EQ(out.size(), a.metric_names().size());
  const auto value_of = [&](const std::string& channel) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (a.metric_names()[i] == channel) return out[i];
    }
    ADD_FAILURE() << "channel missing: " << channel;
    return -1.0;
  };
  EXPECT_EQ(value_of("bus.published"), 21.0);
  EXPECT_EQ(value_of("trace.completed"), 5.0);
  EXPECT_GE(value_of("trace.e2e_ns.max"), 4096.0);
  // Channels the registry has not seen yet sample as 0, not an error.
  EXPECT_EQ(value_of("relia.duplicates"), 0.0);
}

// ------------------------------------------------------ TraceCollector ----

TEST(TraceCollector, WorstRingKeepsSlowestAndSpansJsonParses) {
  obs::Registry reg;
  obs::TraceCollector collector(reg, /*worst_n=*/4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    // e2e grows with i: trace i spans i microseconds.
    obs::TraceContext t = full_trace(i, 0);
    t.stamp(obs::Hop::kCommitted,
            static_cast<std::int64_t>(i) * 1000);
    collector.complete(t);
  }
  obs::TraceContext bad;
  bad.id = 99;
  bad.stamp(obs::Hop::kIntercepted, 5);
  collector.complete(bad);

  EXPECT_EQ(collector.completed(), 10u);
  EXPECT_EQ(collector.incomplete(), 1u);
  EXPECT_EQ(reg.value("dlc.trace.completed"), 10.0);
  EXPECT_EQ(reg.value("dlc.trace.incomplete"), 1.0);
  EXPECT_EQ(reg.value("dlc.trace.e2e_ns.count"), 10.0);

  const auto worst = collector.worst();
  ASSERT_EQ(worst.size(), 4u);
  // Slowest first: ids 10, 9, 8, 7.
  for (std::size_t i = 0; i < worst.size(); ++i) {
    EXPECT_EQ(worst[i].id, 10 - i);
    if (i > 0) {
      EXPECT_LE(worst[i].e2e_ns(), worst[i - 1].e2e_ns());
    }
  }

  const auto doc = json::parse(collector.spans_json());
  ASSERT_TRUE(doc);
  const auto* spans = doc->find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->as_array().size(), 4u);
}

// ------------------------------------------------- end-to-end pipeline ----

exp::ExperimentSpec traced_fault_spec() {
  // bench_relia's reference setup: MPI-IO-TEST under a daemon crash plus
  // an aggregator-link partition, at-least-once delivery, slow hops so
  // the fault windows open over undelivered queue contents.
  exp::ExperimentSpec spec = exp::base_spec(simfs::FsKind::kLustre);
  workloads::MpiIoTestConfig cfg;
  cfg.block_size = 4ull * 1024 * 1024;
  cfg.iterations = 3;
  cfg.collective = false;
  cfg.compute_per_iteration = 2 * kSecond;
  spec.workload = workloads::mpi_io_test(cfg);
  spec.exe = workloads::kMpiIoTestExe;
  spec.node_count = 3;
  spec.ranks_per_node = 4;
  spec.transport.hop_latency = 25 * kMillisecond;
  spec.connector.delivery = relia::DeliveryMode::kAtLeastOnce;
  spec.fault_plan = relia::parse_fault_plan(
      "crash nid00041 at 2500ms for 5s\n"
      "partition voltrino-head -> shirley at 9s for 4s\n");
  spec.decode_to_dsos = true;
  spec.connector.trace_sample_n = 1;  // trace every event
  return spec;
}

TEST(TraceE2e, EverySampledEventYieldsCompleteMonotonicSpan) {
  const obs::Registry& reg = obs::Registry::global();
  const auto counter = [&reg](std::string_view name) {
    return reg.value(name).value_or(0.0);
  };
  const double received = counter("dlc.relia.received");
  const double duplicates = counter("dlc.relia.duplicates");
  const exp::RunResult r = exp::run_experiment(traced_fault_spec());
  ASSERT_TRUE(r.traces != nullptr);
  // One tracker classifies each arrival at the final aggregator, so the
  // global mirrors count every arrival and every dropped duplicate once.
  EXPECT_EQ(counter("dlc.relia.received") - received,
            static_cast<double>(r.stored));
  EXPECT_EQ(counter("dlc.relia.duplicates") - duplicates,
            static_cast<double>(r.duplicates_dropped));

  // The fault plan really exercised redelivery: duplicates arrived and
  // were deduped, yet every published event committed exactly once and
  // finished its 8-hop span.
  EXPECT_GT(r.redelivered, 0u);
  EXPECT_GT(r.duplicates_dropped, 0u);
  EXPECT_EQ(r.seq_lost, 0u);
  EXPECT_GT(r.decoded_rows, 0u);
  EXPECT_EQ(r.traces_completed, r.decoded_rows);
  EXPECT_EQ(r.traces->incomplete(), 0u);

  const auto worst = r.traces->worst();
  ASSERT_FALSE(worst.empty());
  for (const obs::TraceContext& t : worst) {
    EXPECT_TRUE(t.sampled());
    EXPECT_TRUE(t.complete()) << "id=" << t.id;
    EXPECT_TRUE(t.monotonic()) << "id=" << t.id;
    EXPECT_GT(t.e2e_ns(), 0) << "id=" << t.id;
  }
}

TEST(TraceE2e, ParallelIngestFinishesSpansToo) {
  exp::ExperimentSpec spec = traced_fault_spec();
  spec.connector.ingest_threads = 2;
  const exp::RunResult r = exp::run_experiment(spec);
  ASSERT_TRUE(r.traces != nullptr);
  EXPECT_EQ(r.traces_completed, r.decoded_rows);
  for (const obs::TraceContext& t : r.traces->worst()) {
    EXPECT_TRUE(t.complete()) << "id=" << t.id;
    EXPECT_TRUE(t.monotonic()) << "id=" << t.id;
  }
}

TEST(TraceE2e, BinaryBatchedFormatCarriesTraceBlocks) {
  exp::ExperimentSpec spec = traced_fault_spec();
  spec.connector.wire_format = core::WireFormat::kBinaryBatched;
  spec.connector.batch.max_events = 8;
  const exp::RunResult r = exp::run_experiment(spec);
  ASSERT_TRUE(r.traces != nullptr);
  // A batched frame carries many events but at most one sampled span
  // (the envelope holds a single trace), so completions track frames,
  // not rows.
  EXPECT_GT(r.traces_completed, 0u);
  EXPECT_LE(r.traces_completed, r.decoded_rows);
  for (const obs::TraceContext& t : r.traces->worst()) {
    EXPECT_TRUE(t.complete()) << "id=" << t.id;
    EXPECT_TRUE(t.monotonic()) << "id=" << t.id;
  }
}

TEST(TraceE2e, SamplingOffCompletesNoTraces) {
  exp::ExperimentSpec spec = traced_fault_spec();
  spec.connector.trace_sample_n = 0;
  const exp::RunResult r = exp::run_experiment(spec);
  EXPECT_TRUE(r.traces == nullptr);
  EXPECT_EQ(r.traces_completed, 0u);
  EXPECT_GT(r.decoded_rows, 0u);  // pipeline still works
}

// ------------------------------------------------------- /metrics route ---

std::shared_ptr<dsos::DsosCluster> empty_db() {
  dsos::ClusterConfig cfg;
  cfg.shard_count = 1;
  cfg.shard_attr = "rank";
  cfg.parallel_query = false;
  auto db = std::make_shared<dsos::DsosCluster>(cfg);
  db->register_schema(core::darshan_data_schema());
  return db;
}

TEST(Metrics, ScrapeEndpointServesRegistry) {
  obs::Registry reg;
  reg.counter("dlc.bus.published").add(7);
  reg.counter("dlc.relia.duplicates").add(2);
  reg.gauge("dlc.ingest.queue_depth").set(3);
  reg.histogram("dlc.query.fanout_ns").record(1234);

  websvc::DashboardService service(empty_db());
  service.set_registry(&reg);
  const websvc::Response r = service.handle("/metrics");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type.rfind("text/plain", 0), 0u);
  EXPECT_NE(r.body.find("dlc_bus_published 7"), std::string::npos);
  EXPECT_NE(r.body.find("dlc_relia_duplicates 2"), std::string::npos);
  EXPECT_NE(r.body.find("dlc_ingest_queue_depth 3"), std::string::npos);
  EXPECT_NE(r.body.find("dlc_query_fanout_ns_count 1"), std::string::npos);
  EXPECT_NE(r.body.find("# TYPE dlc_bus_published counter"),
            std::string::npos);
}

TEST(Metrics, ObsSpansRouteAndSelfDashboardRender) {
  obs::Registry reg;
  obs::TraceCollector collector(reg, 4);
  collector.complete(full_trace(1, 100));

  websvc::DashboardService service(empty_db());
  service.set_registry(&reg);
  service.set_trace_collector(&collector);

  const websvc::Response spans = service.handle("/api/obs/spans");
  EXPECT_EQ(spans.status, 200);
  const auto doc = json::parse(spans.body);
  ASSERT_TRUE(doc);
  ASSERT_NE(doc->find("spans"), nullptr);
  EXPECT_EQ(doc->find("spans")->as_array().size(), 1u);

  // The self-monitoring dashboard renders both panels without error.
  const std::string rendered = websvc::render_dashboard(
      service, websvc::obs_self_dashboard());
  const auto dash = json::parse(rendered);
  ASSERT_TRUE(dash);
  const auto& panels = dash->find("panels")->as_array();
  ASSERT_EQ(panels.size(), 2u);
  for (const json::Value& panel : panels) {
    EXPECT_EQ(panel.find("error"), nullptr) << panel.get_string("title");
    EXPECT_NE(panel.find("data"), nullptr);
  }
}

}  // namespace
}  // namespace dlc
