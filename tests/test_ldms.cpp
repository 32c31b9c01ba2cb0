// Tests for the LDMS layer: stream bus semantics (tags, best-effort,
// subscribe-before-publish), daemon forwarding (hop latency, drops),
// multi-hop aggregation, store plugins, threaded transport.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ldms/config.hpp"
#include "ldms/daemon.hpp"
#include "ldms/metrics.hpp"
#include "ldms/store.hpp"
#include "ldms/stream_bus.hpp"
#include "ldms/threaded.hpp"
#include "sim/engine.hpp"

namespace dlc::ldms {
namespace {

StreamMessage make_msg(std::string tag, std::string payload) {
  StreamMessage m;
  m.tag = std::move(tag);
  m.payload = std::move(payload);
  return m;
}

TEST(StreamBus, DeliversToMatchingTagOnly) {
  StreamBus bus;
  std::vector<std::string> got_a, got_b;
  bus.subscribe("a", [&](const StreamMessage& m) { got_a.push_back(m.payload); });
  bus.subscribe("b", [&](const StreamMessage& m) { got_b.push_back(m.payload); });
  EXPECT_EQ(bus.publish(make_msg("a", "1")), 1u);
  EXPECT_EQ(bus.publish(make_msg("b", "2")), 1u);
  EXPECT_EQ(bus.publish(make_msg("c", "3")), 0u);
  EXPECT_EQ(got_a, (std::vector<std::string>{"1"}));
  EXPECT_EQ(got_b, (std::vector<std::string>{"2"}));
  EXPECT_EQ(bus.published(), 3u);
  EXPECT_EQ(bus.delivered(), 2u);
  EXPECT_EQ(bus.missed(), 1u);
}

TEST(StreamBus, NoCacheBeforeSubscription) {
  // "the published data can only be received after subscription"
  StreamBus bus;
  bus.publish(make_msg("darshanConnector", "early"));
  std::vector<std::string> got;
  bus.subscribe("darshanConnector",
                [&](const StreamMessage& m) { got.push_back(m.payload); });
  bus.publish(make_msg("darshanConnector", "late"));
  EXPECT_EQ(got, (std::vector<std::string>{"late"}));
}

TEST(StreamBus, MultipleSubscribersFanOut) {
  StreamBus bus;
  int count = 0;
  bus.subscribe("t", [&](const StreamMessage&) { ++count; });
  bus.subscribe("t", [&](const StreamMessage&) { ++count; });
  EXPECT_EQ(bus.publish(make_msg("t", "x")), 2u);
  EXPECT_EQ(count, 2);
}

TEST(StreamBus, UnsubscribeStopsDelivery) {
  StreamBus bus;
  int count = 0;
  const auto id = bus.subscribe("t", [&](const StreamMessage&) { ++count; });
  bus.publish(make_msg("t", "x"));
  bus.unsubscribe(id);
  bus.publish(make_msg("t", "y"));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(bus.subscriber_count(), 0u);
}

TEST(Daemon, PublishStampsProducerAndTime) {
  sim::Engine engine;
  LdmsDaemon d(&engine, "nid00040");
  StreamMessage received;
  d.bus().subscribe("tag", [&](const StreamMessage& m) { received = m; });
  auto proc = [](sim::Engine& eng, LdmsDaemon& daemon) -> sim::Task<void> {
    co_await eng.delay(5 * kSecond);
    daemon.publish("tag", PayloadFormat::kJson, "{}");
  };
  engine.spawn(proc(engine, d));
  engine.run();
  EXPECT_EQ(received.producer, "nid00040");
  EXPECT_EQ(received.publish_time, 5 * kSecond);
  EXPECT_EQ(received.format, PayloadFormat::kJson);
}

TEST(Daemon, ForwardsWithHopLatency) {
  sim::Engine engine;
  LdmsDaemon sampler(&engine, "nid00040");
  LdmsDaemon aggregator(&engine, "head");
  ForwardConfig cfg;
  cfg.hop_latency = 10 * kMillisecond;
  cfg.bandwidth_bytes_per_sec = 0;  // unmetered
  sampler.add_forward("darshanConnector", aggregator, cfg);

  std::vector<SimTime> deliver_times;
  aggregator.bus().subscribe("darshanConnector", [&](const StreamMessage& m) {
    deliver_times.push_back(m.deliver_time);
    EXPECT_EQ(m.hops, 1);
  });
  auto proc = [](LdmsDaemon& d) -> sim::Task<void> {
    d.publish("darshanConnector", PayloadFormat::kJson, "{}");
    co_return;
  };
  engine.spawn(proc(sampler));
  engine.run();
  ASSERT_EQ(deliver_times.size(), 1u);
  EXPECT_EQ(deliver_times[0], 10 * kMillisecond);
  EXPECT_EQ(sampler.forwarded(), 1u);
  EXPECT_EQ(sampler.dropped(), 0u);
}

TEST(Daemon, MultiHopAggregationAccumulatesLatency) {
  // Paper topology: compute-node sampler -> head-node aggregator ->
  // Shirley aggregator -> store.
  sim::Engine engine;
  LdmsDaemon sampler(&engine, "nid00040");
  LdmsDaemon l1(&engine, "voltrino-head");
  LdmsDaemon l2(&engine, "shirley");
  ForwardConfig cfg;
  cfg.hop_latency = 1 * kMillisecond;
  cfg.bandwidth_bytes_per_sec = 0;
  sampler.add_forward("t", l1, cfg);
  l1.add_forward("t", l2, cfg);

  CountingStore store;
  store.attach(l2, "t");
  auto proc = [](LdmsDaemon& d) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      d.publish("t", PayloadFormat::kJson, "{\"i\":1}");
    }
    co_return;
  };
  engine.spawn(proc(sampler));
  engine.run();
  EXPECT_EQ(store.stored(), 10u);
  // Every message crossed 2 hops of >= 1 ms each.
  EXPECT_GE(store.mean_latency_seconds(), 0.002);
}

TEST(Daemon, BestEffortDropsOnQueueOverflow) {
  sim::Engine engine;
  LdmsDaemon sampler(&engine, "n");
  LdmsDaemon agg(&engine, "a");
  ForwardConfig cfg;
  cfg.queue_capacity = 4;
  cfg.hop_latency = kSecond;  // slow drain
  cfg.bandwidth_bytes_per_sec = 0;
  sampler.add_forward("t", agg, cfg);
  int received = 0;
  agg.bus().subscribe("t", [&](const StreamMessage&) { ++received; });
  auto proc = [](LdmsDaemon& d) -> sim::Task<void> {
    // Publish 20 back-to-back with no virtual time passing: the route can
    // hold 4 + 1 in flight; the rest are dropped, never retried.
    for (int i = 0; i < 20; ++i) d.publish("t", PayloadFormat::kString, "x");
    co_return;
  };
  engine.spawn(proc(sampler));
  engine.run();
  EXPECT_GT(sampler.dropped(), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(received), sampler.forwarded());
  EXPECT_EQ(sampler.forwarded() + sampler.dropped(), 20u);
  EXPECT_LE(sampler.max_queue_depth(), 4u);
}

TEST(Daemon, PayloadBandwidthMetersTransfer) {
  sim::Engine engine;
  LdmsDaemon a(&engine, "a");
  LdmsDaemon b(&engine, "b");
  ForwardConfig cfg;
  cfg.hop_latency = 0;
  cfg.bandwidth_bytes_per_sec = 1000.0;  // 1 KB/s: 500 B -> 0.5 s
  a.add_forward("t", b, cfg);
  SimTime delivered_at = -1;
  b.bus().subscribe("t",
                    [&](const StreamMessage& m) { delivered_at = m.deliver_time; });
  auto proc = [](LdmsDaemon& d) -> sim::Task<void> {
    d.publish("t", PayloadFormat::kString, std::string(500, 'x'));
    co_return;
  };
  engine.spawn(proc(a));
  engine.run();
  EXPECT_EQ(delivered_at, kSecond / 2);
}

TEST(Store, CsvStoreCollectsRowsAndFile) {
  sim::Engine engine;
  LdmsDaemon d(&engine, "n");
  CsvStore store;
  store.attach(d, "t");
  auto proc = [](LdmsDaemon& daemon) -> sim::Task<void> {
    daemon.publish("t", PayloadFormat::kString, "1,2,3");
    daemon.publish("t", PayloadFormat::kString, "4,5,6");
    co_return;
  };
  engine.spawn(proc(d));
  engine.run();
  ASSERT_EQ(store.rows().size(), 2u);
  EXPECT_EQ(store.rows()[1], "4,5,6");
  EXPECT_EQ(store.stored_bytes(), 10u);
}

TEST(Store, CallbackStoreForwards) {
  sim::Engine engine;
  LdmsDaemon d(&engine, "n");
  std::vector<std::string> got;
  CallbackStore store([&](const StreamMessage& m) { got.push_back(m.payload); });
  store.attach(d, "t");
  auto proc = [](LdmsDaemon& daemon) -> sim::Task<void> {
    daemon.publish("t", PayloadFormat::kJson, "{\"x\":1}");
    co_return;
  };
  engine.spawn(proc(d));
  engine.run();
  EXPECT_EQ(got, (std::vector<std::string>{"{\"x\":1}"}));
}

TEST(Threaded, ForwardsAcrossRealThreads) {
  StreamBus from, to;
  std::atomic<int> received{0};
  to.subscribe("t", [&](const StreamMessage&) {
    received.fetch_add(1, std::memory_order_relaxed);
  });
  {
    ThreadedForwarder fwd(from, to, "t");
    for (int i = 0; i < 10'000; ++i) {
      from.publish(make_msg("t", "payload"));
    }
    fwd.stop();
    EXPECT_EQ(static_cast<std::uint64_t>(received.load()), fwd.forwarded());
    EXPECT_EQ(fwd.forwarded() + fwd.dropped(), 10'000u);
  }
}

TEST(Threaded, SaturationConservesMessagesAcrossProducers) {
  // One publisher thread (the forwarder's SpscRing admits exactly one)
  // hammers a deliberately tiny queue while the worker drains it
  // concurrently.  Whatever the interleaving: every published message is
  // either forwarded exactly once or counted dropped — no loss without
  // accounting, no duplication.
  StreamBus from, to;
  std::atomic<std::uint64_t> received{0};
  to.subscribe("t", [&](const StreamMessage&) {
    received.fetch_add(1, std::memory_order_relaxed);
  });
  constexpr std::uint64_t kMessages = 20'000;
  {
    ThreadedForwarder fwd(from, to, "t", /*queue_capacity=*/8);
    std::thread publisher([&from] {
      for (std::uint64_t i = 0; i < kMessages; ++i) {
        from.publish(make_msg("t", "payload"));
      }
    });
    publisher.join();
    fwd.stop();
    EXPECT_EQ(fwd.forwarded() + fwd.dropped(), kMessages);
    EXPECT_EQ(received.load(), fwd.forwarded());
    EXPECT_GT(fwd.forwarded(), 0u);
  }
}

TEST(Threaded, ByteCapacityBoundsQueuedPayload) {
  StreamBus from, to;
  std::atomic<std::uint64_t> received_bytes{0};
  to.subscribe("t", [&](const StreamMessage& m) {
    received_bytes.fetch_add(m.payload.size(), std::memory_order_relaxed);
  });
  constexpr std::size_t kPayload = 1024;
  {
    // Count cap is huge; only the 4 KiB byte cap can cause drops.
    ThreadedForwarder fwd(from, to, "t", 1 << 20, 4 * kPayload);
    for (int i = 0; i < 1000; ++i) {
      from.publish(make_msg("t", std::string(kPayload, 'x')));
    }
    fwd.stop();
    EXPECT_EQ(fwd.forwarded() + fwd.dropped(), 1000u);
    EXPECT_EQ(fwd.forwarded_bytes(), received_bytes.load());
    EXPECT_EQ(fwd.forwarded_bytes(), fwd.forwarded() * kPayload);
  }
}

TEST(StreamBus, TracksPerFormatByteCounters) {
  StreamBus bus;
  StreamMessage m = make_msg("t", "12345678");  // 8 bytes
  m.format = PayloadFormat::kJson;
  bus.publish(m);
  bus.publish(m);
  m.format = PayloadFormat::kBinary;
  m.payload = "123";  // 3 bytes
  bus.publish(m);
  m.format = PayloadFormat::kString;
  m.payload = "1";
  bus.publish(m);
  EXPECT_EQ(bus.published_bytes(PayloadFormat::kJson), 16u);
  EXPECT_EQ(bus.published_bytes(PayloadFormat::kBinary), 3u);
  EXPECT_EQ(bus.published_bytes(PayloadFormat::kString), 1u);
  EXPECT_EQ(bus.published_bytes(), 20u);
  EXPECT_EQ(bus.published_count(PayloadFormat::kJson), 2u);
  EXPECT_EQ(bus.published_count(PayloadFormat::kBinary), 1u);
  EXPECT_EQ(bus.published_count(PayloadFormat::kString), 1u);
}

TEST(Threaded, ChainedHopsDeliverInOrder) {
  StreamBus a, b, c;
  std::vector<int> order;
  std::mutex mu;
  c.subscribe("t", [&](const StreamMessage& m) {
    const std::scoped_lock lock(mu);
    order.push_back(std::stoi(m.payload));
    EXPECT_EQ(m.hops, 2);
  });
  {
    ThreadedForwarder hop1(a, b, "t", 1 << 20);
    ThreadedForwarder hop2(b, c, "t", 1 << 20);
    for (int i = 0; i < 1000; ++i) a.publish(make_msg("t", std::to_string(i)));
    hop1.stop();
    hop2.stop();
  }
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace dlc::ldms

// ----------------------------------------------------------- metric sets --

namespace dlc::ldms {
namespace {

class FakePlugin final : public SamplerPlugin {
 public:
  const std::string& set_name() const override { return name_; }
  const std::vector<std::string>& metric_names() const override {
    return names_;
  }
  void sample(dlc::SimTime now, std::vector<double>& out) override {
    out.push_back(dlc::to_seconds(now));
    out.push_back(42.0);
  }

 private:
  std::string name_ = "fake";
  std::vector<std::string> names_ = {"t_echo", "answer"};
};

TEST(Metrics, SamplerPublishesOnCadence) {
  dlc::sim::Engine engine;
  LdmsDaemon daemon(&engine, "nid00001");
  std::vector<MetricSample> received;
  daemon.bus().subscribe("ldms-metrics", [&](const StreamMessage& msg) {
    MetricSample s;
    ASSERT_TRUE(MetricSampler::from_json(msg.payload, s));
    received.push_back(s);
  });
  MetricSampler sampler(engine, daemon, std::make_unique<FakePlugin>(),
                        10 * dlc::kSecond);
  sampler.start(35 * dlc::kSecond);
  engine.run();
  ASSERT_EQ(received.size(), 3u);  // t=10,20,30
  EXPECT_EQ(sampler.samples_taken(), 3u);
  EXPECT_EQ(received[0].set_name, "fake");
  EXPECT_EQ(received[0].producer, "nid00001");
  EXPECT_EQ(received[1].timestamp, 20 * dlc::kSecond);
  // Channels round-trip by name (JSON object order is alphabetical).
  ASSERT_EQ(received[2].names.size(), 2u);
  EXPECT_EQ(received[2].names[0], "answer");
  EXPECT_DOUBLE_EQ(received[2].values[0], 42.0);
  EXPECT_EQ(received[2].names[1], "t_echo");
  EXPECT_DOUBLE_EQ(received[2].values[1], 30.0);
}

TEST(Metrics, StopPredicateEndsSampling) {
  dlc::sim::Engine engine;
  LdmsDaemon daemon(&engine, "n");
  MetricSampler sampler(engine, daemon, std::make_unique<FakePlugin>(),
                        dlc::kSecond);
  bool stop = false;
  sampler.set_stop_predicate([&stop] { return stop; });
  sampler.start();
  auto stopper = [](dlc::sim::Engine& eng, bool& flag) -> dlc::sim::Task<void> {
    co_await eng.delay(5 * dlc::kSecond + 1);
    flag = true;
  };
  engine.spawn(stopper(engine, stop));
  engine.run();
  EXPECT_EQ(sampler.samples_taken(), 5u);
  EXPECT_EQ(engine.unfinished_tasks(), 0u);
}

TEST(Metrics, BusBytesSamplerReportsWireSplit) {
  dlc::sim::Engine engine;
  LdmsDaemon daemon(&engine, "nid00001");
  daemon.publish("t", PayloadFormat::kJson, "{\"k\":1}");   // 7 bytes
  daemon.publish("t", PayloadFormat::kBinary, "Wxyz");      // 4 bytes
  daemon.publish("t", PayloadFormat::kBinary, "Wab");       // 3 bytes
  BusBytesSampler sampler(daemon);
  EXPECT_EQ(sampler.set_name(), "darshan_stream_bytes");
  ASSERT_EQ(sampler.metric_names().size(), 7u);
  std::vector<double> out;
  sampler.sample(0, out);
  ASSERT_EQ(out.size(), sampler.metric_names().size());
  const auto value_of = [&](const std::string& name) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (sampler.metric_names()[i] == name) return out[i];
    }
    ADD_FAILURE() << "missing metric " << name;
    return -1.0;
  };
  EXPECT_EQ(value_of("msgs_json"), 1.0);
  EXPECT_EQ(value_of("msgs_binary"), 2.0);
  EXPECT_EQ(value_of("bytes_json"), 7.0);
  EXPECT_EQ(value_of("bytes_binary"), 7.0);
  EXPECT_EQ(value_of("bytes_total"), 14.0);
}

TEST(Metrics, TransportHealthSamplerExposesDropAndSpoolCounters) {
  dlc::sim::Engine engine;
  LdmsDaemon src(&engine, "nid00001");
  LdmsDaemon agg(&engine, "agg");
  ForwardConfig cfg;
  cfg.hop_latency = dlc::kMillisecond;
  cfg.bandwidth_bytes_per_sec = 0;
  cfg.delivery = relia::DeliveryMode::kAtLeastOnce;
  src.add_forward("t", agg, cfg);
  src.add_outage(0, 10 * dlc::kMillisecond);
  auto proc = [](dlc::sim::Engine& eng, LdmsDaemon& d) -> dlc::sim::Task<void> {
    d.publish("t", PayloadFormat::kString, "during");  // t=0: spooled
    co_await eng.delay(100 * dlc::kMillisecond);
    d.publish("t", PayloadFormat::kString, "after");
  };
  engine.spawn(proc(engine, src));
  engine.run();

  TransportHealthSampler sampler(src);
  EXPECT_EQ(sampler.set_name(), "darshan_transport_health");
  std::vector<double> out;
  sampler.sample(engine.now(), out);
  ASSERT_EQ(out.size(), sampler.metric_names().size());
  const auto value_of = [&](const std::string& name) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (sampler.metric_names()[i] == name) return out[i];
    }
    ADD_FAILURE() << "missing metric " << name;
    return -1.0;
  };
  EXPECT_EQ(value_of("forwarded"), 2.0);  // spooled redelivery + "after"
  EXPECT_EQ(value_of("dropped"), 0.0);
  EXPECT_EQ(value_of("outage_dropped"), 0.0);
  EXPECT_GE(value_of("spooled"), 1.0);
  EXPECT_GE(value_of("redelivered"), 1.0);
  EXPECT_EQ(value_of("spool_depth"), 0.0);
  EXPECT_GT(value_of("forwarded_bytes"), 0.0);
}

TEST(Metrics, TransportHealthRidesTheMetricsPathAsJson) {
  // The health channels must survive the publish -> from_json trip the
  // collector uses (this is the path into the Grafana export).
  dlc::sim::Engine engine;
  LdmsDaemon src(&engine, "nid00001");
  LdmsDaemon agg(&engine, "agg");
  src.add_forward("t", agg, ForwardConfig{.hop_latency = dlc::kMillisecond,
                                          .bandwidth_bytes_per_sec = 0});
  std::vector<MetricSample> samples;
  src.bus().subscribe("health", [&](const StreamMessage& msg) {
    MetricSample s;
    if (MetricSampler::from_json(msg.payload, s)) samples.push_back(s);
  });
  MetricSampler sampler(engine, src,
                        std::make_unique<TransportHealthSampler>(src),
                        10 * dlc::kMillisecond, "health");
  sampler.start(35 * dlc::kMillisecond);
  auto proc = [](LdmsDaemon& d) -> dlc::sim::Task<void> {
    d.publish("t", PayloadFormat::kString, "x");
    co_return;
  };
  engine.spawn(proc(src));
  engine.run();
  ASSERT_GE(samples.size(), 2u);
  EXPECT_EQ(samples[0].set_name, "darshan_transport_health");
  EXPECT_EQ(samples[0].producer, "nid00001");
  ASSERT_EQ(samples[0].names.size(), samples[0].values.size());
  // forwarded == 1 once the hop completes.
  const auto& last = samples.back();
  for (std::size_t i = 0; i < last.names.size(); ++i) {
    if (last.names[i] == "forwarded") EXPECT_EQ(last.values[i], 1.0);
  }
}

TEST(Metrics, FromJsonRejectsGarbage) {
  MetricSample s;
  EXPECT_FALSE(MetricSampler::from_json("not json", s));
  EXPECT_FALSE(MetricSampler::from_json("{}", s));
  EXPECT_FALSE(MetricSampler::from_json(
      R"({"metrics":{"x":"string"}})", s));
}


// ---------------------------------------------------- topology config ----

TEST(Config, ParsesLinesIntoCommandAndArgs) {
  std::string cmd;
  std::map<std::string, std::string> args;
  ASSERT_TRUE(parse_config_line("route from=a to=b tag=t queue=16", cmd, args));
  EXPECT_EQ(cmd, "route");
  EXPECT_EQ(args.at("from"), "a");
  EXPECT_EQ(args.at("queue"), "16");
  EXPECT_FALSE(parse_config_line("", cmd, args));
  EXPECT_FALSE(parse_config_line("x=1 daemon", cmd, args));   // no command
  EXPECT_FALSE(parse_config_line("daemon =bad", cmd, args));  // empty key
}

TEST(Config, BuildsWorkingTopology) {
  dlc::sim::Engine engine;
  const std::string script = R"(
# three-level paper topology
daemon name=nid00040
daemon name=head
daemon name=shirley
route from=nid00040 to=head tag=darshanConnector queue=1024 latency_us=100
route from=head to=shirley tag=darshanConnector latency_us=200
store daemon=shirley tag=darshanConnector type=counting
)";
  ConfigError error;
  auto topo = parse_topology(script, &engine, &error);
  ASSERT_TRUE(topo.has_value()) << error.message;
  ASSERT_EQ(topo->daemons.size(), 3u);
  ASSERT_EQ(topo->stores.size(), 1u);

  auto proc = [](LdmsDaemon& d) -> dlc::sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      d.publish("darshanConnector", PayloadFormat::kJson, "{}");
    }
    co_return;
  };
  engine.spawn(proc(*topo->daemon("nid00040")));
  engine.run();
  EXPECT_EQ(topo->stores[0]->stored(), 5u);
  // Two modelled hops of 100+200 us.
  EXPECT_GE(engine.now(), 300 * dlc::kMicrosecond);
}

TEST(Config, LineContinuationsJoin) {
  dlc::sim::Engine engine;
  // The `route` command is split across two physical lines with a
  // trailing-backslash continuation.
  const std::string text =
      "daemon name=a\n"
      "daemon name=b\n"
      "route from=a to=b \\\n"
      "      tag=t queue=8\n";
  ConfigError error;
  auto topo = parse_topology(text, &engine, &error);
  ASSERT_TRUE(topo.has_value()) << error.message;
  EXPECT_EQ(topo->daemons.size(), 2u);
  // The route exists: a publish on `a` reaches `b`.
  int received = 0;
  topo->daemon("b")->bus().subscribe(
      "t", [&received](const StreamMessage&) { ++received; });
  auto proc = [](LdmsDaemon& d) -> dlc::sim::Task<void> {
    d.publish("t", PayloadFormat::kString, "x");
    co_return;
  };
  engine.spawn(proc(*topo->daemon("a")));
  engine.run();
  EXPECT_EQ(received, 1);
}

TEST(Config, ReportsErrorsWithLineNumbers) {
  dlc::sim::Engine engine;
  ConfigError error;
  EXPECT_FALSE(parse_topology("daemon name=a\nroute from=a to=missing tag=t",
                              &engine, &error)
                   .has_value());
  // (line numbering counts logical lines)
  EXPECT_EQ(error.line, 2u);
  EXPECT_NE(error.message.find("unknown daemon"), std::string::npos);

  EXPECT_FALSE(parse_topology("daemon name=a\ndaemon name=a", &engine, &error)
                   .has_value());
  EXPECT_NE(error.message.find("duplicate"), std::string::npos);

  EXPECT_FALSE(parse_topology("frobnicate x=1", &engine, &error).has_value());
  EXPECT_NE(error.message.find("unknown command"), std::string::npos);

  EXPECT_FALSE(parse_topology(
                   "daemon name=a\nstore daemon=a tag=t type=exotic", &engine,
                   &error)
                   .has_value());
  EXPECT_NE(error.message.find("unknown store type"), std::string::npos);
}


TEST(Daemon, OutageDropsNewArrivalsButDrainsQueue) {
  dlc::sim::Engine engine;
  LdmsDaemon sampler(&engine, "n");
  LdmsDaemon agg(&engine, "a");
  ForwardConfig cfg;
  cfg.hop_latency = 100 * dlc::kMillisecond;
  cfg.bandwidth_bytes_per_sec = 0;
  sampler.add_forward("t", agg, cfg);
  int received = 0;
  agg.bus().subscribe("t", [&](const StreamMessage&) { ++received; });

  // Aggregator link down between t=1s and t=3s.
  sampler.add_outage(dlc::kSecond, 3 * dlc::kSecond);
  auto proc = [](dlc::sim::Engine& eng, LdmsDaemon& d) -> dlc::sim::Task<void> {
    d.publish("t", PayloadFormat::kString, "before");   // t=0: delivered
    co_await eng.delay(2 * dlc::kSecond);
    d.publish("t", PayloadFormat::kString, "during");   // t=2s: lost
    co_await eng.delay(2 * dlc::kSecond);
    d.publish("t", PayloadFormat::kString, "after");    // t=4s: delivered
  };
  engine.spawn(proc(engine, sampler));
  engine.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(sampler.outage_dropped(), 1u);
  EXPECT_EQ(sampler.dropped(), 1u);
  EXPECT_EQ(sampler.forwarded(), 2u);
}

}  // namespace
}  // namespace dlc::ldms
