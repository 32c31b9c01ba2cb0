// src/relia unit tests plus daemon-level delivery-guarantee scenarios:
// sequence accounting, the spill spool, reconnect policy, the fault-plan
// DSL, and crash/partition/overflow runs comparing best-effort loss with
// at-least-once redelivery end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ldms/daemon.hpp"
#include "ldms/fault_inject.hpp"
#include "relia/delivery.hpp"
#include "relia/fault.hpp"
#include "relia/fileseg.hpp"
#include "relia/reconnect.hpp"
#include "relia/seq.hpp"
#include "relia/spool.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace dlc {
namespace {

using relia::SequenceTracker;

// ------------------------------------------------- sequence tracker ----

TEST(SequenceTracker, InOrderStreamIsAllAccepts) {
  SequenceTracker t;
  for (std::uint64_t s = 1; s <= 10; ++s) {
    EXPECT_EQ(t.observe("nid1", s), SequenceTracker::Observe::kAccept);
  }
  const auto* st = t.stats("nid1");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->received, 10u);
  EXPECT_EQ(st->unique, 10u);
  EXPECT_EQ(st->duplicates, 0u);
  EXPECT_EQ(st->reordered, 0u);
  EXPECT_EQ(st->lost(), 0u);
}

TEST(SequenceTracker, DuplicatesDetectedBelowAndAboveFrontier) {
  SequenceTracker t;
  t.observe("p", 1);
  t.observe("p", 2);
  t.observe("p", 5);  // out of order, pending above the frontier
  EXPECT_EQ(t.observe("p", 1), SequenceTracker::Observe::kDuplicate);
  EXPECT_EQ(t.observe("p", 5), SequenceTracker::Observe::kDuplicate);
  const auto* st = t.stats("p");
  EXPECT_EQ(st->duplicates, 2u);
  EXPECT_EQ(st->unique, 3u);
}

TEST(SequenceTracker, GapsCountAsLossUntilFilled) {
  SequenceTracker t;
  t.observe("p", 1);
  t.observe("p", 4);
  EXPECT_EQ(t.stats("p")->lost(), 2u);  // 2 and 3 outstanding
  EXPECT_EQ(t.observe("p", 3), SequenceTracker::Observe::kAccept);
  EXPECT_EQ(t.stats("p")->reordered, 1u);  // arrived below max_seq
  EXPECT_EQ(t.stats("p")->lost(), 1u);
  t.observe("p", 2);  // gap closed
  EXPECT_EQ(t.stats("p")->lost(), 0u);
  EXPECT_EQ(t.stats("p")->unique, 4u);
}

TEST(SequenceTracker, SeqZeroIsUnsequencedNeverDuplicate) {
  SequenceTracker t;
  EXPECT_EQ(t.observe("p", 0), SequenceTracker::Observe::kAccept);
  EXPECT_EQ(t.observe("p", 0), SequenceTracker::Observe::kAccept);
  EXPECT_EQ(t.unsequenced(), 2u);
  EXPECT_EQ(t.stats("p"), nullptr);  // excluded from per-producer stats
}

TEST(SequenceTracker, ProducersAreIndependentAndTotalAggregates) {
  SequenceTracker t;
  t.observe("a", 1);
  t.observe("b", 1);  // same seq, different producer: not a duplicate
  t.observe("b", 2);
  t.observe("b", 2);
  EXPECT_EQ(t.producers(), (std::vector<std::string>{"a", "b"}));
  const auto total = t.total();
  EXPECT_EQ(total.received, 4u);
  EXPECT_EQ(total.unique, 3u);
  EXPECT_EQ(total.duplicates, 1u);
  EXPECT_EQ(total.lost(), 0u);
}

// ------------------------------------------------------ message spool ----

ldms::StreamMessage make_msg(std::uint64_t seq, std::string payload = "x") {
  ldms::StreamMessage m;
  m.tag = "t";
  m.format = ldms::PayloadFormat::kString;
  m.payload = std::move(payload);
  m.producer = "nid1";
  m.seq = seq;
  m.publish_time = static_cast<SimTime>(seq);
  return m;
}

TEST(MessageSpool, FifoWithinTheRing) {
  relia::MessageSpool spool;
  for (std::uint64_t s = 1; s <= 5; ++s) spool.append(make_msg(s));
  EXPECT_EQ(spool.size(), 5u);
  for (std::uint64_t s = 1; s <= 5; ++s) {
    auto m = spool.pop_front();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->seq, s);
  }
  EXPECT_TRUE(spool.empty());
  EXPECT_EQ(spool.appended(), 5u);
  EXPECT_EQ(spool.evicted(), 0u);
}

TEST(MessageSpool, RingOverflowEvictsOldestFirst) {
  relia::SpoolConfig cfg;
  cfg.max_msgs = 3;  // no file: evictions are dropped
  relia::MessageSpool spool(cfg);
  for (std::uint64_t s = 1; s <= 5; ++s) spool.append(make_msg(s));
  EXPECT_EQ(spool.size(), 3u);
  EXPECT_EQ(spool.evicted(), 2u);  // seqs 1 and 2 gone
  EXPECT_EQ(spool.pop_front()->seq, 3u);
}

TEST(MessageSpool, ByteBoundEvictsIndependentlyOfCount) {
  relia::SpoolConfig cfg;
  cfg.max_msgs = 100;
  cfg.max_bytes = 10;
  relia::MessageSpool spool(cfg);
  spool.append(make_msg(1, "aaaaaa"));  // 6 bytes
  spool.append(make_msg(2, "bbbbbb"));  // would make 12 > 10: evicts seq 1
  EXPECT_EQ(spool.evicted(), 1u);
  EXPECT_EQ(spool.pop_front()->seq, 2u);
}

TEST(MessageSpool, ClearCountsRetainedAsEvicted) {
  relia::MessageSpool spool;
  spool.append(make_msg(1));
  spool.append(make_msg(2));
  spool.clear();
  EXPECT_TRUE(spool.empty());
  EXPECT_EQ(spool.evicted(), 2u);
}

// ------------------------------------------------------ file segment ----

TEST(FileSegment, AppendReadRoundTripAndCleanEof) {
  const std::string path = ::testing::TempDir() + "relia_fileseg_rt.bin";
  std::remove(path.c_str());
  relia::FileSegment seg;
  ASSERT_TRUE(seg.open(path));
  ASSERT_TRUE(seg.append("alpha"));
  ASSERT_TRUE(seg.append(""));  // zero-length bodies are legal frames
  ASSERT_TRUE(seg.append("gamma"));
  ASSERT_TRUE(seg.flush());

  std::string body;
  EXPECT_EQ(seg.read_next(body), relia::FileSegment::ReadStatus::kOk);
  EXPECT_EQ(body, "alpha");
  EXPECT_EQ(seg.read_next(body), relia::FileSegment::ReadStatus::kOk);
  EXPECT_EQ(body, "");
  EXPECT_EQ(seg.read_next(body), relia::FileSegment::ReadStatus::kOk);
  EXPECT_EQ(body, "gamma");
  EXPECT_EQ(seg.read_next(body), relia::FileSegment::ReadStatus::kEof);
  // A second segment on the same file replays from the start.
  relia::FileSegment reader;
  ASSERT_TRUE(reader.open(path));
  EXPECT_EQ(reader.read_next(body), relia::FileSegment::ReadStatus::kOk);
  EXPECT_EQ(body, "alpha");
  reader.close();
  seg.close();
  std::remove(path.c_str());
}

TEST(FileSegment, PartialAppendLeavesDetectableTornTail) {
  const std::string path = ::testing::TempDir() + "relia_fileseg_torn.bin";
  std::remove(path.c_str());
  relia::FileSegment seg;
  ASSERT_TRUE(seg.open(path));
  ASSERT_TRUE(seg.append("good-record"));
  // Process dies 12 bytes into the next frame (8-byte prefix + 4 bytes
  // of body).  True = the partial write itself hit the disk.
  EXPECT_TRUE(seg.append_partial("torn-record", 12));
  seg.flush();

  std::string body;
  EXPECT_EQ(seg.read_next(body), relia::FileSegment::ReadStatus::kOk);
  EXPECT_EQ(body, "good-record");
  const std::streamoff good_end = seg.read_pos();
  EXPECT_EQ(seg.read_next(body), relia::FileSegment::ReadStatus::kTorn);

  // Quarantine: truncate at the end of the last good record; the
  // segment then reads clean and accepts appends again.
  ASSERT_TRUE(seg.truncate_to(good_end));
  EXPECT_EQ(seg.bytes(), static_cast<std::size_t>(good_end));
  ASSERT_TRUE(seg.append("after-recovery"));
  ASSERT_TRUE(seg.flush());
  relia::FileSegment reader;
  ASSERT_TRUE(reader.open(path));
  EXPECT_EQ(reader.read_next(body), relia::FileSegment::ReadStatus::kOk);
  EXPECT_EQ(body, "good-record");
  EXPECT_EQ(reader.read_next(body), relia::FileSegment::ReadStatus::kOk);
  EXPECT_EQ(body, "after-recovery");
  EXPECT_EQ(reader.read_next(body), relia::FileSegment::ReadStatus::kEof);
  reader.close();
  seg.close();
  std::remove(path.c_str());
}

TEST(FileSegment, KeepModePreservesBytesAcrossReopen) {
  const std::string path = ::testing::TempDir() + "relia_fileseg_keep.bin";
  std::remove(path.c_str());
  {
    relia::FileSegment seg;
    ASSERT_TRUE(seg.open(path));
    ASSERT_TRUE(seg.append("persisted"));
    ASSERT_TRUE(seg.flush());
  }
  relia::FileSegment seg;
  ASSERT_TRUE(seg.open(path));
  std::string body;
  EXPECT_EQ(seg.read_next(body), relia::FileSegment::ReadStatus::kOk);
  EXPECT_EQ(body, "persisted");
  // Appends land after the preserved bytes, not over them.
  ASSERT_TRUE(seg.append("appended"));
  ASSERT_TRUE(seg.flush());
  EXPECT_EQ(seg.read_next(body), relia::FileSegment::ReadStatus::kOk);
  EXPECT_EQ(body, "appended");
  seg.close();
  std::remove(path.c_str());
}

TEST(FileSegment, RecycleEmptiesAndResetsCursors) {
  const std::string path = ::testing::TempDir() + "relia_fileseg_rec.bin";
  std::remove(path.c_str());
  relia::FileSegment seg;
  ASSERT_TRUE(seg.open(path));
  ASSERT_TRUE(seg.append("dropped"));
  ASSERT_TRUE(seg.flush());
  ASSERT_TRUE(seg.truncate_to(0));
  EXPECT_EQ(seg.bytes(), 0u);
  std::string body;
  EXPECT_EQ(seg.read_next(body), relia::FileSegment::ReadStatus::kEof);
  // An emptied segment starts a fresh run.
  ASSERT_TRUE(seg.append("next-run"));
  ASSERT_TRUE(seg.flush());
  EXPECT_EQ(seg.read_next(body), relia::FileSegment::ReadStatus::kOk);
  EXPECT_EQ(body, "next-run");
  seg.close();
  std::remove(path.c_str());
}

// -------------------------------------------------- reconnect policy ----

TEST(Backoff, GrowsGeometricallyAndCaps) {
  relia::BackoffConfig cfg;
  cfg.initial = 100;
  cfg.max = 1000;
  cfg.multiplier = 2.0;
  cfg.jitter = 0.0;
  Rng rng(1);
  EXPECT_EQ(relia::backoff_delay(cfg, 0, rng), 100);
  EXPECT_EQ(relia::backoff_delay(cfg, 1, rng), 200);
  EXPECT_EQ(relia::backoff_delay(cfg, 2, rng), 400);
  EXPECT_EQ(relia::backoff_delay(cfg, 10, rng), 1000);  // capped
}

TEST(Backoff, JitterStaysWithinBandAndVaries) {
  relia::BackoffConfig cfg;
  cfg.initial = 1000000;
  cfg.max = 1000000;
  cfg.jitter = 0.2;
  Rng rng(7);
  SimDuration lo = cfg.max, hi = 0;
  for (int i = 0; i < 200; ++i) {
    const SimDuration d = relia::backoff_delay(cfg, 0, rng);
    EXPECT_GE(d, static_cast<SimDuration>(800000));
    EXPECT_LE(d, static_cast<SimDuration>(1200000));
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_LT(lo, hi);  // actually jittered, not constant
}

TEST(Backoff, DeterministicUnderSeededRng) {
  relia::BackoffConfig cfg;
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(relia::backoff_delay(cfg, i, a), relia::backoff_delay(cfg, i, b));
  }
}

TEST(CircuitBreaker, OpensAtThresholdAndRecoversViaHalfOpen) {
  relia::BreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.open_for = 100;
  relia::CircuitBreaker br(cfg);
  EXPECT_TRUE(br.allow(0));
  br.record_failure(0);
  br.record_failure(1);
  EXPECT_EQ(br.state(), relia::CircuitBreaker::State::kClosed);
  br.record_failure(2);  // third consecutive failure trips it
  EXPECT_EQ(br.state(), relia::CircuitBreaker::State::kOpen);
  EXPECT_EQ(br.opens(), 1u);
  EXPECT_FALSE(br.allow(50));   // still inside open_for
  EXPECT_TRUE(br.allow(102));   // elapsed: half-open probe admitted
  EXPECT_EQ(br.state(), relia::CircuitBreaker::State::kHalfOpen);
  br.record_success();
  EXPECT_EQ(br.state(), relia::CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, HalfOpenFailureReopensImmediately) {
  relia::BreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.open_for = 100;
  relia::CircuitBreaker br(cfg);
  br.record_failure(0);
  br.record_failure(0);
  br.record_failure(0);
  ASSERT_TRUE(br.allow(200));  // half-open
  br.record_failure(200);      // single failure re-opens, no threshold
  EXPECT_EQ(br.state(), relia::CircuitBreaker::State::kOpen);
  EXPECT_EQ(br.opens(), 2u);
  EXPECT_FALSE(br.allow(250));
}

// ------------------------------------------------------ fault plan DSL ----

TEST(FaultPlan, ParsesEveryDirective) {
  const auto plan = relia::parse_fault_plan(
      "# reference schedule\n"
      "crash nid00041 at 2s for 500ms\n"
      "\n"
      "partition voltrino-head -> shirley at 4s for 1s\n"
      "overflow nid00040 at 1s count 25\n"
      "restart nid00041 at 3s\n");
  ASSERT_TRUE(plan.ok()) << plan.errors.front();
  ASSERT_EQ(plan.events.size(), 4u);

  EXPECT_EQ(plan.events[0].kind, relia::FaultKind::kCrash);
  EXPECT_EQ(plan.events[0].daemon, "nid00041");
  EXPECT_EQ(plan.events[0].at, 2 * kSecond);
  EXPECT_EQ(plan.events[0].duration, 500 * kMillisecond);

  EXPECT_EQ(plan.events[1].kind, relia::FaultKind::kPartition);
  EXPECT_EQ(plan.events[1].daemon, "voltrino-head");
  EXPECT_EQ(plan.events[1].upstream, "shirley");
  EXPECT_EQ(plan.events[1].duration, 1 * kSecond);

  EXPECT_EQ(plan.events[2].kind, relia::FaultKind::kOverflow);
  EXPECT_EQ(plan.events[2].count, 25u);

  EXPECT_EQ(plan.events[3].kind, relia::FaultKind::kRestart);
  EXPECT_EQ(plan.events[3].at, 3 * kSecond);
}

TEST(FaultPlan, EventsRoundTripThroughToString) {
  const std::string text =
      "crash nid00041 at 2s for 500ms\n"
      "partition voltrino-head -> shirley at 4s for 1s\n"
      "overflow nid00040 at 1s count 25\n"
      "restart nid00041 at 3s\n";
  const auto plan = relia::parse_fault_plan(text);
  ASSERT_TRUE(plan.ok());
  std::string rendered;
  for (const auto& e : plan.events) rendered += relia::to_string(e) + "\n";
  const auto replay = relia::parse_fault_plan(rendered);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(replay.events[i].kind, plan.events[i].kind);
    EXPECT_EQ(replay.events[i].daemon, plan.events[i].daemon);
    EXPECT_EQ(replay.events[i].upstream, plan.events[i].upstream);
    EXPECT_EQ(replay.events[i].at, plan.events[i].at);
    EXPECT_EQ(replay.events[i].duration, plan.events[i].duration);
    EXPECT_EQ(replay.events[i].count, plan.events[i].count);
  }
}

TEST(FaultPlan, StorecrashDirectiveIsOccurrenceCounted) {
  const auto plan = relia::parse_fault_plan(
      "storecrash commit after 3\n"
      "storecrash rollup_seal after 1\n");
  ASSERT_TRUE(plan.ok()) << plan.errors.front();
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, relia::FaultKind::kStoreCrash);
  EXPECT_EQ(plan.events[0].daemon, "commit");  // crash-point name
  EXPECT_EQ(plan.events[0].count, 3u);
  EXPECT_EQ(plan.events[1].daemon, "rollup_seal");
  // Renders without an `at` clause and round-trips through the parser.
  EXPECT_EQ(relia::to_string(plan.events[0]), "storecrash commit after 3");
  const auto replay = relia::parse_fault_plan(relia::to_string(plan.events[1]));
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.events[0].count, 1u);

  // Occurrence 0 never fires: rejected at parse time, not silently armed.
  EXPECT_FALSE(relia::parse_fault_plan("storecrash commit after 0\n").ok());
}

TEST(FaultPlan, IoslowDirectiveParsesAllClauses) {
  const auto plan = relia::parse_fault_plan(
      "ioslow nid00042 at 10s for 45s factor 12\n"
      "ioslow * at 5s for 80s factor 8.5 op write ramp\n"
      "ioslow nid00040 at 1s for 2s factor 2 op meta\n");
  ASSERT_TRUE(plan.ok()) << plan.errors.front();
  ASSERT_EQ(plan.events.size(), 3u);

  EXPECT_EQ(plan.events[0].kind, relia::FaultKind::kIoSlow);
  EXPECT_EQ(plan.events[0].daemon, "nid00042");
  EXPECT_EQ(plan.events[0].at, 10 * kSecond);
  EXPECT_EQ(plan.events[0].duration, 45 * kSecond);
  EXPECT_DOUBLE_EQ(plan.events[0].factor, 12.0);
  EXPECT_EQ(plan.events[0].op, "any");  // default scope
  EXPECT_FALSE(plan.events[0].ramp);

  EXPECT_EQ(plan.events[1].daemon, "*");
  EXPECT_DOUBLE_EQ(plan.events[1].factor, 8.5);
  EXPECT_EQ(plan.events[1].op, "write");
  EXPECT_TRUE(plan.events[1].ramp);

  EXPECT_EQ(plan.events[2].op, "meta");
}

TEST(FaultPlan, IoslowRoundTripsThroughToString) {
  const auto plan = relia::parse_fault_plan(
      "ioslow * at 5s for 80s factor 8.5 op write ramp\n"
      "ioslow nid00042 at 10s for 45s factor 12\n");
  ASSERT_TRUE(plan.ok());
  for (const relia::FaultEvent& e : plan.events) {
    const auto replay = relia::parse_fault_plan(relia::to_string(e));
    ASSERT_TRUE(replay.ok()) << relia::to_string(e);
    ASSERT_EQ(replay.events.size(), 1u);
    EXPECT_EQ(replay.events[0].daemon, e.daemon);
    EXPECT_EQ(replay.events[0].at, e.at);
    EXPECT_EQ(replay.events[0].duration, e.duration);
    EXPECT_DOUBLE_EQ(replay.events[0].factor, e.factor);
    EXPECT_EQ(replay.events[0].op, e.op);
    EXPECT_EQ(replay.events[0].ramp, e.ramp);
  }
}

TEST(FaultPlan, IoslowRejectsBadFactorAndOpClass) {
  // A non-positive factor is meaningless; an unknown op class is a typo.
  EXPECT_FALSE(
      relia::parse_fault_plan("ioslow nid1 at 1s for 1s factor 0\n").ok());
  EXPECT_FALSE(
      relia::parse_fault_plan("ioslow nid1 at 1s for 1s factor -2\n").ok());
  EXPECT_FALSE(
      relia::parse_fault_plan("ioslow nid1 at 1s for 1s factor 2 op fsync\n")
          .ok());
  EXPECT_FALSE(relia::parse_fault_plan("ioslow nid1 at 1s factor 2\n").ok());
}

TEST(FaultPlan, MalformedLinesAreReportedWithLineNumbers) {
  const auto plan = relia::parse_fault_plan(
      "crash nid1 at 1s for 1s\n"
      "crash nid1 at noon for 1s\n"
      "partition a b at 1s for 1s\n"  // missing ->
      "explode nid1 at 1s\n");
  EXPECT_EQ(plan.events.size(), 1u);
  ASSERT_EQ(plan.errors.size(), 3u);
  EXPECT_EQ(plan.errors[0].substr(0, 2), "2:");
  EXPECT_EQ(plan.errors[1].substr(0, 2), "3:");
  EXPECT_EQ(plan.errors[2].substr(0, 2), "4:");
  EXPECT_FALSE(plan.ok());
}

TEST(FaultPlan, DurationUnits) {
  SimDuration d = 0;
  EXPECT_TRUE(relia::parse_sim_duration("250ms", d));
  EXPECT_EQ(d, 250 * kMillisecond);
  EXPECT_TRUE(relia::parse_sim_duration("1.5s", d));
  EXPECT_EQ(d, kSecond + 500 * kMillisecond);
  EXPECT_TRUE(relia::parse_sim_duration("2m", d));
  EXPECT_EQ(d, 120 * kSecond);
  EXPECT_TRUE(relia::parse_sim_duration("10us", d));
  EXPECT_EQ(d, 10 * kMicrosecond);
  EXPECT_TRUE(relia::parse_sim_duration("7ns", d));
  EXPECT_EQ(d, 7);
  EXPECT_FALSE(relia::parse_sim_duration("", d));
  EXPECT_FALSE(relia::parse_sim_duration("ms", d));
  EXPECT_FALSE(relia::parse_sim_duration("5weeks", d));
  EXPECT_FALSE(relia::parse_sim_duration("-1s", d));
}

// --------------------------------------- daemon delivery scenarios ----

struct Receiver {
  SequenceTracker tracker;
  std::uint64_t arrivals = 0;

  void attach(ldms::LdmsDaemon& daemon, const std::string& tag) {
    daemon.bus().subscribe(tag, [this](const ldms::StreamMessage& msg) {
      ++arrivals;
      tracker.observe(msg.producer, msg.seq);
    });
  }
};

ldms::ForwardConfig fast_route(relia::DeliveryMode mode) {
  ldms::ForwardConfig cfg;
  cfg.hop_latency = kMillisecond;
  cfg.bandwidth_bytes_per_sec = 0;
  cfg.delivery = mode;
  cfg.backoff.initial = 20 * kMillisecond;
  cfg.backoff.max = 100 * kMillisecond;
  return cfg;
}

/// Publishes `count` messages, one every `gap`, starting at t=0.
sim::Task<void> paced_publisher(sim::Engine& engine, ldms::LdmsDaemon& d,
                                std::uint64_t count, SimDuration gap) {
  for (std::uint64_t i = 0; i < count; ++i) {
    d.publish("t", ldms::PayloadFormat::kString, "x");
    co_await engine.delay(gap);
  }
}

TEST(DaemonDelivery, BestEffortCrashLosesAtLeastOnceRecovers) {
  constexpr std::uint64_t kCount = 100;
  for (const auto mode : {relia::DeliveryMode::kBestEffort,
                          relia::DeliveryMode::kAtLeastOnce}) {
    sim::Engine engine;
    ldms::LdmsDaemon src(&engine, "src");
    ldms::LdmsDaemon dst(&engine, "dst");
    src.add_forward("t", dst, fast_route(mode));
    src.add_outage(100 * kMillisecond, 400 * kMillisecond);
    Receiver rx;
    rx.attach(dst, "t");
    engine.spawn(paced_publisher(engine, src, kCount, 5 * kMillisecond));
    engine.run();
    const auto total = rx.tracker.total();
    if (mode == relia::DeliveryMode::kBestEffort) {
      // Publishes inside the window are simply gone.
      EXPECT_GT(src.outage_dropped(), 0u);
      EXPECT_EQ(total.unique + src.outage_dropped(), kCount);
      EXPECT_GT(total.lost(), 0u);
      EXPECT_EQ(src.spooled(), 0u);
    } else {
      // Everything arrives exactly once after redelivery; duplicates come
      // from deliveries whose ack was lost inside the window.
      EXPECT_EQ(total.unique, kCount);
      EXPECT_EQ(total.lost(), 0u);
      EXPECT_EQ(src.outage_dropped(), 0u);
      EXPECT_GT(src.spooled(), 0u);
      EXPECT_GT(src.redelivered(), 0u);
      EXPECT_EQ(rx.arrivals, total.received);
      EXPECT_EQ(total.received - total.duplicates, kCount);
      EXPECT_EQ(src.spool_depth(), 0u);  // fully drained
    }
  }
}

TEST(DaemonDelivery, PartitionScopesToOneRoute) {
  constexpr std::uint64_t kCount = 50;
  sim::Engine engine;
  ldms::LdmsDaemon src(&engine, "src");
  ldms::LdmsDaemon a(&engine, "up-a");
  ldms::LdmsDaemon b(&engine, "up-b");
  src.add_forward("t", a, fast_route(relia::DeliveryMode::kBestEffort));
  src.add_forward("t", b, fast_route(relia::DeliveryMode::kBestEffort));
  src.add_route_outage("up-a", 50 * kMillisecond, 150 * kMillisecond);
  Receiver rx_a, rx_b;
  rx_a.attach(a, "t");
  rx_b.attach(b, "t");
  engine.spawn(paced_publisher(engine, src, kCount, 5 * kMillisecond));
  engine.run();
  // The partitioned route loses traffic; the healthy one sees everything.
  EXPECT_LT(rx_a.tracker.total().unique, kCount);
  EXPECT_EQ(rx_b.tracker.total().unique, kCount);
  EXPECT_GT(src.outage_dropped(), 0u);
  EXPECT_EQ(src.outage_dropped(), kCount - rx_a.tracker.total().unique);
}

TEST(DaemonDelivery, AckLossDuplicatesAreObservableDownstream) {
  sim::Engine engine;
  ldms::LdmsDaemon src(&engine, "src");
  ldms::LdmsDaemon dst(&engine, "dst");
  src.add_forward("t", dst, fast_route(relia::DeliveryMode::kAtLeastOnce));
  // Outage opens *after* publish but before the 1 ms hop completes: the
  // message is delivered into the window, its ack is lost, and the spool
  // redelivers it after reconnect — two arrivals, one unique.
  src.add_outage(500 * kMicrosecond, 50 * kMillisecond);
  Receiver rx;
  rx.attach(dst, "t");
  engine.spawn(paced_publisher(engine, src, 1, kMillisecond));
  engine.run();
  const auto total = rx.tracker.total();
  EXPECT_EQ(rx.arrivals, 2u);
  EXPECT_EQ(total.unique, 1u);
  EXPECT_EQ(total.duplicates, 1u);
  EXPECT_EQ(src.redelivered(), 1u);
}

TEST(DaemonDelivery, InjectedOverflowDropsOrSpools) {
  for (const auto mode : {relia::DeliveryMode::kBestEffort,
                          relia::DeliveryMode::kAtLeastOnce}) {
    sim::Engine engine;
    ldms::LdmsDaemon src(&engine, "src");
    ldms::LdmsDaemon dst(&engine, "dst");
    src.add_forward("t", dst, fast_route(mode));
    src.inject_overflow(0, 5);
    Receiver rx;
    rx.attach(dst, "t");
    engine.spawn(paced_publisher(engine, src, 20, kMillisecond));
    engine.run();
    if (mode == relia::DeliveryMode::kBestEffort) {
      EXPECT_EQ(rx.tracker.total().unique, 15u);
      EXPECT_EQ(src.dropped(), 5u);
    } else {
      EXPECT_EQ(rx.tracker.total().unique, 20u);
      EXPECT_EQ(src.dropped(), 0u);
      EXPECT_EQ(src.spooled(), 5u);
      EXPECT_EQ(src.redelivered(), 5u);
    }
  }
}

TEST(DaemonDelivery, RestartTruncatesAnOutageInProgress) {
  sim::Engine engine;
  ldms::LdmsDaemon src(&engine, "src");
  ldms::LdmsDaemon dst(&engine, "dst");
  src.add_forward("t", dst, fast_route(relia::DeliveryMode::kBestEffort));
  src.add_outage(0, 10 * kSecond);
  src.restart_at(50 * kMillisecond);  // operator bounces it early
  Receiver rx;
  rx.attach(dst, "t");
  engine.spawn(paced_publisher(engine, src, 20, 10 * kMillisecond));
  engine.run();
  // Publishes before 50 ms die in the window; the rest flow normally.
  EXPECT_EQ(src.outage_dropped(), 5u);
  EXPECT_EQ(rx.tracker.total().unique, 15u);
}

TEST(DaemonDelivery, ProberGivesUpOnAPermanentlyDeadRoute) {
  sim::Engine engine;
  ldms::LdmsDaemon src(&engine, "src");
  ldms::LdmsDaemon dst(&engine, "dst");
  auto cfg = fast_route(relia::DeliveryMode::kAtLeastOnce);
  cfg.backoff.max_attempts = 4;
  src.add_forward("t", dst, cfg);
  src.add_outage(0, 365LL * 24 * 3600 * kSecond);  // down for a year
  Receiver rx;
  rx.attach(dst, "t");
  engine.spawn(paced_publisher(engine, src, 10, kMillisecond));
  engine.run();  // must terminate: the prober abandons, not loops
  EXPECT_EQ(rx.arrivals, 0u);
  EXPECT_GT(src.failed_probes(), 0u);
  EXPECT_EQ(src.spool_evicted(), 10u);
  EXPECT_EQ(src.dropped(), 10u);  // abandoned spool counts as loss
  EXPECT_EQ(src.spool_depth(), 0u);
}

TEST(DaemonDelivery, SpoolBoundsApplyUnderAtLeastOnce) {
  sim::Engine engine;
  ldms::LdmsDaemon src(&engine, "src");
  ldms::LdmsDaemon dst(&engine, "dst");
  auto cfg = fast_route(relia::DeliveryMode::kAtLeastOnce);
  cfg.spool.max_msgs = 8;  // tiny spool: overflow is honest loss
  src.add_forward("t", dst, cfg);
  src.add_outage(0, 200 * kMillisecond);
  Receiver rx;
  rx.attach(dst, "t");
  engine.spawn(paced_publisher(engine, src, 40, kMillisecond));
  engine.run();
  const auto total = rx.tracker.total();
  EXPECT_GT(src.spool_evicted(), 0u);
  // Conservation: everything published either arrived uniquely or was
  // evicted from the bounded spool.
  EXPECT_EQ(total.unique + src.spool_evicted(), 40u);
  EXPECT_EQ(total.lost(), src.spool_evicted());
}

// ----------------------------------------------- fault plan application ----

TEST(FaultInject, AppliesPlanByDaemonName) {
  sim::Engine engine;
  ldms::LdmsDaemon src(&engine, "nid1");
  ldms::LdmsDaemon dst(&engine, "agg");
  src.add_forward("t", dst, fast_route(relia::DeliveryMode::kBestEffort));
  const auto plan = relia::parse_fault_plan(
      "crash nid1 at 10ms for 50ms\n"
      "partition nid1 -> agg at 100ms for 20ms\n");
  ASSERT_TRUE(plan.ok());
  const auto unresolved = ldms::apply_fault_plan(
      plan, [&](const std::string& name) -> ldms::LdmsDaemon* {
        if (name == "nid1") return &src;
        if (name == "agg") return &dst;
        return nullptr;
      });
  EXPECT_TRUE(unresolved.empty());
  Receiver rx;
  rx.attach(dst, "t");
  engine.spawn(paced_publisher(engine, src, 30, 5 * kMillisecond));
  engine.run();
  EXPECT_GT(src.outage_dropped(), 0u);
  EXPECT_LT(rx.tracker.total().unique, 30u);
}

TEST(FaultInject, ReturnsUnresolvedEvents) {
  sim::Engine engine;
  ldms::LdmsDaemon src(&engine, "nid1");
  const auto plan = relia::parse_fault_plan("crash ghost at 1s for 1s\n");
  ASSERT_TRUE(plan.ok());
  const auto unresolved = ldms::apply_fault_plan(
      plan, [&](const std::string& name) -> ldms::LdmsDaemon* {
        return name == "nid1" ? &src : nullptr;
      });
  ASSERT_EQ(unresolved.size(), 1u);
  EXPECT_EQ(unresolved[0].daemon, "ghost");
}

}  // namespace
}  // namespace dlc
