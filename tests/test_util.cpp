// Unit and property tests for the util substrate: rng, stats, formatting,
// strings, bounded queue, virtual time.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bounded_queue.hpp"
#include "util/format.hpp"
#include "util/lockdep.hpp"
#include "util/rng.hpp"
#include "util/spsc_ring.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace dlc {
namespace {

// ---------------------------------------------------------------- time ----

TEST(Time, FromSecondsRoundTrips) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(from_seconds(12.5)), 12.5);
  EXPECT_EQ(from_seconds(-2.0), -2 * kSecond);
}

TEST(Time, FromSecondsSaturates) {
  EXPECT_EQ(from_seconds(1e30), std::numeric_limits<SimDuration>::max());
  EXPECT_EQ(from_seconds(-1e30), std::numeric_limits<SimDuration>::min());
}

TEST(Time, SimEpochAnchorsTimestamps) {
  SimEpoch epoch(1'000'000.0);
  EXPECT_DOUBLE_EQ(epoch.to_epoch_seconds(0), 1'000'000.0);
  EXPECT_DOUBLE_EQ(epoch.to_epoch_seconds(2 * kSecond + kSecond / 2),
                   1'000'002.5);
}

TEST(Time, FormatDurationPicksUnits) {
  EXPECT_EQ(format_duration(2 * kSecond), "2.00s");
  EXPECT_EQ(format_duration(3 * kMillisecond), "3.00ms");
  EXPECT_EQ(format_duration(7 * kMicrosecond), "7.00us");
  EXPECT_EQ(format_duration(42), "42ns");
}

TEST(Time, FormatBytesPicksUnits) {
  EXPECT_EQ(format_bytes(512), "512B");
  EXPECT_EQ(format_bytes(16ull * 1024 * 1024), "16.00MiB");
}

// ----------------------------------------------------------------- rng ----

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsIndependentOfParentFuture) {
  Rng parent(7);
  Rng child1 = parent.fork("io", 0);
  parent.next_u64();  // advance parent
  Rng parent2(7);
  Rng child2 = parent2.fork("io", 0);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, ForkDistinctPurposesDiffer) {
  Rng parent(7);
  Rng a = parent.fork("alpha", 0);
  Rng b = parent.fork("beta", 0);
  Rng c = parent.fork("alpha", 1);
  EXPECT_NE(a.next_u64(), b.next_u64());
  Rng a2 = parent.fork("alpha", 0);
  EXPECT_NE(a2.next_u64(), c.next_u64());
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, NormalMomentsAreSane) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 50'000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 50'000; ++i) s.add(rng.exponential(0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20'000; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(hits / 20'000.0, 0.25, 0.02);
}

TEST(Rng, Fnv1aIsStable) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(fnv1a64("/path/a"), fnv1a64("/path/b"));
}

// --------------------------------------------------------------- stats ----

TEST(Stats, WelfordMatchesClosedForm) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, MergeEqualsSequential) {
  Rng rng(3);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal();
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, Ci95UsesSmallSampleT) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  // stddev = sqrt(2.5), se = sqrt(0.5), t(4 dof) = 2.776.
  EXPECT_NEAR(s.ci95_half_width(), 2.776 * std::sqrt(0.5), 1e-9);
}

TEST(Stats, Ci95ZeroForTinySamples) {
  RunningStats s;
  EXPECT_EQ(s.ci95_half_width(), 0.0);
  s.add(1.0);
  EXPECT_EQ(s.ci95_half_width(), 0.0);
}

TEST(Stats, TQuantileTable) {
  EXPECT_NEAR(t_quantile_975(1), 12.706, 1e-6);
  EXPECT_NEAR(t_quantile_975(30), 2.042, 1e-6);
  EXPECT_NEAR(t_quantile_975(1000), 1.96, 1e-6);
}

TEST(Stats, PercentileInterpolates) {
  const SortedQuantiles q(std::vector<double>{10, 20, 30, 40});
  EXPECT_DOUBLE_EQ(q.percentile(0), 10);
  EXPECT_DOUBLE_EQ(q.percentile(100), 40);
  EXPECT_DOUBLE_EQ(q.percentile(50), 25);
  EXPECT_DOUBLE_EQ(SortedQuantiles(std::vector<double>{}).percentile(50), 0);
}

// Degenerate-case pins for the log-bucket quantile interpolation: the
// anomaly detectors divide by these values, so single-sample and
// all-in-one-bucket inputs must be stable, bounded and monotone rather
// than collapsing to a bucket edge.
TEST(Stats, LogBucketPercentileSingleSampleIsBucketMidpoint) {
  std::array<std::uint64_t, kLogBucketCount> counts{};
  const std::uint64_t sample = 123456;
  const std::uint32_t idx = log_bucket_index(sample);
  counts[idx] = 1;
  const double lo = static_cast<double>(log_bucket_lo(idx));
  const double hi = static_cast<double>(log_bucket_hi(idx));
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(log_bucket_percentile(counts.data(), counts.size(), p),
                     lo + 0.5 * (hi - lo))
        << p;
  }
}

TEST(Stats, LogBucketPercentileOneBucketSpansLoToHi) {
  std::array<std::uint64_t, kLogBucketCount> counts{};
  const std::uint32_t idx = log_bucket_index(100000);
  const std::uint64_t n = 1000;
  counts[idx] = n;
  const double lo = static_cast<double>(log_bucket_lo(idx));
  const double hi = static_cast<double>(log_bucket_hi(idx));
  const double w = hi - lo;
  const double p0 = log_bucket_percentile(counts.data(), counts.size(), 0.0);
  const double p50 = log_bucket_percentile(counts.data(), counts.size(), 50.0);
  const double p100 =
      log_bucket_percentile(counts.data(), counts.size(), 100.0);
  // p=0 sits half a sample slice above lo, p=100 half a slice below hi,
  // p=50 on the midpoint; all strictly inside [lo, hi].
  EXPECT_NEAR(p0, lo + 0.5 / static_cast<double>(n) * w, 1e-9);
  EXPECT_NEAR(p50, lo + 0.5 * w, w / static_cast<double>(n));
  EXPECT_NEAR(p100, hi - 0.5 / static_cast<double>(n) * w, 1e-9);
  EXPECT_LT(p0, p50);
  EXPECT_LT(p50, p100);
}

TEST(Stats, LogBucketPercentileZeroBucketAndEmpty) {
  std::array<std::uint64_t, kLogBucketCount> counts{};
  EXPECT_DOUBLE_EQ(log_bucket_percentile(counts.data(), counts.size(), 50.0),
                   0.0);
  counts[0] = 7;  // bucket 0 holds exactly v == 0: lo == hi == 0
  for (const double p : {0.0, 50.0, 100.0}) {
    EXPECT_DOUBLE_EQ(log_bucket_percentile(counts.data(), counts.size(), p),
                     0.0)
        << p;
  }
}

TEST(Stats, LogBucketPercentileMonotoneAndWithinBucketBounds) {
  Rng rng(4242);
  std::array<std::uint64_t, kLogBucketCount> counts{};
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 2000; ++i) {
    const auto mag = rng.uniform(0.0, 30.0);
    const auto v = static_cast<std::uint64_t>(std::exp2(mag));
    samples.push_back(v);
    counts[log_bucket_index(v)]++;
  }
  std::sort(samples.begin(), samples.end());
  double prev = -1.0;
  for (double p = 0.0; p <= 100.0; p += 2.5) {
    const double est =
        log_bucket_percentile(counts.data(), counts.size(), p);
    EXPECT_GE(est, prev) << "non-monotone at p=" << p;
    prev = est;
    const auto rank = static_cast<std::size_t>(std::max(
        1.0, std::ceil(p / 100.0 * static_cast<double>(samples.size()))));
    const std::uint32_t idx = log_bucket_index(samples[rank - 1]);
    EXPECT_GE(est, static_cast<double>(log_bucket_lo(idx))) << "p=" << p;
    EXPECT_LE(est, static_cast<double>(log_bucket_hi(idx))) << "p=" << p;
  }
}

TEST(Stats, HistogramBinsAndClamps) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // clamps to first bin
  h.add(0.5);
  h.add(9.9);
  h.add(100.0);  // clamps to last bin
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(4), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

// -------------------------------------------------------------- format ----

TEST(Format, AppendIntMatchesSnprintf) {
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    const auto v = static_cast<std::int64_t>(rng.next_u64());
    std::string fast, slow;
    append_int(fast, v);
    append_int_snprintf(slow, v);
    EXPECT_EQ(fast, slow) << v;
  }
}

TEST(Format, AppendIntEdgeCases) {
  std::string out;
  append_int(out, 0);
  EXPECT_EQ(out, "0");
  out.clear();
  append_int(out, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(out, "-9223372036854775808");
  out.clear();
  append_int(out, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(out, "9223372036854775807");
}

TEST(Format, AppendUintEdgeCases) {
  std::string out;
  append_uint(out, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(out, "18446744073709551615");
}

TEST(Format, AppendFixedMatchesSnprintfWithinOneUlp) {
  // The fast path rounds half-away-from-zero on the scaled integer; libc
  // rounds on the exact binary value, so the last printed digit may differ
  // by one.  Assert the parsed values agree to within one unit in the last
  // (6th) decimal place.
  Rng rng(29);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.uniform(-1e9, 1e9);
    std::string fast, slow;
    append_fixed(fast, v, 6);
    append_fixed_snprintf(slow, v, 6);
    EXPECT_NEAR(std::stod(fast), std::stod(slow), 2e-6) << v;
    EXPECT_EQ(fast.size(), slow.size()) << v;
  }
}

TEST(Format, AppendFixedExactOnRepresentableValues) {
  std::string out;
  append_fixed(out, 0.25, 2);
  EXPECT_EQ(out, "0.25");
  out.clear();
  append_fixed(out, -1.5, 1);
  EXPECT_EQ(out, "-1.5");
  out.clear();
  append_fixed(out, 3.0, 0);
  EXPECT_EQ(out, "3");
  out.clear();
  append_fixed(out, 1e19, 2);  // falls back to snprintf path
  std::string ref;
  append_fixed_snprintf(ref, 1e19, 2);
  EXPECT_EQ(out, ref);
}

TEST(Format, AppendFixedHandlesNonFinite) {
  std::string out;
  append_fixed(out, std::nan(""), 3);
  EXPECT_EQ(out, "0");
  out.clear();
  append_fixed(out, std::numeric_limits<double>::infinity(), 3);
  EXPECT_EQ(out, "0");
}

TEST(Format, DecimalDigits) {
  EXPECT_EQ(decimal_digits(0), 1);
  EXPECT_EQ(decimal_digits(9), 1);
  EXPECT_EQ(decimal_digits(10), 2);
  EXPECT_EQ(decimal_digits(18446744073709551615ULL), 20);
}

// ------------------------------------------------------------- strings ----

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(Strings, JoinRoundTripsSplit) {
  const std::vector<std::string> parts{"a", "bb", "", "c"};
  EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("darshan.log", "darshan"));
  EXPECT_FALSE(starts_with("dar", "darshan"));
  EXPECT_TRUE(ends_with("darshan.log", ".log"));
  EXPECT_FALSE(ends_with("log", ".log"));
}

TEST(Strings, CsvEscapeRoundTrip) {
  const std::vector<std::string> fields{"plain", "has,comma", "has\"quote",
                                        "multi\nline", ""};
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) line.push_back(',');
    line += csv_escape(fields[i]);
  }
  EXPECT_EQ(csv_parse_line(line), fields);
}

// --------------------------------------------------------------- queue ----
//
// BoundedQueue (tests/bounded_queue.hpp) is the reference SpscRing is
// checked against; these tests pin its contract.

TEST(Queue, DropsOnOverflow) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_TRUE(q.try_push(3));
}

TEST(Queue, CloseDrainsThenSignalsEnd) {
  BoundedQueue<int> q(8);
  q.try_push(1);
  q.close();
  EXPECT_FALSE(q.try_push(2));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(Queue, TryPopKeepsDrainingAfterClose) {
  // Documented contract: close() fails new pushes immediately but leaves
  // everything already queued poppable — shutdown must not lose messages.
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  q.close();
  EXPECT_FALSE(q.try_push(99));
  for (int i = 0; i < 5; ++i) {
    const auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
  EXPECT_FALSE(q.pop().has_value());  // closed and drained => end-of-stream
}

TEST(Queue, ZeroCapacityRejectsEverything) {
  // capacity 0 is a valid "drop everything" configuration, not UB.
  BoundedQueue<int> q(0);
  EXPECT_FALSE(q.try_push(1));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.try_pop().has_value());
  q.close();
  EXPECT_FALSE(q.pop().has_value());
}

TEST(Queue, PushWaitSucceedsWithoutBlockingWhenRoomy) {
  BoundedQueue<int> q(2);
  bool waited = true;
  EXPECT_TRUE(q.push_wait(1, 0, &waited));
  EXPECT_FALSE(waited);  // room available: no back-pressure recorded
  EXPECT_EQ(q.try_pop().value(), 1);
}

TEST(Queue, PushWaitBlocksUntilPopMakesRoom) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.try_push(1));
  std::thread popper([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(q.try_pop().value(), 1);
  });
  bool waited = false;
  EXPECT_TRUE(q.push_wait(2, 0, &waited));  // full until the popper runs
  popper.join();
  EXPECT_TRUE(waited);
  EXPECT_EQ(q.try_pop().value(), 2);
}

TEST(Queue, PushWaitReturnsFalseWhenItemCanNeverFit) {
  // Impossible items fail immediately instead of blocking forever.
  BoundedQueue<int> zero(0);
  bool waited = true;
  EXPECT_FALSE(zero.push_wait(1, 0, &waited));
  EXPECT_FALSE(waited);
  BoundedQueue<int> bytes(4, 10);
  EXPECT_FALSE(bytes.push_wait(1, 11, &waited));  // above the byte cap
  EXPECT_TRUE(bytes.push_wait(2, 10, &waited));   // exactly at it: fits
}

TEST(Queue, CloseUnblocksPushWait) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.try_push(1));
  std::thread closer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    q.close();
  });
  EXPECT_FALSE(q.push_wait(2));  // woken by close => push fails, no hang
  closer.join();
  EXPECT_EQ(q.try_pop().value(), 1);  // queued item still drains
}

TEST(Queue, ByteCapacityBindsIndependently) {
  BoundedQueue<std::string> q(100, 10);
  EXPECT_TRUE(q.try_push("aaaa", 4));
  EXPECT_TRUE(q.try_push("bbbb", 4));
  EXPECT_EQ(q.size_bytes(), 8u);
  EXPECT_FALSE(q.try_push("cccc", 4));  // 12 > 10: byte cap binds
  EXPECT_TRUE(q.try_push("cc", 2));     // exactly at the cap is fine
  EXPECT_EQ(q.size_bytes(), 10u);
  EXPECT_EQ(q.try_pop().value(), "aaaa");
  EXPECT_EQ(q.size_bytes(), 6u);  // pops release their byte cost
  EXPECT_TRUE(q.try_push("dddd", 4));
}

TEST(Queue, ZeroByteCapacityMeansUnlimited) {
  BoundedQueue<std::string> q(4);
  EXPECT_TRUE(q.try_push("x", 1 << 30));
  EXPECT_TRUE(q.try_push("y", 1 << 30));
  EXPECT_EQ(q.size(), 2u);
}

TEST(Queue, CrossThreadDelivery) {
  BoundedQueue<int> q(1024);
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) {
      while (!q.try_push(i)) std::this_thread::yield();
    }
    q.close();
  });
  int expected = 0;
  while (auto v = q.pop()) {
    EXPECT_EQ(*v, expected++);
  }
  producer.join();
  EXPECT_EQ(expected, 1000);
}

// Shutdown semantics under contention: close() must wake every blocked
// producer AND consumer exactly once, fail all later pushes, and still
// hand out everything queued before the close — no deadlock, no loss.

TEST(Queue, CloseRacesPushWaitWithoutDeadlockOrLoss) {
  constexpr int kProducers = 4;
  BoundedQueue<int> q(2);  // tiny: most push_wait calls block
  std::atomic<int> accepted{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&q, &accepted] {
      for (int i = 0; i < 1000; ++i) {
        if (!q.push_wait(i)) return;  // closed: exit, don't spin
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread closer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
  });
  int drained = 0;
  while (q.pop()) ++drained;  // end-of-stream only after close + empty
  for (auto& t : producers) t.join();
  closer.join();
  // Every accepted push was popped: close() never drops queued items and
  // never double-delivers.  (If close() lost a wakeup, the join above
  // would hang and the test would time out instead.)
  EXPECT_EQ(drained, accepted.load());
  EXPECT_FALSE(q.try_push(7));  // stays closed
  EXPECT_FALSE(q.pop().has_value());
}

TEST(Queue, CloseWakesAllBlockedPoppers) {
  BoundedQueue<int> q(8);  // empty: every pop() blocks
  constexpr int kPoppers = 4;
  std::atomic<int> woke{0};
  std::vector<std::thread> poppers;
  poppers.reserve(kPoppers);
  for (int t = 0; t < kPoppers; ++t) {
    poppers.emplace_back([&q, &woke] {
      EXPECT_FALSE(q.pop().has_value());  // end-of-stream, not an item
      woke.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();  // one close must release all four (notify_all, not _one)
  for (auto& t : poppers) t.join();
  EXPECT_EQ(woke.load(), kPoppers);
}

// ----------------------------------------------------------- spsc ring ----
//
// SpscRing is the bounded hand-off queue of every 1-producer/1-consumer
// edge (DESIGN.md section 9), with the BoundedQueue contract above.
// These tests mirror the Queue suite within the SPSC thread contract (at
// most one thread per side; close() from anywhere), plus ring-specific
// boundaries: index wraparound, the non-power-of-two capacity bind, and
// a randomized model-check of the full/empty transitions.  The whole
// suite runs under TSan in CI alongside the Queue suite.

TEST(SpscRing, FifoOrderAndOverflow) {
  SpscRing<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: item cap binds
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_TRUE(q.try_push(3));
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_EQ(q.try_pop().value(), 3);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(SpscRing, NonPowerOfTwoCapacityBinds) {
  // The slot array rounds up to a power of two; the advertised capacity
  // must still be what binds.
  SpscRing<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4));  // not 4, despite the 4-slot array
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_TRUE(q.try_push(4));
}

TEST(SpscRing, IndexWraparoundPreservesFifo) {
  // Monotonic 64-bit indices masked into a tiny ring: drive many times
  // the slot count through it so every slot is reused repeatedly.
  SpscRing<int> q(2);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(q.try_push(2 * i));
    ASSERT_TRUE(q.try_push(2 * i + 1));
    ASSERT_EQ(q.try_pop().value(), 2 * i);
    ASSERT_EQ(q.try_pop().value(), 2 * i + 1);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(SpscRing, CloseDrainsThenSignalsEnd) {
  SpscRing<int> q(8);
  q.try_push(1);
  q.close();
  EXPECT_FALSE(q.try_push(2));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(SpscRing, TryPopKeepsDrainingAfterClose) {
  SpscRing<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  q.close();
  EXPECT_FALSE(q.try_push(99));
  for (int i = 0; i < 5; ++i) {
    const auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
  EXPECT_FALSE(q.pop().has_value());  // closed and drained => end-of-stream
}

TEST(SpscRing, ZeroCapacityRejectsEverything) {
  SpscRing<int> q(0);
  EXPECT_FALSE(q.try_push(1));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.try_pop().has_value());
  q.close();
  EXPECT_FALSE(q.pop().has_value());
}

TEST(SpscRing, PushWaitSucceedsWithoutBlockingWhenRoomy) {
  SpscRing<int> q(2);
  bool waited = true;
  EXPECT_TRUE(q.push_wait(1, 0, &waited));
  EXPECT_FALSE(waited);  // room available: no back-pressure recorded
  EXPECT_EQ(q.try_pop().value(), 1);
}

TEST(SpscRing, PushWaitBlocksUntilPopMakesRoom) {
  SpscRing<int> q(1);
  ASSERT_TRUE(q.try_push(1));
  std::thread popper([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(q.try_pop().value(), 1);
  });
  bool waited = false;
  EXPECT_TRUE(q.push_wait(2, 0, &waited));  // full until the popper runs
  popper.join();
  EXPECT_TRUE(waited);
  EXPECT_EQ(q.try_pop().value(), 2);
}

TEST(SpscRing, PushWaitReturnsFalseWhenItemCanNeverFit) {
  SpscRing<int> zero(0);
  bool waited = true;
  EXPECT_FALSE(zero.push_wait(1, 0, &waited));
  EXPECT_FALSE(waited);
  SpscRing<int> bytes(4, 10);
  EXPECT_FALSE(bytes.push_wait(1, 11, &waited));  // above the byte cap
  EXPECT_TRUE(bytes.push_wait(2, 10, &waited));   // exactly at it: fits
}

TEST(SpscRing, CloseUnblocksPushWait) {
  // The shutdown race the Dekker fence protocol exists for: a producer
  // asleep on a full ring must see close() and fail, not hang.
  SpscRing<int> q(1);
  ASSERT_TRUE(q.try_push(1));
  std::thread closer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    q.close();
  });
  EXPECT_FALSE(q.push_wait(2));  // woken by close => push fails, no hang
  closer.join();
  EXPECT_EQ(q.try_pop().value(), 1);  // queued item still drains
}

TEST(SpscRing, CloseWakesBlockedPopper) {
  SpscRing<int> q(8);  // empty: pop() blocks
  std::thread popper([&q] {
    EXPECT_FALSE(q.pop().has_value());  // end-of-stream, not an item
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  popper.join();
}

TEST(SpscRing, ByteCapacityBindsIndependently) {
  SpscRing<std::string> q(100, 10);
  EXPECT_TRUE(q.try_push("aaaa", 4));
  EXPECT_TRUE(q.try_push("bbbb", 4));
  EXPECT_EQ(q.size_bytes(), 8u);
  EXPECT_FALSE(q.try_push("cccc", 4));  // 12 > 10: byte cap binds
  EXPECT_TRUE(q.try_push("cc", 2));     // exactly at the cap is fine
  EXPECT_EQ(q.size_bytes(), 10u);
  EXPECT_EQ(q.try_pop().value(), "aaaa");
  EXPECT_EQ(q.size_bytes(), 6u);  // pops release their byte cost
  EXPECT_TRUE(q.try_push("dddd", 4));
}

TEST(SpscRing, ZeroByteCapacityMeansUnlimited) {
  SpscRing<std::string> q(4);
  EXPECT_TRUE(q.try_push("x", 1 << 30));
  EXPECT_TRUE(q.try_push("y", 1 << 30));
  EXPECT_EQ(q.size(), 2u);
}

TEST(SpscRing, FullEmptyBoundaryModelCheck) {
  // Property test: a random push/pop interleaving against a deque model.
  // One thread plays both roles (legal: at most one thread per side), so
  // every full->not-full and empty->not-empty transition — where the
  // index caches go stale and must refresh — is hit hundreds of times.
  Rng rng(404);
  SpscRing<int> q(5);  // non-power-of-two: masks and capacity disagree
  std::deque<int> model;
  int next = 0;
  for (int step = 0; step < 20000; ++step) {
    if (rng.uniform() < 0.55) {
      const bool pushed = q.try_push(next);
      ASSERT_EQ(pushed, model.size() < 5u);
      if (pushed) model.push_back(next++);
    } else {
      const auto v = q.try_pop();
      ASSERT_EQ(v.has_value(), !model.empty());
      if (v.has_value()) {
        ASSERT_EQ(*v, model.front());
        model.pop_front();
      }
    }
    ASSERT_EQ(q.size(), model.size());
  }
}

TEST(SpscRing, CrossThreadDelivery) {
  // The deployment shape: one producer thread (push_wait, back-pressure
  // not loss), one consumer thread (pop), items arrive exactly once in
  // order.  Runs under TSan in CI — this is the release/acquire
  // publication proof in executable form.
  SpscRing<int> q(8);  // tiny: constant wrap + frequent blocking
  std::thread producer([&] {
    for (int i = 0; i < 20000; ++i) ASSERT_TRUE(q.push_wait(i));
    q.close();
  });
  int expected = 0;
  while (auto v = q.pop()) {
    ASSERT_EQ(*v, expected++);
  }
  producer.join();
  EXPECT_EQ(expected, 20000);
}

TEST(SpscRing, CloseRacesPushWaitWithoutLossOfAcceptedItems) {
  // close() fired from a third thread mid-stream: the producer must come
  // unstuck and stop, and every push that REPORTED success must still be
  // delivered.  close() is a producer-quiesce protocol (see spsc_ring.hpp),
  // so the consumer joins the producer before declaring the backlog
  // drained — the same order the executor and forwarder shut down in.
  SpscRing<int> q(2);
  std::atomic<int> accepted{0};
  std::thread producer([&] {
    for (int i = 0; i < 100000; ++i) {
      if (!q.push_wait(i)) return;  // closed: exit, don't spin
      accepted.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread closer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
  });
  int drained = 0;
  while (q.pop()) ++drained;  // end-of-stream after close + apparent-empty
  producer.join();
  closer.join();
  while (q.try_pop()) ++drained;  // in-flight push that raced the close
  EXPECT_EQ(drained, accepted.load());
  EXPECT_FALSE(q.try_push(7));  // stays closed
}

// ------------------------------------------------------------- lockdep ----
//
// The checker is compiled in every build; these tests drive it directly
// through its API so the cycle detection itself is covered even when
// util::Mutex instrumentation (DLC_LOCKDEP) is off.

TEST(Lockdep, AbBaOrderInversionIsOneViolation) {
  lockdep::reset();
  int a = 0, b = 0;  // addresses double as lock identities
  // Thread 1 order: A then B.
  lockdep::on_acquire(&a, "A");
  lockdep::on_acquire(&b, "B");
  lockdep::on_release(&b);
  lockdep::on_release(&a);
  EXPECT_EQ(lockdep::violations(), 0u);  // consistent so far
  // Same thread, inverted order: B then A closes the cycle.
  lockdep::on_acquire(&b, "B");
  lockdep::on_acquire(&a, "A");
  lockdep::on_release(&a);
  lockdep::on_release(&b);
  EXPECT_EQ(lockdep::violations(), 1u);
  const std::string report = lockdep::report();
  EXPECT_NE(report.find("A"), std::string::npos);
  EXPECT_NE(report.find("B"), std::string::npos);
  // Repeating the inversion is the same ordered pair: deduplicated.
  lockdep::on_acquire(&b, "B");
  lockdep::on_acquire(&a, "A");
  lockdep::on_release(&a);
  lockdep::on_release(&b);
  EXPECT_EQ(lockdep::violations(), 1u);
  lockdep::reset();
}

TEST(Lockdep, TransitiveCycleThroughThreeClasses) {
  lockdep::reset();
  int a = 0, b = 0, c = 0;
  lockdep::on_acquire(&a, "LA");
  lockdep::on_acquire(&b, "LB");  // LA -> LB
  lockdep::on_release(&b);
  lockdep::on_release(&a);
  lockdep::on_acquire(&b, "LB");
  lockdep::on_acquire(&c, "LC");  // LB -> LC
  lockdep::on_release(&c);
  lockdep::on_release(&b);
  EXPECT_EQ(lockdep::violations(), 0u);
  lockdep::on_acquire(&c, "LC");
  lockdep::on_acquire(&a, "LA");  // LC -> LA: cycle via LB
  lockdep::on_release(&a);
  lockdep::on_release(&c);
  EXPECT_EQ(lockdep::violations(), 1u);
  lockdep::reset();
}

TEST(Lockdep, DistinctInstancesOfOneClassShareOrdering) {
  // Two mutexes given one class name are the same lock class: an order
  // established on one instance pair constrains every other pair
  // (Linux-lockdep rule).
  lockdep::reset();
  int q1 = 0, q2 = 0;
  lockdep::on_acquire(&q1, "Q");
  lockdep::on_acquire(&q2, "Q");  // nested same-class: Q -> Q self-edge
  lockdep::on_release(&q2);
  lockdep::on_release(&q1);
  EXPECT_EQ(lockdep::violations(), 1u);  // self-cycle flagged immediately
  lockdep::reset();
}

TEST(Lockdep, AnonymousLocksNeverCrossTalk) {
  lockdep::reset();
  int a = 0, b = 0;
  lockdep::on_acquire(&a, nullptr);
  lockdep::on_acquire(&b, nullptr);  // per-instance classes: a -> b
  lockdep::on_release(&b);
  lockdep::on_release(&a);
  lockdep::on_acquire(&b, nullptr);  // b alone: no inversion
  lockdep::on_release(&b);
  EXPECT_EQ(lockdep::violations(), 0u);
  lockdep::reset();
}

#if DLC_LOCKDEP
TEST(Lockdep, InstrumentedMutexCatchesAbBaFixture) {
  // End-to-end through util::Mutex: a deliberate AB/BA fixture must be
  // caught in instrumented (Debug) builds even though no deadlock ever
  // happens on this serial schedule.
  lockdep::reset();
  util::Mutex ma("FixtureA");
  util::Mutex mb("FixtureB");
  {
    const util::LockGuard la(ma);
    const util::LockGuard lb(mb);
  }
  {
    const util::LockGuard lb(mb);
    const util::LockGuard la(ma);
  }
  EXPECT_EQ(lockdep::violations(), 1u);
  const std::string report = lockdep::report();
  EXPECT_NE(report.find("FixtureA"), std::string::npos);
  EXPECT_NE(report.find("FixtureB"), std::string::npos);
  lockdep::reset();
}

TEST(Lockdep, InstrumentedCondVarWaitKeepsMutexHeld) {
  // cv.wait() releases the native mutex while sleeping, but the predicate
  // runs with it held — lockdep keeps the hold across the wait, so a lock
  // taken inside a wait predicate still records an ordering edge.
  lockdep::reset();
  util::Mutex m("WaitOuter");
  util::CondVar cv;
  util::Mutex inner("WaitInner");
  bool ready = false;
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    {
      const util::LockGuard lock(m);
      ready = true;
    }
    cv.notify_all();
  });
  {
    util::UniqueLock lock(m);
    cv.wait(lock, [&]() DLC_REQUIRES(m) {
      const util::LockGuard g(inner);  // WaitOuter -> WaitInner edge
      return ready;
    });
  }
  t.join();
  EXPECT_EQ(lockdep::violations(), 0u);
  // The inverted order must now be flagged.
  {
    const util::LockGuard g(inner);
    const util::LockGuard g2(m);
  }
  EXPECT_EQ(lockdep::violations(), 1u);
  lockdep::reset();
}
#endif  // DLC_LOCKDEP

}  // namespace
}  // namespace dlc
