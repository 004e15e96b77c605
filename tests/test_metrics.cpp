// Tests for the measurement infrastructure the benches rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "metrics/metrics.hpp"

namespace riv::metrics {
namespace {

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ExactLatencyRecorder, MeanAndPercentiles) {
  ExactLatencyRecorder r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.mean(), Duration{});
  for (int i = 1; i <= 100; ++i) r.record(milliseconds(i));
  EXPECT_EQ(r.count(), 100u);
  EXPECT_EQ(r.mean(), Duration{50500});
  EXPECT_EQ(r.percentile(0.5), milliseconds(51));  // index round(0.5*99)=50
  EXPECT_EQ(r.percentile(0.0), milliseconds(1));
  EXPECT_EQ(r.percentile(1.0), milliseconds(100));
  EXPECT_EQ(r.max(), milliseconds(100));
}

// The histogram-backed recorder: count, mean, min and max stay exact;
// interior percentiles carry at most the bucketing error (1/16 relative).
TEST(LatencyRecorder, ExactStatsAndBoundedPercentileError) {
  LatencyRecorder r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.mean(), Duration{});
  for (int i = 1; i <= 100; ++i) r.record(milliseconds(i));
  EXPECT_EQ(r.count(), 100u);
  EXPECT_EQ(r.mean(), Duration{50500});
  EXPECT_EQ(r.max(), milliseconds(100));
  // Exact answers are 51ms / 1ms / 100ms; percentiles report the bucket
  // upper bound, so allow the 6.25% bucket width.
  EXPECT_NEAR(static_cast<double>(r.percentile(0.5).us), 51000.0,
              51000.0 / 16.0);
  EXPECT_NEAR(static_cast<double>(r.percentile(0.0).us), 1000.0,
              1000.0 / 16.0);
  EXPECT_EQ(r.percentile(1.0), milliseconds(100));  // clamped to max
}

TEST(LatencyRecorder, PercentileUnaffectedByInsertionOrder) {
  LatencyRecorder a, b;
  for (int i = 1; i <= 9; ++i) a.record(milliseconds(i));
  for (int i = 9; i >= 1; --i) b.record(milliseconds(i));
  EXPECT_EQ(a.percentile(0.5), b.percentile(0.5));
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (std::int64_t v = 0; v < 16; ++v) h.record_us(v);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.min(), Duration{0});
  EXPECT_EQ(h.max(), Duration{15});
  // Below 16 µs every value has its own bucket, so percentiles are exact:
  // the median rank of 16 samples 0..15 is the 8th smallest, value 7.
  EXPECT_EQ(h.percentile(0.0), Duration{0});
  EXPECT_EQ(h.percentile(1.0), Duration{15});
  EXPECT_EQ(h.percentile(0.5).us, 7);
}

TEST(Histogram, PercentileErrorIsBoundedAcrossMagnitudes) {
  // Compare against the exact recorder over four decades of values.
  Histogram h;
  ExactLatencyRecorder exact;
  std::uint64_t x = 88172645463325252ULL;  // xorshift
  for (int i = 0; i < 10000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::int64_t v = static_cast<std::int64_t>(x % 10'000'000);  // < 10s
    h.record_us(v);
    exact.record(Duration{v});
  }
  EXPECT_EQ(h.count(), exact.count());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    double want = static_cast<double>(exact.percentile(q).us);
    double got = static_cast<double>(h.percentile(q).us);
    EXPECT_NEAR(got, want, want / 16.0 + 1.0) << "q=" << q;
  }
}

TEST(Histogram, NegativeClampsAndHugeValuesOverflow) {
  Histogram h;
  h.record_us(-5);  // clamped to zero, still counted
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), Duration{0});

  h.record_us(Histogram::kMaxTrackable + 1);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 2u);
  // The overflow sample still drives exact max, and the top percentile
  // reports it.
  EXPECT_EQ(h.max().us, Histogram::kMaxTrackable + 1);
  EXPECT_EQ(h.percentile(1.0).us, Histogram::kMaxTrackable + 1);
}

TEST(Histogram, MergeMatchesRecordingIntoOne) {
  Histogram a, b, all;
  for (int i = 1; i <= 500; ++i) {
    std::int64_t v = i * 97;
    a.record_us(v);
    all.record_us(v);
  }
  for (int i = 1; i <= 300; ++i) {
    std::int64_t v = i * 1031;
    b.record_us(v);
    all.record_us(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.mean(), all.mean());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  for (double q : {0.25, 0.5, 0.75, 0.99})
    EXPECT_EQ(a.percentile(q), all.percentile(q)) << "q=" << q;
}

TEST(Histogram, MergeIntoEmptyAndEmptyIntoFull) {
  Histogram a, b;
  b.record_us(123);
  a.merge(b);  // empty <- full
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), Duration{123});
  Histogram none;
  a.merge(none);  // full <- empty must not disturb min/max
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), Duration{123});
  EXPECT_EQ(a.max(), Duration{123});
}

TEST(Registry, MergeFromAggregatesAllKinds) {
  Registry a, b;
  a.counter("c").add(1);
  b.counter("c").add(2);
  b.counter("only_b").add(7);
  a.latency("l").record(milliseconds(1));
  b.latency("l").record(milliseconds(3));
  a.merge_scalars_from(b);
  EXPECT_EQ(a.counter_value("c"), 3u);
  EXPECT_EQ(a.counter_value("only_b"), 7u);
  EXPECT_EQ(a.latency("l").count(), 2u);
  EXPECT_EQ(a.latency("l").max(), milliseconds(3));
}

TEST(SnapshotTimeline, CaptureAndCsv) {
  Registry reg;
  reg.counter("x").add(4);
  SnapshotTimeline t;
  EXPECT_TRUE(t.empty());
  t.capture(TimePoint{seconds(1).us}, ProcessId{2}, reg);
  reg.counter("x").add(1);
  t.capture(TimePoint{seconds(2).us}, ProcessId{2}, reg);
  ASSERT_EQ(t.rows().size(), 2u);
  EXPECT_EQ(t.rows()[1].value, 5u);
  EXPECT_EQ(t.to_csv(),
            "time_us,process,counter,value\n"
            "1000000,2,x,4\n"
            "2000000,2,x,5\n");
}

TEST(Registry, CountersCreatedOnFirstUse) {
  Registry reg;
  EXPECT_EQ(reg.counter_value("never.touched"), 0u);
  reg.counter("net.bytes.ring_event").add(100);
  reg.counter("net.bytes.keepalive").add(50);
  EXPECT_EQ(reg.counter_value("net.bytes.ring_event"), 100u);
}

TEST(Registry, PrefixSum) {
  Registry reg;
  reg.counter("net.bytes.a").add(1);
  reg.counter("net.bytes.b").add(2);
  reg.counter("net.msgs.a").add(100);
  EXPECT_EQ(reg.counter_sum("net.bytes."), 3u);
  EXPECT_EQ(reg.counter_sum("net."), 103u);
  EXPECT_EQ(reg.counter_sum("nope"), 0u);
}

namespace {
// Exact scalar equality: every counter value and every latency histogram
// bucket/count/sum/min/max, bit for bit. What merge-order invariance means.
void expect_scalars_equal(const Registry& a, const Registry& b) {
  ASSERT_EQ(a.counters().size(), b.counters().size());
  for (const auto& [name, counter] : a.counters())
    EXPECT_EQ(counter.value(), b.counter_value(name)) << name;
  ASSERT_EQ(a.latencies().size(), b.latencies().size());
  for (const auto& [name, lat] : a.latencies()) {
    auto it = b.latencies().find(name);
    ASSERT_NE(it, b.latencies().end()) << name;
    const Histogram& ha = lat.hist();
    const Histogram& hb = it->second.hist();
    EXPECT_EQ(ha.count(), hb.count()) << name;
    EXPECT_EQ(ha.sum_us(), hb.sum_us()) << name;
    EXPECT_EQ(ha.min(), hb.min()) << name;
    EXPECT_EQ(ha.max(), hb.max()) << name;
    EXPECT_EQ(ha.overflow(), hb.overflow()) << name;
    EXPECT_EQ(ha.buckets(), hb.buckets()) << name;
  }
}
}  // namespace

// merge_scalars_from is the basis of fleet-scale aggregation: worker
// threads fold shard registries in whatever grouping the shard layout
// dictates, and the fleet result must not depend on it. Counter adds and
// bucket-wise histogram adds are exactly associative and commutative, so
// folding 1k randomized registries left-to-right, in reverse, in a
// shuffled order, and as a two-level tree must agree bit for bit.
TEST(Registry, MergeScalarsOrderInvariantOver1kRandomRegistries) {
  constexpr int kRegistries = 1000;
  Rng rng(2026);
  const char* names[] = {"app1.delivered", "app1.delay", "net.bytes.ring",
                         "net.bytes.rb",   "dev.emitted", "proc.crashes"};
  std::vector<Registry> regs(kRegistries);
  for (Registry& reg : regs) {
    int n_counters = static_cast<int>(rng.uniform_int(5));
    for (int c = 0; c < n_counters; ++c)
      reg.counter(names[rng.uniform_int(6)]).add(rng.uniform_int(1'000'000));
    int n_samples = static_cast<int>(rng.uniform_int(9));
    for (int s = 0; s < n_samples; ++s)
      reg.latency(names[rng.uniform_int(6)])
          .record(microseconds(static_cast<std::int64_t>(
              rng.uniform_int(60'000'000))));
  }

  Registry forward;
  for (const Registry& reg : regs) forward.merge_scalars_from(reg);

  Registry backward;
  for (auto it = regs.rbegin(); it != regs.rend(); ++it)
    backward.merge_scalars_from(*it);
  expect_scalars_equal(forward, backward);

  // Deterministically shuffled order.
  std::vector<std::size_t> order(regs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_int(i)]);
  Registry shuffled;
  for (std::size_t i : order) shuffled.merge_scalars_from(regs[i]);
  expect_scalars_equal(forward, shuffled);

  // Two-level tree: shard-local folds, then a fold of the folds — the
  // exact shape the fleet runner uses.
  Registry tree;
  for (std::size_t first = 0; first < regs.size(); first += 64) {
    Registry shard;
    for (std::size_t i = first; i < std::min(first + 64, regs.size()); ++i)
      shard.merge_scalars_from(regs[i]);
    tree.merge_scalars_from(shard);
  }
  expect_scalars_equal(forward, tree);
}

TEST(Registry, ResetClearsEverything) {
  Registry reg;
  reg.counter("c").add(5);
  reg.latency("l").record(milliseconds(1));
  reg.reset();
  EXPECT_EQ(reg.counter_value("c"), 0u);
  EXPECT_TRUE(reg.latency("l").empty());
}

}  // namespace
}  // namespace riv::metrics
