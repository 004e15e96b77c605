// Measurement infrastructure for the evaluation harness.
//
// Every experiment in bench/ reads its numbers from these recorders rather
// than from analytic formulas: the transport charges bytes into a Counter
// and the runtime records per-event delivery latency into a
// LatencyRecorder. Timelines (Fig 7) read cumulative counters between
// chunked runs.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/time.hpp"
#include "common/types.hpp"

namespace riv::metrics {

// Monotonic counter (messages, bytes, polls, ...).
class Counter {
 public:
  void add(std::uint64_t v = 1) { value_ += v; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

  template <class A, class Self>
  static void io_state(A& a, Self& c) {
    io(a, c.value_);
  }

 private:
  std::uint64_t value_{0};
};

// Log-bucketed duration histogram (HdrHistogram-style): values below 16 µs
// land in exact one-µs buckets; above that, each power-of-two octave is
// split into 16 sub-buckets, so percentile error is bounded at 1/16
// (6.25%) relative while memory stays constant (~5 KB) no matter how many
// samples arrive. count/sum/min/max are tracked exactly, so mean() and
// max() are precise; only interior percentiles are bucketed. Histograms
// merge by bucket-wise addition, which is what lets per-process registries
// and per-seed sweeps aggregate without keeping raw samples.
class Histogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 16 per octave
  static constexpr int kOctaves = 39;  // covers values < 2^42 µs (~52 days)
  static constexpr int kBucketCount = kSubBuckets * kOctaves;
  static constexpr std::int64_t kMaxTrackable = (std::int64_t{1} << 42) - 1;

  void record(Duration d) { record_us(d.us); }
  void record_us(std::int64_t us) {
    if (us < 0) us = 0;
    if (us > kMaxTrackable) {
      ++overflow_;
    } else {
      ++buckets_[static_cast<std::size_t>(bucket_index(us))];
    }
    ++count_;
    sum_ += us;
    min_ = std::min(min_, us);
    max_ = std::max(max_, us);
  }

  std::size_t count() const { return static_cast<std::size_t>(count_); }
  bool empty() const { return count_ == 0; }
  std::uint64_t overflow() const { return overflow_; }

  Duration mean() const {
    if (count_ == 0) return {};
    return {sum_ / static_cast<std::int64_t>(count_)};
  }
  Duration min() const { return count_ == 0 ? Duration{} : Duration{min_}; }
  Duration max() const { return count_ == 0 ? Duration{} : Duration{max_}; }

  // q in [0, 1]; q = 0.5 is the median. Returns the upper bound of the
  // bucket holding the q-th sample, clamped to the exact observed range.
  // Zero when empty.
  Duration percentile(double q) const {
    if (count_ == 0) return {};
    q = std::clamp(q, 0.0, 1.0);
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
    std::uint64_t seen = 0;
    for (int i = 0; i < kBucketCount; ++i) {
      seen += buckets_[static_cast<std::size_t>(i)];
      if (seen >= rank)
        return {std::clamp(bucket_upper(i), min_, max_)};
    }
    return {max_};  // rank falls in the overflow bucket
  }

  void merge(const Histogram& other) {
    if (other.count_ == 0) return;
    for (int i = 0; i < kBucketCount; ++i)
      buckets_[static_cast<std::size_t>(i)] +=
          other.buckets_[static_cast<std::size_t>(i)];
    overflow_ += other.overflow_;
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  void reset() { *this = Histogram{}; }

  // Raw bucket counts, exposed read-only so fleet-scale aggregation can
  // fingerprint a merged histogram exactly (registry_fingerprint) instead
  // of through lossy percentile readouts.
  const std::array<std::uint64_t, kBucketCount>& buckets() const {
    return buckets_;
  }
  std::int64_t sum_us() const { return sum_; }

  // Snapshot state (DESIGN.md §16): the buckets as sparse (index, count)
  // pairs — a fleet home touches a handful of the ~600 — then the exact
  // words. min is the raw tracked value (the int64 max sentinel when the
  // histogram is empty).
  template <class A, class Self>
  static void io_state(A& a, Self& h) {
    io_sparse(a, h.buckets_);
    io(a, h.overflow_);
    io(a, h.count_);
    io(a, h.sum_);
    io(a, h.min_);
    io(a, h.max_);
  }

 private:
  static int bucket_index(std::int64_t v) {
    if (v < kSubBuckets) return static_cast<int>(v);
    int top = std::bit_width(static_cast<std::uint64_t>(v)) - 1;
    int octave = top - kSubBits + 1;
    int sub = static_cast<int>((v >> (top - kSubBits)) & (kSubBuckets - 1));
    return octave * kSubBuckets + sub;
  }
  static std::int64_t bucket_upper(int idx) {
    int octave = idx >> kSubBits;
    std::int64_t sub = idx & (kSubBuckets - 1);
    if (octave == 0) return sub;
    int scale = octave - 1;
    std::int64_t lower = (kSubBuckets + sub) << scale;
    return lower + ((std::int64_t{1} << scale) - 1);
  }

  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t overflow_{0};
  std::uint64_t count_{0};
  std::int64_t sum_{0};
  std::int64_t min_{std::numeric_limits<std::int64_t>::max()};
  std::int64_t max_{0};
};

// Collects duration samples into a constant-memory Histogram. Percentiles
// carry the histogram's <=6.25% relative bucketing error; count, mean and
// max are exact. Mergeable across processes and seeds. Tests that assert
// exact order statistics use ExactLatencyRecorder instead.
class LatencyRecorder {
 public:
  void record(Duration d) { hist_.record(d); }
  std::size_t count() const { return hist_.count(); }
  bool empty() const { return hist_.empty(); }
  Duration mean() const { return hist_.mean(); }
  // q in [0, 1]; q = 0.5 is the median. Returns zero when empty.
  Duration percentile(double q) const { return hist_.percentile(q); }
  Duration max() const { return hist_.max(); }
  void merge(const LatencyRecorder& other) { hist_.merge(other.hist_); }
  void reset() { hist_.reset(); }
  const Histogram& hist() const { return hist_; }

  template <class A, class Self>
  static void io_state(A& a, Self& l) {
    io(a, l.hist_);
  }

 private:
  Histogram hist_;
};

// The pre-histogram recorder: keeps every sample and sorts per
// percentile() call. Unbounded memory, exact order statistics.
class ExactLatencyRecorder {
 public:
  void record(Duration d) { samples_.push_back(d); }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  Duration mean() const {
    if (samples_.empty()) return {};
    std::int64_t sum = 0;
    for (Duration d : samples_) sum += d.us;
    return {sum / static_cast<std::int64_t>(samples_.size())};
  }

  // q in [0, 1]; q = 0.5 is the median. Returns zero when empty.
  Duration percentile(double q) const {
    if (samples_.empty()) return {};
    std::vector<Duration> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    double idx = q * static_cast<double>(sorted.size() - 1);
    return sorted[static_cast<std::size_t>(idx + 0.5)];
  }

  Duration max() const {
    Duration m{};
    for (Duration d : samples_) m = std::max(m, d);
    return m;
  }

  void reset() { samples_.clear(); }

 private:
  std::vector<Duration> samples_;
};

// Named metric registry shared by one experiment. Counters are created on
// first use; names follow "component.metric" (e.g. "net.bytes.ring_event").
class Registry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  LatencyRecorder& latency(const std::string& name) { return latencies_[name]; }

  std::uint64_t counter_value(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
  }

  // Sum of all counters whose name starts with `prefix`.
  std::uint64_t counter_sum(const std::string& prefix) const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, LatencyRecorder>& latencies() const {
    return latencies_;
  }

  // Fold another registry into this one: counters add, latency histograms
  // merge bucket-wise. Integer adds and bucket-wise histogram adds are
  // exactly associative and commutative, so the result is bit-identical
  // no matter what order (or tree shape) registries are folded in — the
  // property the deployment-wide aggregate view and fleet-scale
  // aggregation lean on, and test_metrics pins over 1k randomized
  // registries.
  void merge_scalars_from(const Registry& other);

  void reset();

  // Snapshot state (DESIGN.md §16): counters and histograms round-trip
  // exactly, since they are the registry_fingerprint surface.
  template <class A, class Self>
  static void io_state(A& a, Self& r) {
    io(a, r.counters_);
    io(a, r.latencies_);
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, LatencyRecorder> latencies_;
};

// Periodic virtual-time snapshots of cumulative counter values: one row
// per (instant, process, counter). ProcessId{0} denotes the deployment's
// shared registry (network, devices). Dumped as CSV next to chaos_run's
// --trace artifacts so a seed's metric timeline can be replayed offline.
class SnapshotTimeline {
 public:
  struct Row {
    TimePoint at;
    ProcessId process;
    std::string name;
    std::uint64_t value;
  };

  void capture(TimePoint at, ProcessId process, const Registry& reg);
  const std::vector<Row>& rows() const { return rows_; }
  bool empty() const { return rows_.empty(); }

  // "time_us,process,counter,value" rows in capture order.
  std::string to_csv() const;

 private:
  std::vector<Row> rows_;
};

}  // namespace riv::metrics
