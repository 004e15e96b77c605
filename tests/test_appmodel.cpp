// Tests for combiners (§6.1) and Marzullo's fault-tolerant interval
// averaging (§6.2), including parameterized property sweeps.
#include <gtest/gtest.h>

#include "appmodel/combiner.hpp"
#include "appmodel/marzullo.hpp"
#include "common/rng.hpp"

namespace riv::appmodel {
namespace {

StreamWindow sw(const std::string& name) {
  StreamWindow w;
  w.stream = name;
  w.events.resize(1);
  return w;
}

TEST(AllCombiner, RequiresEveryStream) {
  AllCombiner c;
  EXPECT_FALSE(c.should_deliver({sw("a")}, 2));
  EXPECT_TRUE(c.should_deliver({sw("a"), sw("b")}, 2));
  EXPECT_FALSE(c.should_deliver({}, 0));
}

TEST(FTCombiner, ToleratesDeclaredFailures) {
  FTCombiner c(1);  // n - 1 streams suffice
  EXPECT_FALSE(c.should_deliver({sw("a")}, 3));
  EXPECT_TRUE(c.should_deliver({sw("a"), sw("b")}, 3));
  EXPECT_TRUE(c.should_deliver({sw("a"), sw("b"), sw("c")}, 3));
}

TEST(FTCombiner, AnySingleStreamWhenFIsNMinusOne) {
  // Listing 1: intrusion detection with FTCombiner(n-1).
  FTCombiner c(4);
  EXPECT_TRUE(c.should_deliver({sw("door1")}, 5));
}

TEST(FTCombiner, NeverDeliversEmpty) {
  FTCombiner c(10);
  EXPECT_FALSE(c.should_deliver({}, 3));
}

TEST(FTCombiner, CloneKeepsF) {
  FTCombiner c(2);
  auto clone = c.clone();
  EXPECT_TRUE(clone->should_deliver({sw("a")}, 3));
  EXPECT_FALSE(clone->should_deliver({sw("a")}, 4));
}

// --- Marzullo ---------------------------------------------------------------

TEST(Marzullo, AllAgreeingIntervalsIntersect) {
  std::vector<Interval> r = {{20.0, 22.0}, {20.5, 21.5}, {20.8, 22.5}};
  auto fused = marzullo_fuse(r, 0);
  ASSERT_TRUE(fused.has_value());
  EXPECT_DOUBLE_EQ(fused->lo, 20.8);
  EXPECT_DOUBLE_EQ(fused->hi, 21.5);
}

TEST(Marzullo, PaperSemanticsSmallestAndLargestInNMinusF) {
  // 4 intervals, f=1: need overlap of 3.
  std::vector<Interval> r = {{1, 5}, {2, 6}, {3, 7}, {100, 101}};
  auto fused = marzullo_fuse(r, 1);
  ASSERT_TRUE(fused.has_value());
  EXPECT_DOUBLE_EQ(fused->lo, 3.0);
  EXPECT_DOUBLE_EQ(fused->hi, 5.0);
}

TEST(Marzullo, OutlierMaskedWithFOne) {
  std::vector<Interval> r = {{20, 21}, {20.2, 21.2}, {50, 51}};
  auto fused = marzullo_fuse(r, 1);
  ASSERT_TRUE(fused.has_value());
  EXPECT_GE(fused->lo, 20.0);
  EXPECT_LE(fused->hi, 21.2);
}

TEST(Marzullo, NoOverlapWithoutFailureBudgetReturnsEmpty) {
  std::vector<Interval> r = {{0, 1}, {10, 11}, {20, 21}};
  EXPECT_FALSE(marzullo_fuse(r, 0).has_value());
}

TEST(Marzullo, EmptyInputReturnsEmpty) {
  EXPECT_FALSE(marzullo_fuse({}, 3).has_value());
}

TEST(Marzullo, SingleReadingPassesThrough) {
  auto fused = marzullo_fuse({{21.0, 21.5}}, 0);
  ASSERT_TRUE(fused.has_value());
  EXPECT_DOUBLE_EQ(fused->lo, 21.0);
  EXPECT_DOUBLE_EQ(fused->hi, 21.5);
}

TEST(Marzullo, TouchingIntervalsCountAsOverlap) {
  auto fused = marzullo_fuse({{1, 2}, {2, 3}}, 0);
  ASSERT_TRUE(fused.has_value());
  EXPECT_DOUBLE_EQ(fused->lo, 2.0);
  EXPECT_DOUBLE_EQ(fused->hi, 2.0);
}

TEST(Marzullo, ReversedEndpointsNormalized) {
  auto fused = marzullo_fuse({{2, 1}, {1.5, 3}}, 0);
  ASSERT_TRUE(fused.has_value());
  EXPECT_DOUBLE_EQ(fused->lo, 1.5);
  EXPECT_DOUBLE_EQ(fused->hi, 2.0);
}

TEST(Marzullo, FailureBudgets) {
  EXPECT_EQ(marzullo_max_failstop(5), 4u);
  EXPECT_EQ(marzullo_max_arbitrary(4), 1u);
  EXPECT_EQ(marzullo_max_arbitrary(7), 2u);
  EXPECT_EQ(marzullo_max_arbitrary(1), 0u);
  EXPECT_EQ(marzullo_max_arbitrary(0), 0u);
}

// --- property sweep: with <= f arbitrary liars, the fused interval always
// contains the true value -----------------------------------------------------

// No padding: gtest names each case after the parameter's bytes.
struct MarzulloCase {
  std::size_t n;
  std::uint64_t seed;
};
static_assert(sizeof(MarzulloCase) ==
              sizeof(std::size_t) + sizeof(std::uint64_t));

class MarzulloProperty : public ::testing::TestWithParam<MarzulloCase> {};

TEST_P(MarzulloProperty, FusedIntervalContainsTruthDespiteLiars) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  const std::size_t f = marzullo_max_arbitrary(n);
  for (int trial = 0; trial < 200; ++trial) {
    const double truth = rng.uniform(15.0, 30.0);
    std::vector<Interval> readings;
    // n - f honest sensors: interval containing the truth.
    for (std::size_t i = 0; i < n - f; ++i) {
      double margin_lo = rng.uniform(0.05, 1.0);
      double margin_hi = rng.uniform(0.05, 1.0);
      readings.push_back({truth - margin_lo, truth + margin_hi});
    }
    // f arbitrary liars.
    for (std::size_t i = 0; i < f; ++i) {
      double a = rng.uniform(-100.0, 100.0);
      double b = a + rng.uniform(0.0, 10.0);
      readings.push_back({a, b});
    }
    auto fused = marzullo_fuse(readings, f);
    ASSERT_TRUE(fused.has_value());
    // The fused interval must intersect the honest consensus region, which
    // contains the truth.
    EXPECT_LE(fused->lo, truth + 1.0 + 1e-9);
    EXPECT_GE(fused->hi, truth - 1.0 - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MarzulloProperty,
    ::testing::Values(MarzulloCase{4, 1}, MarzulloCase{5, 2},
                      MarzulloCase{7, 3}, MarzulloCase{10, 4},
                      MarzulloCase{13, 5}));

class FTCombinerProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FTCombinerProperty, DeliversIffEnoughStreams) {
  const auto [total, f] = GetParam();
  FTCombiner c(static_cast<std::size_t>(f));
  for (int ready = 1; ready <= total; ++ready) {
    std::vector<StreamWindow> windows;
    for (int i = 0; i < ready; ++i) windows.push_back(sw("s"));
    bool expect = ready >= std::max(1, total - f);
    EXPECT_EQ(c.should_deliver(windows, static_cast<std::size_t>(total)),
              expect)
        << "total=" << total << " f=" << f << " ready=" << ready;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FTCombinerProperty,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                                            ::testing::Values(0, 1, 2, 7)));

}  // namespace
}  // namespace riv::appmodel
