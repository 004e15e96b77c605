// Unit tests for §6.1 windows: buffer bounds, trigger policies, evictor
// policies, and their combinations (parameterized sweep at the bottom).
#include <gtest/gtest.h>

#include "appmodel/window.hpp"

namespace riv::appmodel {
namespace {

devices::SensorEvent ev(std::uint32_t seq, TimePoint t, double value = 0.0) {
  devices::SensorEvent e;
  e.id = {SensorId{1}, seq};
  e.emitted_at = t;
  e.value = value;
  e.payload_size = 4;
  return e;
}

// The window's contents now, in a fresh vector.
std::vector<devices::SensorEvent> snapshot(Window& w, TimePoint now) {
  std::vector<devices::SensorEvent> out;
  w.snapshot(now, out);
  return out;
}

TEST(WindowSpec, TimeWindowDefaultsToPeriodicTrigger) {
  WindowSpec w = WindowSpec::time_window(seconds(60));
  EXPECT_EQ(w.bound, WindowSpec::Bound::kTime);
  EXPECT_EQ(w.trigger.kind, TriggerPolicy::Kind::kPeriodic);
  EXPECT_EQ(w.trigger.period, seconds(60));
  EXPECT_TRUE(w.evictor.clear_on_trigger);
}

TEST(WindowSpec, CountWindowDefaultsToCountTrigger) {
  WindowSpec w = WindowSpec::count_window(3);
  EXPECT_EQ(w.bound, WindowSpec::Bound::kCount);
  EXPECT_EQ(w.trigger.kind, TriggerPolicy::Kind::kCount);
  EXPECT_EQ(w.trigger.count, 3u);
}

TEST(Window, CountBoundEvictsOldest) {
  Window w(WindowSpec::count_window(3, TriggerPolicy::periodic(seconds(1))));
  for (std::uint32_t i = 1; i <= 5; ++i) w.add(ev(i, TimePoint{(int64_t)i}), TimePoint{(int64_t)i});
  auto snap = snapshot(w, TimePoint{5});
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].id.seq, 3u);
  EXPECT_EQ(snap[2].id.seq, 5u);
}

TEST(Window, TimeBoundEvictsByAge) {
  Window w(WindowSpec::time_window(seconds(10)));
  w.add(ev(1, TimePoint{seconds(0).us}), TimePoint{seconds(0).us});
  w.add(ev(2, TimePoint{seconds(8).us}), TimePoint{seconds(8).us});
  w.add(ev(3, TimePoint{seconds(15).us}), TimePoint{seconds(15).us});
  auto snap = snapshot(w, TimePoint{seconds(15).us});
  ASSERT_EQ(snap.size(), 2u);  // event 1 is 15 s old, beyond the 10 s span
  EXPECT_EQ(snap[0].id.seq, 2u);
}

TEST(Window, EveryEventTriggerFiresImmediately) {
  Window w(WindowSpec::count_window(5, TriggerPolicy::every_event()));
  EXPECT_FALSE(w.event_trigger_ready());
  w.add(ev(1, {}), {});
  EXPECT_TRUE(w.event_trigger_ready());
}

TEST(Window, CountTriggerWaitsForN) {
  Window w(WindowSpec::count_window(3));
  w.add(ev(1, {}), {});
  w.add(ev(2, {}), {});
  EXPECT_FALSE(w.event_trigger_ready());
  w.add(ev(3, {}), {});
  EXPECT_TRUE(w.event_trigger_ready());
}

TEST(Window, PeriodicTriggerIsNeverEventDriven) {
  Window w(WindowSpec::time_window(seconds(1)));
  for (std::uint32_t i = 0; i < 10; ++i) w.add(ev(i, {}), {});
  EXPECT_FALSE(w.event_trigger_ready());
}

TEST(Window, ClearOnTriggerEmptiesBuffer) {
  Window w(WindowSpec::count_window(3));
  for (std::uint32_t i = 1; i <= 3; ++i) w.add(ev(i, {}), {});
  EXPECT_EQ(snapshot(w, {}).size(), 3u);
  w.after_trigger({});
  EXPECT_TRUE(w.empty());
}

TEST(Window, SlidingKeepLastRetainsSuffix) {
  // A sliding count window: bound 5, trigger on every event, keep last 4.
  Window w(WindowSpec::count_window(5, TriggerPolicy::every_event(),
                                    EvictorPolicy::sliding_keep_last(4)));
  for (std::uint32_t i = 1; i <= 5; ++i) w.add(ev(i, {}), {});
  w.after_trigger({});
  auto snap = snapshot(w, {});
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().id.seq, 2u);  // oldest dropped, rest slides
}

TEST(Window, SlidingMaxAgePurgesOldEvents) {
  Window w(WindowSpec::count_window(100, TriggerPolicy::every_event(),
                                    EvictorPolicy::sliding_max_age(seconds(5))));
  w.add(ev(1, TimePoint{seconds(0).us}), TimePoint{seconds(0).us});
  w.add(ev(2, TimePoint{seconds(4).us}), TimePoint{seconds(4).us});
  w.after_trigger(TimePoint{seconds(4).us});
  auto snap = snapshot(w, TimePoint{seconds(7).us});
  ASSERT_EQ(snap.size(), 1u);  // event 1 aged out
  EXPECT_EQ(snap[0].id.seq, 2u);
}

TEST(Window, BurstSuppressionUseCase) {
  // §6.1: a count window of the burst size lets an operator deduplicate a
  // burst of identical events into one trigger.
  Window w(WindowSpec::count_window(3));
  for (std::uint32_t i = 1; i <= 3; ++i) w.add(ev(i, {}, 1.0), {});
  ASSERT_TRUE(w.event_trigger_ready());
  auto snap = snapshot(w, {});
  ASSERT_EQ(snap.size(), 3u);
  for (const auto& e : snap) EXPECT_EQ(e.value, 1.0);
  w.after_trigger({});
  EXPECT_FALSE(w.event_trigger_ready());
}

// --- parameterized sweep: bounds respected under any (bound, count) -------

// No padding: gtest names each case after the parameter's bytes.
struct BoundCase {
  std::size_t bound;
  std::size_t inserted;
};
static_assert(sizeof(BoundCase) == 2 * sizeof(std::size_t));

class WindowBoundSweep : public ::testing::TestWithParam<BoundCase> {};

TEST_P(WindowBoundSweep, NeverExceedsCountBound) {
  const auto [bound, inserted] = GetParam();
  Window w(WindowSpec::count_window(bound,
                                    TriggerPolicy::periodic(seconds(1))));
  for (std::uint32_t i = 0; i < inserted; ++i) {
    w.add(ev(i, TimePoint{(int64_t)i}), TimePoint{(int64_t)i});
    ASSERT_LE(w.size(), bound);
  }
  EXPECT_EQ(w.size(), std::min(bound, inserted));
}

INSTANTIATE_TEST_SUITE_P(
    Bounds, WindowBoundSweep,
    ::testing::Values(BoundCase{1, 10}, BoundCase{2, 10}, BoundCase{5, 5},
                      BoundCase{5, 4}, BoundCase{16, 100},
                      BoundCase{100, 1000}));

class WindowAgeSweep : public ::testing::TestWithParam<int> {};

TEST_P(WindowAgeSweep, TimeBoundHonoredForAnySpan) {
  const int span_s = GetParam();
  Window w(WindowSpec::time_window(seconds(span_s)));
  // One event per second for 3*span seconds.
  for (int i = 0; i < 3 * span_s; ++i) {
    TimePoint t{seconds(i).us};
    w.add(ev(static_cast<std::uint32_t>(i), t), t);
  }
  TimePoint now{seconds(3 * span_s - 1).us};
  for (const auto& e : snapshot(w, now))
    EXPECT_LE((now - e.emitted_at).us, seconds(span_s).us);
}

INSTANTIATE_TEST_SUITE_P(Spans, WindowAgeSweep,
                         ::testing::Values(1, 2, 5, 10, 60));

}  // namespace
}  // namespace riv::appmodel
