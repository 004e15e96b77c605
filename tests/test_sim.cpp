// Unit tests for the discrete-event simulation kernel and stable store.
#include <gtest/gtest.h>

#include "sim/simulation.hpp"
#include "sim/stable_store.hpp"

namespace riv::sim {
namespace {

TEST(Simulation, FiresInTimeOrder) {
  Simulation sim(1);
  std::vector<int> order;
  sim.schedule_at(TimePoint{300}, [&] { order.push_back(3); });
  sim.schedule_at(TimePoint{100}, [&] { order.push_back(1); });
  sim.schedule_at(TimePoint{200}, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint{300});
}

TEST(Simulation, TiesBreakByScheduleOrder) {
  Simulation sim(1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(TimePoint{50}, [&order, i] { order.push_back(i); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, CancelPreventsFiring) {
  Simulation sim(1);
  bool fired = false;
  TimerId id = sim.schedule_after(seconds(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelIsIdempotent) {
  Simulation sim(1);
  TimerId id = sim.schedule_after(seconds(1), [] {});
  sim.cancel(id);
  sim.cancel(id);  // no-op
  sim.run_all();
}

TEST(Simulation, RunUntilAdvancesClockWithoutEvents) {
  Simulation sim(1);
  sim.run_until(TimePoint{seconds(5).us});
  EXPECT_EQ(sim.now().seconds(), 5.0);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim(1);
  int fired = 0;
  sim.schedule_at(TimePoint{100}, [&] { ++fired; });
  sim.schedule_at(TimePoint{200}, [&] { ++fired; });
  sim.run_until(TimePoint{150});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint{150});
  sim.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim(1);
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.schedule_after(milliseconds(1), recurse);
  };
  sim.schedule_after(milliseconds(1), recurse);
  sim.run_all();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), TimePoint{milliseconds(10).us});
}

// A data-timer owner that sums the args of the timers it fires.
struct SummingOwner : TimerOwner {
  explicit SummingOwner(Simulation& sim) : timers(sim, *this) {}
  void on_timer(TimerId, std::uint16_t, std::uint64_t arg) override {
    ++fired;
    sum += arg;
  }
  int fired{0};
  std::uint64_t sum{0};
  ProcessTimers timers;
};

TEST(ProcessTimers, CancelAllStopsEverything) {
  Simulation sim(1);
  SummingOwner crashed(sim);
  SummingOwner bystander(sim);
  for (int i = 1; i <= 10; ++i) {
    crashed.timers.schedule_after(milliseconds(i), 0, 1);
    bystander.timers.schedule_after(milliseconds(i), 0, 1);
  }
  crashed.timers.cancel_all();  // cancels by owner, and only that owner
  EXPECT_EQ(sim.pending_count(), 10u);
  sim.run_all();
  EXPECT_EQ(crashed.fired, 0);
  EXPECT_EQ(bystander.fired, 10);
}

TEST(ProcessTimers, DestructionCancelsPending) {
  Simulation sim(1);
  {
    SummingOwner owner(sim);
    owner.timers.schedule_after(milliseconds(5), 0, 1);
  }  // retiring the owner must cancel — dispatch would dangle otherwise
  EXPECT_EQ(sim.pending_count(), 0u);
  sim.run_all();
  EXPECT_EQ(sim.events_fired(), 0u);
}

TEST(ProcessTimers, IndividualCancel) {
  Simulation sim(1);
  SummingOwner owner(sim);
  TimerId a = owner.timers.schedule_after(milliseconds(1), 0, 1);
  owner.timers.schedule_after(milliseconds(2), 0, 10);
  owner.timers.cancel(a);
  sim.run_all();
  EXPECT_EQ(owner.sum, 10u);
}

TEST(ProcessTimers, SurvivesManyTimers) {
  Simulation sim(1);
  SummingOwner owner(sim);
  for (std::uint64_t i = 0; i < 1000; ++i)
    owner.timers.schedule_after(microseconds(static_cast<std::int64_t>(i) + 1),
                                0, i);
  sim.run_all();
  EXPECT_EQ(owner.fired, 1000);
  EXPECT_EQ(owner.sum, 999u * 1000u / 2);
}

TEST(StableStore, PutGetErase) {
  StableStore store;
  store.put("k", {std::byte{1}, std::byte{2}});
  ASSERT_TRUE(store.get("k").has_value());
  EXPECT_EQ(store.get("k")->size(), 2u);
  EXPECT_FALSE(store.get("missing").has_value());
  store.erase("k");
  EXPECT_FALSE(store.contains("k"));
}

TEST(StableStore, PrefixScanIsSortedAndScoped) {
  StableStore store;
  store.put("kv/b/3", {});
  store.put("kv/b/1", {});
  store.put("kv/c/1", {});
  store.put("kx/b/1", {});
  auto keys = store.keys_with_prefix("kv/b/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "kv/b/1");
  EXPECT_EQ(keys[1], "kv/b/3");
}

TEST(StableStore, OverwriteReplacesValue) {
  StableStore store;
  store.put("k", {std::byte{1}});
  store.put("k", {std::byte{2}, std::byte{3}});
  EXPECT_EQ(store.get("k")->size(), 2u);
}

}  // namespace
}  // namespace riv::sim
