// Tests for the logic-node execution engine: operator DAGs, trigger flow,
// combiner gating, downstream emission, actuation, staleness reporting.
#include <gtest/gtest.h>

#include "appmodel/logic.hpp"
#include "forwarding_owner.hpp"

namespace riv::appmodel {
namespace {

devices::SensorEvent ev(std::uint16_t sensor, std::uint32_t seq,
                        double value, TimePoint t = {}) {
  devices::SensorEvent e;
  e.id = {SensorId{sensor}, seq};
  e.emitted_at = t;
  e.value = value;
  e.payload_size = 4;
  return e;
}

struct LogicFixture : ::testing::Test {
  LogicFixture() : sim(3) {}

  LogicInstance::Callbacks callbacks() {
    LogicInstance::Callbacks cb;
    cb.self = ProcessId{1};
    cb.next_command_id = [this] { return CommandId{ProcessId{1}, seq++}; };
    cb.command_sink = [this](const ActuatorEdge& edge,
                             const devices::Command& cmd) {
      issued.push_back({edge.actuator, cmd});
    };
    return cb;
  }

  sim::Simulation sim;
  // Stands in for the runtime process, which owns the instance's periodic
  // triggers and routes each back to the instance that armed it.
  LogicInstance* armed{nullptr};
  sim::ForwardingOwner owner{
      sim, [this](sim::TimerId, std::uint16_t, std::uint64_t arg) {
        armed->on_periodic(arg);
      }};
  std::uint32_t seq{1};
  std::vector<std::pair<ActuatorId, devices::Command>> issued;
};

TEST_F(LogicFixture, CountWindowOneFiresPerEvent) {
  AppBuilder app(AppId{1}, "t");
  auto op = app.add_operator("op");
  op.add_sensor(SensorId{1}, Guarantee::kGapless, WindowSpec::count_window(1));
  op.add_actuator(ActuatorId{1}, Guarantee::kGapless);
  op.handle_triggered_window(
      [](const std::vector<StreamWindow>& w, TriggerContext& ctx) {
        ctx.actuate(ActuatorId{1}, w[0].events[0].value);
      });
  AppGraph graph = app.build();
  LogicInstance logic(graph, owner.timers(), callbacks());
  logic.start();
  for (std::uint32_t i = 1; i <= 5; ++i)
    logic.on_sensor_event(ev(1, i, static_cast<double>(i)));
  EXPECT_EQ(logic.triggers_fired(), 5u);
  ASSERT_EQ(issued.size(), 5u);
  EXPECT_EQ(issued[4].second.value, 5.0);
  EXPECT_EQ(logic.events_consumed(), 5u);
}

TEST_F(LogicFixture, CountWindowThreeBatches) {
  AppBuilder app(AppId{1}, "t");
  auto op = app.add_operator("op");
  op.add_sensor(SensorId{1}, Guarantee::kGap, WindowSpec::count_window(3));
  int batches = 0;
  op.handle_triggered_window(
      [&batches](const std::vector<StreamWindow>& w, TriggerContext&) {
        ASSERT_EQ(w[0].events.size(), 3u);
        ++batches;
      });
  AppGraph graph = app.build();
  LogicInstance logic(graph, owner.timers(), callbacks());
  logic.start();
  for (std::uint32_t i = 1; i <= 9; ++i) logic.on_sensor_event(ev(1, i, 0));
  EXPECT_EQ(batches, 3);
}

TEST_F(LogicFixture, PeriodicTriggerDrivenByTimer) {
  AppBuilder app(AppId{1}, "t");
  auto op = app.add_operator("op");
  op.add_sensor(SensorId{1}, Guarantee::kGap,
                WindowSpec::time_window(seconds(1)));
  int fired = 0;
  op.handle_triggered_window(
      [&fired](const std::vector<StreamWindow>&, TriggerContext&) {
        ++fired;
      });
  AppGraph graph = app.build();
  LogicInstance logic(graph, owner.timers(), callbacks());
  armed = &logic;
  logic.start();
  // One event every 400 ms for 5 s.
  for (int i = 0; i < 12; ++i) {
    sim.schedule_at(TimePoint{milliseconds(400 * (i + 1)).us},
                    [&logic, this, i] {
                      logic.on_sensor_event(ev(1, (std::uint32_t)i + 1, 1.0,
                                               sim.now()));
                    });
  }
  sim.run_until(TimePoint{seconds(5).us});
  // Periodic windows at 1 s: roughly one trigger per second with data.
  EXPECT_GE(fired, 4);
  EXPECT_LE(fired, 5);
}

TEST_F(LogicFixture, EmptyPeriodicWindowDoesNotTrigger) {
  AppBuilder app(AppId{1}, "t");
  auto op = app.add_operator("op");
  op.add_sensor(SensorId{1}, Guarantee::kGap,
                WindowSpec::time_window(seconds(1)));
  int fired = 0;
  op.handle_triggered_window(
      [&fired](const std::vector<StreamWindow>&, TriggerContext&) {
        ++fired;
      });
  AppGraph graph = app.build();
  LogicInstance logic(graph, owner.timers(), callbacks());
  armed = &logic;
  logic.start();
  sim.run_until(TimePoint{seconds(10).us});  // no events at all
  EXPECT_EQ(fired, 0);
}

TEST_F(LogicFixture, FTCombinerGatesMultiStreamDelivery) {
  AppBuilder app(AppId{1}, "t");
  auto op = app.add_operator("op", std::make_unique<FTCombiner>(1));
  op.add_sensor(SensorId{1}, Guarantee::kGap, WindowSpec::count_window(1));
  op.add_sensor(SensorId{2}, Guarantee::kGap, WindowSpec::count_window(1));
  op.add_sensor(SensorId{3}, Guarantee::kGap, WindowSpec::count_window(1));
  std::vector<std::size_t> stream_counts;
  op.handle_triggered_window(
      [&](const std::vector<StreamWindow>& w, TriggerContext&) {
        stream_counts.push_back(w.size());
      });
  AppGraph graph = app.build();
  LogicInstance logic(graph, owner.timers(), callbacks());
  logic.start();
  logic.on_sensor_event(ev(1, 1, 1.0));  // 1 of 3 ready, f=1 needs 2
  EXPECT_TRUE(stream_counts.empty());
  EXPECT_EQ(logic.combiner_blocked(), 1u);
  logic.on_sensor_event(ev(2, 1, 1.0));  // 2 of 3 ready -> deliver
  ASSERT_EQ(stream_counts.size(), 1u);
  EXPECT_EQ(stream_counts[0], 2u);
  // Pending cleared after delivery; a single new event blocks again.
  logic.on_sensor_event(ev(3, 1, 1.0));
  EXPECT_EQ(stream_counts.size(), 1u);
}

// A blocked evaluation hands the pending windows back to their streams:
// the delivering one must see every window exactly as it was fed.
TEST_F(LogicFixture, BlockedCombinerKeepsPendingWindowsIntact) {
  AppBuilder app(AppId{1}, "t");
  auto op = app.add_operator("op", std::make_unique<AllCombiner>());
  for (std::uint16_t s = 1; s <= 3; ++s)
    op.add_sensor(SensorId{s}, Guarantee::kGap, WindowSpec::count_window(2));
  std::vector<std::vector<StreamWindow>> delivered;
  op.handle_triggered_window(
      [&](const std::vector<StreamWindow>& w, TriggerContext&) {
        delivered.push_back(w);
      });
  AppGraph graph = app.build();
  LogicInstance logic(graph, owner.timers(), callbacks());
  logic.start();
  for (std::uint16_t s = 1; s <= 3; ++s) {
    logic.on_sensor_event(ev(s, 1, 10.0 * s + 1));
    logic.on_sensor_event(ev(s, 2, 10.0 * s + 2));
  }
  EXPECT_EQ(logic.combiner_blocked(), 2u);
  ASSERT_EQ(delivered.size(), 1u);
  const std::vector<StreamWindow>& w = delivered[0];
  ASSERT_EQ(w.size(), 3u);
  for (std::uint16_t s = 1; s <= 3; ++s) {
    const StreamWindow& win = w[s - 1];
    EXPECT_EQ(win.stream, "s:" + std::to_string(s));
    ASSERT_EQ(win.events.size(), 2u);
    for (std::uint32_t i = 0; i < 2; ++i) {
      EXPECT_EQ(win.events[i].id, (EventId{SensorId{s}, i + 1}));
      EXPECT_EQ(win.events[i].value, 10.0 * s + i + 1);
    }
  }
}

// A triggered window's event buffer stays with its stream between
// triggers. Each trigger of a clear-on-trigger window still hands the
// operator exactly the events since the last one, however many fewer.
TEST_F(LogicFixture, ConsecutiveTriggersDeliverDisjointEvents) {
  AppBuilder app(AppId{1}, "t");
  auto op = app.add_operator("op");
  op.add_sensor(SensorId{1}, Guarantee::kGap,
                WindowSpec::time_window(seconds(1)));
  std::vector<std::vector<std::uint32_t>> batches;
  op.handle_triggered_window(
      [&batches](const std::vector<StreamWindow>& w, TriggerContext&) {
        std::vector<std::uint32_t>& seqs = batches.emplace_back();
        for (const devices::SensorEvent& e : w[0].events)
          seqs.push_back(e.id.seq);
      });
  AppGraph graph = app.build();
  LogicInstance logic(graph, owner.timers(), callbacks());
  armed = &logic;
  logic.start();
  // Three events before the first trigger at 1 s, one before the second.
  for (std::uint32_t seq : {1u, 2u, 3u, 4u}) {
    const TimePoint at{milliseconds(seq < 4 ? 100 * seq : 1500).us};
    sim.schedule_at(at, [&logic, this, seq] {
      logic.on_sensor_event(ev(1, seq, 1.0, sim.now()));
    });
  }
  sim.run_until(TimePoint{milliseconds(2500).us});
  EXPECT_EQ(batches,
            (std::vector<std::vector<std::uint32_t>>{{1, 2, 3}, {4}}));
}

TEST_F(LogicFixture, OperatorDagPropagatesEmissions) {
  AppBuilder app(AppId{1}, "t");
  auto source = app.add_operator("source");
  source.add_sensor(SensorId{1}, Guarantee::kGap, WindowSpec::count_window(2));
  source.handle_triggered_window(
      [](const std::vector<StreamWindow>& w, TriggerContext& ctx) {
        double sum = 0;
        for (const auto& e : w[0].events) sum += e.value;
        ctx.emit(sum);
      });
  auto sink = app.add_operator("sink");
  sink.add_upstream_operator("source", WindowSpec::count_window(1));
  sink.add_actuator(ActuatorId{1}, Guarantee::kGap);
  sink.handle_triggered_window(
      [](const std::vector<StreamWindow>& w, TriggerContext& ctx) {
        ctx.actuate(ActuatorId{1}, w[0].events[0].value);
      });
  AppGraph graph = app.build();
  LogicInstance logic(graph, owner.timers(), callbacks());
  logic.start();
  logic.on_sensor_event(ev(1, 1, 2.0));
  logic.on_sensor_event(ev(1, 2, 3.0));
  ASSERT_EQ(issued.size(), 1u);
  EXPECT_EQ(issued[0].second.value, 5.0);
}

TEST_F(LogicFixture, TestAndSetCommandsCarryExpectedState) {
  AppBuilder app(AppId{1}, "t");
  auto op = app.add_operator("op");
  op.add_sensor(SensorId{1}, Guarantee::kGapless, WindowSpec::count_window(1));
  op.add_actuator(ActuatorId{7}, Guarantee::kGapless);
  op.handle_triggered_window(
      [](const std::vector<StreamWindow>&, TriggerContext& ctx) {
        ctx.actuate_test_and_set(ActuatorId{7}, 0.0, 1.0);
      });
  AppGraph graph = app.build();
  LogicInstance logic(graph, owner.timers(), callbacks());
  logic.start();
  logic.on_sensor_event(ev(1, 1, 1.0));
  ASSERT_EQ(issued.size(), 1u);
  EXPECT_TRUE(issued[0].second.test_and_set);
  EXPECT_EQ(issued[0].second.expected, 0.0);
  EXPECT_EQ(issued[0].second.value, 1.0);
  EXPECT_EQ(issued[0].first, ActuatorId{7});
}

TEST_F(LogicFixture, CommandIdsAreUnique) {
  AppBuilder app(AppId{1}, "t");
  auto op = app.add_operator("op");
  op.add_sensor(SensorId{1}, Guarantee::kGap, WindowSpec::count_window(1));
  op.add_actuator(ActuatorId{1}, Guarantee::kGap);
  op.handle_triggered_window(
      [](const std::vector<StreamWindow>&, TriggerContext& ctx) {
        ctx.actuate(ActuatorId{1}, 1.0);
      });
  AppGraph graph = app.build();
  LogicInstance logic(graph, owner.timers(), callbacks());
  logic.start();
  for (std::uint32_t i = 1; i <= 10; ++i) logic.on_sensor_event(ev(1, i, 1));
  std::set<CommandId> ids;
  for (const auto& [act, cmd] : issued) ids.insert(cmd.id);
  EXPECT_EQ(ids.size(), 10u);
}

TEST_F(LogicFixture, StalenessHandlerInvoked) {
  AppBuilder app(AppId{1}, "t");
  auto op = app.add_operator("op");
  op.add_sensor(SensorId{1}, Guarantee::kGapless, WindowSpec::count_window(1),
                PollingPolicy{seconds(10)});
  op.handle_triggered_window(
      [](const std::vector<StreamWindow>&, TriggerContext&) {});
  AppGraph graph = app.build();
  LogicInstance logic(graph, owner.timers(), callbacks());
  logic.start();
  SensorId stale_sensor{};
  std::uint32_t stale_epoch = 0;
  logic.set_staleness_handler([&](SensorId s, std::uint32_t e) {
    stale_sensor = s;
    stale_epoch = e;
  });
  logic.on_staleness_violation(SensorId{1}, 42);
  EXPECT_EQ(stale_sensor, SensorId{1});
  EXPECT_EQ(stale_epoch, 42u);
  EXPECT_EQ(logic.staleness_violations(), 1u);
}

TEST_F(LogicFixture, DestructionCancelsPeriodicTimers) {
  AppBuilder app(AppId{1}, "t");
  auto op = app.add_operator("op");
  op.add_sensor(SensorId{1}, Guarantee::kGap,
                WindowSpec::time_window(seconds(1)));
  op.handle_triggered_window(
      [](const std::vector<StreamWindow>&, TriggerContext&) {});
  AppGraph graph = app.build();
  {
    LogicInstance logic(graph, owner.timers(), callbacks());
    armed = &logic;
    logic.start();
  }  // destroyed: periodic trigger must not fire into freed memory
  sim.run_until(TimePoint{seconds(5).us});  // would crash if dangling
}

TEST(AppGraphValidate, RejectsCycles) {
  AppBuilder app(AppId{1}, "cyclic");
  auto a = app.add_operator("a");
  auto b = app.add_operator("b");
  a.add_upstream_operator("b", WindowSpec::count_window(1));
  b.add_upstream_operator("a", WindowSpec::count_window(1));
  EXPECT_DEATH(app.build(), "acyclic");
}

TEST(AppGraphValidate, RejectsUnknownOperatorEdge) {
  AppBuilder app(AppId{1}, "bad");
  auto a = app.add_operator("a");
  a.add_sensor(SensorId{1}, Guarantee::kGap, WindowSpec::count_window(1));
  AppGraph g = app.build();
  g.sensor_edges.push_back(appmodel::SensorEdge{
      SensorId{2}, Guarantee::kGap, WindowSpec::count_window(1), {}, "nope"});
  EXPECT_DEATH(g.validate(), "unknown operator");
}

}  // namespace
}  // namespace riv::appmodel
