// Tests for the workload module: Fig 1 trace generation and its
// checkpointed long-run path, the Table 1 catalog, deployment harness
// behaviour, and placement overrides.
#include <gtest/gtest.h>

#include <vector>

#include "common/codec.hpp"
#include "workload/apps.hpp"
#include "workload/deployment.hpp"
#include "workload/fig1.hpp"

namespace riv::workload {
namespace {

TEST(Fig1Trace, ReproducesPaperSkewShape) {
  Fig1Options options;
  options.duration = days(15);
  Fig1Result result = run_fig1_deployment(options);
  ASSERT_EQ(result.rows.size(), 6u);

  // Door 1 shows a large skew (paper: ~2357 events).
  const auto& door1 = result.rows[0];
  EXPECT_EQ(door1.sensor, "Door 1");
  EXPECT_GT(door1.skew(), 1500u);
  EXPECT_LT(door1.skew(), 3500u);

  // Motion 3's skew is small (paper: ~21 events).
  const auto& motion3 = result.rows[4];
  EXPECT_EQ(motion3.sensor, "Motion 3");
  EXPECT_LT(motion3.skew(), 150u);

  // Events lost on all links simultaneously are rare (§4.1: ~0.01%).
  EXPECT_LT(result.all_link_loss_fraction, 0.001);
  EXPECT_GE(result.all_link_loss_fraction, 0.0);

  // Every per-process count is at most the emission count.
  for (const auto& row : result.rows) {
    for (const auto& [p, n] : row.received) EXPECT_LE(n, row.emitted);
  }
}

TEST(Fig1Trace, DeterministicForSameSeed) {
  Fig1Options options;
  options.duration = days(1);
  Fig1Result a = run_fig1_deployment(options);
  Fig1Result b = run_fig1_deployment(options);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].emitted, b.rows[i].emitted);
    EXPECT_EQ(a.rows[i].received, b.rows[i].received);
  }
}

TEST(Fig1Trace, DifferentSeedsDiffer) {
  Fig1Options a, b;
  a.duration = b.duration = days(1);
  b.seed = a.seed + 1;
  Fig1Result ra = run_fig1_deployment(a);
  Fig1Result rb = run_fig1_deployment(b);
  EXPECT_NE(ra.rows[0].received, rb.rows[0].received);
}

// --- the checkpointed long-run path (bench_fig1_deployment) ---------------

struct Fig1Sections {
  std::vector<std::byte> sim;
  std::vector<std::byte> bus;
};

Fig1Sections capture_fig1(const Fig1Deployment& d) {
  BinaryWriter sim, bus;
  d.checkpoint_sim(sim);
  d.checkpoint_bus(bus);
  return {sim.take(), bus.take()};
}

void expect_same_figure(const Fig1Result& a, const Fig1Result& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].sensor, b.rows[i].sensor);
    EXPECT_EQ(a.rows[i].emitted, b.rows[i].emitted);
    EXPECT_EQ(a.rows[i].received, b.rows[i].received);
  }
  EXPECT_EQ(a.all_link_loss_fraction, b.all_link_loss_fraction);
}

TEST(Fig1Checkpoint, IndependentRunsCaptureIdenticalSections) {
  Fig1Options options;
  options.duration = days(2);
  Fig1Deployment a(options), b(options);
  a.start();
  b.start();
  a.run_to(TimePoint{} + days(1));
  b.run_to(TimePoint{} + hours(7));  // a different chunking to the same day
  b.run_to(TimePoint{} + days(1));
  const Fig1Sections sa = capture_fig1(a);
  const Fig1Sections sb = capture_fig1(b);
  EXPECT_FALSE(sa.sim.empty());
  EXPECT_FALSE(sa.bus.empty());
  EXPECT_EQ(sa.sim, sb.sim);
  EXPECT_EQ(sa.bus, sb.bus);
}

// Capturing mid-run is invisible, and a resumed run — rebuilt, re-executed
// to the checkpoint, attested against the stored sections — finishes with
// the uninterrupted run's figure.
TEST(Fig1Checkpoint, CheckpointedRunFinishesWithUninterruptedFigure) {
  Fig1Options options;
  options.duration = days(2);
  const Fig1Result uninterrupted = run_fig1_deployment(options);
  const TimePoint day1 = TimePoint{} + days(1);

  Fig1Deployment checkpointed(options);
  checkpointed.start();
  checkpointed.run_to(day1);
  const Fig1Sections stored = capture_fig1(checkpointed);
  checkpointed.run_to(checkpointed.end_time());
  expect_same_figure(checkpointed.result(), uninterrupted);

  Fig1Deployment resumed(options);
  resumed.start();
  resumed.run_to(day1);
  const Fig1Sections attested = capture_fig1(resumed);
  EXPECT_EQ(attested.sim, stored.sim);
  EXPECT_EQ(attested.bus, stored.bus);
  resumed.run_to(resumed.end_time());
  expect_same_figure(resumed.result(), uninterrupted);
}

TEST(Table1Catalog, HasThirteenAppsWithPaperGuarantees) {
  const auto& catalog = apps::table1_catalog();
  ASSERT_EQ(catalog.size(), 13u);
  int gapless = 0;
  for (const auto& entry : catalog)
    gapless += entry.guarantee == appmodel::Guarantee::kGapless;
  EXPECT_EQ(gapless, 8);  // Table 1: 8 Gapless, 5 Gap
  EXPECT_STREQ(catalog[0].name, "Occupancy-based HVAC");
  EXPECT_EQ(catalog[0].guarantee, appmodel::Guarantee::kGap);
  EXPECT_STREQ(catalog[8].name, "Intrusion-detection");
  EXPECT_EQ(catalog[8].guarantee, appmodel::Guarantee::kGapless);
}

TEST(AppFactories, GraphsValidateAndCarryMandatedGuarantees) {
  appmodel::AppGraph intrusion = apps::intrusion_detection(
      AppId{1}, {SensorId{1}, SensorId{2}}, ActuatorId{1});
  for (const auto& edge : intrusion.sensor_edges)
    EXPECT_EQ(edge.guarantee, appmodel::Guarantee::kGapless);
  auto* combiner = dynamic_cast<const appmodel::FTCombiner*>(
      intrusion.operators[0].combiner.get());
  ASSERT_NE(combiner, nullptr);
  EXPECT_EQ(combiner->max_failures(), 1u);  // n - 1 with n = 2

  appmodel::AppGraph averaging = apps::temperature_averaging(
      AppId{2}, {SensorId{1}, SensorId{2}, SensorId{3}, SensorId{4}},
      ActuatorId{1}, seconds(1));
  for (const auto& edge : averaging.sensor_edges)
    EXPECT_EQ(edge.guarantee, appmodel::Guarantee::kGap);
  auto* ft = dynamic_cast<const appmodel::FTCombiner*>(
      averaging.operators[0].combiner.get());
  ASSERT_NE(ft, nullptr);
  EXPECT_EQ(ft->max_failures(), 1u);  // floor((4-1)/3)
}

TEST(AppFactories, TemperatureHvacIsPollBased) {
  appmodel::AppGraph g = apps::temperature_hvac(
      AppId{1}, SensorId{1}, ActuatorId{1}, seconds(10), 18.0, 25.0);
  ASSERT_EQ(g.sensor_edges.size(), 1u);
  EXPECT_TRUE(g.sensor_edges[0].polling.poll_based());
  EXPECT_EQ(g.sensor_edges[0].polling.epoch, seconds(10));
}

TEST(Deployment, PlacementOverrideIsHonored) {
  HomeDeployment::Options opt;
  opt.seed = 9;
  opt.n_processes = 3;
  // Force p3 to bear the app even though p1 has all the devices.
  opt.config.placement_override[AppId{1}] = {
      ProcessId{3}, ProcessId{1}, ProcessId{2}};
  HomeDeployment home(opt);
  devices::SensorSpec door;
  door.id = SensorId{1};
  door.name = "door";
  door.kind = devices::SensorKind::kDoor;
  door.tech = devices::Technology::kIp;
  door.rate_hz = 5.0;
  home.add_sensor(door, {home.pid(0)});
  devices::ActuatorSpec light;
  light.id = ActuatorId{1};
  light.name = "light";
  light.tech = devices::Technology::kIp;
  home.add_actuator(light, {home.pid(0)});
  home.deploy(apps::turn_light_on_off(AppId{1}, SensorId{1}, ActuatorId{1}));
  home.start();
  home.run_for(seconds(5));
  EXPECT_TRUE(home.process(2).logic_active(AppId{1}));
  EXPECT_FALSE(home.process(0).logic_active(AppId{1}));
}

TEST(Deployment, ActiveLogicProcessFindsTheActive) {
  HomeDeployment::Options opt;
  opt.seed = 10;
  opt.n_processes = 2;
  HomeDeployment home(opt);
  devices::SensorSpec door;
  door.id = SensorId{1};
  door.name = "door";
  door.kind = devices::SensorKind::kDoor;
  door.tech = devices::Technology::kIp;
  door.rate_hz = 1.0;
  home.add_sensor(door, home.processes());
  devices::ActuatorSpec light;
  light.id = ActuatorId{1};
  light.name = "light";
  light.tech = devices::Technology::kIp;
  home.add_actuator(light, home.processes());
  home.deploy(apps::turn_light_on_off(AppId{1}, SensorId{1}, ActuatorId{1}));
  EXPECT_EQ(home.active_logic_process(AppId{1}), nullptr);  // not started
  home.start();
  home.run_for(seconds(2));
  ASSERT_NE(home.active_logic_process(AppId{1}), nullptr);
}

}  // namespace
}  // namespace riv::workload
