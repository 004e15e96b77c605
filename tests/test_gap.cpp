// End-to-end tests of the Gap delivery protocol (§4.2): single-forwarder
// chain, loss produces gaps (by contract), no duplicate deliveries, and
// forwarder takeover after crashes.
#include <gtest/gtest.h>

#include "common/codec.hpp"
#include "core/delivery/gap_stream.hpp"
#include "workload/apps.hpp"
#include "workload/deployment.hpp"

namespace riv {
namespace {

using workload::HomeDeployment;

constexpr AppId kApp{1};
constexpr SensorId kDoor{1};
constexpr ActuatorId kLight{1};

devices::SensorSpec door_sensor(double rate_hz) {
  devices::SensorSpec spec;
  spec.id = kDoor;
  spec.name = "door";
  spec.kind = devices::SensorKind::kDoor;
  spec.tech = devices::Technology::kIp;
  spec.payload_size = 4;
  spec.rate_hz = rate_hz;
  return spec;
}

devices::ActuatorSpec light_actuator() {
  devices::ActuatorSpec spec;
  spec.id = kLight;
  spec.name = "light";
  spec.tech = devices::Technology::kIp;
  return spec;
}

struct GapFixture : ::testing::Test {
  std::unique_ptr<HomeDeployment> make_home(int n,
                                            std::vector<int> receivers,
                                            double loss = 0.0,
                                            double rate = 10.0,
                                            std::uint64_t seed = 23) {
    HomeDeployment::Options opt;
    opt.seed = seed;
    opt.n_processes = n;
    auto home = std::make_unique<HomeDeployment>(opt);
    std::vector<ProcessId> linked;
    for (int i : receivers) linked.push_back(home->pid(i));
    devices::LinkParams params;
    params.loss_prob = loss;
    home->add_sensor(door_sensor(rate), linked, params);
    home->add_actuator(light_actuator(), {home->pid(0)});
    home->deploy(workload::apps::turn_light_on_off(
        kApp, kDoor, kLight, appmodel::Guarantee::kGap));
    return home;
  }
};

TEST_F(GapFixture, DeliversAllWithoutFailures) {
  auto home = make_home(5, {1});
  home->start();
  home->run_for(seconds(20));
  std::uint64_t emitted = home->bus().sensor(kDoor).events_emitted();
  EXPECT_GE(home->process(0).delivered(kApp), emitted - 2);
  EXPECT_LE(home->process(0).delivered(kApp), emitted);
}

TEST_F(GapFixture, UsesOneMessagePerEvent) {
  auto home = make_home(5, {1});
  home->start();
  home->run_for(seconds(20));
  std::uint64_t emitted = home->bus().sensor(kDoor).events_emitted();
  std::uint64_t forwards = home->metrics().counter_value(
      "net.msgs.gap_forward");
  EXPECT_NEAR(static_cast<double>(forwards) / static_cast<double>(emitted),
              1.0, 0.05);
  EXPECT_EQ(home->metrics().counter_value("net.msgs.ring_event"), 0u);
}

TEST_F(GapFixture, OnlyClosestReceiverForwards) {
  // Receivers p2, p3, p4; the chain is placement order (p1 first, then
  // ids ascending), so p2 forwards and the others discard.
  auto home = make_home(5, {1, 2, 3});
  home->start();
  home->run_for(seconds(20));
  std::uint64_t emitted = home->bus().sensor(kDoor).events_emitted();
  std::uint64_t forwards =
      home->metrics().counter_value("net.msgs.gap_forward");
  EXPECT_NEAR(static_cast<double>(forwards) / static_cast<double>(emitted),
              1.0, 0.05);
  const core::GapStream* s4 =
      home->process(3).gap_stream(kApp, kDoor);
  ASSERT_NE(s4, nullptr);
  EXPECT_EQ(s4->forwards(), 0u);
  EXPECT_GT(s4->discarded(), 0u);
}

TEST_F(GapFixture, NoDuplicateDeliveries) {
  auto home = make_home(5, {1, 2, 3});
  home->start();
  home->run_for(seconds(20));
  std::uint64_t emitted = home->bus().sensor(kDoor).events_emitted();
  EXPECT_LE(home->process(0).delivered(kApp), emitted);
}

TEST_F(GapFixture, LinkLossCreatesGapsProportionalToLoss) {
  // 30% loss on the forwarder's link with 3 receivers: Gap makes no
  // cross-process recovery attempt, so ~30% of events are simply missing.
  auto home = make_home(5, {1, 2, 3}, /*loss=*/0.3, /*rate=*/10.0);
  home->start();
  home->run_for(seconds(60));
  std::uint64_t emitted = home->bus().sensor(kDoor).events_emitted();
  double ratio = static_cast<double>(home->process(0).delivered(kApp)) /
                 static_cast<double>(emitted);
  EXPECT_NEAR(ratio, 0.7, 0.06);
}

TEST_F(GapFixture, AppBearingReceiverDeliversLocallyWithZeroMessages) {
  // The sensor reaches the app-bearing process itself (Fig 4b's setup):
  // no forwarding at all.
  auto home = make_home(5, {0});
  home->start();
  home->run_for(seconds(10));
  std::uint64_t emitted = home->bus().sensor(kDoor).events_emitted();
  EXPECT_GE(home->process(0).delivered(kApp), emitted - 1);
  EXPECT_EQ(home->metrics().counter_value("net.msgs.gap_forward"), 0u);
}

TEST_F(GapFixture, ForwarderCrashHandedToNextInChain) {
  auto home = make_home(5, {1, 2}, 0.0, 10.0);
  home->start();
  home->run_for(seconds(10));
  std::uint64_t before = home->process(0).delivered(kApp);
  home->process(1).crash();  // p2 was the forwarder
  home->run_for(seconds(10));
  std::uint64_t after = home->process(0).delivered(kApp);
  // Detection takes ~2 s => ~20 events gap, then p3 takes over.
  std::uint64_t gained = after - before;
  EXPECT_GT(gained, 60u);   // most of the 100 events of the second phase
  EXPECT_LT(gained, 95u);   // but a real gap exists
  const core::GapStream* s3 = home->process(2).gap_stream(kApp, kDoor);
  ASSERT_NE(s3, nullptr);
  EXPECT_GT(s3->forwards(), 0u);
}

TEST_F(GapFixture, CrashOfAppBearerPromotesNextAndEventsFlow) {
  auto home = make_home(3, {1, 2});
  home->start();
  home->run_for(seconds(5));
  ASSERT_TRUE(home->process(0).logic_active(kApp));
  home->process(0).crash();
  home->run_for(seconds(5));
  // p2 hosts the sensor and should now also bear the app (it has the most
  // active devices among survivors).
  core::RivuletProcess* active = home->active_logic_process(kApp);
  ASSERT_NE(active, nullptr);
  EXPECT_GT(active->delivered(kApp), 10u);
}

// The dedup set behind a Gap stream's window is rebuilt on restore from
// the captured arrival order, not read back: an event the source already
// delivered must still be refused by its clone.
TEST(GapStreamClone, RestoredStreamStillRefusesDeliveredEvents) {
  const std::vector<ProcessId> chain{ProcessId{1}};
  const std::set<ProcessId> view{ProcessId{1}};
  std::vector<EventId> delivered;
  auto make = [&] {
    core::StreamContext ctx;
    ctx.self = ProcessId{1};
    ctx.app = kApp;
    ctx.all_processes = chain;
    ctx.in_range_processes = chain;
    ctx.view = [&view]() -> const std::set<ProcessId>& { return view; };
    ctx.chain = [&chain]() -> const std::vector<ProcessId>& { return chain; };
    ctx.deliver = [&delivered](const devices::SensorEvent& e) {
      delivered.push_back(e.id);
    };
    return std::make_unique<core::GapStream>(std::move(ctx));
  };
  devices::SensorEvent e;
  e.id = EventId{kDoor, 7};
  auto source = make();
  source->on_device_event(e);
  ASSERT_EQ(delivered.size(), 1u);

  BinaryWriter w;
  source->clone_state(w);
  const std::vector<std::byte> blob = w.take();
  auto clone = make();
  BinaryReader r(blob);
  clone->restore_clone(r);
  ASSERT_TRUE(r.ok() && r.at_end());
  clone->on_device_event(e);
  EXPECT_EQ(delivered.size(), 1u) << "the clone delivered a duplicate";
  e.id.seq = 8;
  clone->on_device_event(e);
  EXPECT_EQ(delivered.size(), 2u);
}

}  // namespace
}  // namespace riv
