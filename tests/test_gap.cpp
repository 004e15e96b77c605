// End-to-end tests of the Gap delivery protocol (§4.2): single-forwarder
// chain, loss produces gaps (by contract), no duplicate deliveries, and
// forwarder takeover after crashes.
#include <gtest/gtest.h>

#include "common/codec.hpp"
#include "common/rng.hpp"
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
  EXPECT_EQ(home->metrics().counter_value("app1.dup_instance_delivery"), 0u);
}

// A logic instance is charged one dup_instance_delivery per event it is
// fed twice; a promotion starts a fresh instance with nothing charged
// against it. The repeats are forwards of an event the Gap window has
// already let go, sent by hand from a third process.
TEST_F(GapFixture, RepeatChargesTheInstanceOnceAndNotItsSuccessor) {
  auto home = make_home(3, {0, 1, 2});
  home->start();
  home->run_for(seconds(1));
  core::RivuletProcess* first = home->active_logic_process(kApp);
  ASSERT_NE(first, nullptr);
  first->crash();
  home->run_for(seconds(49));  // ~480 deliveries at the successor
  core::RivuletProcess* successor = home->active_logic_process(kApp);
  ASSERT_NE(successor, nullptr);
  ASSERT_NE(successor, first);
  ProcessId sender{};
  for (int i = 0; i < 3; ++i) {
    const ProcessId p = home->pid(i);
    if (p != first->id() && p != successor->id()) sender = p;
  }
  auto forward = [&](std::uint32_t seq) {
    core::wire::EventPayload p;
    p.app = kApp;
    p.sensor = kDoor;
    p.event.id = EventId{kDoor, seq};
    p.event.emitted_at = home->sim().now();
    home->net().endpoint(sender).send(successor->id(),
                                      net::MsgType::kGapForward,
                                      core::wire::encode(p));
    home->run_for(milliseconds(100));
  };
  auto dups = [&] {
    return home->metrics().counter_value("app1.dup_instance_delivery");
  };

  // Seqs 100 and 120 were emitted 10-12 s in, delivered by the successor
  // and pushed out of its Gap window by the 256 deliveries since. The
  // sensor stops, so the forwards are the only deliveries from here on.
  home->bus().sensor(kDoor).crash();
  const std::uint64_t before = successor->delivered(kApp);
  forward(100);
  EXPECT_EQ(successor->delivered(kApp), before + 1);
  EXPECT_EQ(dups(), 1u);
  forward(100);  // inside the window again: Gap drops it
  EXPECT_EQ(successor->delivered(kApp), before + 1);
  EXPECT_EQ(dups(), 1u);

  // The first process returns and takes the app back, then crashes
  // again: the successor promotes a fresh instance, which never saw 120.
  first->recover();
  home->run_for(seconds(5));
  ASSERT_EQ(home->active_logic_process(kApp), first);
  first->crash();
  home->run_for(seconds(5));
  ASSERT_EQ(home->active_logic_process(kApp), successor);
  const std::uint64_t promoted = successor->delivered(kApp);
  forward(120);
  EXPECT_EQ(successor->delivered(kApp), promoted + 1);
  EXPECT_EQ(dups(), 1u);
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

// A standalone Gap stream on p1, alone in its chain and view, so it
// delivers what it receives; `delivered` records the ids in order.
std::unique_ptr<core::GapStream> lone_gap_stream(
    std::vector<EventId>& delivered) {
  static const std::vector<ProcessId> chain{ProcessId{1}};
  static const std::set<ProcessId> view{ProcessId{1}};
  core::StreamContext ctx;
  ctx.self = ProcessId{1};
  ctx.app = kApp;
  ctx.all_processes = chain;
  ctx.in_range_processes = chain;
  ctx.view = []() -> const std::set<ProcessId>& { return view; };
  ctx.chain = []() -> const std::vector<ProcessId>& { return chain; };
  ctx.deliver = [&delivered](const devices::SensorEvent& e) {
    delivered.push_back(e.id);
  };
  return std::make_unique<core::GapStream>(std::move(ctx));
}

// The dedup set behind a Gap stream's window is rebuilt on restore from
// the captured arrival order, not read back: an event the source already
// delivered must still be refused by its clone.
TEST(GapStreamClone, RestoredStreamStillRefusesDeliveredEvents) {
  std::vector<EventId> delivered;
  auto make = [&delivered] { return lone_gap_stream(delivered); };
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

// Gap's dedup window is the last kDedupWindow (256) deliveries: a forward
// repeated inside it is dropped, and delivered again once 256 newer
// deliveries have pushed it out. A restored stream keeps the window.
TEST(GapStreamWindow, DropsRepeatsForExactlyTheLast256Deliveries) {
  static_assert(core::GapStream::kDedupWindow == 256);
  std::vector<EventId> delivered;
  auto make = [&delivered] { return lone_gap_stream(delivered); };
  auto forward = [](core::GapStream& s, std::uint32_t seq) {
    core::wire::EventPayload p;
    p.app = kApp;
    p.sensor = kDoor;
    p.event.id = EventId{kDoor, seq};
    s.on_forward(ProcessId{2}, p);
  };
  // Newer deliveries arrive out of order, so the window is many runs.
  std::vector<std::uint32_t> newer;
  for (std::uint32_t seq = 1000; seq < 1300; ++seq) newer.push_back(seq);
  Rng rng(11);
  for (std::size_t i = newer.size(); i > 1; --i)
    std::swap(newer[i - 1], newer[rng.uniform_int(i)]);

  const std::uint32_t probe = 500;
  auto source = make();
  forward(*source, probe);
  for (std::size_t i = 0; i < 255; ++i) forward(*source, newer[i]);
  ASSERT_EQ(delivered.size(), 256u);
  forward(*source, probe);  // 255 newer deliveries: still inside
  EXPECT_EQ(delivered.size(), 256u);

  BinaryWriter w;
  source->clone_state(w);
  const std::vector<std::byte> blob = w.take();
  auto clone = make();
  BinaryReader r(blob);
  clone->restore_clone(r);
  ASSERT_TRUE(r.ok() && r.at_end());

  for (core::GapStream* s : {source.get(), clone.get()}) {
    delivered.clear();
    forward(*s, probe);  // the clone drops it too
    forward(*s, newer[100]);
    EXPECT_TRUE(delivered.empty());
    forward(*s, newer[255]);  // the 256th newer delivery evicts the probe
    forward(*s, probe);
    EXPECT_EQ(delivered,
              (std::vector<EventId>{{kDoor, newer[255]}, {kDoor, probe}}));
  }
}

}  // namespace
}  // namespace riv
