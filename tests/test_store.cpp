// Tests for the replicated LWW store (extension): local semantics,
// replication, anti-entropy convergence, crash recovery, and stateful
// application behaviour across logic-node failover.
#include <gtest/gtest.h>

#include "forwarding_owner.hpp"
#include "store/replicated_store.hpp"
#include "workload/deployment.hpp"

namespace riv {
namespace {

using store::Entry;
using store::ReplicatedStore;

TEST(LwwEntry, DominanceOrder) {
  Entry a{1.0, TimePoint{100}, 1, ProcessId{1}};
  Entry b{2.0, TimePoint{200}, 2, ProcessId{1}};
  EXPECT_TRUE(b.dominates(a));
  EXPECT_FALSE(a.dominates(b));
  Entry c{3.0, TimePoint{100}, 1, ProcessId{2}};
  EXPECT_TRUE(c.dominates(a));  // same time: higher writer id wins
  EXPECT_FALSE(a.dominates(c));
  EXPECT_FALSE(a.dominates(a));  // no self-dominance (merge is stable)
  Entry a2{4.0, TimePoint{100}, 2, ProcessId{1}};
  EXPECT_TRUE(a2.dominates(a));  // same writer, same time: later seq wins
}

struct StandaloneStore {
  explicit StandaloneStore(sim::Simulation& sim, ProcessId self,
                           sim::StableStore* stable = nullptr)
      : owner(sim, [this](sim::TimerId, std::uint16_t, std::uint64_t) {
          store->anti_entropy();
        }) {
    ReplicatedStore::Hooks hooks;
    hooks.self = self;
    hooks.view = [this]() -> const std::set<ProcessId>& { return view; };
    hooks.timers = &owner.timers();
    hooks.stable = stable;
    store = std::make_unique<ReplicatedStore>(std::move(hooks));
  }
  // Stands in for the runtime process, which owns the store's timer.
  sim::ForwardingOwner owner;
  std::set<ProcessId> view;
  std::unique_ptr<ReplicatedStore> store;
};

TEST(ReplicatedStore, LocalPutGet) {
  sim::Simulation sim(1);
  StandaloneStore s(sim, ProcessId{1});
  s.view = {ProcessId{1}};
  s.store->start();
  EXPECT_FALSE(s.store->get("x").has_value());
  s.store->put("x", 42.0);
  EXPECT_EQ(s.store->get("x"), 42.0);
  s.store->put("x", 43.0);
  EXPECT_EQ(s.store->get("x"), 43.0);
  EXPECT_EQ(s.store->size(), 1u);
}

TEST(ReplicatedStore, MergePrefersNewerWrite) {
  sim::Simulation sim(1);
  StandaloneStore s(sim, ProcessId{1});
  s.store->start();
  s.store->on_update(
      encode(store::Update{"k", Entry{9.0, TimePoint{500}, 1, ProcessId{2}}}));
  EXPECT_EQ(s.store->get("k"), 9.0);
  s.store->on_update(
      encode(store::Update{"k", Entry{1.0, TimePoint{100}, 1, ProcessId{3}}}));
  EXPECT_EQ(s.store->get("k"), 9.0);  // stale write ignored
  EXPECT_EQ(s.store->merges_ignored(), 1u);
}

// An anti-entropy batch merges whole or not at all: cut inside its third
// entry, it merges none of the two complete ones before the cut.
TEST(ReplicatedStore, TruncatedSyncBatchMergesNothing) {
  sim::Simulation sim(1);
  StandaloneStore s(sim, ProcessId{1});
  s.store->start();
  store::Batch batch;
  for (const char* key : {"a", "b", "c"})
    batch.updates.push_back({key, Entry{1.0, TimePoint{100}, 1, ProcessId{2}}});
  const std::vector<std::byte> whole = encode(batch);
  const std::size_t cut_at = 4 + batch.updates[0].encoded_size() +
                             batch.updates[1].encoded_size() + 5;
  const std::vector<std::byte> cut(whole.begin(),
                                   whole.begin() + static_cast<long>(cut_at));
  EXPECT_FALSE(s.store->on_sync(cut));
  EXPECT_EQ(s.store->size(), 0u);
  EXPECT_EQ(s.store->merges_applied(), 0u);
  EXPECT_TRUE(s.store->on_sync(whole));
  EXPECT_EQ(s.store->size(), 3u);
}

TEST(ReplicatedStore, CrashRecoveryFromStableStore) {
  sim::Simulation sim(1);
  sim::StableStore disk;
  {
    StandaloneStore s(sim, ProcessId{1}, &disk);
    s.store->start();
    s.store->put("total_kwh", 12.5);
    s.store->put("alerts", 3.0);
  }
  StandaloneStore recovered(sim, ProcessId{1}, &disk);
  recovered.store->start();
  EXPECT_EQ(recovered.store->get("total_kwh"), 12.5);
  EXPECT_EQ(recovered.store->get("alerts"), 3.0);
}

// --- full runtime: replication between processes ------------------------

devices::SensorSpec door_sensor() {
  devices::SensorSpec spec;
  spec.id = SensorId{1};
  spec.name = "door";
  spec.kind = devices::SensorKind::kDoor;
  spec.tech = devices::Technology::kIp;
  spec.rate_hz = 2.0;
  return spec;
}

devices::ActuatorSpec light() {
  devices::ActuatorSpec spec;
  spec.id = ActuatorId{1};
  spec.name = "light";
  spec.tech = devices::Technology::kIp;
  return spec;
}

// An app whose handler counts events into replicated state.
appmodel::AppGraph counting_app() {
  appmodel::AppBuilder app(AppId{1}, "counter");
  auto op = app.add_operator("Count");
  op.add_sensor(SensorId{1}, appmodel::Guarantee::kGapless,
                appmodel::WindowSpec::count_window(1));
  op.add_actuator(ActuatorId{1}, appmodel::Guarantee::kGap);
  op.handle_triggered_window(
      [](const std::vector<appmodel::StreamWindow>& w,
         appmodel::TriggerContext& ctx) {
        double count = ctx.get_or("count", 0.0) +
                       static_cast<double>(w[0].events.size());
        ctx.put("count", count);
        ctx.actuate(ActuatorId{1}, count);
      });
  return app.build();
}

TEST(ReplicatedStore, StateReplicatesAcrossProcesses) {
  workload::HomeDeployment::Options opt;
  opt.seed = 81;
  opt.n_processes = 3;
  workload::HomeDeployment home(opt);
  home.add_sensor(door_sensor(), home.processes());
  home.add_actuator(light(), home.processes());
  home.deploy(counting_app());
  home.start();
  home.run_for(seconds(30));
  // The active logic wrote the count; anti-entropy spread it everywhere.
  double active_count = -1;
  for (int i = 0; i < 3; ++i) {
    auto v = home.process(i).kv().get("count");
    ASSERT_TRUE(v.has_value()) << "process " << i;
    if (home.process(i).logic_active(AppId{1})) active_count = *v;
  }
  EXPECT_GT(active_count, 40.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(*home.process(i).kv().get("count"), active_count, 5.0);
  }
}

TEST(ReplicatedStore, StatefulAppSurvivesFailover) {
  workload::HomeDeployment::Options opt;
  opt.seed = 82;
  opt.n_processes = 3;
  workload::HomeDeployment home(opt);
  home.add_sensor(door_sensor(), home.processes());
  home.add_actuator(light(), home.processes());
  home.deploy(counting_app());
  home.start();
  home.run_for(seconds(30));
  core::RivuletProcess* first = home.active_logic_process(AppId{1});
  double before = first->kv().get("count").value_or(0.0);
  ASSERT_GT(before, 40.0);
  first->crash();
  home.run_for(seconds(30));
  core::RivuletProcess* second = home.active_logic_process(AppId{1});
  ASSERT_NE(second, nullptr);
  double after = second->kv().get("count").value_or(0.0);
  // The running total continued from (roughly) where the old active left
  // off — it did not reset to zero.
  EXPECT_GT(after, before + 30.0);
}

TEST(ReplicatedStore, PartitionedWritesMergeLww) {
  workload::HomeDeployment::Options opt;
  opt.seed = 83;
  opt.n_processes = 4;
  workload::HomeDeployment home(opt);
  home.add_sensor(door_sensor(), home.processes());
  home.add_actuator(light(), home.processes());
  home.deploy(counting_app());
  home.start();
  home.run_for(seconds(5));
  home.net().set_partition({{home.pid(0), home.pid(1)},
                            {home.pid(2), home.pid(3)}});
  home.run_for(seconds(20));
  // Both sides wrote "count" independently.
  home.net().heal_partition();
  home.run_for(seconds(15));
  // After healing, everyone converges on one LWW winner.
  double v0 = home.process(0).kv().get("count").value_or(-1);
  for (int i = 1; i < 4; ++i)
    EXPECT_EQ(home.process(i).kv().get("count").value_or(-2), v0);
}

// A put pushes one encoded entry to every visible peer. The runtime's
// send hook must hand that Payload to the transport as is, so every
// frame of the fan-out carries the same buffer rather than a copy each.
TEST(ReplicatedStore, PutFanOutSharesOnePayloadBuffer) {
  workload::HomeDeployment::Options opt;
  opt.seed = 84;
  opt.n_processes = 3;
  workload::HomeDeployment home(opt);
  home.add_sensor(door_sensor(), home.processes());
  home.add_actuator(light(), home.processes());
  home.deploy(counting_app());
  home.start();
  home.run_for(seconds(5));  // membership views converge

  std::vector<const std::byte*> put_buffers;
  home.net().set_interposer([&put_buffers](net::Message& msg) {
    if (msg.type == net::MsgType::kStorePut)
      put_buffers.push_back(msg.payload.bytes().data());
    return 1;
  });
  home.process(0).kv().put("shared", 1.0);
  home.net().set_interposer(nullptr);

  ASSERT_EQ(put_buffers.size(), 2u);  // one frame per peer
  EXPECT_EQ(put_buffers[0], put_buffers[1]);
}

}  // namespace
}  // namespace riv
