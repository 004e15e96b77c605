// Unit tests for the keep-alive failure detector and local views.
#include <gtest/gtest.h>

#include <map>

#include "forwarding_owner.hpp"
#include "membership/failure_detector.hpp"
#include "net/sim_network.hpp"

namespace riv::membership {
namespace {

struct Fixture : ::testing::Test {
  Fixture() : sim(13), net(sim, metrics) {}

  // Build a detector for process p (ids 1..n).
  FailureDetector& make(std::uint16_t p, int n, Config cfg = {}) {
    ProcessId self{p};
    std::vector<ProcessId> all;
    for (std::uint16_t i = 1; i <= n; ++i) all.push_back(ProcessId{i});
    if (owners.count(self) == 0) {
      // One owner per process for the fixture's lifetime, like the
      // runtime's; it routes the tick to the current incarnation.
      owners[self] = std::make_unique<sim::ForwardingOwner>(
          sim, [this, self](sim::TimerId, std::uint16_t, std::uint64_t) {
            fds.at(self)->tick();
          });
    }
    auto fd = std::make_unique<FailureDetector>(
        owners.at(self)->timers(), net.endpoint(self), all, cfg);
    net.endpoint(self).set_handler(
        [raw = fd.get()](const net::Message& m) {
          if (m.type == net::MsgType::kKeepAlive) raw->on_keepalive(m);
        });
    auto& ref = *fd;
    fds[self] = std::move(fd);
    return ref;
  }

  void kill(std::uint16_t p) {
    ProcessId self{p};
    net.set_process_up(self, false);
    owners.at(self)->timers().cancel_all();
  }

  // Recovery = a fresh runtime incarnation with a fresh detector, exactly
  // as RivuletProcess::recover() rebuilds its volatile state.
  void revive(std::uint16_t p, int n) {
    ProcessId self{p};
    net.set_process_up(self, true);
    make(p, n).start();
  }

  sim::Simulation sim;
  metrics::Registry metrics;
  net::SimNetwork net;
  std::map<ProcessId, std::unique_ptr<FailureDetector>> fds;
  std::map<ProcessId, std::unique_ptr<sim::ForwardingOwner>> owners;
};

TEST_F(Fixture, InitialViewIsOptimistic) {
  auto& fd = make(1, 3);
  fd.start();
  EXPECT_EQ(fd.view().size(), 3u);
}

TEST_F(Fixture, StableViewsWhenAllAlive) {
  for (std::uint16_t p = 1; p <= 3; ++p) make(p, 3).start();
  sim.run_for(seconds(10));
  for (std::uint16_t p = 1; p <= 3; ++p)
    EXPECT_EQ(fds.at(ProcessId{p})->view().size(), 3u);
}

TEST_F(Fixture, CrashDetectedWithinTimeout) {
  for (std::uint16_t p = 1; p <= 3; ++p) make(p, 3).start();
  sim.run_for(seconds(5));
  kill(3);
  sim.run_for(seconds(3));  // > 2 s timeout + period
  EXPECT_FALSE(fds.at(ProcessId{1})->alive(ProcessId{3}));
  EXPECT_FALSE(fds.at(ProcessId{2})->alive(ProcessId{3}));
  EXPECT_TRUE(fds.at(ProcessId{1})->alive(ProcessId{2}));
}

TEST_F(Fixture, DetectionLatencyRespectsConfiguredTimeout) {
  Config cfg;
  cfg.period = milliseconds(200);
  cfg.timeout = milliseconds(800);
  for (std::uint16_t p = 1; p <= 2; ++p) make(p, 2, cfg).start();
  sim.run_for(seconds(2));
  kill(2);
  sim.run_for(milliseconds(600));
  EXPECT_TRUE(fds.at(ProcessId{1})->alive(ProcessId{2}));  // not yet
  sim.run_for(milliseconds(600));
  EXPECT_FALSE(fds.at(ProcessId{1})->alive(ProcessId{2}));
}

TEST_F(Fixture, RecoveryRejoinsView) {
  for (std::uint16_t p = 1; p <= 3; ++p) make(p, 3).start();
  sim.run_for(seconds(5));
  kill(3);
  sim.run_for(seconds(3));
  EXPECT_FALSE(fds.at(ProcessId{1})->alive(ProcessId{3}));
  revive(3, 3);
  sim.run_for(seconds(2));
  EXPECT_TRUE(fds.at(ProcessId{1})->alive(ProcessId{3}));
}

TEST_F(Fixture, NeverSuspectsSelf) {
  auto& fd = make(1, 5);
  fd.start();
  sim.run_for(seconds(30));  // everyone else silent forever
  EXPECT_TRUE(fd.alive(ProcessId{1}));
  EXPECT_EQ(fd.view().size(), 1u);
}

TEST_F(Fixture, PartitionSplitsViewsOnBothSides) {
  for (std::uint16_t p = 1; p <= 4; ++p) make(p, 4).start();
  sim.run_for(seconds(5));
  net.set_partition({{ProcessId{1}, ProcessId{2}},
                     {ProcessId{3}, ProcessId{4}}});
  sim.run_for(seconds(4));
  EXPECT_EQ(fds.at(ProcessId{1})->view().size(), 2u);
  EXPECT_EQ(fds.at(ProcessId{3})->view().size(), 2u);
  EXPECT_TRUE(fds.at(ProcessId{1})->alive(ProcessId{2}));
  EXPECT_TRUE(fds.at(ProcessId{3})->alive(ProcessId{4}));
  net.heal_partition();
  sim.run_for(seconds(2));
  EXPECT_EQ(fds.at(ProcessId{1})->view().size(), 4u);
  EXPECT_EQ(fds.at(ProcessId{4})->view().size(), 4u);
}

TEST_F(Fixture, AsymmetricPartitionSplitsViewsAsymmetrically) {
  // Keep-alives from 1 still reach 2, but nothing from 2 reaches 1: the
  // local views must disagree — 1 drops 2 while 2 keeps 1. This is the
  // one-directional link failure of §2.1 that symmetric partition tests
  // cannot exercise.
  for (std::uint16_t p = 1; p <= 3; ++p) make(p, 3).start();
  sim.run_for(seconds(5));
  net.set_reachable(ProcessId{2}, ProcessId{1}, false);
  sim.run_for(seconds(4));  // > 2 s timeout + period
  EXPECT_FALSE(fds.at(ProcessId{1})->alive(ProcessId{2}));
  EXPECT_TRUE(fds.at(ProcessId{2})->alive(ProcessId{1}));
  // Third parties hear both sides and suspect no one.
  EXPECT_TRUE(fds.at(ProcessId{3})->alive(ProcessId{1}));
  EXPECT_TRUE(fds.at(ProcessId{3})->alive(ProcessId{2}));
  EXPECT_EQ(fds.at(ProcessId{1})->view().size(), 2u);
  EXPECT_EQ(fds.at(ProcessId{2})->view().size(), 3u);
  EXPECT_EQ(fds.at(ProcessId{3})->view().size(), 3u);
}

TEST_F(Fixture, AsymmetricPartitionHealRestoresFullViews) {
  for (std::uint16_t p = 1; p <= 3; ++p) make(p, 3).start();
  sim.run_for(seconds(5));
  net.set_reachable(ProcessId{2}, ProcessId{1}, false);
  sim.run_for(seconds(4));
  EXPECT_FALSE(fds.at(ProcessId{1})->alive(ProcessId{2}));
  net.set_reachable(ProcessId{2}, ProcessId{1}, true);
  sim.run_for(seconds(2));  // next keep-alive refreshes the entry
  EXPECT_TRUE(fds.at(ProcessId{1})->alive(ProcessId{2}));
  for (std::uint16_t p = 1; p <= 3; ++p)
    EXPECT_EQ(fds.at(ProcessId{p})->view().size(), 3u);
}

TEST_F(Fixture, MutualAsymmetricSeversActLikeSymmetricPartition) {
  // Severing both directions one edge at a time must converge to the
  // same views a symmetric two-way split would produce.
  for (std::uint16_t p = 1; p <= 2; ++p) make(p, 2).start();
  sim.run_for(seconds(5));
  net.set_reachable(ProcessId{1}, ProcessId{2}, false);
  net.set_reachable(ProcessId{2}, ProcessId{1}, false);
  sim.run_for(seconds(4));
  EXPECT_FALSE(fds.at(ProcessId{1})->alive(ProcessId{2}));
  EXPECT_FALSE(fds.at(ProcessId{2})->alive(ProcessId{1}));
  EXPECT_EQ(fds.at(ProcessId{1})->view().size(), 1u);
  EXPECT_EQ(fds.at(ProcessId{2})->view().size(), 1u);
}

TEST_F(Fixture, ViewChangeCallbackFires) {
  int changes = 0;
  auto& fd1 = make(1, 2);
  fd1.set_on_view_change([&](const std::set<ProcessId>&) { ++changes; });
  make(2, 2).start();
  fd1.start();
  sim.run_for(seconds(3));
  int baseline = changes;
  kill(2);
  sim.run_for(seconds(4));
  EXPECT_GT(changes, baseline);
  EXPECT_EQ(fd1.view().size(), 1u);
}

TEST_F(Fixture, PiggybackPayloadRoundTrips) {
  auto& fd1 = make(1, 2);
  auto& fd2 = make(2, 2);
  fd1.set_payload_provider([](std::vector<std::byte>& out) {
    BinaryWriter w(std::move(out));
    w.u32(0xc0ffee);
    out = w.take();
  });
  std::uint32_t seen = 0;
  ProcessId seen_from{};
  fd2.set_payload_handler(
      [&](ProcessId from, const std::vector<std::byte>& piggyback) {
        BinaryReader r(piggyback);
        seen = r.u32();
        seen_from = from;
        return r.ok() && r.at_end();
      });
  fd1.start();
  fd2.start();
  sim.run_for(seconds(2));
  EXPECT_EQ(seen, 0xc0ffeeu);
  EXPECT_EQ(seen_from, ProcessId{1});
}

// A keep-alive counts only if it decodes whole: one cut short, or one
// whose piggyback the handler rejects, is reported and is no liveness.
TEST_F(Fixture, MalformedKeepAliveIsNotLiveness) {
  auto& fd1 = make(1, 2);
  fd1.set_payload_handler(
      [](ProcessId, const std::vector<std::byte>& piggyback) {
        return piggyback.size() == 4;
      });
  fd1.start();  // p2 never starts: p1 hears only the frames fed below
  auto from_p2 = [](std::vector<std::byte> payload) {
    net::Message m;
    m.src = ProcessId{2};
    m.dst = ProcessId{1};
    m.type = net::MsgType::kKeepAlive;
    m.payload = std::move(payload);
    return m;
  };
  const std::vector<std::byte> good =
      encode(KeepAlive{TimePoint{}, std::vector<std::byte>(4)});
  const net::Message truncated =
      from_p2(std::vector<std::byte>(good.begin(), good.end() - 1));
  const net::Message rejected =
      from_p2(encode(KeepAlive{TimePoint{}, std::vector<std::byte>(3)}));
  for (int i = 0; i < 10; ++i) {
    sim.run_for(milliseconds(500));
    EXPECT_FALSE(fd1.on_keepalive(truncated));
    EXPECT_FALSE(fd1.on_keepalive(rejected));
  }
  EXPECT_FALSE(fd1.alive(ProcessId{2}));
  EXPECT_TRUE(fd1.on_keepalive(from_p2(good)));
  EXPECT_TRUE(fd1.alive(ProcessId{2}));
}

TEST_F(Fixture, SingleProcessHomeWorks) {
  // §4.1: Rivulet must work with any number of processes, including one.
  auto& fd = make(1, 1);
  fd.start();
  sim.run_for(seconds(10));
  EXPECT_EQ(fd.view().size(), 1u);
}

}  // namespace
}  // namespace riv::membership
