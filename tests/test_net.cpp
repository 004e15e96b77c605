// Unit tests for the simulated WiFi network: delivery, FIFO ordering,
// crash and partition loss semantics, asymmetric (one-directional) severs
// and per-edge delay/loss overrides, latency model, byte accounting; and
// the recycled frame buffers payloads live in.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/wire.hpp"
#include "net/sim_network.hpp"

namespace riv::net {
namespace {

struct NetFixture : ::testing::Test {
  NetFixture() : sim(7), net(sim, metrics) {}

  std::vector<std::byte> payload(std::size_t n) {
    return std::vector<std::byte>(n);
  }

  sim::Simulation sim;
  metrics::Registry metrics;
  SimNetwork net;
};

TEST_F(NetFixture, DeliversToHandler) {
  ProcessId a{1}, b{2};
  std::vector<Message> got;
  net.endpoint(b).set_handler([&](const Message& m) { got.push_back(m); });
  net.endpoint(a).send(b, MsgType::kGapForward, payload(10));
  sim.run_all();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].src, a);
  EXPECT_EQ(got[0].dst, b);
  EXPECT_EQ(got[0].type, MsgType::kGapForward);
  EXPECT_EQ(got[0].payload.size(), 10u);
}

TEST_F(NetFixture, PerPairFifoEvenWithJitter) {
  ProcessId a{1}, b{2};
  std::vector<int> order;
  net.endpoint(b).set_handler([&](const Message& m) {
    order.push_back(static_cast<int>(m.payload.size()));
  });
  for (int i = 1; i <= 50; ++i)
    net.endpoint(a).send(b, MsgType::kGapForward, payload(i));
  sim.run_all();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 1; i <= 50; ++i) EXPECT_EQ(order[i - 1], i);
}

TEST_F(NetFixture, LatencyGrowsWithSize) {
  ProcessId a{1}, b{2};
  TimePoint small_at{}, large_at{};
  net.endpoint(b).set_handler([&](const Message& m) {
    if (m.payload.size() < 100)
      small_at = sim.now();
    else
      large_at = sim.now();
  });
  net.endpoint(a).send(b, MsgType::kGapForward, payload(4));
  sim.run_all();
  TimePoint t0 = small_at;
  net.endpoint(a).send(b, MsgType::kGapForward, payload(20000));
  sim.run_all();
  Duration small_delay = t0 - TimePoint{};
  Duration large_delay = large_at - t0;
  EXPECT_GT(large_delay.us, small_delay.us + 2000);  // >2 ms extra for 20 KB
}

TEST_F(NetFixture, DownReceiverLosesFrames) {
  ProcessId a{1}, b{2};
  int got = 0;
  net.endpoint(b).set_handler([&](const Message&) { ++got; });
  net.set_process_up(b, false);
  net.endpoint(a).send(b, MsgType::kGapForward, payload(4));
  sim.run_all();
  EXPECT_EQ(got, 0);
}

TEST_F(NetFixture, CrashWhileInFlightLosesFrame) {
  ProcessId a{1}, b{2};
  int got = 0;
  net.endpoint(b).set_handler([&](const Message&) { ++got; });
  net.endpoint(a).send(b, MsgType::kGapForward, payload(4));
  net.set_process_up(b, false);  // crash before the frame lands
  sim.run_all();
  EXPECT_EQ(got, 0);
}

TEST_F(NetFixture, PartitionBlocksAcrossGroupsOnly) {
  ProcessId a{1}, b{2}, c{3};
  int got_b = 0, got_c = 0;
  net.endpoint(b).set_handler([&](const Message&) { ++got_b; });
  net.endpoint(c).set_handler([&](const Message&) { ++got_c; });
  net.set_partition({{a, b}, {c}});
  net.endpoint(a).send(b, MsgType::kGapForward, payload(4));
  net.endpoint(a).send(c, MsgType::kGapForward, payload(4));
  sim.run_all();
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 0);
  EXPECT_FALSE(net.connected(a, c));
  EXPECT_TRUE(net.connected(a, b));
}

TEST_F(NetFixture, HealRestoresConnectivity) {
  ProcessId a{1}, c{3};
  int got = 0;
  net.endpoint(c).set_handler([&](const Message&) { ++got; });
  net.set_partition({{a}, {c}});
  net.endpoint(a).send(c, MsgType::kGapForward, payload(4));
  sim.run_all();
  EXPECT_EQ(got, 0);
  net.heal_partition();
  net.endpoint(a).send(c, MsgType::kGapForward, payload(4));
  sim.run_all();
  EXPECT_EQ(got, 1);
}

TEST_F(NetFixture, UnmentionedProcessIsIsolatedDuringPartition) {
  ProcessId a{1}, d{4};
  net.endpoint(a);
  net.endpoint(d);
  net.set_partition({{a}});
  EXPECT_FALSE(net.connected(a, d));
  EXPECT_TRUE(net.connected(d, d));
}

TEST_F(NetFixture, ByteAccountingCountsHeaderAndPayload) {
  ProcessId a{1}, b{2};
  net.endpoint(b).set_handler([](const Message&) {});
  net.endpoint(a).send(b, MsgType::kRingEvent, payload(100));
  sim.run_all();
  EXPECT_EQ(metrics.counter_value("net.msgs.ring_event"), 1u);
  EXPECT_EQ(metrics.counter_value("net.bytes.ring_event"),
            100u + kHeaderBytes);
}

TEST_F(NetFixture, ByteAccountingSkipsPartitionedSends) {
  ProcessId a{1}, c{3};
  net.set_partition({{a}, {c}});
  net.endpoint(a).send(c, MsgType::kRingEvent, payload(100));
  sim.run_all();
  EXPECT_EQ(metrics.counter_value("net.msgs.ring_event"), 0u);
}

TEST_F(NetFixture, CongestionTermGrowsWithProcessCount) {
  // Delay from a to b with 2 live processes vs 6 live processes.
  ProcessId a{1}, b{2};
  TimePoint first{}, second{};
  net.endpoint(b).set_handler([&](const Message&) {
    if (first == TimePoint{})
      first = sim.now();
    else
      second = sim.now();
  });
  net.endpoint(a).send(b, MsgType::kGapForward, payload(4));
  sim.run_all();
  for (std::uint16_t i = 3; i <= 6; ++i) net.endpoint(ProcessId{i});
  TimePoint t1 = sim.now();
  net.endpoint(a).send(b, MsgType::kGapForward, payload(4));
  sim.run_all();
  Duration d1 = first - TimePoint{};
  Duration d2 = second - t1;
  EXPECT_GT(d2.us, d1.us);  // more processes, more keep-alive congestion
}

TEST_F(NetFixture, AsymmetricSeverBlocksOneDirectionOnly) {
  ProcessId a{1}, b{2};
  int got_a = 0, got_b = 0;
  net.endpoint(a).set_handler([&](const Message&) { ++got_a; });
  net.endpoint(b).set_handler([&](const Message&) { ++got_b; });
  net.set_reachable(a, b, false);  // a -> b severed; b -> a still works
  EXPECT_FALSE(net.reachable(a, b));
  EXPECT_TRUE(net.reachable(b, a));
  EXPECT_TRUE(net.connected(a, b));  // symmetric layer is untouched
  net.endpoint(a).send(b, MsgType::kGapForward, payload(4));
  net.endpoint(b).send(a, MsgType::kGapForward, payload(4));
  sim.run_all();
  EXPECT_EQ(got_b, 0);
  EXPECT_EQ(got_a, 1);
}

TEST_F(NetFixture, AsymmetricSeverRestores) {
  ProcessId a{1}, b{2};
  int got = 0;
  net.endpoint(b).set_handler([&](const Message&) { ++got; });
  net.set_reachable(a, b, false);
  net.endpoint(a).send(b, MsgType::kGapForward, payload(4));
  sim.run_all();
  EXPECT_EQ(got, 0);
  net.set_reachable(a, b, true);
  net.endpoint(a).send(b, MsgType::kGapForward, payload(4));
  sim.run_all();
  EXPECT_EQ(got, 1);
}

TEST_F(NetFixture, AsymmetricSeverWhileInFlightDropsAtDelivery) {
  ProcessId a{1}, b{2};
  int got = 0;
  net.endpoint(b).set_handler([&](const Message&) { ++got; });
  net.endpoint(a).send(b, MsgType::kGapForward, payload(4));
  net.set_reachable(a, b, false);  // severed before the frame lands
  sim.run_all();
  EXPECT_EQ(got, 0);
}

TEST_F(NetFixture, AsymmetricLayersUnderGroupPartition) {
  // Directed severs compose with symmetric partitions: healing the
  // partition does not resurrect a severed directed edge, and clearing
  // the sever does not punch through a partition.
  ProcessId a{1}, b{2};
  net.endpoint(a);
  net.endpoint(b);
  net.set_reachable(a, b, false);
  net.set_partition({{a}, {b}});
  EXPECT_FALSE(net.reachable(a, b));
  EXPECT_FALSE(net.reachable(b, a));
  net.heal_partition();
  EXPECT_FALSE(net.reachable(a, b));
  EXPECT_TRUE(net.reachable(b, a));
  net.set_partition({{a}, {b}});
  net.clear_reachable_overrides();
  EXPECT_FALSE(net.reachable(a, b));  // partition still in force
  net.heal_partition();
  EXPECT_TRUE(net.reachable(a, b));
}

TEST_F(NetFixture, EdgeDelayAddsDirectedExtraLatency) {
  ProcessId a{1}, b{2};
  TimePoint ab{}, ba{};
  net.endpoint(a).set_handler([&](const Message&) { ba = sim.now(); });
  net.endpoint(b).set_handler([&](const Message&) { ab = sim.now(); });
  net.set_edge_delay(a, b, milliseconds(200));
  TimePoint t0 = sim.now();
  net.endpoint(a).send(b, MsgType::kGapForward, payload(4));
  net.endpoint(b).send(a, MsgType::kGapForward, payload(4));
  sim.run_all();
  EXPECT_GE((ab - t0).us, milliseconds(200).us);  // spiked direction
  EXPECT_LT((ba - t0).us, milliseconds(200).us);  // reverse unaffected
  net.clear_edge_overrides();
  TimePoint t1 = sim.now();
  net.endpoint(a).send(b, MsgType::kGapForward, payload(4));
  sim.run_all();
  EXPECT_LT((ab - t1).us, milliseconds(200).us);
}

TEST_F(NetFixture, EdgeLossDropsDirectedFrames) {
  ProcessId a{1}, b{2};
  int got_b = 0, got_a = 0;
  net.endpoint(a).set_handler([&](const Message&) { ++got_a; });
  net.endpoint(b).set_handler([&](const Message&) { ++got_b; });
  net.set_edge_loss(a, b, 1.0);  // certain loss a -> b
  for (int i = 0; i < 20; ++i) {
    net.endpoint(a).send(b, MsgType::kGapForward, payload(4));
    net.endpoint(b).send(a, MsgType::kGapForward, payload(4));
  }
  sim.run_all();
  EXPECT_EQ(got_b, 0);
  EXPECT_EQ(got_a, 20);
  net.set_edge_loss(a, b, 0.0);
  net.endpoint(a).send(b, MsgType::kGapForward, payload(4));
  sim.run_all();
  EXPECT_EQ(got_b, 1);
}

TEST(WifiModel, DeterministicGivenSeed) {
  for (int run = 0; run < 2; ++run) {
    static TimePoint reference{};
    sim::Simulation sim(99);
    metrics::Registry metrics;
    SimNetwork net(sim, metrics);
    TimePoint arrival{};
    net.endpoint(ProcessId{2}).set_handler([&](const Message&) {
      arrival = sim.now();
    });
    net.endpoint(ProcessId{1}).send(ProcessId{2}, MsgType::kGapForward,
                                    std::vector<std::byte>(8));
    sim.run_all();
    if (run == 0)
      reference = arrival;
    else
      EXPECT_EQ(arrival, reference);
  }
}

// --- Recycled frame buffers ----------------------------------------------

// Takes every block off this thread's free list, so a test starts from an
// empty list whatever ran before it in this process.
std::vector<FrameBuffer> drain_free_list() {
  std::vector<FrameBuffer> held;
  while (FrameBlock::free_count() > 0) held.emplace_back();
  return held;
}

TEST(FrameBuffers, ReleasedFrameIsReusedByTheNextEncode) {
  const std::vector<FrameBuffer> held = drain_free_list();
  Payload first = encode(core::wire::AppFrame{AppId{1}});
  const std::vector<std::byte>* block = &first.bytes();
  first = {};
  EXPECT_EQ(FrameBlock::free_count(), 1u);
  const Payload next = encode(core::wire::AppFrame{AppId{2}});
  EXPECT_EQ(FrameBlock::free_count(), 0u);
  EXPECT_EQ(&next.bytes(), block);
  core::wire::AppFrame decoded;
  ASSERT_TRUE(decode(next, decoded));
  EXPECT_EQ(decoded.app, AppId{2});
}

TEST(FrameBuffers, ListKeepsNoLargeBufferAndAtMostItsCountBound) {
  const std::vector<FrameBuffer> held = drain_free_list();
  {
    FrameBuffer large;
    large.bytes().resize(FrameBlock::kKeptBytes + 1);
  }
  EXPECT_EQ(FrameBlock::free_count(), 0u);
  {
    FrameBuffer largest_kept;
    largest_kept.bytes().resize(FrameBlock::kKeptBytes);
  }
  EXPECT_EQ(FrameBlock::free_count(), 1u);
  // A 20 KB camera frame (Table 3) takes that block and is then freed.
  core::wire::EventPayload camera;
  camera.event.payload_size = 20 * 1024;
  { const Payload frame = encode(camera); }
  EXPECT_EQ(FrameBlock::free_count(), 0u);
  { std::vector<FrameBuffer> burst(FrameBlock::kFreeBlocks + 8); }
  EXPECT_EQ(FrameBlock::free_count(), FrameBlock::kFreeBlocks);
}

TEST(FrameBuffers, FanOutCopiesShareOneBlock) {
  const std::vector<FrameBuffer> held = drain_free_list();
  Payload frame = encode(core::wire::AppFrame{AppId{3}});
  std::vector<Payload> targets(4, frame);
  for (const Payload& t : targets) EXPECT_EQ(&t.bytes(), &frame.bytes());
  frame = {};
  targets.resize(1);
  EXPECT_EQ(FrameBlock::free_count(), 0u);  // one copy still holds it
  targets.clear();
  EXPECT_EQ(FrameBlock::free_count(), 1u);
}

// Copies dropped on other threads at once: the last reference parks the
// block on the list of the thread it dropped on, exactly once.
TEST(FrameBuffers, BlockReleasedOnAnotherThreadJoinsThatThreadsList) {
  const std::vector<FrameBuffer> held = drain_free_list();
  Payload frame = encode(core::wire::AppFrame{AppId{4}});
  constexpr int kThreads = 4;
  std::atomic<int> waiting{kThreads};
  std::atomic<bool> go{false};
  std::atomic<std::size_t> parked{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([copy = frame, &waiting, &go, &parked]() mutable {
      const std::size_t before = FrameBlock::free_count();
      --waiting;
      while (!go) std::this_thread::yield();
      copy = {};
      parked += FrameBlock::free_count() - before;
    });
  }
  while (waiting > 0) std::this_thread::yield();
  frame = {};  // not the last reference: every thread still holds one
  go = true;
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(parked.load(), 1u);
  EXPECT_EQ(FrameBlock::free_count(), 0u);
}

}  // namespace
}  // namespace riv::net
