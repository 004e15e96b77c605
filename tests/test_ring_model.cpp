// Model-checking style test of the Gapless ring protocol: N GaplessStream
// instances connected by an adversarial message scheduler (random order,
// random drops, temporary node silence), followed by anti-entropy rounds.
// Invariants checked per §4.1:
//   * exactly-once local delivery at every node,
//   * after message drain + sync rounds, every node's log holds every
//     event that was ingested anywhere,
//   * the failure-free happy path costs exactly n messages per event.
#include <gtest/gtest.h>

#include <deque>

#include "common/rng.hpp"
#include "core/delivery/gapless_stream.hpp"
#include "forwarding_owner.hpp"

namespace riv::core {
namespace {

struct Network;

struct Node {
  Node(Network& net, std::uint16_t id, int n);

  sim::Simulation* sim;
  // Stands in for the runtime process, which owns the stream's timers.
  sim::ForwardingOwner owner;
  ProcessId self;
  EventLog log;
  std::set<ProcessId> view;
  std::vector<ProcessId> chain;  // the view in order, what ctx.chain returns
  std::vector<EventId> delivered;
  std::unique_ptr<GaplessStream> stream;
  bool silenced{false};  // drops everything addressed to it
};

struct Pending {
  ProcessId src;
  ProcessId dst;
  net::MsgType type;
  std::vector<std::byte> payload;
};

struct Network {
  explicit Network(int n, std::uint64_t seed) : sim(seed), rng(seed ^ 77) {
    for (int i = 0; i < n; ++i)
      nodes.push_back(std::make_unique<Node>(*this, (std::uint16_t)(i + 1), n));
  }

  Node& node(ProcessId p) { return *nodes[p.value - 1]; }

  void enqueue(ProcessId src, ProcessId dst, net::MsgType type,
               std::vector<std::byte> payload) {
    queue.push_back({src, dst, type, std::move(payload)});
    ++messages_sent;
  }

  // Deliver queued messages in adversarial order with a drop probability.
  void drain(double drop_prob) {
    while (!queue.empty()) {
      std::size_t pick = rng.uniform_int(queue.size());
      Pending msg = std::move(queue[pick]);
      queue.erase(queue.begin() + static_cast<long>(pick));
      Node& dst = node(msg.dst);
      if (dst.silenced || rng.bernoulli(drop_prob)) continue;
      switch (msg.type) {
        case net::MsgType::kRingEvent: {
          wire::RingPayload p;
          ASSERT_TRUE(wire::decode(msg.payload, p));
          dst.stream->on_ring(msg.src, p);
          break;
        }
        case net::MsgType::kRbEvent: {
          wire::EventPayload p;
          ASSERT_TRUE(wire::decode(msg.payload, p));
          dst.stream->on_rb(msg.src, p);
          break;
        }
        default:
          break;
      }
    }
  }

  // One anti-entropy round: every node syncs its ring successor with the
  // successor's true sequence summary (what the runtime's request /
  // response exchange computes).
  void sync_round() {
    for (auto& n : nodes) {
      if (n->silenced) continue;
      auto it = n->view.upper_bound(n->self);
      if (it == n->view.end()) it = n->view.begin();
      if (*it == n->self) continue;
      Node& succ = node(*it);
      if (succ.silenced) continue;
      n->stream->sync_successor(succ.self, succ.log.summary(SensorId{1}));
    }
  }

  devices::SensorEvent event(std::uint32_t seq) {
    devices::SensorEvent e;
    e.id = {SensorId{1}, seq};
    e.emitted_at = TimePoint{static_cast<std::int64_t>(seq) * 1000};
    e.payload_size = 4;
    return e;
  }

  sim::Simulation sim;
  Rng rng;
  std::vector<std::unique_ptr<Node>> nodes;
  std::deque<Pending> queue;
  std::uint64_t messages_sent{0};
};

Node::Node(Network& net, std::uint16_t id, int n)
    : sim(&net.sim),
      owner(net.sim,
            [this](sim::TimerId, std::uint16_t kind, std::uint64_t arg) {
              if (kind == GaplessStream::kEpochTimer)
                stream->on_epoch_boundary(stream_timer_epoch(arg));
              else
                stream->on_poll_slot(stream_timer_epoch(arg));
            }),
      self{id},
      log(100000) {
  for (std::uint16_t i = 1; i <= n; ++i) view.insert(ProcessId{i});
  StreamContext ctx;
  ctx.self = self;
  ctx.app = AppId{1};
  appmodel::SensorEdge edge;
  edge.sensor = SensorId{1};
  edge.guarantee = appmodel::Guarantee::kGapless;
  edge.window = appmodel::WindowSpec::count_window(1);
  ctx.edge = edge;
  ctx.in_range = true;
  for (std::uint16_t i = 1; i <= n; ++i) {
    ctx.all_processes.push_back(ProcessId{i});
    ctx.in_range_processes.push_back(ProcessId{i});
  }
  ctx.view = [this]() -> const std::set<ProcessId>& { return view; };
  ctx.chain = [this]() -> const std::vector<ProcessId>& {
    chain.assign(view.begin(), view.end());
    return chain;
  };
  ctx.logic_active_here = [] { return true; };
  ctx.deliver = [this](const devices::SensorEvent& e) {
    delivered.push_back(e.id);
  };
  ProcessId src = self;
  ctx.send = [&net, src](ProcessId dst, net::MsgType type,
                         std::vector<std::byte> payload) {
    net.enqueue(src, dst, type, std::move(payload));
  };
  ctx.staleness = [](std::uint32_t) {};
  ctx.poll = [](std::uint32_t) {};
  ctx.timers = &owner.timers();
  ctx.log = &log;
  stream = std::make_unique<GaplessStream>(std::move(ctx));
}

void expect_converged(Network& net, std::uint32_t n_events) {
  for (auto& node : net.nodes) {
    EXPECT_EQ(node->log.size(SensorId{1}), n_events)
        << "node " << node->self.value << " log incomplete";
    // Exactly-once delivery: no EventId appears twice.
    std::set<EventId> unique(node->delivered.begin(),
                             node->delivered.end());
    EXPECT_EQ(unique.size(), node->delivered.size())
        << "node " << node->self.value << " saw duplicates";
    EXPECT_EQ(unique.size(), n_events);
  }
}

TEST(RingModel, HappyPathCostsExactlyNMessagesPerEvent) {
  Network net(5, 11);
  for (std::uint32_t seq = 1; seq <= 20; ++seq) {
    net.node(ProcessId{3}).stream->on_device_event(net.event(seq));
    net.drain(0.0);
  }
  EXPECT_EQ(net.messages_sent, 20u * 5u);  // n messages per event (§4.1)
  expect_converged(net, 20);
}

TEST(RingModel, MultipleIngestersStillConverge) {
  Network net(4, 12);
  for (std::uint32_t seq = 1; seq <= 30; ++seq) {
    // Two nodes ingest the same event near-simultaneously.
    net.node(ProcessId{1}).stream->on_device_event(net.event(seq));
    net.node(ProcessId{3}).stream->on_device_event(net.event(seq));
    net.drain(0.0);
  }
  expect_converged(net, 30);
}

class RingModelChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingModelChaos, ConvergesDespiteDropsSilenceAndReordering) {
  const std::uint64_t seed = GetParam();
  Network net(5, seed);
  Rng rng(seed * 31 + 7);
  for (std::uint32_t seq = 1; seq <= 120; ++seq) {
    // Random node becomes temporarily silent (crash window).
    if (rng.bernoulli(0.1)) {
      for (auto& node : net.nodes) node->silenced = false;
      net.node(ProcessId{(std::uint16_t)(1 + rng.uniform_int(5))})
          .silenced = true;
    }
    std::uint16_t ingester = (std::uint16_t)(1 + rng.uniform_int(5));
    if (net.node(ProcessId{ingester}).silenced) ingester = ingester % 5 + 1;
    if (!net.node(ProcessId{ingester}).silenced)
      net.node(ProcessId{ingester}).stream->on_device_event(net.event(seq));
    net.drain(/*drop_prob=*/0.15);
  }
  // Quiesce: everyone back, repeated anti-entropy until fixpoint.
  for (auto& node : net.nodes) node->silenced = false;
  for (int round = 0; round < 6; ++round) {
    net.sync_round();
    net.drain(0.0);
  }
  // Every event ingested anywhere is everywhere, exactly once.
  std::uint32_t max_log = 0;
  for (auto& node : net.nodes)
    max_log = std::max<std::uint32_t>(
        max_log, (std::uint32_t)node->log.size(SensorId{1}));
  expect_converged(net, max_log);
  EXPECT_GT(max_log, 100u);  // nearly all 120 were ingested
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingModelChaos,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

}  // namespace
}  // namespace riv::core
