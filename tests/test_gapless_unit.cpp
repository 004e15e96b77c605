// Unit tests of the GaplessStream state machine in isolation, driven
// through a scripted StreamContext: ring-successor math, the exact §4.1
// reliable-broadcast fallback condition (seen ∧ S≠V ∧ p_i∈S), re-flood
// semantics, and successor sync re-sends.
#include <gtest/gtest.h>

#include "core/delivery/gapless_stream.hpp"
#include "forwarding_owner.hpp"

namespace riv::core {
namespace {

// A sent ring frame, decoded.
wire::RingPayload ring_of(const std::vector<std::byte>& payload) {
  wire::RingPayload p;
  EXPECT_TRUE(wire::decode(payload, p));
  return p;
}

struct Sent {
  ProcessId dst;
  net::MsgType type;
  std::vector<std::byte> payload;
};

struct Harness {
  explicit Harness(std::uint16_t self_id, std::vector<std::uint16_t> view_ids)
      : sim(1),
        owner(sim,
              [this](sim::TimerId, std::uint16_t kind, std::uint64_t arg) {
                if (kind == GaplessStream::kEpochTimer)
                  stream->on_epoch_boundary(stream_timer_epoch(arg));
                else
                  stream->on_poll_slot(stream_timer_epoch(arg));
              }),
        log(1000) {
    for (std::uint16_t v : view_ids) view.insert(ProcessId{v});

    StreamContext ctx;
    ctx.self = ProcessId{self_id};
    ctx.app = AppId{1};
    appmodel::SensorEdge edge;
    edge.sensor = SensorId{1};
    edge.guarantee = appmodel::Guarantee::kGapless;
    edge.window = appmodel::WindowSpec::count_window(1);
    ctx.edge = edge;
    ctx.in_range = true;
    for (std::uint16_t v : view_ids) {
      ctx.all_processes.push_back(ProcessId{v});
      ctx.in_range_processes.push_back(ProcessId{v});
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
    ctx.send = [this](ProcessId dst, net::MsgType type,
                      std::vector<std::byte> payload) {
      sent.push_back({dst, type, std::move(payload)});
    };
    ctx.staleness = [](std::uint32_t) {};
    ctx.poll = [](std::uint32_t) {};
    ctx.timers = &owner.timers();
    ctx.log = &log;
    stream = std::make_unique<GaplessStream>(std::move(ctx));
  }

  devices::SensorEvent event(std::uint32_t seq) {
    devices::SensorEvent e;
    e.id = {SensorId{1}, seq};
    e.emitted_at = sim.now();
    e.payload_size = 4;
    return e;
  }

  static std::set<ProcessId> pids(std::vector<std::uint16_t> ids) {
    std::set<ProcessId> out;
    for (std::uint16_t i : ids) out.insert(ProcessId{i});
    return out;
  }

  sim::Simulation sim;
  // Stands in for the runtime process, which owns the stream's timers.
  sim::ForwardingOwner owner;
  EventLog log;
  std::set<ProcessId> view;
  std::vector<ProcessId> chain;  // the view in order, what ctx.chain returns
  std::vector<EventId> delivered;
  std::vector<Sent> sent;
  std::unique_ptr<GaplessStream> stream;
};

TEST(GaplessUnit, IngestDeliversLogsAndForwardsToSuccessor) {
  Harness h(2, {1, 2, 3});
  h.stream->on_device_event(h.event(1));
  EXPECT_EQ(h.delivered.size(), 1u);
  EXPECT_TRUE(h.log.seen({SensorId{1}, 1}));
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].dst, ProcessId{3});  // successor of p2 in {1,2,3}
  EXPECT_EQ(h.sent[0].type, net::MsgType::kRingEvent);
  wire::RingPayload p = ring_of(h.sent[0].payload);
  EXPECT_EQ(p.seen, Harness::pids({2}));
  EXPECT_EQ(p.need, Harness::pids({1, 2, 3}));
}

TEST(GaplessUnit, HighestIdWrapsToLowest) {
  Harness h(3, {1, 2, 3});
  h.stream->on_device_event(h.event(1));
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].dst, ProcessId{1});
}

TEST(GaplessUnit, SingletonViewSendsNothing) {
  Harness h(1, {1});
  h.stream->on_device_event(h.event(1));
  EXPECT_TRUE(h.sent.empty());
  EXPECT_EQ(h.delivered.size(), 1u);
}

TEST(GaplessUnit, DuplicateDeviceDeliveryIgnored) {
  Harness h(2, {1, 2, 3});
  h.stream->on_device_event(h.event(1));
  h.stream->on_device_event(h.event(1));
  EXPECT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.sent.size(), 1u);
}

TEST(GaplessUnit, UnseenRingMessageExtendsSetsAndForwards) {
  Harness h(2, {1, 2, 3});
  wire::RingPayload in;
  in.app = AppId{1};
  in.sensor = SensorId{1};
  in.seen = Harness::pids({1});
  in.need = Harness::pids({1, 3});  // sender's view lacked p2
  in.event = h.event(7);
  h.stream->on_ring(ProcessId{1}, in);
  EXPECT_EQ(h.delivered.size(), 1u);
  ASSERT_EQ(h.sent.size(), 1u);
  wire::RingPayload out = ring_of(h.sent[0].payload);
  EXPECT_EQ(out.seen, Harness::pids({1, 2}));
  EXPECT_EQ(out.need, Harness::pids({1, 2, 3}));  // ∪ our view
}

TEST(GaplessUnit, FallbackFiresOnlyWhenSeenIncompleteAndSelfInS) {
  Harness h(2, {1, 2, 3});
  h.stream->on_device_event(h.event(1));  // now seen, p2 ∈ S of our copy
  h.sent.clear();

  // Case 1: seen, S == V -> ignore.
  wire::RingPayload done;
  done.app = AppId{1};
  done.sensor = SensorId{1};
  done.seen = Harness::pids({1, 2, 3});
  done.need = Harness::pids({1, 2, 3});
  done.event = h.event(1);
  done.event.id = {SensorId{1}, 1};
  h.stream->on_ring(ProcessId{1}, done);
  EXPECT_TRUE(h.sent.empty());
  EXPECT_EQ(h.stream->rb_initiated(), 0u);

  // Case 2: seen, S != V but p2 ∉ S -> ignore (someone else's problem).
  wire::RingPayload not_ours = done;
  not_ours.seen = Harness::pids({1, 3});
  h.stream->on_ring(ProcessId{1}, not_ours);
  EXPECT_EQ(h.stream->rb_initiated(), 0u);

  // Case 3: seen, S != V and p2 ∈ S -> reliable broadcast to V ∪ view.
  wire::RingPayload stuck = done;
  stuck.seen = Harness::pids({1, 2});
  stuck.need = Harness::pids({1, 2, 3});
  h.stream->on_ring(ProcessId{1}, stuck);
  EXPECT_EQ(h.stream->rb_initiated(), 1u);
  ASSERT_EQ(h.sent.size(), 2u);  // to p1 and p3, never to self
  for (const Sent& s : h.sent) {
    EXPECT_EQ(s.type, net::MsgType::kRbEvent);
    EXPECT_NE(s.dst, ProcessId{2});
  }
}

TEST(GaplessUnit, FallbackHappensAtMostOncePerEvent) {
  Harness h(2, {1, 2, 3});
  h.stream->on_device_event(h.event(1));
  h.sent.clear();
  wire::RingPayload stuck;
  stuck.app = AppId{1};
  stuck.sensor = SensorId{1};
  stuck.seen = Harness::pids({1, 2});
  stuck.need = Harness::pids({1, 2, 3});
  stuck.event = h.event(1);
  stuck.event.id = {SensorId{1}, 1};
  h.stream->on_ring(ProcessId{1}, stuck);
  h.stream->on_ring(ProcessId{1}, stuck);
  EXPECT_EQ(h.stream->rb_initiated(), 1u);
  EXPECT_EQ(h.sent.size(), 2u);
}

TEST(GaplessUnit, RbDeliveryRefloodsOnce) {
  Harness h(2, {1, 2, 3, 4});
  wire::EventPayload p;
  p.app = AppId{1};
  p.sensor = SensorId{1};
  p.event = h.event(9);
  h.stream->on_rb(ProcessId{1}, p);
  EXPECT_EQ(h.delivered.size(), 1u);
  // Refloods to everyone except self and the origin.
  EXPECT_EQ(h.sent.size(), 2u);
  h.sent.clear();
  h.stream->on_rb(ProcessId{3}, p);  // duplicate: no delivery, no reflood
  EXPECT_EQ(h.delivered.size(), 1u);
  EXPECT_TRUE(h.sent.empty());
}

TEST(GaplessUnit, SyncSuccessorResendsMissingSuffix) {
  Harness h(2, {1, 2, 3});
  for (std::uint32_t i = 1; i <= 5; ++i) {
    h.sim.run_for(seconds(1));
    h.stream->on_device_event(h.event(i));
  }
  h.sent.clear();
  // Successor reports it holds exactly 1..2: events 3..5 re-sent.
  wire::SyncSummary theirs;
  theirs.sensor = SensorId{1};
  theirs.prefix = 3;
  theirs.end = 3;
  h.stream->sync_successor(ProcessId{3}, theirs);
  ASSERT_EQ(h.sent.size(), 3u);
  for (const Sent& s : h.sent) {
    EXPECT_EQ(s.dst, ProcessId{3});
    EXPECT_EQ(s.type, net::MsgType::kRingEvent);
  }
  wire::RingPayload first = ring_of(h.sent[0].payload);
  EXPECT_EQ(first.event.id.seq, 3u);
}

std::vector<std::uint32_t> resent_seqs(const Harness& h) {
  std::vector<std::uint32_t> out;
  for (const Sent& s : h.sent)
    out.push_back(ring_of(s.payload).event.id.seq);
  return out;
}

// A permanent hole — an emission this process never heard either — must
// not drag the suffix behind it into every anti-entropy round: the sync
// re-sends exactly what the successor lacks, with the current S/V sets.
TEST(GaplessUnit, SyncAfterPermanentHoleResendsOnlyWhatSuccessorLacks) {
  Harness h(2, {1, 2, 3});
  for (std::uint32_t i = 1; i <= 10; ++i) {
    h.sim.run_for(seconds(1));
    if (i != 4) h.stream->on_device_event(h.event(i));  // 4 never heard
  }
  h.sent.clear();
  // The successor holds 1..3 and 5..8 (4 is a hole for everyone).
  EventLog succ(1000);
  for (std::uint32_t i : {1u, 2u, 3u, 5u, 6u, 7u, 8u})
    succ.append(h.log.find({SensorId{1}, i})->event, {}, {});
  h.stream->sync_successor(ProcessId{3}, succ.summary(SensorId{1}));
  EXPECT_EQ(resent_seqs(h), (std::vector<std::uint32_t>{9, 10}));
  wire::RingPayload p = ring_of(h.sent[0].payload);
  EXPECT_EQ(p.seen, Harness::pids({2}));
  EXPECT_EQ(p.need, Harness::pids({1, 2, 3}));

  // Once the successor has them, the next round sends nothing.
  for (std::uint32_t i : {9u, 10u})
    succ.append(h.log.find({SensorId{1}, i})->event, {}, {});
  h.sent.clear();
  h.stream->sync_successor(ProcessId{3}, succ.summary(SensorId{1}));
  EXPECT_TRUE(h.sent.empty());

  // A hole only the successor has (it crashed through 6..7) is filled.
  EventLog crashed(1000);
  for (std::uint32_t i : {1u, 2u, 3u, 5u, 8u, 9u, 10u})
    crashed.append(h.log.find({SensorId{1}, i})->event, {}, {});
  h.stream->sync_successor(ProcessId{3}, crashed.summary(SensorId{1}));
  EXPECT_EQ(resent_seqs(h), (std::vector<std::uint32_t>{6, 7}));
}

TEST(GaplessUnit, SyncFillsMissedHeadButNothingBelowTheSuccessorsFloor) {
  Harness h(2, {1, 2, 3});
  for (std::uint32_t i = 1; i <= 8; ++i) {
    h.sim.run_for(seconds(1));
    h.stream->on_device_event(h.event(i));
  }
  auto event = [&h](std::uint32_t i) {
    return h.log.find({SensorId{1}, i})->event;
  };
  // A successor that missed the stream's head gets exactly the head.
  EventLog late(1000);
  for (std::uint32_t i = 6; i <= 8; ++i) late.append(event(i), {}, {});
  h.sent.clear();
  h.stream->sync_successor(ProcessId{3}, late.summary(SensorId{1}));
  EXPECT_EQ(resent_seqs(h), (std::vector<std::uint32_t>{1, 2, 3, 4, 5}));

  // A successor whose cap evicted past seq 5 is not handed back what it
  // evicted; only the hole above its floor is filled.
  EventLog capped(3);
  for (std::uint32_t i : {1u, 2u, 3u, 4u, 5u, 6u, 8u})
    capped.append(event(i), {}, {});  // holds 5, 6, 8; floor 5
  h.sent.clear();
  h.stream->sync_successor(ProcessId{3}, capped.summary(SensorId{1}));
  EXPECT_EQ(resent_seqs(h), (std::vector<std::uint32_t>{7}));
}

TEST(GaplessUnit, ViewShrinkChangesSuccessor) {
  Harness h(1, {1, 2, 3});
  h.stream->on_device_event(h.event(1));
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].dst, ProcessId{2});
  h.sent.clear();
  h.view = Harness::pids({1, 3});  // p2 died
  h.stream->on_device_event(h.event(2));
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].dst, ProcessId{3});
}

}  // namespace
}  // namespace riv::core
