// Tests for the protocol payload formats: round-trips and the exact wire
// sizes the network-overhead results depend on.
#include <gtest/gtest.h>

#include "core/wire.hpp"

namespace riv::core::wire {
namespace {

devices::SensorEvent sample_event(std::uint32_t payload = 4) {
  devices::SensorEvent e;
  e.id = {SensorId{3}, 42};
  e.epoch = 9;
  e.emitted_at = TimePoint{1234567};
  e.poll_based = true;
  e.value = 21.5;
  e.payload_size = payload;
  return e;
}

template <class Frame>
Frame decoded(const std::vector<std::byte>& buf) {
  Frame f;
  EXPECT_TRUE(decode(buf, f));
  return f;
}

std::set<ProcessId> pids(std::uint16_t first, std::size_t n) {
  std::set<ProcessId> out;
  for (std::size_t i = 0; i < n; ++i)
    out.insert(ProcessId{static_cast<std::uint16_t>(first + 7 * i)});
  return out;
}

TEST(Wire, PidSetRoundTrip) {
  // Inline, just past the inline capacity, and the wire's 255 maximum.
  for (const std::set<ProcessId>& s :
       {std::set<ProcessId>{ProcessId{1}, ProcessId{5}, ProcessId{300}},
        pids(3, 9), pids(2, 255)}) {
    BinaryWriter w;
    io(w, PidSet(s));
    EXPECT_EQ(w.size(), 1u + 2u * s.size());
    BinaryReader r(w.data());
    PidSet got;
    io(r, got);
    EXPECT_EQ(got, s);
    EXPECT_TRUE(r.at_end());
  }
}

TEST(Wire, EmptyPidSet) {
  BinaryWriter w;
  io(w, PidSet{});
  BinaryReader r(w.data());
  PidSet got{ProcessId{4}};
  io(r, got);
  EXPECT_TRUE(got.empty());
}

TEST(Wire, RingPayloadRoundTrip) {
  // A V of 9 members is past PidSet's inline capacity.
  for (const PidSet& need :
       {PidSet{ProcessId{1}, ProcessId{2}, ProcessId{3}}, PidSet(pids(1, 9))}) {
    RingPayload p;
    p.app = AppId{7};
    p.sensor = SensorId{3};
    p.seen = {ProcessId{1}, ProcessId{2}};
    p.need = need;
    p.event = sample_event();
    std::vector<std::byte> buf = encode(p);
    EXPECT_EQ(buf.size(), 2u + 2u + 5u + 1u + 2u * need.size() + 27u);
    RingPayload d = decoded<RingPayload>(buf);
    EXPECT_EQ(d.app, p.app);
    EXPECT_EQ(d.sensor, p.sensor);
    EXPECT_EQ(d.seen, p.seen);
    EXPECT_EQ(d.need, p.need);
    EXPECT_EQ(d.event.id, p.event.id);
    EXPECT_EQ(d.event.epoch, p.event.epoch);
  }
}

TEST(Wire, RingPayloadSizeFormula) {
  // app(2) + sensor(2) + (1 + 2|S|) + (1 + 2|V|) + event(23 + payload).
  RingPayload p;
  p.app = AppId{1};
  p.sensor = SensorId{1};
  p.seen = {ProcessId{1}};
  p.need = {ProcessId{1}, ProcessId{2}, ProcessId{3}, ProcessId{4},
            ProcessId{5}};
  p.event = sample_event(4);
  EXPECT_EQ(encode(p).size(), 2u + 2u + 3u + 11u + 27u);
}

TEST(Wire, EventPayloadRoundTripAndSize) {
  EventPayload p;
  p.app = AppId{2};
  p.sensor = SensorId{3};
  p.event = sample_event(8);
  std::vector<std::byte> buf = encode(p);
  EXPECT_EQ(buf.size(), 2u + 2u + 23u + 8u);
  EventPayload d = decoded<EventPayload>(buf);
  EXPECT_EQ(d.app, p.app);
  EXPECT_EQ(d.event.id, p.event.id);
  EXPECT_DOUBLE_EQ(d.event.value, 21.5);
}

TEST(Wire, SyncRequestRoundTrip) {
  std::vector<std::byte> buf = encode(AppFrame{AppId{12}});
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(decoded<AppFrame>(buf).app, AppId{12});
}

TEST(Wire, SyncResponseRoundTrip) {
  SyncResponse p;
  p.app = AppId{4};
  p.streams.push_back({SensorId{1}, 101, 101, {}});
  p.streams.push_back({SensorId{9}, 7, 40, {{7, 9}, {12, 30}}});
  std::vector<std::byte> buf = encode(p);
  // app + count, then 14 B per summary and 8 B per missing run.
  EXPECT_EQ(buf.size(), 2u + 2u + 2u * 14u + 2u * 8u);
  SyncResponse d = decoded<SyncResponse>(buf);
  EXPECT_EQ(d.app, p.app);
  ASSERT_EQ(d.streams.size(), 2u);
  EXPECT_EQ(d.streams[0].prefix, 101u);
  EXPECT_EQ(d.streams[1].sensor, SensorId{9});
  EXPECT_EQ(d.streams[1].prefix, 7u);
  EXPECT_EQ(d.streams[1].end, 40u);
  EXPECT_EQ(d.streams[1].missing, p.streams[1].missing);
}

TEST(Wire, CommandPayloadRoundTrip) {
  CommandPayload p;
  p.app = AppId{1};
  p.guarantee = 1;
  p.command.id = {ProcessId{2}, 55};
  p.command.actuator = ActuatorId{4};
  p.command.test_and_set = true;
  p.command.expected = 1.0;
  p.command.value = 0.0;
  p.command.issued_at = TimePoint{42};
  std::vector<std::byte> buf = encode(p);
  EXPECT_EQ(buf.size(), 2u + 1u + devices::Command::kWireSize);
  CommandPayload d = decoded<CommandPayload>(buf);
  EXPECT_EQ(d.guarantee, 1);
  EXPECT_EQ(d.command.id, p.command.id);
  EXPECT_TRUE(d.command.test_and_set);
}

TEST(Wire, RoleChangeRoundTrip) {
  std::vector<std::byte> buf = encode(AppFrame{AppId{3}});
  EXPECT_EQ(decoded<AppFrame>(buf).app, AppId{3});
}

TEST(Wire, CommandAckRoundTrip) {
  CommandAck p;
  p.app = AppId{6};
  p.command = {ProcessId{3}, 77};
  std::vector<std::byte> buf = encode(p);
  EXPECT_EQ(buf.size(), 2u + 6u);
  CommandAck d = decoded<CommandAck>(buf);
  EXPECT_EQ(d.app, p.app);
  EXPECT_EQ(d.command, p.command);
}

TEST(Wire, LargeEventSurvivesRing) {
  RingPayload p;
  p.app = AppId{1};
  p.sensor = SensorId{1};
  p.seen = {ProcessId{1}};
  p.need = {ProcessId{1}, ProcessId{2}};
  p.event = sample_event(20 * 1024);
  std::vector<std::byte> buf = encode(p);
  EXPECT_GT(buf.size(), 20u * 1024u);
  RingPayload d = decoded<RingPayload>(buf);
  EXPECT_EQ(d.event.payload_size, 20u * 1024u);
  EXPECT_DOUBLE_EQ(d.event.value, 21.5);
}

// encode() reserves encoded_size() in a recycled buffer, so a size that
// disagrees with the field list would show as a frame of another length.
TEST(Wire, EncodedSizeMatchesFieldList) {
  auto exact = [](const auto& frame) {
    return encode(frame).size() == frame.encoded_size();
  };
  RingPayload ring;
  ring.seen = {ProcessId{1}};
  ring.need = {ProcessId{1}, ProcessId{2}};
  ring.event = sample_event(20);
  EXPECT_TRUE(exact(ring));
  EventPayload event;
  event.event = sample_event(4);
  EXPECT_TRUE(exact(event));
  EXPECT_TRUE(exact(AppFrame{AppId{2}}));
  SyncResponse sync;
  sync.streams.push_back({SensorId{9}, 7, 40, {{7, 9}, {12, 30}}});
  EXPECT_TRUE(exact(sync));
  EXPECT_TRUE(exact(CommandPayload{}));
  EXPECT_TRUE(exact(CommandAck{}));
  Watermarks marks;
  marks.apps.push_back({AppId{1}, {{SensorId{1}, TimePoint{5}}}});
  EXPECT_TRUE(exact(marks));
}

}  // namespace
}  // namespace riv::core::wire
