// Wire/codec round-trip property tests.
//
// For every protocol message type: randomized payloads encode and decode
// back to the same value; every strict prefix of a valid encoding is
// rejected by the try_decode_* variant (returns nullopt instead of
// asserting); and random byte soup never crashes a decoder.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "core/wire.hpp"

namespace riv {
namespace {

using namespace riv::core::wire;

constexpr int kRounds = 200;

devices::SensorEvent random_event(Rng& rng) {
  devices::SensorEvent e;
  e.id = EventId{SensorId{static_cast<std::uint16_t>(rng.next() % 100)},
                 static_cast<std::uint32_t>(rng.next() % 100000)};
  e.epoch = static_cast<std::uint32_t>(rng.next() % 1000);
  e.emitted_at = TimePoint{static_cast<std::int64_t>(rng.next() % 100000000)};
  e.poll_based = rng.bernoulli(0.5);
  e.value = rng.uniform(-100.0, 100.0);
  // Quantized small payloads round-trip the value exactly only for sizes
  // >= 8 (f64); keep it in the >= 8 regime so equality checks are exact.
  e.payload_size = 8 + static_cast<std::uint32_t>(rng.next() % 64);
  return e;
}

std::set<ProcessId> random_pid_set(Rng& rng) {
  std::set<ProcessId> out;
  int n = static_cast<int>(rng.next() % 8);
  for (int i = 0; i < n; ++i)
    out.insert(ProcessId{static_cast<std::uint16_t>(1 + rng.next() % 32)});
  return out;
}

devices::Command random_command(Rng& rng) {
  devices::Command c;
  c.id = CommandId{ProcessId{static_cast<std::uint16_t>(1 + rng.next() % 8)},
                   static_cast<std::uint32_t>(rng.next() % 100000)};
  c.actuator = ActuatorId{static_cast<std::uint16_t>(1 + rng.next() % 16)};
  c.test_and_set = rng.bernoulli(0.3);
  c.expected = rng.uniform(0.0, 1.0);
  c.value = rng.uniform(0.0, 1.0);
  c.issued_at = TimePoint{static_cast<std::int64_t>(rng.next() % 100000000)};
  c.cause = ProvenanceId{static_cast<std::uint16_t>(rng.next() % 100),
                         static_cast<std::uint32_t>(rng.next() % 100000)};
  return c;
}

void expect_event_eq(const devices::SensorEvent& a,
                     const devices::SensorEvent& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.emitted_at.us, b.emitted_at.us);
  EXPECT_EQ(a.poll_based, b.poll_based);
  EXPECT_DOUBLE_EQ(a.value, b.value);
  EXPECT_EQ(a.payload_size, b.payload_size);
}

// Every strict prefix of a valid encoding must be rejected: the decoders
// consume an exact, self-describing structure, so cutting any suffix off
// must trip the bounds-checked reader (or the consumed-exactly check).
template <typename TryDecode>
void expect_all_prefixes_rejected(const std::vector<std::byte>& buf,
                                  TryDecode try_decode) {
  for (std::size_t n = 0; n < buf.size(); ++n) {
    std::vector<std::byte> prefix(buf.begin(),
                                  buf.begin() + static_cast<long>(n));
    EXPECT_FALSE(try_decode(prefix).has_value()) << "prefix length " << n;
  }
}

TEST(WireFuzzTest, RingPayloadRoundTripsAndRejectsTruncation) {
  Rng rng(1);
  for (int i = 0; i < kRounds; ++i) {
    RingPayload p;
    p.app = AppId{static_cast<std::uint16_t>(1 + rng.next() % 8)};
    p.sensor = SensorId{static_cast<std::uint16_t>(1 + rng.next() % 16)};
    p.seen = random_pid_set(rng);
    p.need = random_pid_set(rng);
    p.event = random_event(rng);
    std::vector<std::byte> buf = encode(p);

    std::optional<RingPayload> q = try_decode_ring(buf);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->app, p.app);
    EXPECT_EQ(q->sensor, p.sensor);
    EXPECT_EQ(q->seen, p.seen);
    EXPECT_EQ(q->need, p.need);
    expect_event_eq(q->event, p.event);

    if (i < 10) expect_all_prefixes_rejected(buf, try_decode_ring);
  }
}

TEST(WireFuzzTest, EventPayloadRoundTripsAndRejectsTruncation) {
  Rng rng(2);
  for (int i = 0; i < kRounds; ++i) {
    EventPayload p;
    p.app = AppId{static_cast<std::uint16_t>(1 + rng.next() % 8)};
    p.sensor = SensorId{static_cast<std::uint16_t>(1 + rng.next() % 16)};
    p.event = random_event(rng);
    std::vector<std::byte> buf = encode_event_payload(p);

    std::optional<EventPayload> q = try_decode_event_payload(buf);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->app, p.app);
    EXPECT_EQ(q->sensor, p.sensor);
    expect_event_eq(q->event, p.event);

    if (i < 10) expect_all_prefixes_rejected(buf, try_decode_event_payload);
  }
}

TEST(WireFuzzTest, SyncRequestAndRoleChangeRoundTrip) {
  Rng rng(3);
  for (int i = 0; i < kRounds; ++i) {
    AppId app{static_cast<std::uint16_t>(rng.next() % 1000)};

    std::vector<std::byte> buf = encode_sync_request(app);
    std::optional<AppId> q = try_decode_sync_request(buf);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(*q, app);
    expect_all_prefixes_rejected(buf, try_decode_sync_request);

    buf = encode_role_change(app);
    q = try_decode_role_change(buf);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(*q, app);
    expect_all_prefixes_rejected(buf, try_decode_role_change);
  }
}

// A well-formed summary: ascending, disjoint, non-empty runs inside
// [prefix, end), as EventLog::summary produces them.
SyncSummary random_summary(Rng& rng) {
  SyncSummary s;
  s.sensor = SensorId{static_cast<std::uint16_t>(1 + rng.next() % 16)};
  s.prefix = 1 + static_cast<std::uint32_t>(rng.next() % 1000);
  std::uint32_t at = s.prefix;
  const int runs = static_cast<int>(rng.next() % 5);
  for (int k = 0; k < runs; ++k) {
    const auto lo = at + static_cast<std::uint32_t>(rng.next() % 3);
    const auto hi = lo + 1 + static_cast<std::uint32_t>(rng.next() % 9);
    s.missing.push_back({lo, hi});
    at = hi + 1;
  }
  s.end = at + static_cast<std::uint32_t>(rng.next() % 4);
  return s;
}

TEST(WireFuzzTest, SyncResponseRoundTripsAndRejectsTruncation) {
  Rng rng(4);
  for (int i = 0; i < kRounds; ++i) {
    SyncResponse p;
    p.app = AppId{static_cast<std::uint16_t>(1 + rng.next() % 8)};
    int n = static_cast<int>(rng.next() % 6);
    for (int j = 0; j < n; ++j) p.streams.push_back(random_summary(rng));
    std::vector<std::byte> buf = encode(p);

    std::optional<SyncResponse> q = try_decode_sync_response(buf);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->app, p.app);
    ASSERT_EQ(q->streams.size(), p.streams.size());
    for (std::size_t j = 0; j < p.streams.size(); ++j) {
      EXPECT_EQ(q->streams[j].sensor, p.streams[j].sensor);
      EXPECT_EQ(q->streams[j].prefix, p.streams[j].prefix);
      EXPECT_EQ(q->streams[j].end, p.streams[j].end);
      EXPECT_EQ(q->streams[j].missing, p.streams[j].missing);
    }

    if (i < 10) expect_all_prefixes_rejected(buf, try_decode_sync_response);
  }
}

// The summary decoder is total over the rules the requester relies on:
// every malformed run list or count is rejected, never acted on.
TEST(WireFuzzTest, SyncResponseRejectsMalformedSummaries) {
  auto one = [](std::uint32_t prefix, std::uint32_t end,
                std::vector<SeqRun> missing) {
    SyncResponse p;
    p.app = AppId{1};
    p.streams.push_back({SensorId{2}, prefix, end, std::move(missing)});
    return encode(p);
  };
  auto accepted = [](const std::vector<std::byte>& buf) {
    return try_decode_sync_response(buf).has_value();
  };
  EXPECT_TRUE(accepted(one(5, 20, {{5, 7}, {9, 12}})));
  EXPECT_TRUE(accepted(one(5, 20, {{5, 7}, {7, 20}})));  // touching, inside
  EXPECT_TRUE(accepted(one(9, 9, {})));
  EXPECT_FALSE(accepted(one(9, 8, {})));                 // prefix > end
  EXPECT_FALSE(accepted(one(5, 20, {{9, 12}, {5, 7}})));  // unordered
  EXPECT_FALSE(accepted(one(5, 20, {{5, 10}, {8, 12}})));  // overlapping
  EXPECT_FALSE(accepted(one(5, 20, {{7, 7}})));           // lo == hi
  EXPECT_FALSE(accepted(one(5, 20, {{9, 7}})));           // lo > hi
  EXPECT_FALSE(accepted(one(5, 20, {{4, 7}})));           // below prefix
  EXPECT_FALSE(accepted(one(5, 20, {{15, 21}})));         // past end

  // Counts past the buffer: a summary count or a run count larger than
  // the bytes left is rejected before anything is read or reserved.
  std::vector<std::byte> buf = one(5, 20, {{5, 7}});
  std::vector<std::byte> more_streams = buf;
  more_streams[2] = std::byte{0xff};
  more_streams[3] = std::byte{0xff};
  EXPECT_FALSE(accepted(more_streams));
  std::vector<std::byte> more_runs = buf;
  more_runs[4 + 13] = std::byte{0xff};  // top byte of the u32 runs count
  EXPECT_FALSE(accepted(more_runs));
  std::vector<std::byte> fewer_runs = buf;
  fewer_runs[4 + 10] = std::byte{0};  // trailing run bytes left over
  EXPECT_FALSE(accepted(fewer_runs));
}

TEST(WireFuzzTest, CommandPayloadRoundTripsAndRejectsTruncation) {
  Rng rng(5);
  for (int i = 0; i < kRounds; ++i) {
    CommandPayload p;
    p.app = AppId{static_cast<std::uint16_t>(1 + rng.next() % 8)};
    p.guarantee = static_cast<std::uint8_t>(rng.next() % 2);
    p.command = random_command(rng);
    std::vector<std::byte> buf = encode(p);

    std::optional<CommandPayload> q = try_decode_command_payload(buf);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->app, p.app);
    EXPECT_EQ(q->guarantee, p.guarantee);
    EXPECT_EQ(q->command.id, p.command.id);
    EXPECT_EQ(q->command.actuator, p.command.actuator);
    EXPECT_EQ(q->command.test_and_set, p.command.test_and_set);
    EXPECT_DOUBLE_EQ(q->command.value, p.command.value);
    EXPECT_EQ(q->command.cause, p.command.cause);

    // The provenance cause rides at the end of the command encoding, so
    // strict-prefix rejection specifically covers truncation inside it.
    if (i < 10)
      expect_all_prefixes_rejected(buf, try_decode_command_payload);
  }
}

TEST(WireFuzzTest, CommandAckRoundTripsAndRejectsTruncation) {
  Rng rng(6);
  for (int i = 0; i < kRounds; ++i) {
    CommandAck p;
    p.app = AppId{static_cast<std::uint16_t>(1 + rng.next() % 8)};
    p.command =
        CommandId{ProcessId{static_cast<std::uint16_t>(1 + rng.next() % 8)},
                  static_cast<std::uint32_t>(rng.next() % 100000)};
    std::vector<std::byte> buf = encode(p);

    std::optional<CommandAck> q = try_decode_command_ack(buf);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->app, p.app);
    EXPECT_EQ(q->command, p.command);
    expect_all_prefixes_rejected(buf, try_decode_command_ack);
  }
}

// --- Integrity trailer (seal / verify_and_strip) -------------------------

TEST(WireFuzzTest, SealedFrameRoundTripsBodyAndTrailer) {
  Rng rng(8);
  for (int i = 0; i < kRounds; ++i) {
    EventPayload p;
    p.app = AppId{static_cast<std::uint16_t>(1 + rng.next() % 8)};
    p.sensor = SensorId{static_cast<std::uint16_t>(1 + rng.next() % 16)};
    p.event = random_event(rng);
    std::vector<std::byte> base = encode_event_payload(p);

    std::uint64_t key = rng.next();
    std::uint64_t chain = rng.next();
    std::vector<std::byte> sealed = base;
    seal(sealed, key, chain);
    ASSERT_EQ(sealed.size(), base.size() + kIntegrityTrailerBytes);

    std::vector<std::byte> body;
    IntegrityTrailer tr;
    ASSERT_TRUE(verify_and_strip(sealed, key, body, &tr));
    EXPECT_EQ(body, base);
    EXPECT_EQ(tr.chain, chain);
    EXPECT_EQ(tr.mac, compute_mac(key, base.data(), base.size(), chain));

    // The stripped body decodes back to the original payload.
    std::optional<EventPayload> q = try_decode_event_payload(body);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->app, p.app);
    EXPECT_EQ(q->sensor, p.sensor);
    expect_event_eq(q->event, p.event);
  }
}

// The tamper-evidence property the Byzantine defense rests on: ANY
// single-byte change to a sealed frame — body, marker, chain, or MAC —
// must fail verification. Never crash, never verify.
TEST(WireFuzzTest, AnySingleByteMutationOfSealedFrameIsRejected) {
  Rng rng(9);
  for (int round = 0; round < 20; ++round) {
    RingPayload p;
    p.app = AppId{static_cast<std::uint16_t>(1 + rng.next() % 8)};
    p.sensor = SensorId{static_cast<std::uint16_t>(1 + rng.next() % 16)};
    p.seen = random_pid_set(rng);
    p.need = random_pid_set(rng);
    p.event = random_event(rng);
    std::vector<std::byte> sealed = encode(p);
    std::uint64_t key = rng.next();
    seal(sealed, key, rng.next());

    std::vector<std::byte> body;
    for (std::size_t pos = 0; pos < sealed.size(); ++pos) {
      std::byte flip{static_cast<unsigned char>(1 + rng.next() % 255)};
      std::vector<std::byte> mutated = sealed;
      mutated[pos] ^= flip;  // nonzero XOR: guaranteed to differ
      EXPECT_FALSE(verify_and_strip(mutated, key, body, nullptr))
          << "mutation at byte " << pos << " verified";
    }
  }
}

TEST(WireFuzzTest, WrongKeyAndTruncationRejectSealedFrames) {
  Rng rng(10);
  for (int i = 0; i < kRounds; ++i) {
    CommandPayload p;
    p.app = AppId{static_cast<std::uint16_t>(1 + rng.next() % 8)};
    p.guarantee = static_cast<std::uint8_t>(rng.next() % 2);
    p.command = random_command(rng);
    std::vector<std::byte> sealed = encode(p);
    std::uint64_t key = rng.next();
    seal(sealed, key, 0);

    std::vector<std::byte> body;
    ASSERT_TRUE(verify_and_strip(sealed, key, body, nullptr));
    EXPECT_FALSE(verify_and_strip(sealed, key ^ 1, body, nullptr));
    EXPECT_FALSE(verify_and_strip(sealed, ~key, body, nullptr));

    // Every strict prefix fails: too short for a trailer, or the marker /
    // MAC no longer lines up with the shifted tail.
    if (i < 10) {
      for (std::size_t n = 0; n < sealed.size(); ++n) {
        std::vector<std::byte> prefix(sealed.begin(),
                                      sealed.begin() + static_cast<long>(n));
        EXPECT_FALSE(verify_and_strip(prefix, key, body, nullptr))
            << "prefix length " << n << " verified";
      }
    }
  }
}

// An unsealed frame must never pass verification (a receiver that
// requires the trailer rejects plain frames outright), and random soup
// must never produce a valid seal.
TEST(WireFuzzTest, UnsealedAndRandomBuffersNeverVerify) {
  Rng rng(11);
  std::vector<std::byte> body;
  for (int i = 0; i < 500; ++i) {
    std::size_t len = rng.next() % 128;
    std::vector<std::byte> buf(len);
    for (std::size_t j = 0; j < len; ++j)
      buf[j] = static_cast<std::byte>(rng.next() & 0xff);
    EXPECT_FALSE(verify_and_strip(buf, rng.next(), body, nullptr));
  }
}

// Random byte soup: decoders must reject or succeed, never crash or read
// out of bounds. (ASAN builds make this test meaningfully stronger.)
TEST(WireFuzzTest, RandomBytesNeverCrashDecoders) {
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    std::size_t len = rng.next() % 128;
    std::vector<std::byte> buf(len);
    for (std::size_t j = 0; j < len; ++j)
      buf[j] = static_cast<std::byte>(rng.next() & 0xff);
    (void)try_decode_ring(buf);
    (void)try_decode_event_payload(buf);
    (void)try_decode_sync_request(buf);
    (void)try_decode_sync_response(buf);
    (void)try_decode_command_payload(buf);
    (void)try_decode_role_change(buf);
    (void)try_decode_command_ack(buf);
  }
}

}  // namespace
}  // namespace riv
