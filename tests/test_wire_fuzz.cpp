// Wire/codec round-trip property tests.
//
// For every protocol frame (the core frames, the keep-alive and its
// watermark piggyback, the store's update and batch): randomized frames
// encode and decode back to the same value; every strict prefix of a
// valid encoding, and the encoding with one byte appended, is rejected by
// decode (false, never an abort); and random byte soup never crashes it.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/wire.hpp"
#include "membership/failure_detector.hpp"
#include "store/replicated_store.hpp"

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

template <class Frame>
std::optional<Frame> try_decode(const std::vector<std::byte>& buf) {
  Frame f;
  if (!decode(buf, f)) return std::nullopt;
  return f;
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

// A valid encoding with one byte appended must be rejected too: decode
// accepts only a buffer it consumes exactly.
template <typename TryDecode>
void expect_extra_byte_rejected(const std::vector<std::byte>& buf,
                                TryDecode try_decode) {
  std::vector<std::byte> longer = buf;
  longer.push_back(std::byte{0});
  EXPECT_FALSE(try_decode(longer).has_value())
      << "accepted " << longer.size() << " bytes";
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

    std::optional<RingPayload> q = try_decode<RingPayload>(buf);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->app, p.app);
    EXPECT_EQ(q->sensor, p.sensor);
    EXPECT_EQ(q->seen, p.seen);
    EXPECT_EQ(q->need, p.need);
    expect_event_eq(q->event, p.event);

    expect_extra_byte_rejected(buf, try_decode<RingPayload>);
    if (i < 10) expect_all_prefixes_rejected(buf, try_decode<RingPayload>);
  }
}

TEST(WireFuzzTest, EventPayloadRoundTripsAndRejectsTruncation) {
  Rng rng(2);
  for (int i = 0; i < kRounds; ++i) {
    EventPayload p;
    p.app = AppId{static_cast<std::uint16_t>(1 + rng.next() % 8)};
    p.sensor = SensorId{static_cast<std::uint16_t>(1 + rng.next() % 16)};
    p.event = random_event(rng);
    std::vector<std::byte> buf = encode(p);

    std::optional<EventPayload> q = try_decode<EventPayload>(buf);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->app, p.app);
    EXPECT_EQ(q->sensor, p.sensor);
    expect_event_eq(q->event, p.event);

    expect_extra_byte_rejected(buf, try_decode<EventPayload>);
    if (i < 10) expect_all_prefixes_rejected(buf, try_decode<EventPayload>);
  }
}

TEST(WireFuzzTest, SyncRequestAndRoleChangeRoundTrip) {
  Rng rng(3);
  for (int i = 0; i < kRounds; ++i) {
    AppId app{static_cast<std::uint16_t>(rng.next() % 1000)};

    // kSyncRequest, kPromote and kDemote share the app frame.
    std::vector<std::byte> buf = encode(AppFrame{app});
    std::optional<AppFrame> q = try_decode<AppFrame>(buf);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->app, app);
    expect_all_prefixes_rejected(buf, try_decode<AppFrame>);
    expect_extra_byte_rejected(buf, try_decode<AppFrame>);
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

    std::optional<SyncResponse> q = try_decode<SyncResponse>(buf);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->app, p.app);
    ASSERT_EQ(q->streams.size(), p.streams.size());
    for (std::size_t j = 0; j < p.streams.size(); ++j) {
      EXPECT_EQ(q->streams[j].sensor, p.streams[j].sensor);
      EXPECT_EQ(q->streams[j].prefix, p.streams[j].prefix);
      EXPECT_EQ(q->streams[j].end, p.streams[j].end);
      EXPECT_EQ(q->streams[j].missing, p.streams[j].missing);
    }

    expect_extra_byte_rejected(buf, try_decode<SyncResponse>);
    if (i < 10) expect_all_prefixes_rejected(buf, try_decode<SyncResponse>);
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
    return try_decode<SyncResponse>(buf).has_value();
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

    std::optional<CommandPayload> q = try_decode<CommandPayload>(buf);
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
    expect_extra_byte_rejected(buf, try_decode<CommandPayload>);
    if (i < 10)
      expect_all_prefixes_rejected(buf, try_decode<CommandPayload>);
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

    std::optional<CommandAck> q = try_decode<CommandAck>(buf);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->app, p.app);
    EXPECT_EQ(q->command, p.command);
    expect_all_prefixes_rejected(buf, try_decode<CommandAck>);
    expect_extra_byte_rejected(buf, try_decode<CommandAck>);
  }
}

Watermarks random_watermarks(Rng& rng) {
  Watermarks w;
  const int apps = static_cast<int>(rng.next() % 4);
  for (int a = 0; a < apps; ++a) {
    AppWatermarks& app = w.apps.emplace_back();
    app.app = AppId{static_cast<std::uint16_t>(1 + rng.next() % 8)};
    const int streams = static_cast<int>(rng.next() % 4);
    for (int k = 0; k < streams; ++k) {
      app.streams.push_back(
          {SensorId{static_cast<std::uint16_t>(1 + rng.next() % 16)},
           TimePoint{static_cast<std::int64_t>(rng.next() % 100000000)}});
    }
  }
  return w;
}

void expect_watermarks_eq(const Watermarks& a, const Watermarks& b) {
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].app, b.apps[i].app);
    ASSERT_EQ(a.apps[i].streams.size(), b.apps[i].streams.size());
    for (std::size_t k = 0; k < a.apps[i].streams.size(); ++k) {
      EXPECT_EQ(a.apps[i].streams[k].sensor, b.apps[i].streams[k].sensor);
      EXPECT_EQ(a.apps[i].streams[k].processed,
                b.apps[i].streams[k].processed);
    }
  }
}

// The keep-alive piggyback, decoded again into one reused frame as the
// runtime does: every round replaces the previous round's contents.
TEST(WireFuzzTest, WatermarksRoundTripAndRejectTruncation) {
  Rng rng(12);
  Watermarks reused;
  for (int i = 0; i < kRounds; ++i) {
    Watermarks p = random_watermarks(rng);
    std::vector<std::byte> buf = encode(p);
    ASSERT_TRUE(decode(buf, reused));
    expect_watermarks_eq(reused, p);
    expect_extra_byte_rejected(buf, try_decode<Watermarks>);
    if (i < 10) expect_all_prefixes_rejected(buf, try_decode<Watermarks>);
  }
}

TEST(WireFuzzTest, KeepAliveRoundTripsAndRejectsTruncation) {
  using membership::KeepAlive;
  Rng rng(13);
  for (int i = 0; i < kRounds; ++i) {
    KeepAlive p;
    p.sent_at = TimePoint{static_cast<std::int64_t>(rng.next() % 100000000)};
    p.piggyback = encode(random_watermarks(rng));
    std::vector<std::byte> buf = encode(p);

    std::optional<KeepAlive> q = try_decode<KeepAlive>(buf);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->sent_at, p.sent_at);
    EXPECT_EQ(q->piggyback, p.piggyback);
    expect_extra_byte_rejected(buf, try_decode<KeepAlive>);
    if (i < 10) expect_all_prefixes_rejected(buf, try_decode<KeepAlive>);
  }
}

store::Update random_update(Rng& rng) {
  store::Update u;
  u.key = "key" + std::to_string(rng.next() % 1000);
  if (rng.bernoulli(0.3)) u.key += std::string(20, 'x');  // past SSO
  u.entry.value = rng.uniform(-100.0, 100.0);
  u.entry.written_at =
      TimePoint{static_cast<std::int64_t>(rng.next() % 100000000)};
  u.entry.seq = static_cast<std::uint32_t>(rng.next() % 100000);
  u.entry.writer = ProcessId{static_cast<std::uint16_t>(1 + rng.next() % 8)};
  return u;
}

void expect_update_eq(const store::Update& a, const store::Update& b) {
  EXPECT_EQ(a.key, b.key);
  EXPECT_DOUBLE_EQ(a.entry.value, b.entry.value);
  EXPECT_EQ(a.entry.written_at, b.entry.written_at);
  EXPECT_EQ(a.entry.seq, b.entry.seq);
  EXPECT_EQ(a.entry.writer, b.entry.writer);
}

TEST(WireFuzzTest, StoreUpdateRoundTripsAndRejectsTruncation) {
  Rng rng(14);
  for (int i = 0; i < kRounds; ++i) {
    store::Update p = random_update(rng);
    std::vector<std::byte> buf = encode(p);

    std::optional<store::Update> q = try_decode<store::Update>(buf);
    ASSERT_TRUE(q.has_value());
    expect_update_eq(*q, p);
    expect_extra_byte_rejected(buf, try_decode<store::Update>);
    if (i < 10) expect_all_prefixes_rejected(buf, try_decode<store::Update>);
  }
}

TEST(WireFuzzTest, StoreBatchRoundTripsAndRejectsTruncation) {
  Rng rng(15);
  for (int i = 0; i < kRounds; ++i) {
    store::Batch p;
    const int n = static_cast<int>(rng.next() % 5);
    for (int k = 0; k < n; ++k) p.updates.push_back(random_update(rng));
    std::vector<std::byte> buf = encode(p);

    std::optional<store::Batch> q = try_decode<store::Batch>(buf);
    ASSERT_TRUE(q.has_value());
    ASSERT_EQ(q->updates.size(), p.updates.size());
    for (std::size_t k = 0; k < p.updates.size(); ++k)
      expect_update_eq(q->updates[k], p.updates[k]);
    expect_extra_byte_rejected(buf, try_decode<store::Batch>);
    if (i < 10) expect_all_prefixes_rejected(buf, try_decode<store::Batch>);
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
    std::vector<std::byte> base = encode(p);

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
    std::optional<EventPayload> q = try_decode<EventPayload>(body);
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
    (void)try_decode<RingPayload>(buf);
    (void)try_decode<EventPayload>(buf);
    (void)try_decode<AppFrame>(buf);
    (void)try_decode<SyncResponse>(buf);
    (void)try_decode<CommandPayload>(buf);
    (void)try_decode<CommandAck>(buf);
    (void)try_decode<Watermarks>(buf);
    (void)try_decode<membership::KeepAlive>(buf);
    (void)try_decode<store::Update>(buf);
    (void)try_decode<store::Batch>(buf);
  }
}

}  // namespace
}  // namespace riv
