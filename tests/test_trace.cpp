// Unit tests for the flight-recorder trace layer (src/trace): hash
// stability, component masking, the scoped current-recorder mechanism,
// the stable binary encoding (round-trip, corruption rejection, file
// save/load), and the structural differ.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "trace/diff.hpp"
#include "trace/trace.hpp"

namespace riv {
namespace {

using namespace riv::trace;

Record record(std::int64_t us, std::uint16_t pid, Component c, Kind k,
              std::string detail, ProvenanceId prov = {}) {
  return Record{TimePoint{us}, ProcessId{pid}, c, k, prov,
                std::move(detail)};
}

std::vector<Record> sample_records() {
  return {
      record(0, 0, Component::kSim, Kind::kTimerFire, "timer=1"),
      record(1000, 1, Component::kNet, Kind::kSend,
             "type=keepalive src=p1 dst=p2"),
      record(2500, 2, Component::kNet, Kind::kRecv,
             "type=keepalive src=p1 dst=p2"),
      record(3000, 1, Component::kDelivery, Kind::kIngest,
             "app=1 event=s1#0 S=1 V=3", ProvenanceId{1, 0}),
      record(3000, 1, Component::kRuntime, Kind::kDeliver,
             "app=1 event=s1#0", ProvenanceId{1, 0}),
  };
}

TEST(TraceRecorderTest, HashIsStableAcrossIdenticalAppends) {
  Recorder a, b;
  for (const Record& r : sample_records()) {
    a.append(r);
    b.append(r);
  }
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.records(), b.records());
}

TEST(TraceRecorderTest, HashIsSensitiveToEveryField) {
  std::vector<Record> base = sample_records();
  Recorder ref;
  for (const Record& r : base) ref.append(r);

  auto hash_with = [&](Record changed, std::size_t at) {
    Recorder rec;
    for (std::size_t i = 0; i < base.size(); ++i)
      rec.append(i == at ? changed : base[i]);
    return rec.hash();
  };

  Record r = base[3];
  r.at = r.at + Duration{1};
  EXPECT_NE(hash_with(r, 3), ref.hash());
  r = base[3];
  r.process = ProcessId{9};
  EXPECT_NE(hash_with(r, 3), ref.hash());
  r = base[3];
  r.kind = Kind::kFallback;
  EXPECT_NE(hash_with(r, 3), ref.hash());
  r = base[3];
  r.detail += " x";
  EXPECT_NE(hash_with(r, 3), ref.hash());
  r = base[3];
  r.prov = ProvenanceId{2, 7};
  EXPECT_NE(hash_with(r, 3), ref.hash());
}

TEST(TraceRecorderTest, MaskDropsUnwantedComponents) {
  Recorder rec(component_bit(Component::kDelivery) |
               component_bit(Component::kRuntime));
  for (const Record& r : sample_records()) rec.append(r);
  ASSERT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.records()[0].kind, Kind::kIngest);
  EXPECT_EQ(rec.records()[1].kind, Kind::kDeliver);
  EXPECT_FALSE(rec.wants(Component::kNet));
  EXPECT_TRUE(rec.wants(Component::kDelivery));
}

TEST(TraceRecorderTest, EncodeDecodeRoundTrips) {
  Recorder rec;
  for (const Record& r : sample_records()) rec.append(r);
  std::vector<std::byte> buf = rec.encode();

  Recorder back;
  std::string err;
  ASSERT_TRUE(Recorder::decode(buf, &back, &err)) << err;
  EXPECT_EQ(back.records(), rec.records());
  EXPECT_EQ(back.hash(), rec.hash());
}

TEST(TraceRecorderTest, DecodeRejectsCorruptInput) {
  Recorder rec;
  for (const Record& r : sample_records()) rec.append(r);
  std::vector<std::byte> buf = rec.encode();

  Recorder back;
  std::string err;

  // Bad magic.
  std::vector<std::byte> bad = buf;
  bad[0] = std::byte{'X'};
  EXPECT_FALSE(Recorder::decode(bad, &back, &err));

  // Every strict prefix is rejected (truncated records or footer).
  for (std::size_t n = 0; n < buf.size(); ++n) {
    std::vector<std::byte> prefix(buf.begin(),
                                  buf.begin() + static_cast<long>(n));
    EXPECT_FALSE(Recorder::decode(prefix, &back, &err)) << "prefix " << n;
  }

  // A flipped payload byte breaks the footer hash.
  bad = buf;
  bad[buf.size() / 2] ^= std::byte{0x01};
  EXPECT_FALSE(Recorder::decode(bad, &back, &err));
}

TEST(TraceRecorderTest, SaveLoadRoundTripsThroughDisk) {
  Recorder rec;
  for (const Record& r : sample_records()) rec.append(r);

  std::string path =
      testing::TempDir() + "/riv_trace_roundtrip.rivtrace";
  std::string err;
  ASSERT_TRUE(rec.save(path, &err)) << err;

  Recorder back;
  ASSERT_TRUE(Recorder::load(path, &back, &err)) << err;
  EXPECT_EQ(back.records(), rec.records());
  EXPECT_EQ(back.digest(), rec.digest());
  std::remove(path.c_str());
}

TEST(TraceScopeTest, EmitIsANoOpWithoutARecorder) {
  ASSERT_EQ(current(), nullptr);
  EXPECT_FALSE(active(Component::kSim));
  emit_text(TimePoint{1}, ProcessId{1}, Component::kSim, Kind::kMark,
            "lost");
  EXPECT_EQ(current(), nullptr);
}

TEST(TraceScopeTest, ScopeInstallsAndNestingRestores) {
  Recorder outer, inner(component_bit(Component::kChaos));
  {
    Scope s1(outer);
    EXPECT_EQ(current(), &outer);
    EXPECT_TRUE(active(Component::kNet));
    emit_text(TimePoint{1}, ProcessId{1}, Component::kNet, Kind::kSend,
              "a");
    {
      Scope s2(inner);
      EXPECT_EQ(current(), &inner);
      EXPECT_FALSE(active(Component::kNet));  // masked out in inner
      emit_text(TimePoint{2}, ProcessId{1}, Component::kNet, Kind::kSend,
                "b");
      emit_text(TimePoint{3}, ProcessId{0}, Component::kChaos,
                Kind::kFault, "c");
    }
    EXPECT_EQ(current(), &outer);
  }
  EXPECT_EQ(current(), nullptr);
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer.records()[0].detail, "a");
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(inner.records()[0].detail, "c");
}

// The typed variadic emit API must render exactly the canonical
// "key=value" detail strings the v2 recorder stored eagerly — every
// value type in the key table is exercised here.
TEST(TraceRecorderTest, TypedFieldsRenderCanonicalDetails) {
  Recorder rec;
  rec.append(TimePoint{10}, ProcessId{0}, Component::kSim,
             Kind::kTimerFire, fu(Key::kTimer, 42));
  rec.append(TimePoint{20}, ProcessId{1}, Component::kNet, Kind::kSend,
             fs(Key::kType, "keepalive"), fp(Key::kSrc, ProcessId{1}),
             fp(Key::kDst, ProcessId{2}));
  rec.append(TimePoint{30}, ProcessId{2}, Component::kNet, Kind::kDrop,
             fs(Key::kType, "ring_event"), fp(Key::kSrc, ProcessId{1}),
             fp(Key::kDst, ProcessId{2}), fs(Key::kReason, "edge_loss"));
  rec.append(TimePoint{40}, ProcessId{0}, Component::kNet, Kind::kLink,
             fs(Key::kText, "edge_delay"), fp(Key::kSrc, ProcessId{1}),
             fp(Key::kDst, ProcessId{3}), fi(Key::kExtraUs, -250));
  rec.append(TimePoint{50}, ProcessId{1}, Component::kDelivery,
             Kind::kIngest, ProvenanceId{1, 7},
             fu(Key::kApp, 1), fe(Key::kEvent, EventId{SensorId{1}, 7}),
             fs(Key::kSrcName, "device"), fu(Key::kSeen, 1),
             fu(Key::kNeed, 3));
  rec.append(TimePoint{60}, ProcessId{0}, Component::kDevice,
             Kind::kActuated, ProvenanceId{1, 7},
             fc(Key::kCmd, CommandId{ProcessId{2}, 9}),
             fa(Key::kActuator, ActuatorId{4}), fu(Key::kAccepted, 1),
             fu(Key::kDup, 0));
  std::vector<ProcessId> view{ProcessId{1}, ProcessId{2}, ProcessId{3}};
  rec.append(TimePoint{70}, ProcessId{1}, Component::kMembership,
             Kind::kView, fv(Key::kView, view));
  rec.append(TimePoint{80}, ProcessId{0}, Component::kChaos, Kind::kFault,
             fu(Key::kFaultId, 3), fs(Key::kText, "crash p2 (noop)"));
  rec.append(TimePoint{90}, ProcessId{0}, Component::kRuntime,
             Kind::kCrash);

  std::vector<Record> rs = rec.records();
  ASSERT_EQ(rs.size(), 9u);
  EXPECT_EQ(rs[0].detail, "timer=42");
  EXPECT_EQ(rs[1].detail, "type=keepalive src=p1 dst=p2");
  EXPECT_EQ(rs[2].detail, "type=ring_event src=p1 dst=p2 reason=edge_loss");
  EXPECT_EQ(rs[3].detail, "edge_delay src=p1 dst=p3 extra_us=-250");
  EXPECT_EQ(rs[4].detail, "app=1 event=s1#7 src=device S=1 V=3");
  EXPECT_EQ(rs[4].prov, (ProvenanceId{1, 7}));
  EXPECT_EQ(rs[5].detail, "cmd=p2!9 actuator=a4 accepted=1 dup=0");
  EXPECT_EQ(rs[6].detail, "view=p1+p2+p3");
  EXPECT_EQ(rs[7].detail, "id=3 crash p2 (noop)");
  EXPECT_EQ(rs[8].detail, "");
  for (const Record& r : rs) {
    EXPECT_EQ(r.at.us % 10, 0);
  }
  // The packed trace round-trips through encode/decode unchanged.
  Recorder back;
  std::string err;
  ASSERT_TRUE(Recorder::decode(rec.encode(), &back, &err)) << err;
  EXPECT_EQ(back.records(), rs);
  EXPECT_EQ(back.encode(), rec.encode());
}

// Old-format traces must be refused with an actionable message, not a
// generic parse error (satellite of the v3 migration).
TEST(TraceRecorderTest, RejectsOldFormatVersionsWithExactMessage) {
  for (std::uint32_t old : {1u, 2u}) {
    std::vector<std::byte> buf;
    for (char c : {'R', 'I', 'V', 'T'}) buf.push_back(std::byte(c));
    for (int i = 0; i < 4; ++i)
      buf.push_back(static_cast<std::byte>((old >> (8 * i)) & 0xff));
    buf.resize(buf.size() + 16);  // stale count/records bytes
    Recorder back;
    std::string err;
    ASSERT_FALSE(Recorder::decode(buf, &back, &err));
    EXPECT_EQ(err, "unsupported trace version " + std::to_string(old) +
                       " (this build reads 3)");
  }
}

TEST(TraceRecorderTest, TrailingGarbageAfterFooterIsRejected) {
  Recorder rec;
  for (const Record& r : sample_records()) rec.append(r);
  std::vector<std::byte> buf = rec.encode();
  buf.push_back(std::byte{0x00});
  Recorder back;
  std::string err;
  EXPECT_FALSE(Recorder::decode(buf, &back, &err));
  EXPECT_NE(err.find("trailing"), std::string::npos);
}

TEST(TraceRecorderTest, AppendAfterLoadExtendsTheTrace) {
  Recorder rec;
  for (const Record& r : sample_records()) rec.append(r);
  Recorder back;
  std::string err;
  ASSERT_TRUE(Recorder::decode(rec.encode(), &back, &err)) << err;
  back.append(TimePoint{9999}, ProcessId{2}, Component::kRuntime,
              Kind::kPromote, fu(Key::kApp, 1));
  std::vector<Record> rs = back.records();
  ASSERT_EQ(rs.size(), sample_records().size() + 1);
  EXPECT_EQ(rs.back().detail, "app=1");
  EXPECT_EQ(rs.back().at.us, 9999);
}

// Ring mode: bounded memory, most recent records retained, and the
// trimmed trace still encodes/decodes as a valid v3 file.
TEST(TraceRecorderTest, RingModeKeepsTheMostRecentRecords) {
  Recorder rec;
  rec.set_ring_limit(64 * 1024);  // one chunk's worth
  // Each record carries a fat payload so several 64KB chunks fill up.
  std::string pad(200, 'x');
  const int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    rec.append(TimePoint{i}, ProcessId{1}, Component::kChaos, Kind::kMark,
               fs(Key::kText, pad), fu(Key::kFaultId,
                                       static_cast<std::uint64_t>(i)));
  }
  EXPECT_GT(rec.dropped_records(), 0u);
  EXPECT_EQ(rec.size() + rec.dropped_records(),
            static_cast<std::uint64_t>(kN));
  EXPECT_LE(rec.payload_bytes(), 2u * 64 * 1024);  // ring + open chunk
  std::vector<Record> rs = rec.records();
  ASSERT_EQ(rs.size(), rec.size());
  // The retained suffix ends at the newest record and is contiguous.
  EXPECT_EQ(rs.back().at.us, kN - 1);
  for (std::size_t i = 1; i < rs.size(); ++i)
    EXPECT_EQ(rs[i].at.us, rs[i - 1].at.us + 1);
  Recorder back;
  std::string err;
  ASSERT_TRUE(Recorder::decode(rec.encode(), &back, &err)) << err;
  EXPECT_EQ(back.records(), rs);
}

// Streaming sink: the file written incrementally must be byte-identical
// to what an in-memory recorder fed the same records would encode().
TEST(TraceRecorderTest, StreamingSinkMatchesInMemoryEncoding) {
  std::string path = testing::TempDir() + "/riv_trace_stream.rivtrace";
  Recorder streamed;
  std::string err;
  ASSERT_TRUE(streamed.stream_to(path, &err)) << err;
  Recorder memory;
  std::string pad(100, 'y');
  for (int i = 0; i < 3000; ++i) {  // spans multiple flushed chunks
    streamed.append(TimePoint{i * 10}, ProcessId{1}, Component::kDelivery,
                    Kind::kIngest, fu(Key::kApp, 1),
                    fs(Key::kSrcName, pad));
    memory.append(TimePoint{i * 10}, ProcessId{1}, Component::kDelivery,
                  Kind::kIngest, fu(Key::kApp, 1),
                  fs(Key::kSrcName, pad));
  }
  // While streaming, memory stays bounded to roughly one chunk.
  EXPECT_TRUE(streamed.streaming());
  ASSERT_TRUE(streamed.finish(&err)) << err;
  EXPECT_EQ(streamed.hash(), memory.hash());

  std::vector<std::byte> expected = memory.encode();
  Recorder back;
  ASSERT_TRUE(Recorder::load(path, &back, &err)) << err;
  EXPECT_EQ(back.encode(), expected);
  EXPECT_EQ(back.records(), memory.records());
  EXPECT_EQ(back.hash(), memory.hash());
  std::remove(path.c_str());
}

// Append record `i` of a mixed typed trace (every value type, with and
// without provenance) and return the Record it must decode to, its
// detail spelled out independently of the renderer.
Record append_mixed(Recorder& rec, int i) {
  const TimePoint at{1000 + 7 * i};
  const auto n = static_cast<std::uint32_t>(i);
  const std::string s = std::to_string(i);
  switch (i % 4) {
    case 0:
      rec.append(at, ProcessId{1}, Component::kDelivery, Kind::kIngest,
                 ProvenanceId{1, n}, fu(Key::kApp, 2),
                 fe(Key::kEvent, EventId{SensorId{1}, n}),
                 fs(Key::kSrcName, "ring"));
      return record(at.us, 1, Component::kDelivery, Kind::kIngest,
                    "app=2 event=s1#" + s + " src=ring", ProvenanceId{1, n});
    case 1: {
      std::vector<ProcessId> view{ProcessId{2}, ProcessId{300}};
      rec.append(at, ProcessId{2}, Component::kNet, Kind::kSend,
                 fs(Key::kType, "ring_event"), fp(Key::kSrc, ProcessId{2}),
                 fv(Key::kView, view),
                 fc(Key::kCmd, CommandId{ProcessId{2}, n}),
                 fa(Key::kActuator, ActuatorId{4}));
      return record(at.us, 2, Component::kNet, Kind::kSend,
                    "type=ring_event src=p2 view=p2+p300 cmd=p2!" + s +
                        " actuator=a4");
    }
    case 2:
      rec.append(at, ProcessId{0}, Component::kChaos, Kind::kFault,
                 fu(Key::kFaultId, n), fs(Key::kText, "crash p2"),
                 fi(Key::kExtraUs, -i));
      return record(at.us, 0, Component::kChaos, Kind::kFault,
                    "id=" + s + " crash p2 extra_us=" + std::to_string(-i));
    default:
      rec.append(at, ProcessId{3}, Component::kRuntime, Kind::kCrash);
      return record(at.us, 3, Component::kRuntime, Kind::kCrash, "");
  }
}

// The scan visits exactly the retained records, with the headers and
// rendered details records() produces and that the emit calls imply;
// typed lookup finds the app field only where one was written.
void expect_scan_matches(const Recorder& rec,
                         const std::vector<Record>& expected) {
  const std::vector<Record> rs = rec.records();
  ASSERT_EQ(rs, expected);
  std::size_t i = 0;
  rec.scan([&](const RecordView& v) {
    ASSERT_LT(i, expected.size());
    const Record& want = expected[i++];
    EXPECT_EQ(v.at, want.at);
    EXPECT_EQ(v.process, want.process);
    EXPECT_EQ(v.component, want.component);
    EXPECT_EQ(v.kind, want.kind);
    EXPECT_EQ(v.prov, want.prov);
    EXPECT_EQ(v.detail(), want.detail);
    EXPECT_EQ(v.u64(Key::kApp),
              v.kind == Kind::kIngest ? std::optional<std::uint64_t>(2)
                                      : std::nullopt);
  });
  EXPECT_EQ(i, rec.size());
}

TEST(Trace, ScanMatchesRecords) {
  // Past a chunk boundary: records keep decoding in the second chunk,
  // whose first record carries an absolute time.
  Recorder big;
  std::vector<Record> expected;
  for (int i = 0; i < 12000; ++i) expected.push_back(append_mixed(big, i));
  ASSERT_GT(big.payload_bytes(), 2u * 64 * 1024);
  expect_scan_matches(big, expected);

  // Ring mode after front chunks were dropped: the scan starts at the
  // first retained chunk.
  Recorder ring;
  ring.set_ring_limit(64 * 1024);
  std::vector<Record> all;
  for (int i = 0; i < 40000; ++i) all.push_back(append_mixed(ring, i));
  ASSERT_GT(ring.dropped_records(), 0u);
  expect_scan_matches(
      ring, std::vector<Record>(all.end() - static_cast<std::ptrdiff_t>(
                                                ring.size()),
                                all.end()));

  // Read back from a file: one verbatim chunk, then appends after it.
  std::string path = testing::TempDir() + "/riv_trace_scan.rivtrace";
  std::string err;
  ASSERT_TRUE(big.save(path, &err)) << err;
  Recorder loaded;
  ASSERT_TRUE(Recorder::load(path, &loaded, &err)) << err;
  std::remove(path.c_str());
  expect_scan_matches(loaded, expected);
  expected.push_back(append_mixed(loaded, 12000));
  expect_scan_matches(loaded, expected);
}

// decode() walks records through the scan's header decoder without
// rendering; it must still refuse every malformed record, with the same
// message, even when the footer's count and hash agree with the bytes.
TEST(Trace, DecodeRejectsMalformedRecordsBehindAValidFooter) {
  auto sealed = [](std::vector<std::uint8_t> payload, std::uint64_t count) {
    std::vector<std::byte> buf;
    for (char c : kMagic) buf.push_back(static_cast<std::byte>(c));
    for (int i = 0; i < 4; ++i)
      buf.push_back(static_cast<std::byte>((kFormatVersion >> (8 * i)) & 0xff));
    hash::Fnv1aStream h;
    h.put(payload.data(), payload.size());
    for (std::uint8_t b : payload) buf.push_back(static_cast<std::byte>(b));
    buf.push_back(static_cast<std::byte>(kFooterMarker));
    for (std::uint64_t v : {count, h.value()})
      for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
    return buf;
  };
  const auto timer = static_cast<std::uint8_t>(Key::kTimer);
  const auto text = static_cast<std::uint8_t>(Key::kText);
  const auto view = static_cast<std::uint8_t>(Key::kView);
  // flags (abs time, sim), kind, time, process, nfields, then fields.
  const std::vector<std::uint8_t> good = {0x10, 0, 0, 1, 1, timer, 5};

  Recorder out;
  std::string err;
  ASSERT_TRUE(Recorder::decode(sealed(good, 1), &out, &err)) << err;
  EXPECT_EQ(out.records()[0].detail, "timer=5");

  const std::vector<std::vector<std::uint8_t>> bad = {
      {0x30, 0, 0, 1, 1, timer, 5},                // unknown flag bit
      {0x17, 0, 0, 1, 1, timer, 5},                // component 7
      {0x10, kKindCount, 0, 1, 1, timer, 5},       // kind out of range
      {0x10, 0, 0, 1, 1, kKeyCount + 5, 5},        // key out of range
      {0x10, 0, 0, 1, 1, text, 100, 'a'},          // string past the end
      {0x10, 0, 0, 1, 1, view, 100, 1, 2},         // view past the end
      {0x10, 0, 0, 1, 2, timer, 5},                // missing field
      {0x10, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
       0x01, 1, 0},                                // over-long time varint
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    ASSERT_FALSE(Recorder::decode(sealed(bad[i], 1), &out, &err)) << i;
    EXPECT_EQ(err, "malformed record 0") << i;
    // The same record after a good one is record 1.
    std::vector<std::uint8_t> two = good;
    two.insert(two.end(), bad[i].begin(), bad[i].end());
    two[good.size()] &= 0xEF;  // a delta time after the first record
    ASSERT_FALSE(Recorder::decode(sealed(two, 2), &out, &err)) << i;
    EXPECT_EQ(err, "malformed record 1") << i;
  }
}

TEST(TraceDiffTest, IdenticalTracesDiffClean) {
  std::vector<Record> a = sample_records();
  Divergence d = diff(a, a);
  EXPECT_TRUE(d.identical);
  EXPECT_NE(render(a, a, d).find("traces identical"), std::string::npos);
}

TEST(TraceDiffTest, ReportsFirstDivergentFieldAndIndex) {
  std::vector<Record> a = sample_records();
  std::vector<Record> b = a;
  b[3].detail = "app=1 event=s1#0 S=2 V=3";
  b[4].at = b[4].at + Duration{77};  // later difference must not mask it

  Divergence d = diff(a, b);
  ASSERT_FALSE(d.identical);
  EXPECT_EQ(d.index, 3u);
  EXPECT_EQ(d.field, "detail");

  std::string report = render(a, b, d, 2);
  EXPECT_NE(report.find("first divergence at record 3"), std::string::npos);
  EXPECT_NE(report.find("field: detail"), std::string::npos);
  EXPECT_NE(report.find("S=1"), std::string::npos);
  EXPECT_NE(report.find("S=2"), std::string::npos);
}

TEST(TraceDiffTest, PrefixTraceReportsLengthDivergence) {
  std::vector<Record> a = sample_records();
  std::vector<Record> b(a.begin(), a.begin() + 3);
  Divergence d = diff(a, b);
  ASSERT_FALSE(d.identical);
  EXPECT_EQ(d.index, 3u);
  EXPECT_EQ(d.field, "length");
  EXPECT_NE(render(a, b, d).find("<end of trace: 3 records>"),
            std::string::npos);
}

}  // namespace
}  // namespace riv
