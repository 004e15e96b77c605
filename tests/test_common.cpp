// Unit tests for the common substrate: wire codec, RNG, time arithmetic,
// the shared FNV-1a hash, and the process-id set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "common/codec.hpp"
#include "common/hash.hpp"
#include "common/pid_set.hpp"
#include "common/rng.hpp"
#include "common/seq_set.hpp"
#include "common/time.hpp"
#include "common/types.hpp"

namespace riv {
namespace {

// The FNV-1a constants and reference digests are part of every trace
// fingerprint on disk; pin them so the shared implementation
// (common/hash.hpp) can never silently drift.
TEST(Fnv1a, ConstantsAndKnownDigestsArePinned) {
  EXPECT_EQ(hash::kFnvOffsetBasis, 0xcbf29ce484222325ULL);
  EXPECT_EQ(hash::kFnvPrime, 0x100000001b3ULL);
  // Empty input hashes to the offset basis.
  EXPECT_EQ(hash::fnv1a(nullptr, 0), hash::kFnvOffsetBasis);
  // Reference vector for 64-bit FNV-1a.
  EXPECT_EQ(hash::fnv1a("hello", 5), 0xa430d84680aabd0bULL);
  EXPECT_EQ(hash::fnv1a_digest(0xa430d84680aabd0bULL),
            "a430d84680aabd0b");
  EXPECT_EQ(hash::fnv1a_digest(0), "0000000000000000");
  // Incremental == one-shot.
  std::uint64_t h = hash::kFnvOffsetBasis;
  h = hash::fnv1a(h, "he", 2);
  h = hash::fnv1a_byte(h, 'l');
  h = hash::fnv1a(h, "lo", 2);
  EXPECT_EQ(h, hash::fnv1a("hello", 5));
}

// Fnv1aStream (the recorder's word-wise rolling hash) must be a pure
// function of the byte sequence: any split of the same bytes produces
// the same value, and different sequences produce different values.
TEST(Fnv1a, StreamIsSplitInvariantAndOrderSensitive) {
  const char* data = "the quick brown fox jumps over the lazy dog";
  const std::size_t n = std::strlen(data);
  hash::Fnv1aStream whole;
  whole.put(data, n);
  for (std::size_t cut = 0; cut <= n; ++cut) {
    hash::Fnv1aStream split;
    split.put(data, cut);
    for (std::size_t i = cut; i < n; ++i)
      split.put(static_cast<std::uint8_t>(data[i]));
    EXPECT_EQ(split.value(), whole.value()) << "cut at " << cut;
  }
  hash::Fnv1aStream other;
  other.put(data, n - 1);
  EXPECT_NE(other.value(), whole.value());  // length-sensitive
  hash::Fnv1aStream swapped;
  swapped.put("eht", 3);
  swapped.put(data + 3, n - 3);
  EXPECT_NE(swapped.value(), whole.value());  // order-sensitive
  // Empty and single-byte streams are distinct and stable.
  hash::Fnv1aStream empty;
  hash::Fnv1aStream one;
  one.put(std::uint8_t{0});
  EXPECT_NE(empty.value(), one.value());
}

TEST(Time, ArithmeticAndConversions) {
  EXPECT_EQ(seconds(2).us, 2'000'000);
  EXPECT_EQ(milliseconds(3).us, 3000);
  EXPECT_EQ(minutes(1).us, 60'000'000);
  EXPECT_EQ(days(1).us, 86'400'000'000LL);
  TimePoint t{1'000'000};
  EXPECT_EQ((t + seconds(1)).us, 2'000'000);
  EXPECT_EQ((TimePoint{5'000'000} - t).us, 4'000'000);
  EXPECT_DOUBLE_EQ(seconds(5).seconds(), 5.0);
  EXPECT_DOUBLE_EQ(milliseconds(1500).millis(), 1500.0);
  EXPECT_LT(t, TimePoint{2'000'000});
  EXPECT_EQ(seconds_f(0.5).us, 500'000);
}

TEST(Types, StrongIdsCompareAndHash) {
  EXPECT_EQ(ProcessId{3}, ProcessId{3});
  EXPECT_NE(SensorId{1}, SensorId{2});
  EXPECT_LT(ProcessId{1}, ProcessId{2});
  EventId a{SensorId{1}, 5}, b{SensorId{1}, 6};
  EXPECT_LT(a, b);
  EXPECT_NE(std::hash<EventId>{}(a), std::hash<EventId>{}(b));
  EXPECT_EQ(to_string(ProcessId{7}), "p7");
  EXPECT_EQ(to_string(EventId{SensorId{2}, 9}), "s2#9");
}

TEST(Codec, PrimitiveRoundTrip) {
  BinaryWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);
  w.str("rivulet");
  std::vector<std::byte> raw = {std::byte{1}, std::byte{2}};
  w.bytes(raw);

  BinaryReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "rivulet");
  EXPECT_EQ(r.bytes(), raw);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Codec, IdAndTimeRoundTrip) {
  BinaryWriter w;
  w.process_id(ProcessId{12});
  w.sensor_id(SensorId{34});
  w.actuator_id(ActuatorId{56});
  w.event_id(EventId{SensorId{7}, 99});
  w.command_id(CommandId{ProcessId{2}, 1000});
  w.time_point(TimePoint{123456789});
  w.duration(milliseconds(250));

  BinaryReader r(w.data());
  EXPECT_EQ(r.process_id(), ProcessId{12});
  EXPECT_EQ(r.sensor_id(), SensorId{34});
  EXPECT_EQ(r.actuator_id(), ActuatorId{56});
  EXPECT_EQ(r.event_id(), (EventId{SensorId{7}, 99}));
  EXPECT_EQ(r.command_id(), (CommandId{ProcessId{2}, 1000}));
  EXPECT_EQ(r.time_point(), TimePoint{123456789});
  EXPECT_EQ(r.duration(), milliseconds(250));
  EXPECT_TRUE(r.ok());
}

TEST(Codec, OpaquePaddingCountsTowardSize) {
  BinaryWriter w;
  w.u8(1);
  w.opaque(1000);
  EXPECT_EQ(w.size(), 1001u);
  BinaryReader r(w.data());
  EXPECT_EQ(r.u8(), 1);
  r.skip_opaque(1000);
  EXPECT_TRUE(r.at_end());
}

TEST(Codec, OutOfBoundsReadSetsErrorFlag) {
  BinaryWriter w;
  w.u16(7);
  BinaryReader r(w.data());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_EQ(r.u32(), 0u);  // past the end
  EXPECT_FALSE(r.ok());
}

// A fixed-width read with too few bytes left fails the reader, yields 0
// and consumes nothing.
TEST(Codec, ShortFixedWidthReadFailsTheReader) {
  const std::vector<std::byte> ones(7, std::byte{0xff});
  auto first = [&ones](std::size_t n) {
    return std::vector<std::byte>(ones.begin(),
                                  ones.begin() + static_cast<long>(n));
  };
  const std::vector<std::byte> one = first(1), three = first(3),
                               four = first(4);
  BinaryReader r16(one), r32(three), r64(ones);
  EXPECT_EQ(r16.u16(), 0u);
  EXPECT_EQ(r32.u32(), 0u);
  EXPECT_EQ(r64.u64(), 0u);
  for (const BinaryReader* r : {&r16, &r32, &r64}) EXPECT_FALSE(r->ok());
  EXPECT_EQ(r16.remaining(), 1u);
  EXPECT_EQ(r32.remaining(), 3u);
  EXPECT_EQ(r64.remaining(), 7u);
  BinaryReader exact(four);
  EXPECT_EQ(exact.u32(), 0xffffffffu);
  EXPECT_TRUE(exact.ok());
  EXPECT_TRUE(exact.at_end());
}

TEST(Codec, TruncatedStringFailsGracefully) {
  BinaryWriter w;
  w.u32(100);  // claims 100 bytes follow, none do
  BinaryReader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) ASSERT_LT(rng.uniform_int(17), 17u);
}

TEST(Rng, ExponentialMean) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    double x = rng.exponential(100.0);
    ASSERT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 20000.0, 100.0, 5.0);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(9);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += c1.next() == c2.next();
  EXPECT_LT(same, 2);
}

// Past kInline ids the set moves to the heap; it must stay a sorted,
// duplicate-free set with value semantics on both sides of the spill.
TEST(PidSet, SpillsPastInlineCapacityAndStaysSorted) {
  std::vector<std::uint16_t> ids;
  for (std::uint16_t i = 1; i <= 12; ++i) ids.push_back(i);
  Rng rng(5);
  for (std::size_t i = ids.size(); i > 1; --i)
    std::swap(ids[i - 1], ids[rng.uniform_int(i)]);

  PidSet set;
  std::set<ProcessId> ordered;
  for (std::uint16_t id : ids) {
    EXPECT_TRUE(set.insert(ProcessId{id}));
    EXPECT_FALSE(set.insert(ProcessId{id}));  // duplicates are rejected
    ordered.insert(ProcessId{id});
    EXPECT_EQ(set.size(), ordered.size());
    EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
    EXPECT_TRUE(std::equal(set.begin(), set.end(), ordered.begin(),
                           ordered.end()));
  }
  ASSERT_GT(set.size(), PidSet::kInline);
  EXPECT_TRUE(set.contains(ProcessId{12}));
  EXPECT_FALSE(set.contains(ProcessId{13}));
  EXPECT_EQ(set, PidSet(ordered));

  // A copy of a spilled set owns its own ids.
  PidSet copy = set;
  copy.insert(ProcessId{40});
  EXPECT_EQ(set.size(), 12u);
  EXPECT_FALSE(set.contains(ProcessId{40}));
  EXPECT_EQ(copy.size(), 13u);
  EXPECT_NE(copy, set);
  PidSet assigned{ProcessId{2}};
  assigned = set;
  set.insert(ProcessId{41});
  EXPECT_EQ(assigned, PidSet(ordered));

  // A spilled set can take a small set's value, and be emptied.
  copy = PidSet{ProcessId{1}};
  EXPECT_EQ(copy, PidSet{ProcessId{1}});
  copy.clear();
  EXPECT_TRUE(copy.empty());
}

// --- SeqSet / EventIdSet against the ordered sets they replace ----------

constexpr std::uint32_t kMaxSeq = std::numeric_limits<std::uint32_t>::max();

std::vector<std::uint32_t> members(const SeqSet& s) {
  return std::vector<std::uint32_t>(s.begin(), s.end());
}
std::vector<EventId> members(const EventIdSet& s) {
  std::vector<EventId> out;
  for (const auto& [sensor, seqs] : s.streams())
    for (std::uint32_t seq : seqs) out.push_back({sensor, seq});
  return out;
}

// Runs are ascending, non-empty and never touch: one set, one form.
void expect_canonical(const SeqSet& s) {
  const auto& runs = s.runs();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_LE(runs[i].lo, runs[i].hi);
    if (i > 0) {
      EXPECT_GT(runs[i].lo, std::uint64_t{runs[i - 1].hi} + 1);
    }
  }
}

// A seq near 0, near UINT32_MAX, in a middle cluster, or one past the
// largest member (the in-order arrival the fast path serves).
std::uint32_t pick_seq(Rng& rng, const std::set<std::uint32_t>& ref) {
  switch (rng.uniform_int(4)) {
    case 0:
      return static_cast<std::uint32_t>(rng.uniform_int(40));
    case 1:
      return kMaxSeq - static_cast<std::uint32_t>(rng.uniform_int(40));
    case 2:
      return ref.empty() ? 0 : *ref.rbegin() + 1;
    default:
      return 1000 + static_cast<std::uint32_t>(rng.uniform_int(60));
  }
}

// Every operation's result, size, membership around the touched seq and
// the ascending order match std::set after each step, under out-of-order
// inserts, merges of two runs, splitting erases, 0 and UINT32_MAX.
TEST(SeqSet, MatchesOrderedSetUnderRandomOperations) {
  int merges = 0, splits = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    SeqSet set;
    std::set<std::uint32_t> ref;
    for (int step = 0; step < 600; ++step) {
      const std::uint32_t seq = pick_seq(rng, ref);
      const std::size_t runs_before = set.runs().size();
      if (rng.uniform_int(3) == 0) {
        ASSERT_EQ(set.erase(seq), ref.erase(seq) != 0) << "seed " << seed;
        splits += set.runs().size() > runs_before;
      } else {
        ASSERT_EQ(set.insert(seq), ref.insert(seq).second) << "seed " << seed;
        merges += set.runs().size() < runs_before;
      }
      ASSERT_EQ(set.size(), ref.size());
      for (std::uint32_t probe : {seq - 1, seq, seq + 1})
        ASSERT_EQ(set.contains(probe), ref.count(probe) != 0);
      ASSERT_EQ(members(set),
                std::vector<std::uint32_t>(ref.begin(), ref.end()));
      expect_canonical(set);
    }
    set.clear();
    EXPECT_EQ(set.size(), 0u);
    EXPECT_EQ(set.begin(), set.end());
  }
  EXPECT_GT(merges, 0);  // some insert filled the gap between two runs
  EXPECT_GT(splits, 0);  // some erase cut a run in two
}

TEST(SeqSet, RunsMergeSplitAndReachTheEnds) {
  SeqSet set;
  for (std::uint32_t seq : {1u, 2u, 3u, 5u, 6u}) EXPECT_TRUE(set.insert(seq));
  EXPECT_EQ(set.runs().size(), 2u);
  EXPECT_TRUE(set.insert(4));  // fills the gap: the two runs merge
  ASSERT_EQ(set.runs().size(), 1u);
  EXPECT_EQ(set.runs()[0].lo, 1u);
  EXPECT_EQ(set.runs()[0].hi, 6u);
  EXPECT_TRUE(set.erase(3));  // inside the run: it splits
  EXPECT_EQ(set.runs().size(), 2u);
  EXPECT_FALSE(set.contains(3));
  EXPECT_TRUE(set.contains(2));
  EXPECT_TRUE(set.contains(4));

  EXPECT_TRUE(set.insert(0));
  EXPECT_TRUE(set.insert(kMaxSeq));
  EXPECT_TRUE(set.insert(kMaxSeq - 1));
  EXPECT_FALSE(set.insert(kMaxSeq));
  EXPECT_EQ(members(set),
            (std::vector<std::uint32_t>{0, 1, 2, 4, 5, 6, kMaxSeq - 1,
                                        kMaxSeq}));
  EXPECT_EQ(set.size(), 8u);
  EXPECT_TRUE(set.erase(kMaxSeq));
  EXPECT_TRUE(set.erase(0));
  EXPECT_FALSE(set.erase(0));
  EXPECT_EQ(set.size(), 6u);
}

TEST(EventIdSet, MatchesOrderedSetUnderRandomOperations) {
  const SensorId sensors[] = {SensorId{0}, SensorId{1}, SensorId{7},
                              SensorId{0xffff}};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    EventIdSet set;
    std::set<EventId> ref;
    std::set<std::uint32_t> seqs;  // pick_seq's view of the largest seq
    for (int step = 0; step < 600; ++step) {
      const EventId id{sensors[rng.uniform_int(4)], pick_seq(rng, seqs)};
      seqs.insert(id.seq);
      if (rng.uniform_int(3) == 0) {
        ASSERT_EQ(set.erase(id), ref.erase(id) != 0) << "seed " << seed;
      } else {
        ASSERT_EQ(set.insert(id), ref.insert(id).second) << "seed " << seed;
      }
      ASSERT_EQ(set.size(), ref.size());
      for (SensorId s : sensors)
        ASSERT_EQ(set.contains({s, id.seq}), ref.count({s, id.seq}) != 0);
      ASSERT_EQ(members(set), std::vector<EventId>(ref.begin(), ref.end()));
    }
    set.clear();
    EXPECT_EQ(set.size(), 0u);
    EXPECT_TRUE(members(set).empty());
  }
}

template <class T>
std::vector<std::byte> bytes_of(const T& v) {
  BinaryWriter w;
  io(w, v);
  return w.take();
}

// Each set writes exactly the bytes of the std::set it replaces (a u64
// count, then the members ascending), and reads them back.
TEST(SeqSet, EncodesLikeTheOrderedSet) {
  Rng rng(3);
  SeqSet set;
  std::set<std::uint32_t> ref;
  EventIdSet ids;
  std::set<EventId> ref_ids;
  std::map<SensorId, SeqSet> per_sensor;
  std::map<SensorId, std::set<std::uint32_t>> ref_per_sensor;
  for (int i = 0; i < 300; ++i) {
    const std::uint32_t seq = pick_seq(rng, ref);
    const SensorId sensor{static_cast<std::uint16_t>(rng.uniform_int(3))};
    set.insert(seq);
    ref.insert(seq);
    ids.insert({sensor, seq});
    ref_ids.insert({sensor, seq});
    per_sensor[sensor].insert(seq);
    ref_per_sensor[sensor].insert(seq);
  }
  EXPECT_EQ(bytes_of(set), bytes_of(ref));
  EXPECT_EQ(bytes_of(ids), bytes_of(ref_ids));
  EXPECT_EQ(bytes_of(per_sensor), bytes_of(ref_per_sensor));
  EXPECT_EQ(bytes_of(SeqSet{}), bytes_of(std::set<std::uint32_t>{}));
  EXPECT_EQ(bytes_of(EventIdSet{}), bytes_of(std::set<EventId>{}));

  const std::vector<std::byte> image = bytes_of(set);
  BinaryReader r(image);
  SeqSet back;
  back.insert(77);  // restore replaces what was there
  io(r, back);
  EXPECT_TRUE(r.ok() && r.at_end());
  EXPECT_EQ(members(back), members(set));
  expect_canonical(back);

  const std::vector<std::byte> id_image = bytes_of(ids);
  BinaryReader ir(id_image);
  EventIdSet ids_back;
  io(ir, ids_back);
  EXPECT_TRUE(ir.ok() && ir.at_end());
  EXPECT_EQ(members(ids_back), members(ids));
}

TEST(SeqSet, CountBeyondTheBytesLeftFailsTheReader) {
  BinaryWriter w;
  w.u64(1000);  // claims 1000 members; two follow
  w.u32(1);
  w.u32(2);
  {
    BinaryReader r(w.data());
    SeqSet set;
    io(r, set);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(set.size(), 0u);
  }
  {
    BinaryReader r(w.data());
    EventIdSet set;
    io(r, set);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(set.size(), 0u);
  }
}

}  // namespace
}  // namespace riv
