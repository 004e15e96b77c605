// Tests for the replicated event log: dedup, ordering, sync summaries and
// the hole index behind them, watermarks, bounded retention, what crash
// recovery keeps, and a randomized comparison with an ordered-map model.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/event_log.hpp"

namespace riv::core {
namespace {

devices::SensorEvent ev(std::uint16_t sensor, std::uint32_t seq,
                        std::int64_t t_us) {
  devices::SensorEvent e;
  e.id = {SensorId{sensor}, seq};
  e.emitted_at = TimePoint{t_us};
  e.value = static_cast<double>(seq);
  e.payload_size = 4;
  return e;
}

TEST(EventLog, AppendAndSeen) {
  EventLog log(100);
  EXPECT_FALSE(log.seen({SensorId{1}, 1}));
  EXPECT_TRUE(log.append(ev(1, 1, 10), {ProcessId{1}}, {ProcessId{1}}));
  EXPECT_TRUE(log.seen({SensorId{1}, 1}));
  EXPECT_EQ(log.size(SensorId{1}), 1u);
}

TEST(EventLog, DuplicateAppendRejected) {
  EventLog log(100);
  EXPECT_TRUE(log.append(ev(1, 1, 10), {}, {}));
  EXPECT_FALSE(log.append(ev(1, 1, 10), {}, {}));
  EXPECT_EQ(log.size(SensorId{1}), 1u);
}

TEST(EventLog, StreamsAreIndependent) {
  EventLog log(100);
  log.append(ev(1, 1, 10), {}, {});
  log.append(ev(2, 1, 20), {}, {});
  EXPECT_EQ(log.size(SensorId{1}), 1u);
  EXPECT_EQ(log.size(SensorId{2}), 1u);
  EXPECT_EQ(log.sensors().size(), 2u);
}

TEST(EventLog, SummaryEndTracksHighestSeq) {
  EventLog log(100);
  EXPECT_EQ(log.summary(SensorId{1}).end, 1u);
  log.append(ev(1, 1, 100), {}, {});
  log.append(ev(1, 3, 300), {}, {});
  log.append(ev(1, 2, 200), {}, {});  // out-of-order arrival
  EXPECT_EQ(log.summary(SensorId{1}).end, 4u);
}

TEST(EventLog, EventsAfterReturnsOrderedSuffix) {
  EventLog log(100);
  for (std::uint32_t i = 1; i <= 5; ++i)
    log.append(ev(1, i, 100 * i), {}, {});
  auto suffix = log.events_after(SensorId{1}, TimePoint{200});
  ASSERT_EQ(suffix.size(), 3u);
  EXPECT_EQ(suffix[0]->event.id.seq, 3u);
  EXPECT_EQ(suffix[2]->event.id.seq, 5u);
}

TEST(EventLog, MergeSetsUnions) {
  EventLog log(100);
  log.append(ev(1, 1, 10), {ProcessId{1}}, {ProcessId{1}, ProcessId{2}});
  log.merge_sets({SensorId{1}, 1}, {ProcessId{3}}, {ProcessId{4}});
  const StoredEvent* se = log.find({SensorId{1}, 1});
  ASSERT_NE(se, nullptr);
  EXPECT_EQ(se->seen.size(), 2u);
  EXPECT_EQ(se->need.size(), 3u);
}

TEST(EventLog, ProcessedWatermarkMonotonic) {
  EventLog log(100);
  log.advance_processed_watermark(SensorId{1}, TimePoint{100});
  log.advance_processed_watermark(SensorId{1}, TimePoint{50});  // ignored
  EXPECT_EQ(log.processed_watermark(SensorId{1}), TimePoint{100});
  log.advance_processed_watermark(SensorId{1}, TimePoint{200});
  EXPECT_EQ(log.processed_watermark(SensorId{1}), TimePoint{200});
}

TEST(EventLog, CapEvictsOldestEntries) {
  EventLog log(3);
  for (std::uint32_t i = 1; i <= 10; ++i) log.append(ev(1, i, i), {}, {});
  EXPECT_EQ(log.size(SensorId{1}), 3u);
  EXPECT_FALSE(log.seen({SensorId{1}, 1}));
  EXPECT_TRUE(log.seen({SensorId{1}, 10}));
}

TEST(EventLog, RecoveryKeepsEventsSetsAndWatermarks) {
  EventLog recovered(100);
  recovered.append(ev(1, 1, 100), {ProcessId{1}},
                   {ProcessId{1}, ProcessId{2}});
  recovered.append(ev(1, 2, 200), {ProcessId{1}}, {ProcessId{1}});
  recovered.append(ev(2, 7, 300), {}, {});
  recovered.advance_processed_watermark(SensorId{1}, TimePoint{150});
  recovered.recover();  // the process crashed and came back
  EXPECT_TRUE(recovered.seen({SensorId{1}, 1}));
  EXPECT_TRUE(recovered.seen({SensorId{1}, 2}));
  EXPECT_TRUE(recovered.seen({SensorId{2}, 7}));
  EXPECT_EQ(recovered.summary(SensorId{1}).end, 3u);
  EXPECT_EQ(recovered.processed_watermark(SensorId{1}), TimePoint{150});
  const StoredEvent* se = recovered.find({SensorId{1}, 1});
  ASSERT_NE(se, nullptr);
  EXPECT_EQ(se->seen.count(ProcessId{1}), 1u);
  EXPECT_EQ(se->need.size(), 2u);
}

TEST(EventLog, EvictedEntriesStayGoneAfterRecovery) {
  EventLog recovered(2);
  for (std::uint32_t i = 1; i <= 5; ++i)
    recovered.append(ev(1, i, i), {}, {});
  recovered.recover();
  EXPECT_EQ(recovered.size(SensorId{1}), 2u);
  EXPECT_TRUE(recovered.seen({SensorId{1}, 5}));
  EXPECT_FALSE(recovered.seen({SensorId{1}, 1}));
}

// A crash keeps of each event only its wire form (devices::encode): narrow
// payloads come back quantized to milli-units and the in-memory integrity
// fields are gone. Everything else the log holds is unchanged.
TEST(EventLog, RecoverKeepsOnlyTheWireForm) {
  EventLog log(3);
  log.append(ev(1, 1, 100), {}, {});
  log.append(ev(1, 2, 200), {}, {});
  devices::SensorEvent narrow = ev(1, 3, 300);
  narrow.value = 21.23456;
  narrow.epoch = 9;
  narrow.poll_based = true;
  narrow.chain = 0x1234;
  narrow.mac = 0x5678;
  log.append(narrow, {ProcessId{1}}, {ProcessId{1}, ProcessId{2}});
  log.merge_sets(narrow.id, {ProcessId{3}}, {});
  devices::SensorEvent wide = ev(1, 5, 500);
  wide.payload_size = 16;
  wide.value = 21.23456;
  wide.chain = 0x9abc;
  wide.mac = 0xdef0;
  log.append(wide, {ProcessId{2}}, {ProcessId{2}});
  log.append(ev(1, 6, 600), {}, {});  // over the cap: floor 3, hole {4}
  log.advance_processed_watermark(SensorId{1}, TimePoint{250});

  const PidSet narrow_seen = log.find(narrow.id)->seen;
  const PidSet narrow_need = log.find(narrow.id)->need;
  const wire::SyncSummary before = log.summary(SensorId{1});
  log.recover();

  const StoredEvent* n = log.find(narrow.id);
  ASSERT_NE(n, nullptr);
  EXPECT_DOUBLE_EQ(n->event.value, 21.235);
  EXPECT_EQ(n->event.chain, 0u);
  EXPECT_EQ(n->event.mac, 0u);
  EXPECT_EQ(n->event.epoch, 9u);
  EXPECT_TRUE(n->event.poll_based);
  EXPECT_EQ(n->event.emitted_at, TimePoint{300});
  EXPECT_EQ(n->event.payload_size, 4u);
  EXPECT_EQ(n->seen, narrow_seen);
  EXPECT_EQ(n->need, narrow_need);
  const StoredEvent* w = log.find(wide.id);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->event.value, 21.23456);
  EXPECT_EQ(w->event.payload_size, 16u);
  EXPECT_EQ(w->event.chain, 0u);
  EXPECT_EQ(w->event.mac, 0u);
  EXPECT_EQ(w->seen, PidSet{ProcessId{2}});

  EXPECT_FALSE(log.seen({SensorId{1}, 2}));  // the floor held
  EXPECT_EQ(log.size(SensorId{1}), 3u);
  const wire::SyncSummary after = log.summary(SensorId{1});
  EXPECT_EQ(after.prefix, before.prefix);
  EXPECT_EQ(after.end, before.end);
  EXPECT_EQ(after.missing, before.missing);
  EXPECT_EQ(log.processed_watermark(SensorId{1}), TimePoint{250});
}

}  // namespace
}  // namespace riv::core

// --- appended: sequence summaries (hole-aware sync) -----------------------

namespace riv::core {
namespace {

using wire::SeqRun;

std::vector<std::uint32_t> seqs(const std::vector<const StoredEvent*>& evs) {
  std::vector<std::uint32_t> out;
  for (const StoredEvent* se : evs) out.push_back(se->event.id.seq);
  return out;
}

void expect_summary(const EventLog& log, std::uint32_t prefix,
                    std::uint32_t end, std::vector<SeqRun> missing) {
  wire::SyncSummary s = log.summary(SensorId{1});
  EXPECT_EQ(s.sensor, SensorId{1});
  EXPECT_EQ(s.prefix, prefix);
  EXPECT_EQ(s.end, end);
  EXPECT_EQ(s.missing, missing);
}

void expect_same_index(const EventLog& a, const EventLog& b) {
  wire::SyncSummary x = a.summary(SensorId{1});
  expect_summary(b, x.prefix, x.end, x.missing);
}

TEST(EventLogPrefix, EqualsHighWaterWhenContiguous) {
  EventLog log(100);
  for (std::uint32_t i = 1; i <= 5; ++i) log.append(ev(1, i, 100 * i), {}, {});
  expect_summary(log, 6, 6, {});
}

TEST(EventLogPrefix, StopsAtFirstHole) {
  EventLog log(100);
  log.append(ev(1, 1, 100), {}, {});
  log.append(ev(1, 2, 200), {}, {});
  log.append(ev(1, 4, 400), {}, {});  // seq 3 missing
  log.append(ev(1, 5, 500), {}, {});
  log.append(ev(1, 9, 900), {}, {});  // 6..8 missing
  expect_summary(log, 3, 10, {{3, 4}, {6, 9}});
}

TEST(EventLogPrefix, MissingHeadReportsZero) {
  // A process that missed the stream's start holds an empty prefix and
  // reports the head as a hole, so it is re-sent like any other.
  EventLog log(100);
  log.append(ev(1, 10, 1000), {}, {});
  log.append(ev(1, 11, 1100), {}, {});
  expect_summary(log, 1, 12, {{1, 10}});
}

TEST(EventLogPrefix, EvictionRaisesTheFloor) {
  EventLog log(3);
  for (std::uint32_t i = 1; i <= 6; ++i) log.append(ev(1, i, 100 * i), {}, {});
  // Seqs 1-3 evicted by the cap: the retained floor moved to 4, so the
  // remaining 4..6 run is a valid prefix again.
  expect_summary(log, 7, 7, {});
}

TEST(EventLogPrefix, FloorSurvivesRecovery) {
  EventLog recovered(3);
  for (std::uint32_t i = 1; i <= 6; ++i)
    recovered.append(ev(1, i, 100 * i), {}, {});
  recovered.recover();
  expect_summary(recovered, 7, 7, {});
}

TEST(EventLogSummary, FillingHolesShrinksSplitsAndClosesRuns) {
  EventLog log(100);
  log.append(ev(1, 1, 100), {}, {});
  log.append(ev(1, 10, 1000), {}, {});
  expect_summary(log, 2, 11, {{2, 10}});
  log.append(ev(1, 5, 500), {}, {});  // split
  expect_summary(log, 2, 11, {{2, 5}, {6, 10}});
  log.append(ev(1, 2, 200), {}, {});  // shrink from the bottom
  log.append(ev(1, 9, 900), {}, {});  // shrink from the top
  expect_summary(log, 3, 11, {{3, 5}, {6, 9}});
  for (std::uint32_t s : {3u, 4u, 6u, 7u, 8u}) log.append(ev(1, s, s), {}, {});
  expect_summary(log, 11, 11, {});
}

TEST(EventLogSummary, CrashRecoveryHoleIsListedAndRebuilt) {
  // A process holds 1..4, is down while 5..7 are emitted, then ingests
  // 8..9 after recovery: 5..7 is a hole between its prefix and end.
  EventLog log(100);
  for (std::uint32_t i = 1; i <= 4; ++i) log.append(ev(1, i, 100 * i), {}, {});
  log.recover();  // crash
  for (std::uint32_t i = 8; i <= 9; ++i) log.append(ev(1, i, 100 * i), {}, {});
  expect_summary(log, 5, 10, {{5, 8}});
  EventLog again = log;
  again.recover();  // a second crash rebuilds the index from the events
  expect_same_index(log, again);
}

TEST(EventLogSummary, EvictionPastFirstRetainedDropsHolesBelowTheFloor) {
  EventLog log(4);
  for (std::uint32_t s : {1u, 3u, 5u, 7u}) log.append(ev(1, s, s), {}, {});
  expect_summary(log, 2, 8, {{2, 3}, {4, 5}, {6, 7}});
  // Over the cap: seq 1 goes, the floor moves to 2 (still a hole).
  log.append(ev(1, 9, 9), {}, {});
  expect_summary(log, 2, 10, {{2, 3}, {4, 5}, {6, 7}, {8, 9}});
  // Seq 3 goes: floor 4 sits on a hole, the holes below it are gone.
  log.append(ev(1, 11, 11), {}, {});
  expect_summary(log, 4, 12, {{4, 5}, {6, 7}, {8, 9}, {10, 11}});
}

TEST(EventLogSummary, StrayBelowTheFloorLeavesTheSummaryAlone) {
  EventLog log(2);
  for (std::uint32_t i = 1; i <= 4; ++i) log.append(ev(1, i, i), {}, {});
  expect_summary(log, 5, 5, {});
  log.append(ev(1, 6, 6), {}, {});  // evicts 3: floor 4, hole {5}
  expect_summary(log, 5, 7, {{5, 6}});
  // A re-sent pre-eviction event lands below the floor: it is the oldest
  // entry, so the cap evicts it at once and the summary does not move.
  log.append(ev(1, 2, 2), {}, {});
  EXPECT_FALSE(log.seen({SensorId{1}, 2}));
  expect_summary(log, 5, 7, {{5, 6}});
}

TEST(EventLogSummary, MissingFromSendsOnlyWhatTheSummaryLacks) {
  EventLog ours(100);
  for (std::uint32_t i = 1; i <= 12; ++i) {
    if (i != 4) ours.append(ev(1, i, i), {}, {});  // 4 was never heard
  }
  EventLog theirs(100);
  for (std::uint32_t s : {1u, 2u, 3u, 5u, 8u, 9u})
    theirs.append(ev(1, s, s), {}, {});
  // theirs lacks 4 (nobody has it), 6..7 and everything from 10 on.
  expect_summary(theirs, 4, 10, {{4, 5}, {6, 8}});
  wire::SyncSummary summary = theirs.summary(SensorId{1});
  EXPECT_EQ(seqs(ours.missing_from(summary)),
            (std::vector<std::uint32_t>{6, 7, 10, 11, 12}));
  // After those arrive the only hole left is the one nobody can fill, and
  // the next sync re-sends nothing.
  for (const StoredEvent* se : ours.missing_from(summary))
    theirs.append(se->event, {}, {});
  expect_summary(theirs, 4, 13, {{4, 5}});
  EXPECT_TRUE(ours.missing_from(theirs.summary(SensorId{1})).empty());
}

TEST(EventLogSummary, UnknownSensorAsksForEverything) {
  EventLog ours(100);
  for (std::uint32_t i = 1; i <= 3; ++i) ours.append(ev(1, i, i), {}, {});
  EventLog empty(100);
  expect_summary(empty, 1, 1, {});
  EXPECT_EQ(seqs(ours.missing_from(empty.summary(SensorId{1}))),
            (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(EventLogSummary, RestoreCloneRebuildsTheSameIndex) {
  EventLog log(5);
  for (std::uint32_t s : {2u, 3u, 6u, 9u, 10u, 14u, 15u})
    log.append(ev(1, s, s), {}, {});
  BinaryWriter w;
  log.clone_state(w);
  std::vector<std::byte> image = w.take();
  BinaryReader r(image);
  EventLog restored(5);
  restored.restore_clone(r);
  ASSERT_TRUE(r.ok());
  expect_same_index(log, restored);
  // The rebuilt index keeps working: fill a hole in both and compare.
  log.append(ev(1, 12, 12), {}, {});
  restored.append(ev(1, 12, 12), {}, {});
  expect_same_index(log, restored);
}

// Random appends — out of order, duplicated, below the floor — against
// small caps: after every step the incrementally kept summary must agree
// with the log's contents, with an index rebuilt by restore_clone, and,
// at the end, with one rebuilt by recover(); and missing_from must pick
// exactly the sequences the summary lacks.
TEST(EventLogSummary, IncrementalIndexMatchesContentsAndRebuilds) {
  constexpr std::uint32_t kMaxSeq = 60;
  EventLog full(1000);
  for (std::uint32_t s = 1; s <= kMaxSeq; ++s) full.append(ev(1, s, s), {}, {});
  Rng rng(7);
  for (int round = 0; round < 40; ++round) {
    const std::size_t cap = 2 + rng.uniform_int(12);
    EventLog log(cap);
    for (int step = 0; step < 150; ++step) {
      const auto seq = static_cast<std::uint32_t>(1 + rng.uniform_int(kMaxSeq));
      log.append(ev(1, seq, seq), {}, {});

      const wire::SyncSummary s = log.summary(SensorId{1});
      ASSERT_LE(s.prefix, s.end);
      EXPECT_EQ(s.prefix, s.missing.empty() ? s.end : s.missing.front().lo);
      std::vector<bool> lacks(kMaxSeq + 1, false);
      std::uint32_t at = s.prefix;
      for (const SeqRun& run : s.missing) {
        ASSERT_LE(at, run.lo);
        ASSERT_LT(run.lo, run.hi);
        ASSERT_LE(run.hi, s.end);
        for (std::uint32_t q = at; q < run.lo; ++q)
          EXPECT_TRUE(log.seen({SensorId{1}, q})) << q;
        for (std::uint32_t q = run.lo; q < run.hi; ++q) {
          EXPECT_FALSE(log.seen({SensorId{1}, q})) << q;
          lacks[q] = true;
        }
        at = run.hi;
      }
      for (std::uint32_t q = at; q < s.end; ++q)
        EXPECT_TRUE(log.seen({SensorId{1}, q})) << q;
      for (std::uint32_t q = s.end; q <= kMaxSeq; ++q) {
        EXPECT_FALSE(log.seen({SensorId{1}, q})) << q;
        lacks[q] = true;
      }
      std::vector<std::uint32_t> want;
      for (std::uint32_t q = 1; q <= kMaxSeq; ++q)
        if (lacks[q]) want.push_back(q);
      EXPECT_EQ(seqs(full.missing_from(s)), want);

      BinaryWriter w;
      log.clone_state(w);
      std::vector<std::byte> image = w.take();
      BinaryReader r(image);
      EventLog restored(cap);
      restored.restore_clone(r);
      expect_same_index(log, restored);
      if (HasFailure()) return;
    }
    EventLog recovered = log;
    recovered.recover();
    expect_same_index(log, recovered);
  }
}

}  // namespace
}  // namespace riv::core

// --- differential test against the ordered-map representation ------------

namespace riv::core {
namespace {

// An oracle for EventLog: one std::map per stream, the layout the log used
// before its streams became sorted vectors. It keeps no index: summary,
// missing_from and events_after scan the map, and image() writes the
// clone_state layout from it.
class MapLog {
 public:
  explicit MapLog(std::size_t cap) : cap_(cap) {}

  bool append(const devices::SensorEvent& e, PidSet s, PidSet v) {
    Stream& st = streams_[e.id.sensor];
    auto [it, inserted] = st.events.emplace(e.id.seq, StoredEvent{e, s, v});
    if (!inserted) return false;
    // The ordering flag compares the new entry with its neighbours before
    // eviction, a stray below the floor included.
    if (it != st.events.begin() &&
        std::prev(it)->second.event.emitted_at > e.emitted_at)
      st.monotone = false;
    if (std::next(it) != st.events.end() &&
        e.emitted_at > std::next(it)->second.event.emitted_at)
      st.monotone = false;
    while (st.events.size() > cap_) {
      st.floor = std::max(st.floor, st.events.begin()->first + 1);
      st.events.erase(st.events.begin());
    }
    return true;
  }

  void merge_sets(EventId id, const PidSet& s, const PidSet& v) {
    auto sit = streams_.find(id.sensor);
    if (sit == streams_.end()) return;
    auto it = sit->second.events.find(id.seq);
    if (it == sit->second.events.end()) return;
    it->second.seen.insert(s.begin(), s.end());
    it->second.need.insert(v.begin(), v.end());
  }

  const StoredEvent* find(EventId id) const {
    auto sit = streams_.find(id.sensor);
    if (sit == streams_.end()) return nullptr;
    auto it = sit->second.events.find(id.seq);
    return it == sit->second.events.end() ? nullptr : &it->second;
  }

  std::size_t size(SensorId sensor) const {
    auto sit = streams_.find(sensor);
    return sit == streams_.end() ? 0 : sit->second.events.size();
  }

  std::vector<SensorId> sensors() const {
    std::vector<SensorId> out;
    for (const auto& [sensor, st] : streams_)
      if (!st.events.empty()) out.push_back(sensor);
    return out;
  }

  wire::SyncSummary summary(SensorId sensor) const {
    wire::SyncSummary out;
    out.sensor = sensor;
    auto sit = streams_.find(sensor);
    if (sit == streams_.end()) return out;
    const Stream& st = sit->second;
    std::uint32_t next = st.floor;
    for (auto it = st.events.lower_bound(st.floor); it != st.events.end();
         ++it) {
      if (it->first != next) out.missing.push_back({next, it->first});
      next = it->first + 1;
    }
    out.end = st.events.empty()
                  ? st.floor
                  : std::max(st.floor, st.events.rbegin()->first + 1);
    out.prefix = out.missing.empty() ? out.end : out.missing.front().lo;
    return out;
  }

  std::vector<const StoredEvent*> missing_from(
      const wire::SyncSummary& theirs) const {
    std::vector<const StoredEvent*> out;
    auto sit = streams_.find(theirs.sensor);
    if (sit == streams_.end()) return out;
    for (const auto& [seq, se] : sit->second.events) {
      bool lacks = seq >= theirs.end;
      for (const wire::SeqRun& run : theirs.missing)
        lacks = lacks || (seq >= run.lo && seq < run.hi);
      if (lacks) out.push_back(&se);
    }
    return out;
  }

  std::vector<const StoredEvent*> events_after(SensorId sensor,
                                               TimePoint after) const {
    std::vector<const StoredEvent*> out;
    auto sit = streams_.find(sensor);
    if (sit == streams_.end()) return out;
    for (const auto& [seq, se] : sit->second.events)
      if (se.event.emitted_at > after) out.push_back(&se);
    std::stable_sort(out.begin(), out.end(),
                     [](const StoredEvent* a, const StoredEvent* b) {
                       return a->event.emitted_at < b->event.emitted_at;
                     });
    return out;
  }

  void recover() {
    for (auto& [sensor, st] : streams_) {
      st.monotone = true;
      TimePoint last{};
      for (auto& [seq, se] : st.events) {
        BinaryWriter w;
        devices::encode(w, se.event);
        std::vector<std::byte> buf = w.take();
        BinaryReader r(buf);
        se.event = devices::decode_event(r);
        if (se.event.emitted_at < last) st.monotone = false;
        last = se.event.emitted_at;
      }
    }
  }

  std::vector<std::byte> image() const {
    BinaryWriter w;
    w.u64(streams_.size());
    for (const auto& [sensor, st] : streams_) {
      w.sensor_id(sensor);
      w.u32(st.floor);
      w.u32(summary(sensor).prefix);
      w.u8(st.monotone ? 1 : 0);
      w.u64(st.events.size());
      for (const auto& [seq, se] : st.events) {
        w.u32(seq);
        w.u32(se.event.epoch);
        w.time_point(se.event.emitted_at);
        w.u8(se.event.poll_based ? 1 : 0);
        w.f64(se.event.value);
        w.u32(se.event.payload_size);
        w.u64(se.event.chain);
        w.u64(se.event.mac);
        io(w, se.seen);
        io(w, se.need);
      }
    }
    w.u64(0);  // no processed watermarks here
    return w.take();
  }

 private:
  struct Stream {
    std::map<std::uint32_t, StoredEvent> events;
    std::uint32_t floor{1};
    bool monotone{true};
  };
  std::size_t cap_;
  std::map<SensorId, Stream> streams_;
};

std::vector<std::byte> clone_bytes(const StoredEvent& se) {
  BinaryWriter w;
  io(w, se.event);
  io(w, se.seen);
  io(w, se.need);
  return w.take();
}

std::vector<std::vector<std::byte>> clone_bytes(
    const std::vector<const StoredEvent*>& evs) {
  std::vector<std::vector<std::byte>> out;
  for (const StoredEvent* se : evs) out.push_back(clone_bytes(*se));
  return out;
}

std::vector<std::byte> image_of(const EventLog& log) {
  BinaryWriter w;
  log.clone_state(w);
  return w.take();
}

// A random summary of some peer's log: ascending, disjoint runs below end.
wire::SyncSummary random_summary(Rng& rng, SensorId sensor,
                                 std::uint32_t max_seq) {
  wire::SyncSummary s;
  s.sensor = sensor;
  std::uint32_t at = 1 + static_cast<std::uint32_t>(rng.uniform_int(4));
  while (rng.uniform() < 0.6) {
    const auto lo = at + static_cast<std::uint32_t>(rng.uniform_int(6));
    const auto hi = lo + 1 + static_cast<std::uint32_t>(rng.uniform_int(6));
    s.missing.push_back({lo, hi});
    at = hi + 1;
  }
  s.end = at + static_cast<std::uint32_t>(rng.uniform_int(max_seq / 2));
  s.prefix = s.missing.empty() ? s.end : s.missing.front().lo;
  return s;
}

PidSet random_pids(Rng& rng) {
  PidSet out;
  const std::uint64_t n = rng.uniform_int(11);  // some spill past kInline
  for (std::uint64_t i = 0; i < n; ++i)
    out.insert(ProcessId{static_cast<std::uint16_t>(1 + rng.uniform_int(12))});
  return out;
}

TEST(EventLog, MatchesOrderedMapReference) {
  constexpr std::uint32_t kMaxSeq = 90;
  constexpr std::uint32_t kFarSeq = 0xffffffffu - 2;  // fabricated
  const SensorId sensors[] = {SensorId{1}, SensorId{2}};
  Rng rng(17);

  auto expect_same = [&](const EventLog& log, const MapLog& ref,
                         const std::string& when) {
    SCOPED_TRACE(when);
    EXPECT_EQ(image_of(log), ref.image());
    EXPECT_EQ(log.sensors(), ref.sensors());
    for (SensorId sensor : sensors) {
      EXPECT_EQ(log.size(sensor), ref.size(sensor));
      const wire::SyncSummary a = log.summary(sensor);
      const wire::SyncSummary b = ref.summary(sensor);
      EXPECT_EQ(a.sensor, b.sensor);
      EXPECT_EQ(a.prefix, b.prefix);
      EXPECT_EQ(a.end, b.end);
      EXPECT_EQ(a.missing, b.missing);
      std::vector<std::uint32_t> probes;
      for (std::uint32_t q = 0; q <= kMaxSeq + 1; ++q) probes.push_back(q);
      probes.push_back(kFarSeq - 1);
      probes.push_back(kFarSeq);
      probes.push_back(kFarSeq + 1);
      for (std::uint32_t q : probes) {
        const EventId id{sensor, q};
        const StoredEvent* x = log.find(id);
        const StoredEvent* y = ref.find(id);
        ASSERT_EQ(log.seen(id), y != nullptr) << q;
        ASSERT_EQ(x != nullptr, y != nullptr) << q;
        if (x != nullptr) {
          EXPECT_EQ(clone_bytes(*x), clone_bytes(*y)) << q;
        }
      }
      for (const wire::SyncSummary& theirs :
           {random_summary(rng, sensor, kMaxSeq), b, wire::SyncSummary{}}) {
        wire::SyncSummary t = theirs;
        t.sensor = sensor;
        EXPECT_EQ(clone_bytes(log.missing_from(t)),
                  clone_bytes(ref.missing_from(t)));
      }
      for (std::int64_t after : {std::int64_t{-1}, std::int64_t{300},
                                 static_cast<std::int64_t>(
                                     rng.uniform_int(10 * kMaxSeq))}) {
        EXPECT_EQ(clone_bytes(log.events_after(sensor, TimePoint{after})),
                  clone_bytes(ref.events_after(sensor, TimePoint{after})));
      }
    }
  };

  for (std::size_t cap = 1; cap <= 16; ++cap) {
    EventLog log(cap);
    MapLog ref(cap);
    std::uint32_t next[2] = {1, 1};
    bool far_done = false;
    for (int step = 0; step < 250; ++step) {
      const std::size_t k = rng.uniform_int(2);
      const SensorId sensor = sensors[k];
      const double op = rng.uniform();
      std::string what;
      if (op < 0.12) {
        // S/V knowledge about a held, evicted or never-seen event.
        const EventId id{sensor, static_cast<std::uint32_t>(
                                     rng.uniform_int(kMaxSeq + 2))};
        const PidSet s = random_pids(rng);
        const PidSet v = random_pids(rng);
        log.merge_sets(id, s, v);
        ref.merge_sets(id, s, v);
        what = "merge_sets " + std::to_string(id.seq);
      } else {
        std::uint32_t seq;
        if (op < 0.6) {
          seq = std::min(next[k]++, kMaxSeq);  // in order (dup at the top)
        } else if (op < 0.97 || far_done) {
          // Out of order, duplicated, or a stray below the floor.
          seq = static_cast<std::uint32_t>(rng.uniform_int(kMaxSeq + 1));
        } else {
          seq = kFarSeq;
          far_done = true;
        }
        devices::SensorEvent e = ev(sensor.value, seq, 10 * std::int64_t{seq});
        // Now and then a fabricated, out-of-order timestamp.
        if (rng.uniform() < 0.04)
          e.emitted_at = TimePoint{static_cast<std::int64_t>(
              rng.uniform_int(10 * kMaxSeq))};
        e.chain = rng.next();
        const PidSet s = random_pids(rng);
        const PidSet v = random_pids(rng);
        EXPECT_EQ(log.append(e, s, v), ref.append(e, s, v)) << seq;
        what = "append " + std::to_string(seq);
      }
      expect_same(log, ref, "cap " + std::to_string(cap) + " step " +
                                std::to_string(step) + ": " + what);
      if (step % 25 == 24) {
        // Carry on from a restored clone; its image must re-capture
        // byte-identically.
        const std::vector<std::byte> image = image_of(log);
        BinaryReader r(image);
        EventLog restored(cap);
        restored.restore_clone(r);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(image_of(restored), image);
        log = std::move(restored);
        expect_same(log, ref, "after restore_clone");
      }
      if (step % 40 == 39) {
        log.recover();
        ref.recover();
        expect_same(log, ref, "after recover");
      }
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace riv::core
