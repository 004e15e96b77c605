#include "core/event_log.hpp"

#include <algorithm>

#include "common/codec.hpp"

namespace riv::core {
namespace {

void write_pid_set(BinaryWriter& w, const PidSet& s) {
  w.u8(static_cast<std::uint8_t>(s.size()));
  for (ProcessId p : s) w.process_id(p);
}

PidSet read_pid_set(BinaryReader& r) {
  PidSet out;
  std::uint8_t n = r.u8();
  out.reserve(n);
  // Encoded sets are already ascending, so each insert is an append.
  for (std::uint8_t i = 0; i < n; ++i) out.insert(r.process_id());
  return out;
}

}  // namespace

EventLog::EventLog(std::size_t cap) : cap_(cap) {}

bool EventLog::seen(EventId id) const {
  auto sit = streams_.find(id.sensor);
  if (sit == streams_.end()) return false;
  const Stream& stream = sit->second;
  // Everything inside the contiguous prefix is present by construction;
  // dedup checks (every ring/RB/device delivery) usually land here and
  // skip the tree walk entirely.
  if (id.seq >= stream.first_retained && id.seq < stream.prefix_next)
    return true;
  return stream.events.count(id.seq) != 0;
}

std::uint32_t EventLog::end_of(const Stream& stream) {
  if (stream.events.empty()) return stream.first_retained;
  return std::max(stream.first_retained, stream.events.rbegin()->first + 1);
}

void EventLog::set_prefix(Stream& stream) {
  stream.prefix_next =
      stream.holes.empty() ? end_of(stream) : stream.holes.begin()->first;
}

void EventLog::rebuild_index(Stream& stream) {
  stream.holes.clear();
  std::uint32_t next = stream.first_retained;
  for (auto it = stream.events.lower_bound(next); it != stream.events.end();
       ++it) {
    if (it->first != next)
      stream.holes.emplace_hint(stream.holes.end(), next, it->first);
    next = it->first + 1;
  }
  set_prefix(stream);
}

bool EventLog::append(const devices::SensorEvent& e, PidSet s, PidSet v) {
  Stream& stream = streams_[e.id.sensor];
  const std::uint32_t seq = e.id.seq;
  const std::uint32_t end = end_of(stream);
  auto [it, inserted] =
      stream.events.emplace(seq, StoredEvent{e, std::move(s), std::move(v)});
  if (!inserted) return false;
  if (seq > end) {
    // Everything skipped over past the old end is a new hole.
    stream.holes.emplace_hint(stream.holes.end(), end, seq);
  } else if (seq < end && seq >= stream.first_retained) {
    // New inside [first_retained, end), so it fills part of a hole: shrink,
    // split or drop that run, reusing its node where the run survives.
    auto hole = std::prev(stream.holes.upper_bound(seq));
    const std::uint32_t hi = hole->second;
    if (hole->first < seq) {
      hole->second = seq;
      if (seq + 1 < hi)
        stream.holes.emplace_hint(std::next(hole), seq + 1, hi);
    } else if (seq + 1 < hi) {
      auto node = stream.holes.extract(hole);
      node.key() = seq + 1;
      stream.holes.insert(std::move(node));
    } else {
      stream.holes.erase(hole);
    }
  }
  set_prefix(stream);
  if (stream.monotone) {
    // Out-of-order timestamps (only possible with fabricated events) void
    // the fast-path ordering assumption for this stream.
    if (it != stream.events.begin() &&
        std::prev(it)->second.event.emitted_at > e.emitted_at)
      stream.monotone = false;
    auto nx = std::next(it);
    if (nx != stream.events.end() &&
        e.emitted_at > nx->second.event.emitted_at)
      stream.monotone = false;
  }
  evict(stream);
  return true;
}

void EventLog::merge_sets(EventId id, const PidSet& s, const PidSet& v) {
  auto sit = streams_.find(id.sensor);
  if (sit == streams_.end()) return;
  auto it = sit->second.events.find(id.seq);
  if (it == sit->second.events.end()) return;
  StoredEvent& se = it->second;
  se.seen.insert(s.begin(), s.end());
  se.need.insert(v.begin(), v.end());
}

const StoredEvent* EventLog::find(EventId id) const {
  auto sit = streams_.find(id.sensor);
  if (sit == streams_.end()) return nullptr;
  auto it = sit->second.events.find(id.seq);
  return it == sit->second.events.end() ? nullptr : &it->second;
}

wire::SyncSummary EventLog::summary(SensorId sensor) const {
  wire::SyncSummary out;
  out.sensor = sensor;
  auto sit = streams_.find(sensor);
  // No stream yet: prefix = end = 1, so the predecessor sends everything.
  if (sit == streams_.end()) return out;
  const Stream& stream = sit->second;
  out.prefix = stream.prefix_next;
  out.end = end_of(stream);
  out.missing.reserve(stream.holes.size());
  for (const auto& [lo, hi] : stream.holes) out.missing.push_back({lo, hi});
  return out;
}

std::vector<const StoredEvent*> EventLog::missing_from(
    const wire::SyncSummary& theirs) const {
  std::vector<const StoredEvent*> out;
  auto sit = streams_.find(theirs.sensor);
  if (sit == streams_.end()) return out;
  const std::map<std::uint32_t, StoredEvent>& events = sit->second.events;
  // Runs are ascending and end below theirs.end, so out stays in
  // sequence order.
  for (const wire::SeqRun& run : theirs.missing) {
    for (auto it = events.lower_bound(run.lo);
         it != events.end() && it->first < run.hi; ++it)
      out.push_back(&it->second);
  }
  for (auto it = events.lower_bound(theirs.end); it != events.end(); ++it)
    out.push_back(&it->second);
  return out;
}

std::vector<const StoredEvent*> EventLog::events_after(SensorId sensor,
                                                       TimePoint after) const {
  std::vector<const StoredEvent*> out;
  auto sit = streams_.find(sensor);
  if (sit == streams_.end()) return out;
  const Stream& stream = sit->second;
  if (stream.monotone) {
    // Matching events form a suffix in sequence order, which is already
    // (emitted_at, seq)-sorted: walk back to the boundary, then emit
    // forward. O(matches) instead of a full scan plus sort.
    auto it = stream.events.end();
    while (it != stream.events.begin() &&
           std::prev(it)->second.event.emitted_at > after)
      --it;
    for (; it != stream.events.end(); ++it) out.push_back(&it->second);
    return out;
  }
  for (const auto& [seq, se] : stream.events) {
    if (se.event.emitted_at > after) out.push_back(&se);
  }
  std::sort(out.begin(), out.end(), [](const StoredEvent* a,
                                       const StoredEvent* b) {
    if (a->event.emitted_at != b->event.emitted_at)
      return a->event.emitted_at < b->event.emitted_at;
    return a->event.id.seq < b->event.id.seq;
  });
  return out;
}

TimePoint EventLog::processed_watermark(SensorId sensor) const {
  auto it = processed_hw_.find(sensor);
  return it == processed_hw_.end() ? TimePoint{} : it->second;
}

void EventLog::advance_processed_watermark(SensorId sensor, TimePoint t) {
  TimePoint& hw = processed_hw_[sensor];
  if (t > hw) hw = t;
}

std::size_t EventLog::size(SensorId sensor) const {
  auto sit = streams_.find(sensor);
  return sit == streams_.end() ? 0 : sit->second.events.size();
}

std::vector<SensorId> EventLog::sensors() const {
  std::vector<SensorId> out;
  out.reserve(streams_.size());
  for (const auto& [sensor, stream] : streams_) {
    // A retention floor without surviving events is bookkeeping only, not
    // a stream.
    if (!stream.events.empty()) out.push_back(sensor);
  }
  return out;
}

void EventLog::evict(Stream& stream) {
  bool evicted = false;
  while (stream.events.size() > cap_) {
    std::uint32_t seq = stream.events.begin()->first;
    stream.events.erase(stream.events.begin());
    stream.first_retained = std::max(stream.first_retained, seq + 1);
    evicted = true;
  }
  if (!evicted) return;
  // Holes below the raised floor are no longer this log's to fill. None
  // straddles it: the floor sits just above an evicted, held sequence.
  while (!stream.holes.empty() &&
         stream.holes.begin()->first < stream.first_retained)
    stream.holes.erase(stream.holes.begin());
  set_prefix(stream);
}

void EventLog::recover() {
  std::vector<std::byte> scratch;
  for (auto& [sensor, stream] : streams_) {
    stream.monotone = true;
    TimePoint last{};
    for (auto& [seq, se] : stream.events) {
      BinaryWriter w(std::move(scratch));
      devices::encode(w, se.event);
      scratch = w.take();
      BinaryReader r(scratch);
      se.event = devices::decode_event(r);
      if (se.event.emitted_at < last) stream.monotone = false;
      last = se.event.emitted_at;
    }
    rebuild_index(stream);
  }
}

void EventLog::clone_state(BinaryWriter& w) const {
  w.u64(streams_.size());
  for (const auto& [sensor, stream] : streams_) {
    w.sensor_id(sensor);
    w.u32(stream.first_retained);
    w.u32(stream.prefix_next);
    w.u8(stream.monotone ? 1 : 0);
    w.u64(stream.events.size());
    for (const auto& [seq, se] : stream.events) {
      w.u32(seq);
      w.u32(se.event.epoch);
      w.time_point(se.event.emitted_at);
      w.u8(se.event.poll_based ? 1 : 0);
      w.f64(se.event.value);
      w.u32(se.event.payload_size);
      w.u64(se.event.chain);
      w.u64(se.event.mac);
      write_pid_set(w, se.seen);
      write_pid_set(w, se.need);
    }
  }
  w.u64(processed_hw_.size());
  for (const auto& [sensor, t] : processed_hw_) {
    w.sensor_id(sensor);
    w.time_point(t);
  }
}

void EventLog::restore_clone(BinaryReader& r) {
  streams_.clear();
  const std::uint64_t n_streams = r.u64();
  for (std::uint64_t i = 0; i < n_streams; ++i) {
    SensorId sensor = r.sensor_id();
    Stream& stream = streams_[sensor];
    stream.first_retained = r.u32();
    (void)r.u32();  // prefix_next: rebuilt with the hole index below
    stream.monotone = r.u8() != 0;
    const std::uint64_t n_events = r.u64();
    for (std::uint64_t j = 0; j < n_events; ++j) {
      std::uint32_t seq = r.u32();
      StoredEvent se;
      se.event.id = EventId{sensor, seq};
      se.event.epoch = r.u32();
      se.event.emitted_at = r.time_point();
      se.event.poll_based = r.u8() != 0;
      se.event.value = r.f64();
      se.event.payload_size = r.u32();
      se.event.chain = r.u64();
      se.event.mac = r.u64();
      se.seen = read_pid_set(r);
      se.need = read_pid_set(r);
      stream.events.emplace_hint(stream.events.end(), seq, std::move(se));
    }
    rebuild_index(stream);
  }
  processed_hw_.clear();
  const std::uint64_t n_hw = r.u64();
  for (std::uint64_t i = 0; i < n_hw; ++i) {
    SensorId sensor = r.sensor_id();
    processed_hw_[sensor] = r.time_point();
  }
}

}  // namespace riv::core
