#include "core/event_log.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/codec.hpp"

namespace riv::core {

EventLog::EventLog(std::size_t cap) : cap_(cap) {}

std::size_t EventLog::Stream::lower_bound(std::uint32_t seq) const {
  if (head == events.size()) return head;
  const std::uint32_t first = events[head].event.id.seq;
  if (seq <= first) return head;
  // Sequences are distinct and ascending, so seq sits at most seq - first
  // slots past the head: exactly there when the run is dense.
  const std::size_t guess = head + (seq - first);
  if (guess < events.size() && events[guess].event.id.seq == seq) return guess;
  auto it = std::lower_bound(
      events.begin() + static_cast<std::ptrdiff_t>(head),
      events.begin() +
          static_cast<std::ptrdiff_t>(std::min(guess, events.size())),
      seq, [](const StoredEvent& se, std::uint32_t s) {
        return se.event.id.seq < s;
      });
  return static_cast<std::size_t>(it - events.begin());
}

std::size_t EventLog::Stream::index_of(std::uint32_t seq) const {
  const std::size_t i = lower_bound(seq);
  return i < events.size() && events[i].event.id.seq == seq ? i
                                                           : events.size();
}

bool EventLog::seen(EventId id) const {
  auto sit = streams_.find(id.sensor);
  if (sit == streams_.end()) return false;
  const Stream& stream = sit->second;
  // Everything inside the contiguous prefix is present by construction;
  // dedup checks (every ring/RB/device delivery) usually land here and
  // skip the search entirely.
  if (id.seq >= stream.first_retained && id.seq < stream.prefix_next)
    return true;
  return stream.index_of(id.seq) != stream.events.size();
}

std::uint32_t EventLog::end_of(const Stream& stream) {
  if (stream.size() == 0) return stream.first_retained;
  return std::max(stream.first_retained,
                  stream.events.back().event.id.seq + 1);
}

void EventLog::set_prefix(Stream& stream) {
  stream.prefix_next =
      stream.holes.empty() ? end_of(stream) : stream.holes.begin()->first;
}

void EventLog::rebuild_index(Stream& stream) {
  stream.holes.clear();
  std::uint32_t next = stream.first_retained;
  for (std::size_t i = stream.lower_bound(next); i < stream.events.size();
       ++i) {
    const std::uint32_t seq = stream.events[i].event.id.seq;
    if (seq != next) stream.holes.emplace_hint(stream.holes.end(), next, seq);
    next = seq + 1;
  }
  set_prefix(stream);
}

bool EventLog::append(const devices::SensorEvent& e, PidSet s, PidSet v) {
  Stream& stream = streams_[e.id.sensor];
  std::vector<StoredEvent>& events = stream.events;
  const std::uint32_t seq = e.id.seq;
  const std::uint32_t end = end_of(stream);
  std::size_t at = events.size();  // where the new entry lands
  if (stream.size() == 0 || events.back().event.id.seq < seq) {
    events.push_back(StoredEvent{e, std::move(s), std::move(v)});
  } else {
    at = stream.lower_bound(seq);
    if (events[at].event.id.seq == seq) return false;
    events.insert(events.begin() + static_cast<std::ptrdiff_t>(at),
                  StoredEvent{e, std::move(s), std::move(v)});
  }
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
    if (at > stream.head && events[at - 1].event.emitted_at > e.emitted_at)
      stream.monotone = false;
    if (at + 1 < events.size() &&
        e.emitted_at > events[at + 1].event.emitted_at)
      stream.monotone = false;
  }
  evict(stream);
  return true;
}

void EventLog::merge_sets(EventId id, const PidSet& s, const PidSet& v) {
  auto sit = streams_.find(id.sensor);
  if (sit == streams_.end()) return;
  Stream& stream = sit->second;
  const std::size_t i = stream.index_of(id.seq);
  if (i == stream.events.size()) return;
  StoredEvent& se = stream.events[i];
  se.seen.insert(s.begin(), s.end());
  se.need.insert(v.begin(), v.end());
}

const StoredEvent* EventLog::find(EventId id) const {
  auto sit = streams_.find(id.sensor);
  if (sit == streams_.end()) return nullptr;
  const Stream& stream = sit->second;
  const std::size_t i = stream.index_of(id.seq);
  return i == stream.events.size() ? nullptr : &stream.events[i];
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
  const Stream& stream = sit->second;
  const std::vector<StoredEvent>& events = stream.events;
  // Runs are ascending and end below theirs.end, so out stays in
  // sequence order.
  for (const wire::SeqRun& run : theirs.missing) {
    for (std::size_t i = stream.lower_bound(run.lo);
         i < events.size() && events[i].event.id.seq < run.hi; ++i)
      out.push_back(&events[i]);
  }
  for (std::size_t i = stream.lower_bound(theirs.end); i < events.size(); ++i)
    out.push_back(&events[i]);
  return out;
}

std::vector<const StoredEvent*> EventLog::events_after(SensorId sensor,
                                                       TimePoint after) const {
  std::vector<const StoredEvent*> out;
  auto sit = streams_.find(sensor);
  if (sit == streams_.end()) return out;
  const Stream& stream = sit->second;
  const std::vector<StoredEvent>& events = stream.events;
  if (stream.monotone) {
    // Matching events form a suffix in sequence order, which is already
    // (emitted_at, seq)-sorted: walk back to the boundary, then emit
    // forward. O(matches) instead of a full scan plus sort.
    std::size_t i = events.size();
    while (i > stream.head && events[i - 1].event.emitted_at > after) --i;
    for (; i < events.size(); ++i) out.push_back(&events[i]);
    return out;
  }
  for (std::size_t i = stream.head; i < events.size(); ++i) {
    if (events[i].event.emitted_at > after) out.push_back(&events[i]);
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
  return sit == streams_.end() ? 0 : sit->second.size();
}

std::vector<SensorId> EventLog::sensors() const {
  std::vector<SensorId> out;
  out.reserve(streams_.size());
  for (const auto& [sensor, stream] : streams_) {
    // A retention floor without surviving events is bookkeeping only, not
    // a stream.
    if (stream.size() != 0) out.push_back(sensor);
  }
  return out;
}

void EventLog::evict(Stream& stream) {
  if (stream.size() <= cap_) return;
  while (stream.size() > cap_) {
    const std::uint32_t seq = stream.events[stream.head++].event.id.seq;
    stream.first_retained = std::max(stream.first_retained, seq + 1);
  }
  if (2 * stream.head >= stream.events.size()) {
    stream.events.erase(stream.events.begin(),
                        stream.events.begin() +
                            static_cast<std::ptrdiff_t>(stream.head));
    stream.head = 0;
  }
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
    for (std::size_t i = stream.head; i < stream.events.size(); ++i) {
      StoredEvent& se = stream.events[i];
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

void EventLog::clone_state(BinaryWriter& w) const { io_state(w, *this); }

void EventLog::restore_clone(BinaryReader& r) { io_state(r, *this); }

template <class A, class Self>
void EventLog::io_state(A& a, Self& s) {
  io_seq(a, s.streams_, [&a](auto& entry) {
    io(a, entry.first);
    auto& stream = entry.second;
    io(a, stream.first_retained);
    skip(a, stream.prefix_next);  // rebuilt with the hole index below
    io(a, stream.monotone);
    // Each event without its sensor id, which the stream's key carries.
    io_tail(a, stream.events, stream.head, [&](auto& se) {
      devices::SensorEvent::io_in_stream(a, se.event);
      io(a, se.seen);
      io(a, se.need);
      if constexpr (A::kReads) {
        se.event.id.sensor = entry.first;
        RIV_ASSERT(stream.events.empty() ||
                       stream.events.back().event.id.seq < se.event.id.seq,
                   "clone restore: event log out of sequence order");
      }
    });
    if constexpr (A::kReads) rebuild_index(stream);
  });
  io(a, s.processed_hw_);
}

}  // namespace riv::core
