#include "core/delivery/gapless_stream.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace riv::core {

GaplessStream::GaplessStream(StreamContext ctx) : ctx_(std::move(ctx)) {
  RIV_ASSERT(ctx_.log != nullptr, "Gapless needs an event log");
}

std::optional<ProcessId> GaplessStream::ring_successor() const {
  const std::set<ProcessId>& view = ctx_.view();
  if (view.size() <= 1) return std::nullopt;
  auto it = view.upper_bound(ctx_.self);
  if (it == view.end()) it = view.begin();
  if (*it == ctx_.self) return std::nullopt;
  return *it;
}

void GaplessStream::on_device_event(const devices::SensorEvent& e) {
  if (ctx_.log->seen(e.id)) return;  // duplicate device delivery
  ++ingested_;
  const std::set<ProcessId>& view = ctx_.view();
  accept_new_event(e, {ctx_.self}, {view.begin(), view.end()}, "device");
}

void GaplessStream::accept_new_event(const devices::SensorEvent& e,
                                     PidSet seen, PidSet need,
                                     const char* src) {
  if (trace::active(trace::Component::kDelivery)) {
    trace::emit(ctx_.timers->now(), ctx_.self, trace::Component::kDelivery,
                trace::Kind::kIngest, provenance_of(e.id),
                trace::fu(trace::Key::kApp, ctx_.app.value),
                trace::fe(trace::Key::kEvent, e.id),
                trace::fs(trace::Key::kSrcName, src),
                trace::fu(trace::Key::kSeen, seen.size()),
                trace::fu(trace::Key::kNeed, need.size()));
  }
  ctx_.log->append(e, seen, need);
  note_epoch(e);
  ctx_.deliver(e);
  forward_to_successor(e, seen, need);
}

void GaplessStream::forward_to_successor(const devices::SensorEvent& e,
                                         const PidSet& seen,
                                         const PidSet& need) {
  std::optional<ProcessId> succ = ring_successor();
  if (!succ) return;
  wire::RingPayload p;
  p.app = ctx_.app;
  p.sensor = e.id.sensor;
  p.seen = seen;
  p.need = need;
  p.event = e;
  ++ring_forwards_;
  ctx_.send(*succ, net::MsgType::kRingEvent, ctx_.encode(p, e.chain));
}

void GaplessStream::on_ring(ProcessId from, const wire::RingPayload& p) {
  (void)from;
  const devices::SensorEvent& e = p.event;
  if (!ctx_.log->seen(e.id)) {
    // First sight: extend S with ourselves, V with our local view, deliver
    // and keep the ring moving.
    PidSet seen = p.seen;
    seen.insert(ctx_.self);
    PidSet need = p.need;
    const std::set<ProcessId>& view = ctx_.view();
    need.insert(view.begin(), view.end());
    accept_new_event(e, std::move(seen), std::move(need), "ring");
    return;
  }

  // Already seen. Remember any S/V knowledge the message carries.
  ctx_.log->merge_sets(e.id, p.seen, p.need);
  const bool incomplete = p.seen != p.need;
  const bool we_forwarded = p.seen.count(ctx_.self) != 0;
  if (incomplete && we_forwarded) {
    // The event went around at least once and someone in V still misses
    // it: the optimistic ring is stuck (crash/partition mid-circulation),
    // fall back to reliable broadcast (§4.1).
    initiate_reliable_broadcast(e.id);
  }
  // Otherwise: ignore the duplicate.
}

void GaplessStream::initiate_reliable_broadcast(EventId id) {
  if (!rb_done_.insert(id)) return;  // broadcast at most once per event
  const StoredEvent* stored = ctx_.log->find(id);
  RIV_ASSERT(stored != nullptr, "broadcasting an event we do not hold");
  ++rb_initiated_;
  if (trace::active(trace::Component::kDelivery)) {
    trace::emit(ctx_.timers->now(), ctx_.self, trace::Component::kDelivery,
                trace::Kind::kFallback,
                trace::fu(trace::Key::kApp, ctx_.app.value),
                trace::fe(trace::Key::kEvent, id));
  }

  PidSet targets = stored->need;
  const std::set<ProcessId>& view = ctx_.view();
  targets.insert(view.begin(), view.end());

  wire::EventPayload p;
  p.app = ctx_.app;
  p.sensor = id.sensor;
  p.event = stored->event;
  // Shared by all targets.
  const net::Payload payload = ctx_.encode(p, stored->event.chain);
  for (ProcessId t : targets) {
    if (t == ctx_.self) continue;
    ctx_.send(t, net::MsgType::kRbEvent, payload);
  }
}

void GaplessStream::on_rb(ProcessId from, const wire::EventPayload& p) {
  const devices::SensorEvent& e = p.event;
  if (!ctx_.log->seen(e.id)) {
    const std::set<ProcessId>& view = ctx_.view();
    PidSet need(view.begin(), view.end());
    if (trace::active(trace::Component::kDelivery)) {
      trace::emit(ctx_.timers->now(), ctx_.self, trace::Component::kDelivery,
                  trace::Kind::kIngest, provenance_of(e.id),
                  trace::fu(trace::Key::kApp, ctx_.app.value),
                  trace::fe(trace::Key::kEvent, e.id),
                  trace::fs(trace::Key::kSrcName, "rb"));
    }
    ctx_.log->append(e, {ctx_.self, from}, std::move(need));
    note_epoch(e);
    ctx_.deliver(e);
    // Eager re-flood once: guarantees delivery to every correct process
    // even if the initiator crashes mid-broadcast [Boichat & Guerraoui].
    reflood(from, p);
  }
}

void GaplessStream::reflood(ProcessId origin, const wire::EventPayload& p) {
  if (!rb_done_.insert(p.event.id)) return;
  // Shared by all targets.
  const net::Payload payload = ctx_.encode(p, p.event.chain);
  for (ProcessId t : ctx_.view()) {
    if (t == ctx_.self || t == origin) continue;
    ctx_.send(t, net::MsgType::kRbEvent, payload);
  }
}

void GaplessStream::sync_successor(ProcessId successor,
                                   const wire::SyncSummary& theirs) {
  // Re-send every stored event the successor lacks, as ring messages
  // carrying our best S/V knowledge (so the protocol's stall detection
  // keeps working across the re-sent events).
  const std::vector<const StoredEvent*> missing =
      ctx_.log->missing_from(theirs);
  if (missing.empty()) return;
  // The view cannot change while this loop runs; snapshot it once, and
  // reuse one payload object so the per-event cost is only the copies the
  // wire format actually needs.
  const PidSet view(ctx_.view());
  wire::RingPayload p;
  p.app = ctx_.app;
  p.sensor = ctx_.edge.sensor;
  for (const StoredEvent* se : missing) {
    p.seen = se->seen;
    p.seen.insert(ctx_.self);
    p.need = se->need;
    p.need.insert(view.begin(), view.end());
    p.event = se->event;
    ++ring_forwards_;
    ctx_.send(successor, net::MsgType::kRingEvent,
              ctx_.encode(p, se->event.chain));
  }
}

// --- coordinated polling ------------------------------------------------

void GaplessStream::note_epoch(const devices::SensorEvent& e) {
  if (!ctx_.edge.polling.poll_based()) return;
  epochs_seen_.insert(e.epoch);
  // Bound the set; epochs only grow.
  while (epochs_seen_.size() > 1024) epochs_seen_.erase(epochs_seen_.begin());
}

bool GaplessStream::epoch_seen(std::uint32_t epoch) const {
  return epochs_seen_.count(epoch) != 0;
}

std::uint32_t GaplessStream::current_epoch() const {
  return static_cast<std::uint32_t>(ctx_.timers->now().us /
                                    ctx_.edge.polling.epoch.us);
}

void GaplessStream::start() {
  if (!ctx_.edge.polling.poll_based()) return;
  first_epoch_ = current_epoch() + 1;
  schedule_epoch(first_epoch_);
}

void GaplessStream::schedule_epoch(std::uint32_t epoch) {
  const Duration e = ctx_.edge.polling.epoch;
  const TimePoint boundary{static_cast<std::int64_t>(epoch) * e.us};
  ctx_.timers->schedule_at(boundary, kEpochTimer,
                           stream_timer_arg(ctx_.app, ctx_.edge.sensor, epoch));
}

void GaplessStream::on_epoch_boundary(std::uint32_t epoch) {
  const Duration e = ctx_.edge.polling.epoch;
  const TimePoint boundary{static_cast<std::int64_t>(epoch) * e.us};
  if (trace::active(trace::Component::kDelivery)) {
    trace::emit(boundary, ctx_.self, trace::Component::kDelivery,
                trace::Kind::kEpoch,
                trace::fu(trace::Key::kApp, ctx_.app.value),
                trace::fu(trace::Key::kEpoch, epoch));
  }
  // Poll slot: rank among the *alive* active sensor nodes is computed at
  // the epoch boundary, so slot assignment adapts to failures without any
  // coordination messages (§4.1).
  if (ctx_.in_range) {
    std::vector<ProcessId> pollers;
    const std::set<ProcessId>& view = ctx_.view();
    for (ProcessId p : ctx_.in_range_processes) {
      if (view.count(p) != 0) pollers.push_back(p);
    }
    auto it = std::find(pollers.begin(), pollers.end(), ctx_.self);
    if (it != pollers.end()) {
      const auto rank = static_cast<std::int64_t>(it - pollers.begin());
      const auto n = static_cast<std::int64_t>(pollers.size());
      TimePoint slot = boundary + Duration{rank * e.us / n};
      ctx_.timers->schedule_at(
          slot, kSlotTimer,
          stream_timer_arg(ctx_.app, ctx_.edge.sensor, epoch));
    }
  }
  // Staleness check for the *previous* epoch (only epochs we actually
  // scheduled polls for — the partial startup epoch does not count).
  if (epoch > first_epoch_) {
    std::uint32_t prev = epoch - 1;
    if (!epoch_seen(prev) && ctx_.logic_active_here()) {
      ++staleness_reports_;
      ctx_.staleness(prev);
    }
  }
  schedule_epoch(epoch + 1);
}

void GaplessStream::on_poll_slot(std::uint32_t epoch) {
  if (!epoch_seen(epoch)) {
    ++polls_issued_;
    ctx_.poll(epoch);
  }
}

void GaplessStream::clone_state(BinaryWriter& w) const {
  io_state(w, *this);
}

void GaplessStream::restore_clone(BinaryReader& r) { io_state(r, *this); }

template <class A, class Self>
void GaplessStream::io_state(A& a, Self& s) {
  io(a, s.first_epoch_);
  io(a, s.epochs_seen_);
  io(a, s.rb_done_);
  io(a, s.ingested_);
  io(a, s.ring_forwards_);
  io(a, s.rb_initiated_);
  io(a, s.polls_issued_);
  io(a, s.staleness_reports_);
}

}  // namespace riv::core
