#include "core/delivery/gap_stream.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace riv::core {

GapStream::GapStream(StreamContext ctx) : ctx_(std::move(ctx)) {}

std::optional<ProcessId> GapStream::app_bearing() const {
  return first_alive(ctx_.chain(), ctx_.view());
}

std::optional<ProcessId> GapStream::forwarder() const {
  const std::set<ProcessId>& view = ctx_.view();
  for (ProcessId p : ctx_.chain()) {
    if (view.count(p) == 0) continue;
    if (std::find(ctx_.in_range_processes.begin(),
                  ctx_.in_range_processes.end(),
                  p) != ctx_.in_range_processes.end())
      return p;
  }
  return std::nullopt;
}

void GapStream::on_device_event(const devices::SensorEvent& e) {
  ++ingested_;
  std::optional<ProcessId> bearer = app_bearing();
  if (bearer && *bearer == ctx_.self) {
    deliver_dedup(e, "device");
    return;
  }
  if (forwarder() == ctx_.self && bearer) {
    wire::EventPayload p;
    p.app = ctx_.app;
    p.sensor = e.id.sensor;
    p.event = e;
    ++forwards_;
    ctx_.send(*bearer, net::MsgType::kGapForward, ctx_.encode(p, e.chain));
    return;
  }
  ++discarded_;
}

void GapStream::on_forward(ProcessId from, const wire::EventPayload& p) {
  (void)from;
  // Deliver if our logic node is active; if the sender's view was stale
  // and we are a shadow, the event is simply dropped — Gap permits it.
  deliver_dedup(p.event, "forward");
}

void GapStream::deliver_dedup(const devices::SensorEvent& e,
                              const char* src) {
  if (recent_.contains(e.id)) return;
  if (trace::active(trace::Component::kDelivery)) {
    trace::emit(ctx_.timers->now(), ctx_.self, trace::Component::kDelivery,
                trace::Kind::kIngest, provenance_of(e.id),
                trace::fu(trace::Key::kApp, ctx_.app.value),
                trace::fe(trace::Key::kEvent, e.id),
                trace::fs(trace::Key::kSrcName, src));
  }
  recent_.insert(e.id);
  recent_order_.push_back(e.id);
  while (recent_order_.size() > kDedupWindow) {
    recent_.erase(recent_order_.front());
    recent_order_.pop_front();
  }
  note_epoch(e);
  ctx_.deliver(e);
}

// --- polling -------------------------------------------------------------

void GapStream::note_epoch(const devices::SensorEvent& e) {
  if (!ctx_.edge.polling.poll_based()) return;
  epochs_seen_.insert(e.epoch);
  while (epochs_seen_.size() > 1024) epochs_seen_.erase(epochs_seen_.begin());
}

std::uint32_t GapStream::current_epoch() const {
  return static_cast<std::uint32_t>(ctx_.timers->now().us /
                                    ctx_.edge.polling.epoch.us);
}

void GapStream::start() {
  if (!ctx_.edge.polling.poll_based()) return;
  first_epoch_ = current_epoch() + 1;
  schedule_epoch(first_epoch_);
}

void GapStream::schedule_epoch(std::uint32_t epoch) {
  const Duration e = ctx_.edge.polling.epoch;
  const TimePoint boundary{static_cast<std::int64_t>(epoch) * e.us};
  ctx_.timers->schedule_at(boundary, kEpochTimer,
                           stream_timer_arg(ctx_.app, ctx_.edge.sensor, epoch));
}

void GapStream::on_epoch_boundary(std::uint32_t epoch) {
  const Duration e = ctx_.edge.polling.epoch;
  const TimePoint boundary{static_cast<std::int64_t>(epoch) * e.us};
  if (trace::active(trace::Component::kDelivery)) {
    trace::emit(boundary, ctx_.self, trace::Component::kDelivery,
                trace::Kind::kEpoch,
                trace::fu(trace::Key::kApp, ctx_.app.value),
                trace::fu(trace::Key::kEpoch, epoch));
  }
  if (forwarder() == ctx_.self) {
    ++polls_issued_;
    ctx_.poll(epoch);
  }
  // The app-bearing process reports a staleness violation when the
  // previous epoch produced nothing (Gap may legitimately have gaps).
  if (epoch > first_epoch_ && ctx_.logic_active_here() &&
      epochs_seen_.count(epoch - 1) == 0) {
    ++staleness_reports_;
    ctx_.staleness(epoch - 1);
  }
  schedule_epoch(epoch + 1);
}

void GapStream::clone_state(BinaryWriter& w) const { io_state(w, *this); }

void GapStream::restore_clone(BinaryReader& r) { io_state(r, *this); }

template <class A, class Self>
void GapStream::io_state(A& a, Self& s) {
  io(a, s.first_epoch_);
  io(a, s.recent_order_);
  if constexpr (A::kReads) {
    s.recent_.clear();
    for (EventId id : s.recent_order_) s.recent_.insert(id);
  }
  io(a, s.epochs_seen_);
  io(a, s.ingested_);
  io(a, s.forwards_);
  io(a, s.discarded_);
  io(a, s.polls_issued_);
  io(a, s.staleness_reports_);
}

}  // namespace riv::core
