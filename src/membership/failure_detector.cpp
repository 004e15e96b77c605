#include "membership/failure_detector.hpp"

#include "trace/trace.hpp"

namespace riv::membership {

FailureDetector::FailureDetector(sim::ProcessTimers& timers,
                                 net::Transport& transport,
                                 std::vector<ProcessId> all_processes,
                                 Config config)
    : timers_(&timers),
      transport_(&transport),
      self_(transport.local()),
      all_(std::move(all_processes)),
      config_(config) {}

void FailureDetector::start() {
  if (started_) return;
  started_ = true;
  // Optimistic initial view: all configured processes presumed alive.
  TimePoint now = timers_->now();
  for (ProcessId p : all_) {
    if (p != self_) last_heard_[p] = now;
  }
  recompute_view();
  tick();
}

void FailureDetector::tick() {
  // Send keep-alives. The frame is identical for every peer (same
  // timestamp, same piggyback), so encode once and share it.
  sending_.sent_at = timers_->now();
  sending_.piggyback.clear();
  if (provider_) provider_(sending_.piggyback);
  net::Payload payload = encode(sending_);
  for (ProcessId p : all_) {
    if (p == self_) continue;
    transport_->send(p, net::MsgType::kKeepAlive, payload);
  }
  recompute_view();
  timers_->schedule_after(config_.period, kTickTimer);
}

void FailureDetector::clone_state(BinaryWriter& w) const {
  io_state(w, *this);
}

void FailureDetector::restore_clone(BinaryReader& r) { io_state(r, *this); }

template <class A, class Self>
void FailureDetector::io_state(A& a, Self& s) {
  io(a, s.started_);
  io(a, s.last_heard_);
  io(a, s.view_flat_);
  if constexpr (A::kReads) {
    s.view_.clear();
    s.view_.insert(s.view_flat_.begin(), s.view_flat_.end());
  }
}

bool FailureDetector::on_keepalive(const net::Message& msg) {
  if (!decode(msg.payload, received_)) return false;
  if (handler_ && !received_.piggyback.empty() &&
      !handler_(msg.src, received_.piggyback))
    return false;
  last_heard_[msg.src] = timers_->now();
  recompute_view();
  return true;
}

void FailureDetector::recompute_view() {
  // Build the candidate view into a scratch vector — sorted for free,
  // since last_heard_ iterates in ProcessId order and self_ is merged at
  // its rank — and only materialize the std::set when membership changed.
  scratch_.clear();
  TimePoint now = timers_->now();
  bool self_placed = false;
  for (const auto& [p, heard] : last_heard_) {
    if (p == self_) continue;  // p_i never suspects itself (§4.1)
    if (!self_placed && self_ < p) {
      scratch_.push_back(self_);
      self_placed = true;
    }
    if (now - heard <= config_.timeout) scratch_.push_back(p);
  }
  if (!self_placed) scratch_.push_back(self_);
  if (scratch_ != view_flat_) {
    view_flat_ = scratch_;
    view_.clear();
    view_.insert(scratch_.begin(), scratch_.end());
    if (trace::active(trace::Component::kMembership)) {
      // view_flat_ is sorted, so packing it matches the set's rendering.
      trace::emit(now, self_, trace::Component::kMembership,
                  trace::Kind::kView,
                  trace::fv(trace::Key::kView, view_flat_));
    }
    if (on_view_change_) on_view_change_(view_);
  }
}

}  // namespace riv::membership
