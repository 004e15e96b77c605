#include "devices/actuator.hpp"

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace riv::devices {

Actuator::Actuator(sim::Simulation& sim, ActuatorSpec spec, Rng rng)
    : sim_(&sim),
      spec_(std::move(spec)),
      rng_(rng),
      state_(spec_.initial_state),
      timers_(sim, *this) {}

void Actuator::add_link(ProcessId process, double loss_prob) {
  links_[process] = loss_prob;
}

bool Actuator::linked_to(ProcessId process) const {
  return links_.count(process) != 0;
}

std::vector<ProcessId> Actuator::linked_processes() const {
  std::vector<ProcessId> out;
  out.reserve(links_.size());
  for (const auto& [p, loss] : links_) out.push_back(p);
  return out;
}

void Actuator::crash() {
  crashed_ = true;
  timers_.cancel_all();
  in_flight_.clear();
}

void Actuator::submit(ProcessId from, const Command& cmd) {
  auto it = links_.find(from);
  if (it == links_.end()) return;  // out of range
  if (rng_.bernoulli(it->second)) return;  // lost on the device link
  const TechProfile& prof = profile(spec_.tech);
  Duration delay = prof.link_latency + spec_.actuate_latency;
  in_flight_.put(timers_.schedule_after(delay, kCommandTimer), cmd);
}

void Actuator::on_timer(sim::TimerId id, std::uint16_t /*kind*/,
                        std::uint64_t /*arg*/) {
  const Command cmd = in_flight_.take(id);
  if (!crashed_) apply(cmd);
}

void Actuator::apply(const Command& cmd) {
  bool duplicate = !seen_.insert(cmd.id).second;
  if (duplicate) ++duplicate_deliveries_;

  bool accepted = true;
  if (cmd.test_and_set) {
    RIV_ASSERT(spec_.supports_test_and_set,
               "Test&Set command sent to a device without support");
    accepted = state_ == cmd.expected;
    if (!accepted) ++rejected_tas_;
  }
  if (accepted) {
    state_ = cmd.value;
    ++actions_;
    // A duplicate delivery that is accepted and the device is not
    // idempotent: a real-world double dispense / double brew.
    if (duplicate && !spec_.idempotent) ++unwarranted_actions_;
  }
  if (trace::active(trace::Component::kDevice)) {
    trace::emit(sim_->now(), ProcessId{0}, trace::Component::kDevice,
                trace::Kind::kActuated, cmd.cause,
                trace::fc(trace::Key::kCmd, cmd.id),
                trace::fa(trace::Key::kActuator, cmd.actuator),
                trace::fu(trace::Key::kAccepted, accepted ? 1 : 0),
                trace::fu(trace::Key::kDup, duplicate ? 1 : 0));
  }
  history_.push_back(
      Applied{cmd.id, cmd.value, sim_->now(), accepted, cmd.cause});
}

void Actuator::clone_state(BinaryWriter& w) const { io_state(w, *this); }

void Actuator::restore_clone(BinaryReader& r) { io_state(r, *this); }

template <class A, class Self>
void Actuator::io_state(A& a, Self& s) {
  expect(a, s.spec_.id, "clone restore: actuator identity mismatch");
  io(a, s.rng_);
  io(a, s.links_);
  io(a, s.crashed_);
  io(a, s.state_);
  io(a, s.seen_);
  io(a, s.history_);
  io(a, s.actions_);
  io(a, s.duplicate_deliveries_);
  io(a, s.unwarranted_actions_);
  io(a, s.rejected_tas_);
  io(a, s.in_flight_);
}

}  // namespace riv::devices
