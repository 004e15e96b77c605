// A timer owner for unit fixtures. In a deployment, the components a
// process rebuilds on recovery (failure detector, replicated store,
// delivery streams, logic triggers) schedule through their process's
// handle, and the process routes each timer back by kind. A fixture that
// runs such a component standalone registers one of these instead and
// forwards the timers itself.
#pragma once

#include <functional>
#include <utility>

#include "sim/simulation.hpp"

namespace riv::sim {

class ForwardingOwner final : public TimerOwner {
 public:
  using Forward =
      std::function<void(TimerId id, std::uint16_t kind, std::uint64_t arg)>;

  ForwardingOwner(Simulation& sim, Forward forward)
      : forward_(std::move(forward)), timers_(sim, *this) {}

  ProcessTimers& timers() { return timers_; }

  void on_timer(TimerId id, std::uint16_t kind, std::uint64_t arg) override {
    forward_(id, kind, arg);
  }

 private:
  Forward forward_;
  ProcessTimers timers_;
};

}  // namespace riv::sim
