// Simulated physical actuators (§5).
//
// Two device classes matter to the execution service:
//   * idempotent actuators (bulbs, switches, sirens, thermostats, locks):
//     re-applying a command is harmless — set(state) twice equals once;
//   * non-idempotent actuators (water dispensers, coffee makers): every
//     accepted command performs a physical action, so duplicates are
//     "unwarranted actions". Devices that support Test&Set accept a
//     command only when the device state matches the command's expected
//     value, which is how concurrent logic nodes avoid duplicates.
// The actuator records everything it does so tests and benches can count
// duplicate deliveries and unwarranted actions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "devices/adapters.hpp"
#include "devices/event.hpp"
#include "sim/simulation.hpp"
#include "sim/timer_table.hpp"

namespace riv::devices {

struct ActuatorSpec {
  ActuatorId id{};
  std::string name;
  Technology tech{Technology::kIp};
  bool idempotent{true};
  bool supports_test_and_set{false};
  Duration actuate_latency{milliseconds(15)};  // command -> physical effect
  double initial_state{0.0};
};

class Actuator : public sim::TimerOwner {
 public:
  struct Applied {
    CommandId id{};
    double value{0.0};
    TimePoint at{};
    bool accepted{false};
    ProvenanceId cause{};  // the sensor reading the command reacted to

    template <class A, class Self>
    static void io_state(A& a, Self& x) {
      io(a, x.id);
      io(a, x.value);
      io(a, x.at);
      io(a, x.accepted);
      io(a, x.cause);
    }
  };

  Actuator(sim::Simulation& sim, ActuatorSpec spec, Rng rng);

  const ActuatorSpec& spec() const { return spec_; }
  ActuatorId id() const { return spec_.id; }

  void add_link(ProcessId process, double loss_prob = 0.0);
  bool linked_to(ProcessId process) const;
  std::vector<ProcessId> linked_processes() const;

  // Submit a command over `from`'s link; takes effect after the link and
  // device latencies unless the actuator is crashed (§3.1: a faulty
  // actuator simply does not respond).
  void submit(ProcessId from, const Command& cmd);

  void crash();
  void recover() { crashed_ = false; }
  bool crashed() const { return crashed_; }

  double state() const { return state_; }
  const std::vector<Applied>& history() const { return history_; }

  // Number of accepted commands that caused a physical action.
  std::uint64_t actions() const { return actions_; }
  // Same CommandId applied more than once (harmless iff idempotent).
  std::uint64_t duplicate_deliveries() const { return duplicate_deliveries_; }
  // Duplicate physical actions on a non-idempotent device — the failure
  // mode §5's Test&Set discussion is about.
  std::uint64_t unwarranted_actions() const { return unwarranted_actions_; }
  std::uint64_t rejected_test_and_set() const { return rejected_tas_; }

  // --- snapshot support (DESIGN.md §16) ------------------------------
  // clone_state writes links, RNG stream, physical state, command dedup
  // set, applied history, counters, and the commands in flight to the
  // device with their timer ids (mirrors Sensor).
  void clone_state(BinaryWriter& w) const;
  void restore_clone(BinaryReader& r);

 private:
  // A command's arrival at the device; the one timer kind. The command
  // lives in in_flight_.
  static constexpr std::uint16_t kCommandTimer = 0;

  void on_timer(sim::TimerId id, std::uint16_t kind,
                std::uint64_t arg) override;
  void apply(const Command& cmd);
  // The one field list behind clone_state and restore_clone.
  template <class A, class Self>
  static void io_state(A& a, Self& s);

  sim::Simulation* sim_;
  ActuatorSpec spec_;
  Rng rng_;
  std::map<ProcessId, double> links_;  // process -> loss probability

  bool crashed_{false};
  double state_;
  std::set<CommandId> seen_;
  std::vector<Applied> history_;
  std::uint64_t actions_{0};
  std::uint64_t duplicate_deliveries_{0};
  std::uint64_t unwarranted_actions_{0};
  std::uint64_t rejected_tas_{0};

  sim::ProcessTimers timers_;
  sim::TimerTable<Command> in_flight_;
};

}  // namespace riv::devices
