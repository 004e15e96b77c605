// FaultInjector: applies a FaultPlan to a live HomeDeployment.
//
// Every action is scheduled on the deployment's simulation at its planned
// virtual time and recorded in the trace as it is applied (with an `(noop)`
// marker when home state made the action redundant — e.g. an edge-up
// landing inside a quiescence window that already healed the edge). The
// injector is the ONLY component that mutates fault state during a chaos
// run; together with the plan's seed-determinism this makes the recorded
// trace a complete, reproducible account of everything that went wrong.
//
// Byzantine actions (DESIGN.md §12) go through the same funnel: spoofed
// and replayed device events are injected at the victim's adapter, and a
// corrupt-process window installs the SimNetwork interposer so frames the
// compromised host forwards can be mutated, duplicated, or eaten. Every
// attack the injector actually performs emits a ground-truth kByzantine
// trace marker carrying the fault id, which is what trace_analyze --audit
// matches detector evidence against.
//
// The injector owns its action timers (DESIGN.md §9). Each carries its
// action's index in the plan, and the plan is a pure function of its
// seed, so a clone of an armed session regenerates the plan, loads it
// without scheduling, and lets the kernel restore the pending actions.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <utility>

#include "chaos/fault_plan.hpp"
#include "chaos/trace.hpp"
#include "common/rng.hpp"
#include "workload/deployment.hpp"

namespace riv::chaos {

class FaultInjector : public sim::TimerOwner {
 public:
  // `on_quiesce_end(window_start)` fires at each kQuiesceEnd mark, after
  // the home has had a full quiescence window to converge — the hook the
  // invariant checker uses for converged-state checks.
  using QuiesceHook = std::function<void(TimePoint window_start)>;

  FaultInjector(workload::HomeDeployment& home, TraceRecorder& trace);

  // Tell the injector whether the deployment's tamper-evidence layer is
  // armed. Mutation attacks are only launched when it is: an unverified
  // receiver would feed corrupt bytes to the strict internal decoders,
  // which is outside the simulated threat model (the attacker wants to
  // stay plausible, not to crash the victim). Replay eligibility also
  // widens when verification is off — see apply().
  void set_integrity_armed(bool armed) { integrity_ = armed; }

  // Schedule every action of `plan`, each shifted by `offset` (zero for a
  // normal run; warm-prefix sweeps arm each clone after a shared
  // warm-up). Call once, before or after HomeDeployment::start(), but
  // before running the simulation past the first shifted action.
  void arm(const FaultPlan& plan, QuiesceHook on_quiesce_end = {},
           Duration offset = {});
  // Everything arm() does except scheduling: a clone of an armed session
  // loads the plan here, and the kernel restores the action timers.
  void load(const FaultPlan& plan, QuiesceHook on_quiesce_end,
            Duration offset);

  // Actions that changed home state when applied.
  std::size_t injected() const { return injected_; }
  // Actions that landed on already-satisfied state (recorded "(noop)").
  std::size_t noops() const { return noops_; }
  // Byzantine attacks actually performed (spoof/replay injections plus
  // interposer mutate/dup/drop events) — each emitted a kByzantine marker.
  std::size_t attacks() const { return attacks_; }

  // Snapshot state (DESIGN.md §13): the plan cursors — action sequence,
  // applied/noop split, attack randomness stream, quiescence window,
  // link-loss baselines, corrupt-window state. Until arm() they hold
  // their construction-time values. restore_clone overwrites them, after
  // load() when a plan was armed.
  void clone_state(BinaryWriter& w) const;
  void restore_clone(BinaryReader& r);

 private:
  // An action timer fired; arg is the action's index in plan_.
  void on_timer(sim::TimerId id, std::uint16_t kind,
                std::uint64_t arg) override;
  void apply(const FaultAction& action);
  // Restore every device link touched by a loss ramp to its baseline.
  void restore_device_links();
  // SimNetwork hook for the corrupt-process window; returns the number of
  // copies to transmit (0 eats the frame).
  int interpose(net::Message& msg);
  void mark_net_attack(const net::Message& msg, const char* what);
  // The one field list behind clone_state and restore_clone.
  template <class A, class Self>
  static void io_state(A& a, Self& s);

  workload::HomeDeployment* home_;
  TraceRecorder* trace_;
  QuiesceHook on_quiesce_end_;
  // Baseline loss of device links, snapshotted before the first override.
  std::map<std::pair<SensorId, ProcessId>, double> base_link_loss_;
  TimePoint window_start_{};
  // seq_ numbers EVERY action in plan order (applied or noop): it is the
  // fault id attacks and audit attribution reference, and must stay
  // stable across accounting changes. injected_/noops_ split the same
  // total into "changed state" vs "(noop)".
  std::size_t seq_{0};
  std::size_t injected_{0};
  std::size_t noops_{0};
  std::size_t attacks_{0};
  bool integrity_{false};
  // Attack-time randomness (mutation byte picks, interposer rolls); forked
  // deterministically from the plan seed in arm().
  Rng byz_rng_{0};
  std::optional<ProcessId> corrupt_pid_;
  std::size_t corrupt_fault_id_{0};
  FaultPlan plan_;
  sim::ProcessTimers timers_;
};

}  // namespace riv::chaos
