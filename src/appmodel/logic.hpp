// Logic-node execution engine.
//
// A LogicInstance is the *active* incarnation of an application's logic
// node on one process (§3.3): it owns live Window instances per (operator,
// input stream), runs trigger policies, consults the operator's Combiner,
// invokes trigger handlers, and routes emissions to downstream operators
// and actuation commands to the command sink installed by the runtime.
//
// Shadow logic nodes have no LogicInstance — they are pure placeholders.
// Distribution concerns (which process is active, how events arrive) live
// in core/; this class is deliberately single-process and is also usable
// standalone in tests.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "appmodel/graph.hpp"
#include "sim/simulation.hpp"

namespace riv::appmodel {

class LogicInstance {
 public:
  struct Callbacks {
    // Route a command to (eventually) the physical actuator.
    std::function<void(const ActuatorEdge&, const devices::Command&)>
        command_sink;
    std::function<CommandId()> next_command_id;
    // Replicated application state (optional; defaults to a local map so
    // LogicInstance stays usable standalone in tests).
    std::function<void(const std::string&, double)> kv_put;
    std::function<std::optional<double>(const std::string&)> kv_get;
    ProcessId self{};
  };

  // A periodic trigger's kind in the timer space of `timers`' owner (the
  // runtime process; a unit fixture forwards). Its arg is (app << 32 |
  // operator position << 16 | stream position), and on_periodic takes it
  // back.
  static constexpr std::uint16_t kPeriodicTimer = 6;

  // Destroying the instance (demotion, crash) cancels every pending
  // periodic trigger by id.
  LogicInstance(const AppGraph& graph, sim::ProcessTimers& timers,
                Callbacks callbacks);
  ~LogicInstance();
  LogicInstance(const LogicInstance&) = delete;
  LogicInstance& operator=(const LogicInstance&) = delete;

  // Arm periodic triggers. Safe to call once after construction.
  void start();

  // A periodic trigger fired: the kPeriodicTimer handler.
  void on_periodic(std::uint64_t arg);

  // Feed one delivered sensor event (already deduplicated by the delivery
  // service); it fans out to every operator wired to this sensor.
  void on_sensor_event(const devices::SensorEvent& e);

  // Delivery service noticed a poll-based sensor produced nothing for an
  // epoch (§4.1: Gapless "throws an exception" to the application).
  void on_staleness_violation(SensorId sensor, std::uint32_t epoch);
  using StalenessHandler = std::function<void(SensorId, std::uint32_t)>;
  void set_staleness_handler(StalenessHandler fn) {
    staleness_handler_ = std::move(fn);
  }

  // Statistics.
  std::uint64_t events_consumed() const { return events_consumed_; }
  std::uint64_t triggers_fired() const { return triggers_fired_; }
  std::uint64_t combiner_blocked() const { return combiner_blocked_; }
  std::uint64_t commands_issued() const { return commands_issued_; }
  std::uint64_t staleness_violations() const { return staleness_violations_; }

  const AppGraph& graph() const { return *graph_; }

  // --- snapshot support (DESIGN.md §16) ------------------------------
  // A snapshot carries the full live engine: window buffers, pending
  // trigger windows, the ids of the periodic timers, local KV, sequence
  // counters and provenance cursors. Restore targets a freshly
  // constructed, not-started instance built from the same graph; start()
  // afterwards is a no-op.
  void clone_state(BinaryWriter& w) const;
  void restore_clone(BinaryReader& r);

 private:
  struct Stream {
    std::string key;  // "s:<sensor>" or "o:<operator>"
    std::optional<SensorId> sensor;  // sensor streams match events on this
    Window window;
    // The triggered window (named by key) while `triggered`. Its event
    // buffer stays with the stream between triggers.
    StreamWindow pending;
    bool triggered{false};
    std::uint64_t timer_arg{0};  // this stream's kPeriodicTimer arg
    sim::TimerId periodic_timer{0};
  };
  struct OpState {
    const OperatorSpec* spec;
    std::unique_ptr<Combiner> combiner;
    std::vector<Stream> streams;
    std::vector<const ActuatorEdge*> actuators;
    std::vector<std::string> downstream_ops;
    // evaluate()'s scratch: the triggered windows, borrowed from their
    // streams for one evaluation.
    std::vector<StreamWindow> ready;
  };

  static std::string sensor_key(SensorId s) {
    return "s:" + std::to_string(s.value);
  }
  static std::string op_key(const std::string& name) { return "o:" + name; }

  // The one field list behind clone_state and restore_clone.
  template <class A, class Self>
  static void io_state(A& a, Self& s);

  void feed(OpState& op, Stream& stream, const devices::SensorEvent& e);
  void arm_periodic(Stream& stream);
  void periodic_fire(OpState& op, Stream& stream);
  void try_trigger_event_driven(OpState& op, Stream& stream);
  void take_pending(OpState& op, Stream& stream);
  void evaluate(OpState& op);
  void deliver(OpState& op);
  void emit_downstream(OpState& from, double value);

  const AppGraph* graph_;
  sim::ProcessTimers* timers_;
  Callbacks callbacks_;
  std::map<std::string, double> local_kv_;  // fallback when no store wired
  std::map<std::string, OpState> ops_;  // by operator name
  StalenessHandler staleness_handler_;
  std::uint32_t emit_seq_{1};
  bool started_{false};
  ProvenanceId last_cause_{};     // newest reading consumed, ever
  ProvenanceId trigger_cause_{};  // cause of the trigger currently firing

  std::uint64_t events_consumed_{0};
  std::uint64_t triggers_fired_{0};
  std::uint64_t combiner_blocked_{0};
  std::uint64_t commands_issued_{0};
  std::uint64_t staleness_violations_{0};
};

}  // namespace riv::appmodel
