#include "appmodel/logic.hpp"

#include <iterator>
#include <limits>

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace riv::appmodel {

LogicInstance::LogicInstance(const AppGraph& graph,
                             sim::ProcessTimers& timers, Callbacks callbacks)
    : graph_(&graph), timers_(&timers), callbacks_(std::move(callbacks)) {
  for (const OperatorSpec& spec : graph.operators) {
    OpState state;
    state.spec = &spec;
    state.combiner = spec.combiner->clone();
    ops_.emplace(spec.name, std::move(state));
  }
  for (const SensorEdge& e : graph.sensor_edges) {
    OpState& op = ops_.at(e.to_op);
    const std::string key = sensor_key(e.sensor);
    op.streams.push_back(
        Stream{key, e.sensor, Window(e.window), StreamWindow{key, {}}});
  }
  for (const OperatorEdge& e : graph.operator_edges) {
    OpState& to = ops_.at(e.to_op);
    const std::string key = op_key(e.from_op);
    to.streams.push_back(
        Stream{key, std::nullopt, Window(e.window), StreamWindow{key, {}}});
    ops_.at(e.from_op).downstream_ops.push_back(e.to_op);
  }
  for (const ActuatorEdge& e : graph.actuator_edges)
    ops_.at(e.from_op).actuators.push_back(&e);
  std::uint64_t op_pos = 0;
  for (auto& [name, op] : ops_) {
    for (std::uint64_t j = 0; j < op.streams.size(); ++j)
      op.streams[j].timer_arg =
          std::uint64_t{graph.id.value} << 32 | op_pos << 16 | j;
    ++op_pos;
  }
}

LogicInstance::~LogicInstance() {
  for (auto& [name, op] : ops_)
    for (const Stream& stream : op.streams)
      timers_->cancel(stream.periodic_timer);
}

void LogicInstance::start() {
  if (started_) return;
  started_ = true;
  for (auto& [name, op] : ops_) {
    for (Stream& stream : op.streams) {
      if (stream.window.spec().trigger.kind == TriggerPolicy::Kind::kPeriodic)
        arm_periodic(stream);
    }
  }
}

void LogicInstance::arm_periodic(Stream& stream) {
  Duration period = stream.window.spec().trigger.period;
  RIV_ASSERT(period.us > 0, "periodic trigger needs a positive period");
  stream.periodic_timer =
      timers_->schedule_after(period, kPeriodicTimer, stream.timer_arg);
}

void LogicInstance::on_periodic(std::uint64_t arg) {
  const auto op_pos = static_cast<std::ptrdiff_t>((arg >> 16) & 0xffff);
  OpState& op = std::next(ops_.begin(), op_pos)->second;
  periodic_fire(op, op.streams[arg & 0xffff]);
}

void LogicInstance::periodic_fire(OpState& op, Stream& stream) {
  take_pending(op, stream);
  evaluate(op);
  arm_periodic(stream);
}

void LogicInstance::on_sensor_event(const devices::SensorEvent& e) {
  ++events_consumed_;
  last_cause_ = provenance_of(e.id);
  for (auto& [name, op] : ops_) {
    for (Stream& stream : op.streams) {
      if (stream.sensor == e.id.sensor) feed(op, stream, e);
    }
  }
}

void LogicInstance::feed(OpState& op, Stream& stream,
                         const devices::SensorEvent& e) {
  stream.window.add(e, timers_->now());
  try_trigger_event_driven(op, stream);
}

void LogicInstance::try_trigger_event_driven(OpState& op, Stream& stream) {
  if (!stream.window.event_trigger_ready()) return;
  take_pending(op, stream);
  evaluate(op);
}

void LogicInstance::take_pending(OpState& op, Stream& stream) {
  (void)op;
  // An empty window never counts as "ready", and leaves an earlier
  // triggered window in place.
  if (!stream.window.snapshot(timers_->now(), stream.pending.events)) return;
  stream.triggered = true;
  stream.window.after_trigger(timers_->now());
}

void LogicInstance::evaluate(OpState& op) {
  // The triggered windows move into the operator's `ready` scratch and,
  // delivered or blocked, back to their streams in the same order, so an
  // evaluation copies no events and allocates nothing once the buffers
  // have grown. The graph is acyclic, so the handler cannot feed this
  // operator and no stream's `triggered` changes before the hand-back.
  std::vector<StreamWindow>& ready = op.ready;
  for (Stream& stream : op.streams)
    if (stream.triggered) ready.push_back(std::move(stream.pending));
  if (ready.empty()) return;
  const bool fire = op.combiner->should_deliver(ready, op.streams.size());
  if (fire) {
    deliver(op);
  } else {
    ++combiner_blocked_;
  }
  auto back = ready.begin();
  for (Stream& stream : op.streams) {
    if (!stream.triggered) continue;
    stream.pending = std::move(*back++);
    stream.triggered = !fire;
  }
  ready.clear();
}

void LogicInstance::deliver(OpState& op) {
  const std::vector<StreamWindow>& ready = op.ready;
  ++triggers_fired_;
  // The trigger's causal id: the newest real sensor reading among the
  // windows that fired. Derived (downstream) events carry the synthetic
  // sensor 0xffff and are skipped; a purely-derived or purely-periodic
  // firing falls back to the last reading the instance consumed.
  trigger_cause_ = last_cause_;
  TimePoint newest{std::numeric_limits<std::int64_t>::min()};
  for (const StreamWindow& w : ready) {
    for (const devices::SensorEvent& e : w.events) {
      if (e.id.sensor.value != 0xffff && e.emitted_at >= newest) {
        newest = e.emitted_at;
        trigger_cause_ = provenance_of(e.id);
      }
    }
  }
  if (trace::active(trace::Component::kRuntime)) {
    trace::emit(timers_->now(), callbacks_.self, trace::Component::kRuntime,
                trace::Kind::kLogicFire, trigger_cause_,
                trace::fu(trace::Key::kApp, graph_->id.value),
                trace::fs(trace::Key::kOp, op.spec->name));
  }
  if (!op.spec->handler) return;

  TriggerContext ctx;
  ctx.self_ = callbacks_.self;
  ctx.now_fn = [this] { return timers_->now(); };
  ctx.kv_put_fn = [this](const std::string& key, double value) {
    if (callbacks_.kv_put) {
      callbacks_.kv_put(key, value);
    } else {
      local_kv_[key] = value;
    }
  };
  ctx.kv_get_fn =
      [this](const std::string& key) -> std::optional<double> {
    if (callbacks_.kv_get) return callbacks_.kv_get(key);
    auto it = local_kv_.find(key);
    if (it == local_kv_.end()) return std::nullopt;
    return it->second;
  };
  ctx.emit_fn = [this, &op](double value) { emit_downstream(op, value); };
  ctx.actuate_fn = [this, &op](ActuatorId actuator, bool tas, double expected,
                               double value) {
    const ActuatorEdge* edge = nullptr;
    for (const ActuatorEdge* e : op.actuators) {
      if (e->actuator == actuator) edge = e;
    }
    RIV_ASSERT(edge != nullptr,
               "handler actuated a device not wired to this operator");
    devices::Command cmd;
    cmd.id = callbacks_.next_command_id();
    cmd.actuator = actuator;
    cmd.test_and_set = tas;
    cmd.expected = expected;
    cmd.value = value;
    cmd.issued_at = timers_->now();
    cmd.cause = trigger_cause_;
    ++commands_issued_;
    callbacks_.command_sink(*edge, cmd);
  };
  op.spec->handler(ready, ctx);
}

void LogicInstance::emit_downstream(OpState& from, double value) {
  // Derived events carry no sensor identity; downstream streams are keyed
  // by the emitting operator's name.
  devices::SensorEvent e;
  e.id = EventId{SensorId{0xffff}, emit_seq_++};
  e.emitted_at = timers_->now();
  e.value = value;
  e.payload_size = 8;
  const std::string key = op_key(from.spec->name);
  for (const std::string& down : from.downstream_ops) {
    OpState& op = ops_.at(down);
    for (Stream& stream : op.streams) {
      if (stream.key == key) feed(op, stream, e);
    }
  }
}

void LogicInstance::on_staleness_violation(SensorId sensor,
                                           std::uint32_t epoch) {
  ++staleness_violations_;
  if (staleness_handler_) staleness_handler_(sensor, epoch);
}

void LogicInstance::clone_state(BinaryWriter& w) const { io_state(w, *this); }

void LogicInstance::restore_clone(BinaryReader& r) { io_state(r, *this); }

template <class A, class Self>
void LogicInstance::io_state(A& a, Self& s) {
  if constexpr (A::kReads)
    RIV_ASSERT(!s.started_, "clone restore requires a not-started instance");
  const sim::Simulation& kernel = s.timers_->sim();
  expect(a, std::uint64_t{s.ops_.size()},
         "clone restore: operator count mismatch");
  for (auto& [name, op] : s.ops_) {
    expect(a, name, "clone restore: operator order mismatch");
    expect(a, std::uint64_t{op.streams.size()},
           "clone restore: stream count mismatch");
    for (auto& stream : op.streams) {
      io(a, stream.window);
      // Presence, then the events: the layout of an optional window.
      io(a, stream.triggered);
      if (stream.triggered) io(a, stream.pending.events);
      // A fired or cancelled timer leaves its id behind: captured as 0.
      io_via(
          a, stream.periodic_timer,
          [&kernel](sim::TimerId id) {
            return kernel.is_pending(id) ? id : 0;
          },
          std::identity{});
    }
  }
  io(a, s.local_kv_);
  io(a, s.emit_seq_);
  io(a, s.started_);
  io(a, s.last_cause_);
  io(a, s.trigger_cause_);
  io(a, s.events_consumed_);
  io(a, s.triggers_fired_);
  io(a, s.combiner_blocked_);
  io(a, s.commands_issued_);
  io(a, s.staleness_violations_);
}

}  // namespace riv::appmodel
