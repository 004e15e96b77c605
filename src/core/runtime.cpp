#include "core/runtime.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/exec/placement.hpp"
#include "core/wire.hpp"
#include "trace/trace.hpp"

namespace riv::core {
namespace {

// Next process after `self` in the sorted circular order of `view`.
std::optional<ProcessId> ring_successor(ProcessId self,
                                        const std::set<ProcessId>& view) {
  if (view.size() <= 1) return std::nullopt;
  auto it = view.upper_bound(self);
  if (it == view.end()) it = view.begin();
  if (*it == self) return std::nullopt;
  return *it;
}

}  // namespace

RivuletProcess::RivuletProcess(sim::Simulation& sim, net::SimNetwork& net,
                               devices::HomeBus& bus, ProcessId self,
                               std::vector<ProcessId> all, Config config,
                               metrics::Registry& metrics)
    : sim_(&sim),
      net_(&net),
      bus_(&bus),
      self_(self),
      all_(std::move(all)),
      config_(config),
      metrics_(&metrics),
      timers_(sim, *this) {
  std::sort(all_.begin(), all_.end());
}

RivuletProcess::~RivuletProcess() {
  if (up_) crash();
}

void RivuletProcess::deploy(
    std::shared_ptr<const appmodel::AppGraph> graph) {
  RIV_ASSERT(graph != nullptr, "null app graph");
  graph->validate();
  deployed_.push_back(std::move(graph));
  if (up_) {
    // Hot deploy: rebuild app state for the new graph only, counting the
    // load the already-running apps impose.
    const auto& g = deployed_.back();
    std::map<ProcessId, int> load;
    for (const auto& [id, existing] : apps_) {
      if (!existing.chain.empty()) ++load[existing.chain.front()];
    }
    AppState& app = apps_[g->id];
    app.graph = g;
    build_app_state(app, load);
    evaluate_role(g->id, app);
  }
}

void RivuletProcess::start() {
  RIV_ASSERT(!up_, "process already running");
  up_ = true;
  started_ = true;
  net_->set_process_up(self_, true);
  build_state();
}

void RivuletProcess::crash() {
  if (!up_) return;
  up_ = false;
  if (trace::active(trace::Component::kRuntime)) {
    trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                trace::Kind::kCrash);
  }
  net_->set_process_up(self_, false);
  teardown_state();
}

void RivuletProcess::recover() {
  RIV_ASSERT(started_, "recover() before first start()");
  if (up_) return;
  up_ = true;
  if (trace::active(trace::Component::kRuntime)) {
    trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                trace::Kind::kRecover);
  }
  net_->set_process_up(self_, true);
  for (auto& [id, log] : logs_) log.recover();
  build_state();
}

void RivuletProcess::teardown_state() {
  bus_->unsubscribe(self_);
  net_->endpoint(self_).set_handler({});
  apps_.clear();
  kv_.reset();
  fd_.reset();
  timers_.cancel_all();
}

store::ReplicatedStore& RivuletProcess::kv() {
  RIV_ASSERT(kv_ != nullptr, "kv() on a crashed process");
  return *kv_;
}

void RivuletProcess::build_state() {
  build_volatile_shell();

  fd_->start();
  kv_->start();
  for (auto& [id, app] : apps_) {
    for (auto& [sensor, stream] : app.streams) {
      if (stream.gapless) stream.gapless->start();
      if (stream.gap) stream.gap->start();
    }
    evaluate_role(id, app);
  }

  // Initial sync plus periodic anti-entropy (see kSyncPeriod).
  sync_rings(/*force=*/true);
  timers_.schedule_after(kSyncPeriod, kPeriodicTimer);
}

void RivuletProcess::on_timer(sim::TimerId /*id*/, std::uint16_t kind,
                              std::uint64_t arg) {
  switch (kind) {
    case kPeriodicTimer:
      sync_rings(/*force=*/true);
      retry_pending_commands();
      timers_.schedule_after(kSyncPeriod, kPeriodicTimer);
      break;
    case membership::FailureDetector::kTickTimer:
      fd_->tick();
      break;
    case store::ReplicatedStore::kSyncTimer:
      kv_->anti_entropy();
      break;
    case GapStream::kEpochTimer:
      stream_for_timer(arg).gap->on_epoch_boundary(stream_timer_epoch(arg));
      break;
    case GaplessStream::kEpochTimer:
      stream_for_timer(arg).gapless->on_epoch_boundary(
          stream_timer_epoch(arg));
      break;
    case GaplessStream::kSlotTimer:
      stream_for_timer(arg).gapless->on_poll_slot(stream_timer_epoch(arg));
      break;
    case appmodel::LogicInstance::kPeriodicTimer:
      apps_.at(AppId{static_cast<std::uint16_t>(arg >> 32)})
          .logic->on_periodic(arg);
      break;
  }
}

RivuletProcess::StreamState& RivuletProcess::stream_for_timer(
    std::uint64_t arg) {
  return apps_.at(stream_timer_app(arg))
      .streams.at(stream_timer_sensor(arg));
}

void RivuletProcess::build_volatile_shell() {
  fd_ = std::make_unique<membership::FailureDetector>(
      timers_, net_->endpoint(self_), all_, config_.membership);
  fd_->set_on_view_change([this](const std::set<ProcessId>&) {
    on_view_change();
  });
  fd_->set_payload_provider(
      [this](std::vector<std::byte>& out) { keepalive_payload(out); });
  fd_->set_payload_handler(
      [this](ProcessId from, const std::vector<std::byte>& piggyback) {
        return on_watermarks(from, piggyback);
      });

  store::ReplicatedStore::Hooks kv_hooks;
  kv_hooks.self = self_;
  kv_hooks.send = [this](ProcessId dst, bool is_sync, net::Payload payload) {
    net_->endpoint(self_).send(
        dst, is_sync ? net::MsgType::kStoreSync : net::MsgType::kStorePut,
        std::move(payload));
  };
  kv_hooks.view = [this]() -> const std::set<ProcessId>& {
    return fd_->view();
  };
  kv_hooks.timers = &timers_;
  kv_hooks.stable = &store_;
  kv_ = std::make_unique<store::ReplicatedStore>(std::move(kv_hooks));

  apps_.clear();
  // Chains are computed in deploy order with a running load count, so the
  // kLoadBalanced policy spreads apps deterministically and every process
  // derives identical chains.
  std::map<ProcessId, int> load;
  for (const auto& graph : deployed_) {
    AppState& app = apps_[graph->id];
    app.graph = graph;
    build_app_state(app, load);
    if (!app.chain.empty()) ++load[app.chain.front()];
  }

  net_->endpoint(self_).set_handler(
      [this](const net::Message& msg) { on_message(msg); });
  bus_->subscribe(self_, [this](const devices::SensorEvent& e) {
    on_device_event(e);
  });
}

void RivuletProcess::build_app_state(AppState& app,
                                     const std::map<ProcessId, int>& load) {
  const appmodel::AppGraph& graph = *app.graph;
  auto it = config_.placement_override.find(graph.id);
  app.chain = it != config_.placement_override.end()
                  ? it->second
                  : placement_chain(graph, *bus_, all_,
                                    config_.placement_policy, load);

  app.log = &logs_.try_emplace(graph.id).first->second;
  app.last_successor.reset();
  app.commands_seen.clear();
  app.pending_commands.clear();
  app.delivered = 0;
  app.logic.reset();

  // One delivery stream per distinct sensor; if several edges reference
  // the same sensor the strongest guarantee wins and the first poll-based
  // policy applies.
  app.streams.clear();
  for (const appmodel::SensorEdge& edge : graph.sensor_edges) {
    auto sit = app.streams.find(edge.sensor);
    if (sit == app.streams.end()) {
      app.streams.emplace(edge.sensor, make_stream(app, edge));
    } else if (edge.guarantee == appmodel::Guarantee::kGapless &&
               sit->second.edge.guarantee == appmodel::Guarantee::kGap) {
      app.streams.erase(sit);
      app.streams.emplace(edge.sensor, make_stream(app, edge));
    }
  }
}

RivuletProcess::StreamState RivuletProcess::make_stream(
    AppState& app, const appmodel::SensorEdge& edge) {
  const AppId app_id = app.graph->id;

  StreamContext ctx;
  ctx.self = self_;
  ctx.app = app_id;
  ctx.edge = edge;
  ctx.in_range = bus_->sensor_in_range(self_, edge.sensor);
  ctx.all_processes = all_;
  std::vector<ProcessId> in_range;
  for (ProcessId p : bus_->processes_in_range(edge.sensor)) {
    if (std::find(all_.begin(), all_.end(), p) != all_.end())
      in_range.push_back(p);
  }
  std::sort(in_range.begin(), in_range.end());
  ctx.in_range_processes = std::move(in_range);

  ctx.view = [this]() -> const std::set<ProcessId>& { return fd_->view(); };
  ctx.chain = [&app]() -> const std::vector<ProcessId>& {
    return app.chain;
  };
  ctx.logic_active_here = [&app] { return app.logic != nullptr; };
  ctx.deliver = [this, app_id, &app](const devices::SensorEvent& e) {
    if (app.logic) deliver_to_logic(app_id, app, e);
  };
  ctx.send = [this](ProcessId dst, net::MsgType type, net::Payload payload) {
    net_->endpoint(self_).send(dst, type, std::move(payload));
  };
  SensorId sensor = edge.sensor;
  // Both callbacks fire repeatedly; resolve their counters once.
  ctx.staleness = [this, app_id, &app, sensor,
                   c = static_cast<metrics::Counter*>(nullptr)](
                      std::uint32_t epoch) mutable {
    if (c == nullptr)
      c = &metrics_->counter(metric_prefix(app_id) + ".staleness");
    c->add(1);
    if (app.logic) app.logic->on_staleness_violation(sensor, epoch);
  };
  ctx.poll = [this, sensor, c = static_cast<metrics::Counter*>(nullptr)](
                 std::uint32_t epoch) mutable {
    if (c == nullptr)
      c = &metrics_->counter("polls.issued.s" +
                             std::to_string(sensor.value));
    c->add(1);
    bus_->poll(self_, sensor, epoch);
  };
  if (config_.integrity) {
    ctx.seal = [this](std::vector<std::byte>& buf, std::uint64_t chain) {
      wire::seal(buf, config_.integrity_key, chain);
    };
  }
  ctx.timers = &timers_;
  ctx.log = app.log;

  StreamState state;
  state.edge = edge;
  if (edge.guarantee == appmodel::Guarantee::kGapless) {
    state.gapless = std::make_unique<GaplessStream>(std::move(ctx));
  } else {
    state.gap = std::make_unique<GapStream>(std::move(ctx));
  }
  return state;
}

// --- device ingest -------------------------------------------------------

void RivuletProcess::on_device_event(const devices::SensorEvent& e) {
  if (config_.integrity) {
    // Radio-hop authenticity: a forged event fails the keyed MAC (it
    // commits to every field plus the origin's chain digest)...
    if (devices::event_mac(config_.integrity_key, e) != e.mac) {
      if (trace::active(trace::Component::kRuntime)) {
        trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                    trace::Kind::kTamper, provenance_of(e.id),
                    trace::fe(trace::Key::kEvent, e.id),
                    trace::fs(trace::Key::kText, "spoof"));
      }
      return;
    }
    // ...while a replayed genuine event passes it and is caught here:
    // every sensor emission carries a fresh seq (polls included), so a
    // seq this process already ingested can only be a re-injection.
    if (!device_seqs_seen_[e.id.sensor].insert(e.id.seq)) {
      if (trace::active(trace::Component::kRuntime)) {
        trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                    trace::Kind::kTamper, provenance_of(e.id),
                    trace::fe(trace::Key::kEvent, e.id),
                    trace::fs(trace::Key::kText, "replay"));
      }
      return;
    }
  }
  metrics::Counter*& ingest = ingest_counters_[e.id.sensor];
  if (ingest == nullptr) {
    ingest = &metrics_->counter("ingest.p" + std::to_string(self_.value) +
                                ".s" + std::to_string(e.id.sensor.value));
  }
  ingest->add(1);
  for (auto& [id, app] : apps_) {
    auto it = app.streams.find(e.id.sensor);
    if (it == app.streams.end()) continue;
    if (it->second.gapless)
      it->second.gapless->on_device_event(e);
    else
      it->second.gap->on_device_event(e);
  }
}

// --- message dispatch ----------------------------------------------------

template <class Frame>
bool RivuletProcess::open(const net::Message& msg, Frame& f) {
  const std::vector<std::byte>* body = &msg.payload.bytes();
  wire::IntegrityTrailer tr;
  if constexpr (requires { Frame::kSealed; }) {
    if (config_.integrity) {
      if (!wire::verify_and_strip(msg.payload, config_.integrity_key,
                                  unseal_scratch_, &tr)) {
        reject(msg, "bad_mac");
        return false;
      }
      body = &unseal_scratch_;
    }
  }
  if (!wire::decode(*body, f)) {
    reject(msg, "bad_frame");
    return false;
  }
  // chain travels only in the trailer (the base encoding is untouched);
  // restore it so onward forwards re-seal correctly.
  if constexpr (requires { f.event.chain; }) f.event.chain = tr.chain;
  return true;
}

void RivuletProcess::reject(const net::Message& msg, const char* why) {
  if (trace::active(trace::Component::kRuntime)) {
    trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                trace::Kind::kTamper,
                trace::fs(trace::Key::kType, net::to_string(msg.type)),
                trace::fp(trace::Key::kSrc, msg.src),
                trace::fs(trace::Key::kText, why));
  }
}

void RivuletProcess::on_message(const net::Message& msg) {
  // The stream an event frame is for, if this process runs one.
  auto stream = [this](AppId app, SensorId sensor) -> StreamState* {
    auto ait = apps_.find(app);
    if (ait == apps_.end()) return nullptr;
    auto sit = ait->second.streams.find(sensor);
    return sit == ait->second.streams.end() ? nullptr : &sit->second;
  };
  switch (msg.type) {
    case net::MsgType::kKeepAlive:
      if (!fd_->on_keepalive(msg)) reject(msg, "bad_frame");
      return;
    case net::MsgType::kRingEvent: {
      // Scratch frame: ring events dominate message traffic, and the
      // handlers below never re-enter this decode (sends only schedule
      // future deliveries), so the S/V buffers can be reused across
      // messages. thread_local for the parallel seed-sweep runner.
      thread_local wire::RingPayload p;
      if (!open(msg, p)) return;
      StreamState* s = stream(p.app, p.sensor);
      if (s != nullptr && s->gapless) s->gapless->on_ring(msg.src, p);
      return;
    }
    case net::MsgType::kRbEvent: {
      wire::EventPayload p;
      if (!open(msg, p)) return;
      StreamState* s = stream(p.app, p.sensor);
      if (s != nullptr && s->gapless) s->gapless->on_rb(msg.src, p);
      return;
    }
    case net::MsgType::kGapForward: {
      wire::EventPayload p;
      if (!open(msg, p)) return;
      StreamState* s = stream(p.app, p.sensor);
      if (s != nullptr && s->gap) s->gap->on_forward(msg.src, p);
      return;
    }
    case net::MsgType::kSyncRequest:
      handle_sync_request(msg);
      return;
    case net::MsgType::kSyncResponse:
      handle_sync_response(msg);
      return;
    case net::MsgType::kCommand:
      handle_command(msg);
      return;
    case net::MsgType::kCommandAck: {
      wire::CommandAck ack;
      if (!open(msg, ack)) return;
      auto ait = apps_.find(ack.app);
      if (ait != apps_.end()) ait->second.pending_commands.erase(ack.command);
      return;
    }
    case net::MsgType::kStorePut:
      if (!kv_->on_update(msg.payload)) reject(msg, "bad_frame");
      return;
    case net::MsgType::kStoreSync:
      if (!kv_->on_sync(msg.payload)) reject(msg, "bad_frame");
      return;
    case net::MsgType::kPromote:
      handle_role_change(msg, /*promote=*/true);
      return;
    case net::MsgType::kDemote:
      handle_role_change(msg, /*promote=*/false);
      return;
  }
}

// --- membership reactions --------------------------------------------------

void RivuletProcess::on_view_change() {
  for (auto& [id, app] : apps_) evaluate_role(id, app);
  sync_rings(/*force=*/false);
}

void RivuletProcess::sync_rings(bool force) {
  const std::set<ProcessId>& view = fd_->view();
  for (auto& [id, app] : apps_) {
    bool any_gapless = false;
    for (const auto& [sensor, stream] : app.streams)
      any_gapless |= stream.gapless != nullptr;
    if (!any_gapless) continue;
    std::optional<ProcessId> succ = ring_successor(self_, view);
    bool changed = succ != app.last_successor;
    app.last_successor = succ;
    if (succ && (changed || force)) {
      net_->endpoint(self_).send(*succ, net::MsgType::kSyncRequest,
                                 wire::encode(wire::AppFrame{id}));
    }
  }
}

void RivuletProcess::handle_sync_request(const net::Message& msg) {
  wire::AppFrame req;
  if (!open(msg, req)) return;
  auto ait = apps_.find(req.app);
  if (ait == apps_.end()) return;
  wire::SyncResponse resp;
  resp.app = req.app;
  for (const auto& [sensor, stream] : ait->second.streams) {
    if (stream.gapless)
      resp.streams.push_back(ait->second.log->summary(sensor));
  }
  net_->endpoint(self_).send(msg.src, net::MsgType::kSyncResponse,
                             wire::encode(resp));
}

void RivuletProcess::handle_sync_response(const net::Message& msg) {
  wire::SyncResponse resp;
  if (!open(msg, resp)) return;
  auto ait = apps_.find(resp.app);
  if (ait == apps_.end()) return;
  for (const wire::SyncSummary& theirs : resp.streams) {
    auto sit = ait->second.streams.find(theirs.sensor);
    if (sit != ait->second.streams.end() && sit->second.gapless)
      sit->second.gapless->sync_successor(msg.src, theirs);
  }
}

// --- execution service -----------------------------------------------------

std::size_t RivuletProcess::rank_of(const AppState& app, ProcessId p) const {
  auto it = std::find(app.chain.begin(), app.chain.end(), p);
  return it == app.chain.end()
             ? app.chain.size()
             : static_cast<std::size_t>(it - app.chain.begin());
}

void RivuletProcess::evaluate_role(AppId id, AppState& app) {
  std::optional<ProcessId> cand = first_alive(app.chain, fd_->view());
  if (!cand) return;  // we are not even in the chain
  if (*cand == self_ && app.logic == nullptr) {
    promote(id, app);
  } else if (*cand != self_ && app.logic != nullptr) {
    demote(id, app);
  }
}

void RivuletProcess::make_logic(AppId id, AppState& app) {
  appmodel::LogicInstance::Callbacks cb;
  cb.self = self_;
  cb.next_command_id = [this] {
    return CommandId{self_, next_cmd_seq_++};
  };
  cb.kv_put = [this](const std::string& key, double value) {
    kv_->put(key, value);
  };
  cb.kv_get = [this](const std::string& key) { return kv_->get(key); };
  cb.command_sink = [this, id, &app](const appmodel::ActuatorEdge& edge,
                                     const devices::Command& cmd) {
    route_command(id, app, edge, cmd);
  };
  app.logic = std::make_unique<appmodel::LogicInstance>(*app.graph, timers_,
                                                        std::move(cb));
}

void RivuletProcess::promote(AppId id, AppState& app) {
  if (trace::active(trace::Component::kRuntime)) {
    trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                trace::Kind::kPromote, trace::fu(trace::Key::kApp, id.value));
  }
  make_logic(id, app);
  app.instance_delivered.clear();  // fresh instance epoch
  app.logic->start();
  metrics_->counter(metric_prefix(id) + ".promotions").add(1);
  replay_backlog(id, app);
  net::Payload rc = wire::encode(wire::AppFrame{id});  // shared by all peers
  for (ProcessId p : fd_->view()) {
    if (p != self_)
      net_->endpoint(self_).send(p, net::MsgType::kPromote, rc);
  }
}

void RivuletProcess::demote(AppId id, AppState& app) {
  if (trace::active(trace::Component::kRuntime)) {
    trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                trace::Kind::kDemote, trace::fu(trace::Key::kApp, id.value));
  }
  app.logic.reset();
  metrics_->counter(metric_prefix(id) + ".demotions").add(1);
  net::Payload rc = wire::encode(wire::AppFrame{id});  // shared by all peers
  for (ProcessId p : fd_->view()) {
    if (p != self_)
      net_->endpoint(self_).send(p, net::MsgType::kDemote, rc);
  }
}

void RivuletProcess::replay_backlog(AppId id, AppState& app) {
  // Deliver every Gapless event past the gossiped processed watermark —
  // the "spike" of Fig 7. Gap streams replay nothing by design.
  for (auto& [sensor, stream] : app.streams) {
    if (!stream.gapless) continue;
    TimePoint hw = app.log->processed_watermark(sensor);
    for (const StoredEvent* se : app.log->events_after(sensor, hw))
      deliver_to_logic(id, app, se->event);
  }
}

void RivuletProcess::handle_role_change(const net::Message& msg,
                                        bool promote_msg) {
  wire::AppFrame rc;
  if (!open(msg, rc)) return;
  const AppId id = rc.app;
  auto ait = apps_.find(id);
  if (ait == apps_.end()) return;
  AppState& app = ait->second;
  if (promote_msg) {
    if (app.logic != nullptr) {
      if (rank_of(app, msg.src) < rank_of(app, self_)) {
        // A higher-priority process asserted itself: step down (§5).
        demote(id, app);
      } else {
        // We outrank the sender; re-assert so it steps down (bully).
        net_->endpoint(self_).send(msg.src, net::MsgType::kPromote,
                                   wire::encode(rc));
      }
    }
  } else {
    evaluate_role(id, app);
  }
}

// --- delivery to logic -------------------------------------------------------

void RivuletProcess::deliver_to_logic(AppId id, AppState& app,
                                      const devices::SensorEvent& e) {
  RIV_ASSERT(app.logic != nullptr, "delivering to a shadow logic node");
  ++app.delivered;
  if (trace::active(trace::Component::kRuntime)) {
    trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                trace::Kind::kDeliver, provenance_of(e.id),
                trace::fu(trace::Key::kApp, id.value),
                trace::fe(trace::Key::kEvent, e.id));
  }
  if (!app.instance_delivered.insert(e.id)) {
    if (app.m_dup_instance == nullptr)
      app.m_dup_instance =
          &metrics_->counter(metric_prefix(id) + ".dup_instance_delivery");
    app.m_dup_instance->add(1);
  }
  if (app.m_delivered == nullptr) {
    const std::string prefix = metric_prefix(id);
    app.m_delivered = &metrics_->counter(prefix + ".delivered");
    app.m_delay = &metrics_->latency(prefix + ".delay");
  }
  app.m_delivered->add(1);
  app.m_delay->record(sim_->now() - e.emitted_at);

  auto sit = app.streams.find(e.id.sensor);
  if (sit != app.streams.end() && sit->second.gapless)
    app.log->advance_processed_watermark(e.id.sensor, e.emitted_at);

  app.logic->on_sensor_event(e);
}

// --- actuation ---------------------------------------------------------------

std::vector<ProcessId> RivuletProcess::actuator_targets(
    ActuatorId actuator) const {
  std::vector<ProcessId> targets;
  for (ProcessId p : bus_->processes_in_range(actuator)) {
    if (std::find(all_.begin(), all_.end(), p) != all_.end() &&
        fd_->alive(p))
      targets.push_back(p);
  }
  std::sort(targets.begin(), targets.end());
  return targets;
}

void RivuletProcess::route_command(AppId id, AppState& app,
                                   const appmodel::ActuatorEdge& edge,
                                   const devices::Command& cmd) {
  std::vector<ProcessId> targets = actuator_targets(edge.actuator);
  if (targets.empty()) {
    metrics_->counter(metric_prefix(id) + ".commands_dropped").add(1);
    return;
  }

  const bool local = std::find(targets.begin(), targets.end(), self_) !=
                     targets.end();
  if (local) {
    // We host an active actuator node: actuate directly.
    submit_command_locally(app, cmd);
    return;
  }

  wire::CommandPayload payload;
  payload.app = id;
  payload.guarantee = static_cast<std::uint8_t>(edge.guarantee);
  payload.command = cmd;
  net::Payload bytes = command_frame(payload);  // shared across all targets
  if (edge.guarantee == appmodel::Guarantee::kGapless) {
    // Replicate to every active actuator node and keep the command
    // pending until one of them acknowledges; the device's idempotence or
    // Test&Set support absorbs duplicates (§5).
    app.pending_commands[cmd.id] =
        PendingCommand{payload, sim_->now(), sim_->now()};
    for (ProcessId p : targets)
      net_->endpoint(self_).send(p, net::MsgType::kCommand, bytes);
  } else {
    net_->endpoint(self_).send(targets.front(), net::MsgType::kCommand,
                               std::move(bytes));
  }
}

FrameBuffer RivuletProcess::command_frame(
    const wire::CommandPayload& payload) const {
  // Commands have no per-origin chain; sealed with chain 0 they still get
  // the keyed MAC, so a corrupted forwarder cannot mutate them unnoticed.
  if (!config_.integrity) return wire::encode(payload);
  FrameBuffer buf = wire::encode(payload, wire::kIntegrityTrailerBytes);
  wire::seal(buf.bytes(), config_.integrity_key, 0);
  return buf;
}

void RivuletProcess::retry_pending_commands() {
  // Commands older than one detection window that nobody acknowledged are
  // re-sent to the currently alive actuator nodes; stale ones expire.
  const Duration retry_after = config_.membership.timeout;
  const Duration expire_after = retry_after * 10;
  for (auto& [id, app] : apps_) {
    for (auto it = app.pending_commands.begin();
         it != app.pending_commands.end();) {
      PendingCommand& pending = it->second;
      if (sim_->now() - pending.first_sent > expire_after) {
        metrics_->counter(metric_prefix(id) + ".commands_expired").add(1);
        it = app.pending_commands.erase(it);
        continue;
      }
      if (sim_->now() - pending.last_sent >= retry_after) {
        pending.last_sent = sim_->now();
        std::vector<ProcessId> targets =
            actuator_targets(pending.payload.command.actuator);
        net::Payload bytes = command_frame(pending.payload);  // shared
        bool local = false;
        for (ProcessId p : targets) {
          if (p == self_) {
            submit_command_locally(app, pending.payload.command);
            local = true;
          } else {
            net_->endpoint(self_).send(p, net::MsgType::kCommand, bytes);
          }
        }
        metrics_->counter(metric_prefix(id) + ".commands_retried").add(1);
        if (local) {  // local submission is its own acknowledgement
          it = app.pending_commands.erase(it);
          continue;
        }
      }
      ++it;
    }
  }
}

void RivuletProcess::submit_command_locally(AppState& app,
                                            const devices::Command& cmd) {
  if (!app.commands_seen.insert(cmd.id).second) return;
  if (trace::active(trace::Component::kRuntime)) {
    trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                trace::Kind::kCommand, cmd.cause,
                trace::fc(trace::Key::kCmd, cmd.id),
                trace::fa(trace::Key::kActuator, cmd.actuator));
  }
  bus_->actuate(self_, cmd);
}

void RivuletProcess::handle_command(const net::Message& msg) {
  wire::CommandPayload p;
  if (!open(msg, p)) return;
  auto ait = apps_.find(p.app);
  if (ait == apps_.end()) return;
  if (!bus_->actuator_in_range(self_, p.command.actuator)) return;
  submit_command_locally(ait->second, p.command);
  if (p.guarantee ==
      static_cast<std::uint8_t>(appmodel::Guarantee::kGapless)) {
    wire::CommandAck ack;
    ack.app = p.app;
    ack.command = p.command.id;
    net_->endpoint(self_).send(msg.src, net::MsgType::kCommandAck,
                               wire::encode(ack));
  }
}

// --- tamper evidence -----------------------------------------------------------

bool RivuletProcess::device_seq_seen(SensorId sensor,
                                     std::uint32_t seq) const {
  auto it = device_seqs_seen_.find(sensor);
  return it != device_seqs_seen_.end() && it->second.contains(seq);
}

std::size_t RivuletProcess::device_seqs_seen_count(SensorId sensor) const {
  auto it = device_seqs_seen_.find(sensor);
  return it == device_seqs_seen_.end() ? 0 : it->second.size();
}

// --- watermark gossip ---------------------------------------------------------

void RivuletProcess::keepalive_payload(std::vector<std::byte>& out) {
  // Refilled in place: keep-alives go out every period from every process,
  // and a steady set of apps and streams reuses gossip_out_'s buffers and
  // the detector's piggyback buffer.
  std::size_t n = 0;
  for (const auto& [id, app] : apps_) {
    if (app.logic == nullptr) continue;
    if (n == gossip_out_.apps.size()) gossip_out_.apps.emplace_back();
    wire::AppWatermarks& out = gossip_out_.apps[n++];
    out.app = id;
    out.streams.clear();
    for (const auto& [sensor, stream] : app.streams) {
      if (stream.gapless)
        out.streams.push_back({sensor, app.log->processed_watermark(sensor)});
    }
  }
  gossip_out_.apps.resize(n);
  wire::encode(gossip_out_, out);
}

bool RivuletProcess::on_watermarks(ProcessId from,
                                   const std::vector<std::byte>& piggyback) {
  wire::Watermarks& in = gossip_in_[from];
  if (!wire::decode(piggyback, in)) return false;
  for (const wire::AppWatermarks& app : in.apps) {
    auto ait = apps_.find(app.app);
    if (ait == apps_.end()) continue;
    for (const wire::StreamWatermark& s : app.streams)
      ait->second.log->advance_processed_watermark(s.sensor, s.processed);
  }
  return true;
}

// --- introspection --------------------------------------------------------------

bool RivuletProcess::logic_active(AppId app) const {
  auto it = apps_.find(app);
  return it != apps_.end() && it->second.logic != nullptr;
}

const appmodel::LogicInstance* RivuletProcess::logic(AppId app) const {
  auto it = apps_.find(app);
  return it == apps_.end() ? nullptr : it->second.logic.get();
}

appmodel::LogicInstance* RivuletProcess::logic(AppId app) {
  auto it = apps_.find(app);
  return it == apps_.end() ? nullptr : it->second.logic.get();
}

std::uint64_t RivuletProcess::delivered(AppId app) const {
  auto it = apps_.find(app);
  return it == apps_.end() ? 0 : it->second.delivered;
}

const std::set<ProcessId>& RivuletProcess::view() const {
  RIV_ASSERT(fd_ != nullptr, "view() on a crashed process");
  return fd_->view();
}

std::vector<ProcessId> RivuletProcess::chain(AppId app) const {
  auto it = apps_.find(app);
  return it == apps_.end() ? std::vector<ProcessId>{} : it->second.chain;
}

const GaplessStream* RivuletProcess::gapless_stream(AppId app,
                                                    SensorId sensor) const {
  auto ait = apps_.find(app);
  if (ait == apps_.end()) return nullptr;
  auto sit = ait->second.streams.find(sensor);
  return sit == ait->second.streams.end() ? nullptr
                                          : sit->second.gapless.get();
}

const GapStream* RivuletProcess::gap_stream(AppId app,
                                            SensorId sensor) const {
  auto ait = apps_.find(app);
  if (ait == apps_.end()) return nullptr;
  auto sit = ait->second.streams.find(sensor);
  return sit == ait->second.streams.end() ? nullptr : sit->second.gap.get();
}

EventLog* RivuletProcess::event_log(AppId app) {
  auto it = apps_.find(app);
  return it == apps_.end() ? nullptr : it->second.log;
}

std::string RivuletProcess::metric_prefix(AppId id) const {
  return "app" + std::to_string(id.value);
}

void RivuletProcess::clone_state(BinaryWriter& w) const { io_state(w, *this); }

void RivuletProcess::restore_clone(BinaryReader& r) { io_state(r, *this); }

template <class A, class Self>
void RivuletProcess::io_state(A& a, Self& s) {
  if constexpr (A::kReads)
    RIV_ASSERT(!s.started_ && !s.up_,
               "clone restore requires a fresh, never-started process");
  expect(a, s.self_, "clone restore: process identity mismatch");
  io(a, s.up_);
  io(a, s.started_);
  io(a, s.next_cmd_seq_);
  io(a, s.store_);
  io(a, s.device_seqs_seen_);
  io_seq(a, s.logs_, [&a, &s](auto& log) {
    io(a, log.first);
    if constexpr (A::kReads) {
      const AppId id = log.first;
      RIV_ASSERT(std::any_of(s.deployed_.begin(), s.deployed_.end(),
                             [id](const auto& g) { return g->id == id; }),
                 "clone restore: event log of an undeployed app");
    }
    io(a, log.second);
  });
  if (!s.up_) return;  // volatile state exists only while the process is up

  if constexpr (A::kReads) s.build_volatile_shell();
  io(a, *s.fd_);
  io(a, *s.kv_);
  expect(a, std::uint64_t{s.apps_.size()},
         "clone restore: app count mismatch");
  for (auto& [id, app] : s.apps_) {
    expect(a, id, "clone restore: app order mismatch");
    expect(a, std::uint64_t{app.chain.size()},
           "clone restore: placement chain length mismatch");
    for (ProcessId p : app.chain)
      expect(a, p, "clone restore: placement chain mismatch");
    expect(a, std::uint64_t{app.streams.size()},
           "clone restore: stream count mismatch");
    for (auto& [sensor, stream] : app.streams) {
      expect(a, sensor, "clone restore: stream sensor mismatch");
      expect(a, stream.gapless != nullptr,
             "clone restore: stream guarantee mismatch");
      if (stream.gapless != nullptr)
        io(a, *stream.gapless);
      else
        io(a, *stream.gap);
    }
    bool has_logic = app.logic != nullptr;
    io(a, has_logic);
    if (has_logic) {
      if constexpr (A::kReads) s.make_logic(id, app);
      io(a, *app.logic);
    }
    io(a, app.last_successor);
    io(a, app.commands_seen);
    io(a, app.pending_commands);
    io(a, app.delivered);
    io(a, app.instance_delivered);
  }
}

}  // namespace riv::core
