// RivuletProcess: one instance of the Rivulet runtime (§3.3).
//
// Runs on each host (TV, fridge, hub, ...) and wires together:
//   * membership (keep-alive failure detector, local view),
//   * the delivery service (one GaplessStream or GapStream per sensor the
//     deployed apps use),
//   * the execution service (bully-variant promotion/demotion of logic
//     nodes along the placement chain, §5),
//   * actuation-command routing to processes with active actuator nodes,
//   * processed-watermark gossip piggybacked on keep-alives (bounds the
//     backlog a newly promoted logic node replays).
//
// Crash/recovery (§3.1): crash() halts everything — timers, message
// handling, device subscription. The process owns every timer of the
// components it rebuilds on recovery or promotion (detector, store,
// streams, logic triggers) and routes each back by kind and arg
// (DESIGN.md §9), so a crash cancels them all by owner. The per-app
// event logs (events, S/V sets, watermarks) are the process's durable
// record and survive; recover() reduces them to what a crash preserves
// (EventLog::recover) and rebuilds the volatile state around them.
// Deployed app graphs are installed software and survive crashes too.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "appmodel/logic.hpp"
#include "common/seq_set.hpp"
#include "core/config.hpp"
#include "core/delivery/gap_stream.hpp"
#include "core/delivery/gapless_stream.hpp"
#include "devices/home_bus.hpp"
#include "membership/failure_detector.hpp"
#include "metrics/metrics.hpp"
#include "net/sim_network.hpp"
#include "sim/stable_store.hpp"
#include "store/replicated_store.hpp"

namespace riv::core {

class RivuletProcess : public sim::TimerOwner {
 public:
  RivuletProcess(sim::Simulation& sim, net::SimNetwork& net,
                 devices::HomeBus& bus, ProcessId self,
                 std::vector<ProcessId> all, Config config,
                 metrics::Registry& metrics);
  ~RivuletProcess();

  RivuletProcess(const RivuletProcess&) = delete;
  RivuletProcess& operator=(const RivuletProcess&) = delete;

  // Install an application (before start(), or at runtime).
  void deploy(std::shared_ptr<const appmodel::AppGraph> graph);

  void start();
  void crash();
  void recover();
  bool up() const { return up_; }
  ProcessId id() const { return self_; }

  // --- Introspection (tests and benches) -----------------------------
  bool logic_active(AppId app) const;
  const appmodel::LogicInstance* logic(AppId app) const;
  appmodel::LogicInstance* logic(AppId app);
  std::uint64_t delivered(AppId app) const;  // events fed to local logic
  const std::set<ProcessId>& view() const;
  std::vector<ProcessId> chain(AppId app) const;
  const GaplessStream* gapless_stream(AppId app, SensorId sensor) const;
  const GapStream* gap_stream(AppId app, SensorId sensor) const;
  EventLog* event_log(AppId app);
  // Has this process ingested device event `seq` from `sensor`? Used by
  // the Byzantine injector to pick replays the target has genuinely seen
  // (a replay of a never-received event would be indistinguishable from a
  // fresh delivery and is out of scope for the detector, see DESIGN §12).
  bool device_seq_seen(SensorId sensor, std::uint32_t seq) const;
  std::size_t device_seqs_seen_count(SensorId sensor) const;
  // Replicated application state shared by every app on this process
  // (extension; trigger handlers reach it via TriggerContext::put/get).
  store::ReplicatedStore& kv();

  // --- snapshot support (DESIGN.md §16) ------------------------------
  // Serialize the complete live runtime — stable store, per-origin
  // sequence history, event logs (also while down: they are durable),
  // membership, replicated KV, every app's delivery/execution/actuation
  // state and in-flight protocol artifact (the kernel's blob carries the
  // timers). RIVC checkpoints store this as the process's section;
  // restore_clone() rebuilds it directly into a freshly constructed,
  // never-started process (event logs first, whether or not it is up):
  // the volatile shell (detector, KV, streams, logic) is re-wired exactly
  // as build_state() would, then each component restores its own data.
  // No messages are sent and no timers are scheduled.
  void clone_state(BinaryWriter& w) const;
  void restore_clone(BinaryReader& r);

 private:
  struct StreamState {
    appmodel::SensorEdge edge;  // merged edge (strongest guarantee wins)
    std::unique_ptr<GaplessStream> gapless;
    std::unique_ptr<GapStream> gap;
  };
  // A Gapless command sent to remote actuator nodes, retried until some
  // active actuator node acknowledges it (§4's "delivery of actuation
  // commands is analogous"). Device-level idempotence / Test&Set absorbs
  // the duplicates a retry can cause.
  struct PendingCommand {
    wire::CommandPayload payload;
    TimePoint first_sent{};
    TimePoint last_sent{};

    // The payload rides in its wire form; bytes that do not decode fail
    // the reader.
    template <class A, class Self>
    static void io_state(A& a, Self& c) {
      if constexpr (A::kReads) {
        std::vector<std::byte> bytes;
        io(a, bytes);
        if (!wire::decode(bytes, c.payload)) a.fail();
      } else {
        io(a, wire::encode(c.payload).bytes());
      }
      io(a, c.first_sent);
      io(a, c.last_sent);
    }
  };
  struct AppState {
    std::shared_ptr<const appmodel::AppGraph> graph;
    std::vector<ProcessId> chain;
    EventLog* log{nullptr};  // owned by logs_
    std::map<SensorId, StreamState> streams;
    std::unique_ptr<appmodel::LogicInstance> logic;  // non-null iff active
    std::optional<ProcessId> last_successor;
    std::set<CommandId> commands_seen;
    std::map<CommandId, PendingCommand> pending_commands;
    std::uint64_t delivered{0};
    // Per-event metric handles, resolved lazily on first use (Registry
    // references are stable for its lifetime). deliver_to_logic() runs
    // once per delivered event and must not rebuild "appN.xyz" name
    // strings each time.
    metrics::Counter* m_delivered{nullptr};
    metrics::Counter* m_dup_instance{nullptr};
    metrics::LatencyRecorder* m_delay{nullptr};
    // Events fed to the CURRENT logic instance (cleared on promotion).
    // Feeding one instance the same event twice is a delivery-service bug
    // for both guarantees (§4.2 Gap dedup; Gapless log-exact dedup), so
    // duplicates are charged to the "<app>.dup_instance_delivery" metric,
    // which the chaos invariant checker requires to stay zero.
    EventIdSet instance_delivered;
  };

  // The process's own timer kind: periodic anti-entropy plus command
  // retry. The other kinds belong to the components it routes to.
  static constexpr std::uint16_t kPeriodicTimer = 0;

  void on_timer(sim::TimerId id, std::uint16_t kind,
                std::uint64_t arg) override;
  StreamState& stream_for_timer(std::uint64_t arg);

  // The one field list behind clone_state and restore_clone.
  template <class A, class Self>
  static void io_state(A& a, Self& s);

  void build_state();
  // Construct the volatile runtime structures (detector, KV,
  // app/stream/closure wiring) without starting anything — shared by
  // build_state() (which then starts them) and restore_clone() (which
  // then overwrites their data from a snapshot).
  void build_volatile_shell();
  // Construct an app's LogicInstance with runtime callbacks wired, not
  // started. promote() adds start/replay/announcement on top.
  void make_logic(AppId id, AppState& app);
  void teardown_state();
  void build_app_state(AppState& app, const std::map<ProcessId, int>& load);
  StreamState make_stream(AppState& app, const appmodel::SensorEdge& edge);

  // Message plumbing.
  void on_message(const net::Message& msg);
  void on_device_event(const devices::SensorEvent& e);
  void on_view_change();
  // Bayou-style anti-entropy: ask the ring successor for its per-sensor
  // sequence summaries; on response, re-send exactly what it lacks.
  // `force` syncs even when the successor is unchanged (the periodic pass).
  void sync_rings(bool force);
  void handle_sync_request(const net::Message& msg);
  void handle_sync_response(const net::Message& msg);
  void handle_command(const net::Message& msg);
  void handle_role_change(const net::Message& msg, bool promote);
  // Open a received frame in one step: verify and strip the integrity
  // trailer when the layer is armed and the frame is sealed, decode, and
  // restore the event's chain. A frame that fails is dropped with one
  // kTamper record (reject).
  template <class Frame>
  bool open(const net::Message& msg, Frame& f);
  // The kTamper record of a dropped frame: `why` is bad_mac (the trailer
  // failed) or bad_frame (the bytes did not decode).
  void reject(const net::Message& msg, const char* why);

  // Execution service.
  std::size_t rank_of(const AppState& app, ProcessId p) const;
  void evaluate_role(AppId id, AppState& app);
  void promote(AppId id, AppState& app);
  void demote(AppId id, AppState& app);
  void replay_backlog(AppId id, AppState& app);

  // Delivery into the local logic node (metrics + watermark).
  void deliver_to_logic(AppId id, AppState& app,
                        const devices::SensorEvent& e);

  // Actuation.
  void route_command(AppId id, AppState& app,
                     const appmodel::ActuatorEdge& edge,
                     const devices::Command& cmd);
  void submit_command_locally(AppState& app, const devices::Command& cmd);
  // Alive processes hosting an active actuator node for `actuator`.
  std::vector<ProcessId> actuator_targets(ActuatorId actuator) const;
  void retry_pending_commands();
  // A command frame, sealed when integrity is armed.
  FrameBuffer command_frame(const wire::CommandPayload& payload) const;

  // Watermark gossip: the keep-alive piggyback, built in gossip_out_ and
  // encoded into `out` in place, and decoded into the sender's gossip_in_
  // frame. on_watermarks applies nothing from bytes that do not decode and
  // returns false.
  void keepalive_payload(std::vector<std::byte>& out);
  bool on_watermarks(ProcessId from, const std::vector<std::byte>& piggyback);

  std::string metric_prefix(AppId id) const;

  sim::Simulation* sim_;
  net::SimNetwork* net_;
  devices::HomeBus* bus_;
  ProcessId self_;
  std::vector<ProcessId> all_;
  Config config_;
  metrics::Registry* metrics_;

  sim::StableStore store_;  // survives crashes; ReplicatedStore's keys
  std::vector<std::shared_ptr<const appmodel::AppGraph>> deployed_;
  // Per-app event logs (survive crashes, like store_). AppState and the
  // stream contexts point into them: map nodes never move, and logs_ is
  // declared before apps_ so it outlives it.
  std::map<AppId, EventLog> logs_;
  // Integrity layer (survives crashes, like store_): per-origin device
  // sequence history for replay detection, and the verify scratch buffer.
  std::map<SensorId, SeqSet> device_seqs_seen_;
  std::vector<std::byte> unseal_scratch_;
  // Keep-alive piggyback scratch, reused in place: one frame to send and
  // one per sender, since each sender's piggyback keeps its shape from one
  // keep-alive to the next (only a logic host's lists any apps).
  wire::Watermarks gossip_out_;
  std::map<ProcessId, wire::Watermarks> gossip_in_;

  // The process's registration with the kernel: it lives as long as the
  // process, and a crash cancels every timer through it.
  sim::ProcessTimers timers_;

  // Volatile state, torn down on crash.
  std::unique_ptr<membership::FailureDetector> fd_;
  std::unique_ptr<store::ReplicatedStore> kv_;
  std::map<AppId, AppState> apps_;
  // Lazily resolved "ingest.pX.sY" counters, one per sensor: device ingest
  // is per-event-hot and must not rebuild the counter name each time.
  // Registry references stay valid across crash/recover cycles.
  std::map<SensorId, metrics::Counter*> ingest_counters_;
  bool up_{false};
  bool started_{false};
  std::uint32_t next_cmd_seq_{1};
};

}  // namespace riv::core
