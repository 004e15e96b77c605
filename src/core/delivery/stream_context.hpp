// Shared environment handed by the runtime to per-stream delivery state
// machines (GaplessStream / GapStream).
//
// The hooks isolate the protocols from the runtime: a stream never touches
// the transport, membership, logic instance, or device bus directly, which
// keeps the protocol classes independently testable.
#pragma once

#include <functional>
#include <set>
#include <vector>

#include "appmodel/graph.hpp"
#include "core/event_log.hpp"
#include "core/wire.hpp"
#include "devices/event.hpp"
#include "net/message.hpp"
#include "sim/simulation.hpp"

namespace riv::core {

struct StreamContext {
  ProcessId self{};
  AppId app{};
  appmodel::SensorEdge edge{};
  bool in_range{false};  // does this process host an *active* sensor node?

  // All processes running the app, and the static subset with active
  // sensor nodes for this stream (the home's topology).
  std::vector<ProcessId> all_processes;
  std::vector<ProcessId> in_range_processes;

  // Live queries answered by the runtime.
  std::function<const std::set<ProcessId>&()> view;
  // App placement order, as a reference to the runtime's vector: Gap
  // streams ask for it on every device event.
  std::function<const std::vector<ProcessId>&()> chain;
  std::function<bool()> logic_active_here;

  // Actions performed by the runtime.
  std::function<void(const devices::SensorEvent&)> deliver;  // to local logic
  // Payload adopts an encoded FrameBuffer; fan-out paths build one Payload
  // and hand it to every target so the buffer is shared, not re-copied
  // per peer.
  std::function<void(ProcessId, net::MsgType, net::Payload)> send;
  std::function<void(std::uint32_t epoch)> staleness;  // epoch had no event
  std::function<void(std::uint32_t epoch)> poll;       // issue a device poll
  // Tamper evidence: bound by the runtime to wire::seal (with the
  // deployment key) when the integrity layer is armed, null otherwise.
  // Streams call it on every encoded event-bearing payload before send;
  // `chain` is the event's per-origin hash-chain digest.
  std::function<void(std::vector<std::byte>&, std::uint64_t chain)> seal;

  sim::ProcessTimers* timers{nullptr};
  EventLog* log{nullptr};  // Gapless only

  // An event-bearing frame in a recycled buffer, sealed with `chain` when
  // integrity is armed; encode reserves the trailer's room up front.
  template <class F>
  FrameBuffer encode(const F& frame, std::uint64_t chain) const {
    FrameBuffer buf =
        wire::encode(frame, seal ? wire::kIntegrityTrailerBytes : 0);
    if (seal) seal(buf.bytes(), chain);
    return buf;
  }
};

// A stream timer's arg: the stream's key (app, sensor) and the epoch the
// timer serves. Streams are rebuilt on recovery, so their process owns
// their timers and finds the stream again by this key.
inline std::uint64_t stream_timer_arg(AppId app, SensorId sensor,
                                      std::uint32_t epoch) {
  return std::uint64_t{app.value} << 48 | std::uint64_t{sensor.value} << 32 |
         epoch;
}
inline AppId stream_timer_app(std::uint64_t arg) {
  return AppId{static_cast<std::uint16_t>(arg >> 48)};
}
inline SensorId stream_timer_sensor(std::uint64_t arg) {
  return SensorId{static_cast<std::uint16_t>(arg >> 32)};
}
inline std::uint32_t stream_timer_epoch(std::uint64_t arg) {
  return static_cast<std::uint32_t>(arg);
}

// First process in `order` that is alive per `view`; nullopt if none.
inline std::optional<ProcessId> first_alive(
    const std::vector<ProcessId>& order, const std::set<ProcessId>& view) {
  for (ProcessId p : order) {
    if (view.count(p) != 0) return p;
  }
  return std::nullopt;
}

}  // namespace riv::core
