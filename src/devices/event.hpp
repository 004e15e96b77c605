// Sensor events and actuation commands — the payloads everything carries.
//
// Wire layout of an encoded SensorEvent (see codec.hpp for primitives):
//   event id (6 B) | epoch (4 B) | emitted_at (8 B) | flags (1 B)
//   | payload length (4 B) | payload (payload_size B)
// The payload carries the sensed value in exactly `payload_size` bytes,
// matching Table 3 of the paper (small sensors: 4–8 B; camera frames /
// microphone batches: 1–20 KB). Values in payloads narrower than 8 bytes
// are fixed-point quantized (milli-units), which loses nothing relevant
// for door/motion/temperature-class sensors.
#pragma once

#include <cstdint>

#include "common/codec.hpp"
#include "common/time.hpp"
#include "common/types.hpp"

namespace riv::devices {

struct SensorEvent {
  EventId id{};              // sensor + per-sensor sequence number
  std::uint32_t epoch{0};    // polling epoch tag; 0 for push-based sensors
  TimePoint emitted_at{};    // device-side emission time
  bool poll_based{false};
  double value{0.0};
  std::uint32_t payload_size{4};  // bytes of sensed payload on the wire

  // Tamper evidence (in-memory only, NOT part of the 23-byte encoding —
  // process-to-process hops carry them in the wire integrity trailer, so
  // frame sizes and timing are untouched when integrity is off). `chain`
  // is the origin's hash-chained sequence digest at this emission; `mac`
  // authenticates the device->process radio hop. Both zero when the
  // integrity layer is disarmed.
  std::uint64_t chain{0};
  std::uint64_t mac{0};

  std::size_t wire_size() const { return 23 + payload_size; }

  // Snapshot state (DESIGN.md §16): unlike the 23-byte wire form it
  // carries every in-memory field (unquantized value, payload size,
  // integrity trailer) so a restored event is byte-for-byte the original.
  template <class A, class Self>
  static void io_state(A& a, Self& e) {
    io(a, e.id.sensor);
    io_in_stream(a, e);
  }
  // The same without the sensor id, for an event stored under its
  // sensor's stream (EventLog).
  template <class A, class Self>
  static void io_in_stream(A& a, Self& e) {
    io(a, e.id.seq);
    io(a, e.epoch);
    io(a, e.emitted_at);
    io(a, e.poll_based);
    io(a, e.value);
    io(a, e.payload_size);
    io(a, e.chain);
    io(a, e.mac);
  }
};

void encode(BinaryWriter& w, const SensorEvent& e);
SensorEvent decode_event(BinaryReader& r);

// An event as a wire-frame field: its 23-byte wire form above, not its
// snapshot form. A decoded event has chain and mac zero.
inline void io_wire(BinaryWriter& w, const SensorEvent& e) { encode(w, e); }
inline void io_wire(BinaryReader& r, SensorEvent& e) { e = decode_event(r); }

// Keyed MAC authenticating the device->process radio hop of one event:
// FNV-1a over (key, event id, epoch, emission time, flags, value bits,
// chain). A forged event fails it; a replayed event passes it (the frame
// is genuine) and is caught by the receiver's per-origin sequence history
// instead.
std::uint64_t event_mac(std::uint64_t key, const SensorEvent& e);

// An actuation command produced by a logic node for one actuator.
// Wire layout: command id (6 B) | actuator (2 B) | flags (1 B)
//   | expected (8 B) | value (8 B) | issued_at (8 B) | cause (6 B)
//   => 39 B.
// `cause` is appended at the end so the layout stays a strict extension
// of the pre-provenance encoding (additive wire evolution).
struct Command {
  CommandId id{};
  ActuatorId actuator{};
  bool test_and_set{false};  // §5: non-idempotent actuators require T&S
  double expected{0.0};      // T&S precondition (ignored otherwise)
  double value{0.0};
  TimePoint issued_at{};
  ProvenanceId cause{};  // the sensor reading this command reacts to

  static constexpr std::size_t kWireSize = 39;

  // The wire layout above, which snapshots carry too.
  template <class A, class Self>
  static void io_state(A& a, Self& c) {
    io(a, c.id);
    io(a, c.actuator);
    io(a, c.test_and_set);
    io(a, c.expected);
    io(a, c.value);
    io(a, c.issued_at);
    io(a, c.cause);
  }
};

inline void encode(BinaryWriter& w, const Command& c) { io(w, c); }
inline Command decode_command(BinaryReader& r) {
  Command c;
  io(r, c);
  return c;
}

}  // namespace riv::devices
