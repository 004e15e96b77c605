// Payload formats of Rivulet's protocol messages.
//
// Sizes here feed the network-overhead numbers (Fig 5), so each frame
// documents its encoded size. Process-id sets (the ring protocol's S and V)
// are encoded as a 1-byte count plus 2 bytes per id — the metadata the
// paper says makes Gapless costlier than plain broadcast at one receiving
// process.
// Each frame is a plain struct that lists its fields once, in a static
// io_state, and states its exact size in encoded_size(). The frame codec in
// common/codec.hpp is this layer's only entry point: encode(frame) writes
// into a recycled frame buffer with room for that size (plus the trailer
// below, for a frame that will be sealed), and decode(bytes, frame) is
// total — it returns false on any truncated, overlong or (for
// SyncResponse) invalid frame, which the receiver drops.
#pragma once

#include <vector>

#include "common/codec.hpp"
#include "common/pid_set.hpp"
#include "devices/event.hpp"

namespace riv::core::wire {

using riv::decode;
using riv::encode;

// kRingEvent: app (2) | sensor (2) | S (1 + 2|S|) | V (1 + 2|V|) | event.
// The ring receive path decodes into one reused frame: S and V sit inline
// in their PidSets, so a decode allocates nothing.
struct RingPayload {
  AppId app{};
  SensorId sensor{};
  PidSet seen;  // S
  PidSet need;  // V
  devices::SensorEvent event{};

  static constexpr bool kSealed = true;  // see the integrity trailer below
  std::size_t encoded_size() const {
    return 6 + 2 * (seen.size() + need.size()) + event.wire_size();
  }
  template <class A, class Self>
  static void io_state(A& a, Self& p) {
    io(a, p.app);
    io(a, p.sensor);
    io(a, p.seen);
    io(a, p.need);
    devices::io_wire(a, p.event);
  }
};

// kRbEvent / kGapForward: app (2) | sensor (2) | event.
struct EventPayload {
  AppId app{};
  SensorId sensor{};
  devices::SensorEvent event{};

  static constexpr bool kSealed = true;
  std::size_t encoded_size() const { return 4 + event.wire_size(); }
  template <class A, class Self>
  static void io_state(A& a, Self& p) {
    io(a, p.app);
    io(a, p.sensor);
    devices::io_wire(a, p.event);
  }
};

// kSyncRequest / kPromote / kDemote: app (2).
struct AppFrame {
  AppId app{};

  static constexpr std::size_t encoded_size() { return 2; }
  template <class A, class Self>
  static void io_state(A& a, Self& p) {
    io(a, p.app);
  }
};

// kSyncResponse: app (2) | count (2) | per Gapless stream:
//   sensor (2) | prefix (4) | end (4) | runs (4) | (lo (4), hi (4))*.
// A sequence summary of the responder's log for one sensor: it holds
// every seq in [first_retained, prefix), none at or past `end`, and lacks
// exactly the `missing` runs [lo, hi) in between (ascending, disjoint,
// non-empty, inside [prefix, end)). The requester re-sends its stored
// events inside those runs or at/after `end` — never one the responder
// holds. decode rejects any summary that breaks these rules.
struct SeqRun {
  std::uint32_t lo{0};
  std::uint32_t hi{0};
  bool operator==(const SeqRun&) const = default;

  template <class A, class Self>
  static void io_state(A& a, Self& run) {
    io(a, run.lo);
    io(a, run.hi);
  }
};
struct SyncSummary {
  SensorId sensor{};
  std::uint32_t prefix{1};
  std::uint32_t end{1};
  std::vector<SeqRun> missing;

  template <class A, class Self>
  static void io_state(A& a, Self& s) {
    io(a, s.sensor);
    io(a, s.prefix);
    io(a, s.end);
    io_seq<std::uint32_t>(a, s.missing);
  }
  bool valid() const {
    if (prefix > end) return false;
    std::uint32_t min_lo = prefix;
    for (const SeqRun& run : missing) {
      if (run.lo < min_lo || run.lo >= run.hi || run.hi > end) return false;
      min_lo = run.hi;
    }
    return true;
  }
};
struct SyncResponse {
  AppId app{};
  std::vector<SyncSummary> streams;

  std::size_t encoded_size() const {
    std::size_t size = 4;
    for (const SyncSummary& s : streams) size += 14 + 8 * s.missing.size();
    return size;
  }
  template <class A, class Self>
  static void io_state(A& a, Self& p) {
    io(a, p.app);
    io_seq<std::uint16_t>(a, p.streams);
    if constexpr (A::kReads) {
      for (const SyncSummary& s : p.streams)
        if (!s.valid()) a.fail();
    }
  }
};

// kCommand: app (2) | guarantee (1) | command (39).
struct CommandPayload {
  AppId app{};
  std::uint8_t guarantee{0};
  devices::Command command{};

  static constexpr bool kSealed = true;
  static constexpr std::size_t encoded_size() {
    return 3 + devices::Command::kWireSize;
  }
  template <class A, class Self>
  static void io_state(A& a, Self& p) {
    io(a, p.app);
    io(a, p.guarantee);
    io(a, p.command);
  }
};

// kCommandAck: app (2) | command id (6).
struct CommandAck {
  AppId app{};
  CommandId command{};

  static constexpr std::size_t encoded_size() { return 8; }
  template <class A, class Self>
  static void io_state(A& a, Self& p) {
    io(a, p.app);
    io(a, p.command);
  }
};

// The piggyback on a keep-alive (membership/failure_detector.hpp): the
// processed watermark of every Gapless stream of each app whose logic
// node the sender hosts.
//   count (1) | per app: app (2) | streams (1) | (sensor (2), watermark (8))*.
struct StreamWatermark {
  SensorId sensor{};
  TimePoint processed{};

  template <class A, class Self>
  static void io_state(A& a, Self& w) {
    io(a, w.sensor);
    io(a, w.processed);
  }
};
struct AppWatermarks {
  AppId app{};
  std::vector<StreamWatermark> streams;

  template <class A, class Self>
  static void io_state(A& a, Self& w) {
    io(a, w.app);
    io_seq<std::uint8_t>(a, w.streams);
  }
};
struct Watermarks {
  std::vector<AppWatermarks> apps;

  std::size_t encoded_size() const {
    std::size_t size = 1;
    for (const AppWatermarks& app : apps) size += 3 + 10 * app.streams.size();
    return size;
  }
  template <class A, class Self>
  static void io_state(A& a, Self& w) {
    io_seq<std::uint8_t>(a, w.apps);
  }
};

// --- Tamper evidence: integrity trailer ----------------------------------
// When the deployment's integrity layer is armed (Byzantine chaos), the
// event-bearing payloads (kRingEvent, kRbEvent, kGapForward, kCommand)
// carry trailing bytes appended after the base encoding — additive wire
// evolution, exactly like the command `cause` append:
//   marker 0x5A (1 B) | chain digest (8 B LE) | keyed MAC (8 B LE)
// `chain` is the sender's per-origin hash-chained sequence digest (each
// origin folds every emission into a rolling FNV-1a state, so a digest
// commits to the entire emission history up to that event). `mac` is
// FNV-1a over (key, body bytes, chain, body length) — a cheap keyed MAC
// in the simulator's one-hash spirit: not cryptographic, but any
// single-byte change to a sealed frame fails verification.
//
// The frames with kSealed carry it. Receivers that know integrity is armed
// REQUIRE the trailer: a frame without it (or with any mismatching byte)
// is rejected before decode runs, so the strict consumed-exactly decode
// never sees the trailer and the unsealed wire format is untouched.
inline constexpr std::size_t kIntegrityTrailerBytes = 17;
inline constexpr std::uint8_t kIntegrityMarker = 0x5A;

struct IntegrityTrailer {
  std::uint64_t chain{0};
  std::uint64_t mac{0};
};

// The keyed MAC over a payload body and its chain digest.
std::uint64_t compute_mac(std::uint64_t key, const std::byte* body,
                          std::size_t n, std::uint64_t chain);

// Append the integrity trailer to an encoded payload; in place when the
// payload was encoded with kIntegrityTrailerBytes to spare.
void seal(std::vector<std::byte>& buf, std::uint64_t key,
          std::uint64_t chain);

// Verify a sealed payload and split it: on success the base bytes are
// copied into `body` (capacity reused across calls) and the trailer into
// `out`; returns false on short input, marker mismatch, or MAC mismatch.
bool verify_and_strip(const std::vector<std::byte>& buf, std::uint64_t key,
                      std::vector<std::byte>& body, IntegrityTrailer* out);

}  // namespace riv::core::wire
