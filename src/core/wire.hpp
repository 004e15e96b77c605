// Payload formats of Rivulet's protocol messages.
//
// Sizes here feed the network-overhead numbers (Fig 5), so each struct
// documents its encoded size. Process-id sets (the ring protocol's S and V)
// are encoded as a 1-byte count plus 2 bytes per id — the metadata the
// paper says makes Gapless costlier than plain broadcast at one receiving
// process.
// Each message type has two decoders: decode_* asserts on corrupt input
// (internal paths where the payload was produced by our own encoder) and
// try_decode_* returns std::nullopt instead — the boundary-safe variant
// for anything that might see truncated or damaged bytes.
#pragma once

#include <optional>
#include <vector>

#include "common/codec.hpp"
#include "common/pid_set.hpp"
#include "devices/event.hpp"

namespace riv::core::wire {

// A process-id set's wire form (its io in common/codec.hpp).
inline void write_pid_set(BinaryWriter& w, const PidSet& s) { io(w, s); }
inline PidSet read_pid_set(BinaryReader& r) {
  PidSet s;
  io(r, s);
  return s;
}

// kRingEvent: app (2) | sensor (2) | S (1 + 2|S|) | V (1 + 2|V|) | event.
struct RingPayload {
  AppId app{};
  SensorId sensor{};
  PidSet seen;  // S
  PidSet need;  // V
  devices::SensorEvent event{};
};
std::vector<std::byte> encode(const RingPayload& p);
RingPayload decode_ring(const std::vector<std::byte>& buf);
std::optional<RingPayload> try_decode_ring(const std::vector<std::byte>& buf);
// Decode into a caller-owned payload, reusing its S/V vector capacity.
// Ring events are the most frequent message on a Gapless deployment, so
// the receive path keeps a scratch payload instead of allocating per
// message. Returns false on corrupt input (payload left unspecified).
bool decode_ring_into(const std::vector<std::byte>& buf, RingPayload& p);

// kRbEvent / kGapForward: app (2) | sensor (2) | event.
struct EventPayload {
  AppId app{};
  SensorId sensor{};
  devices::SensorEvent event{};
};
std::vector<std::byte> encode_event_payload(const EventPayload& p);
EventPayload decode_event_payload(const std::vector<std::byte>& buf);
std::optional<EventPayload> try_decode_event_payload(
    const std::vector<std::byte>& buf);

// kSyncRequest: app (2).
std::vector<std::byte> encode_sync_request(AppId app);
AppId decode_sync_request(const std::vector<std::byte>& buf);
std::optional<AppId> try_decode_sync_request(
    const std::vector<std::byte>& buf);

// kSyncResponse: app (2) | count (2) | per Gapless stream:
//   sensor (2) | prefix (4) | end (4) | runs (4) | (lo (4), hi (4))*.
// A sequence summary of the responder's log for one sensor: it holds
// every seq in [first_retained, prefix), none at or past `end`, and lacks
// exactly the `missing` runs [lo, hi) in between (ascending, disjoint,
// non-empty, inside [prefix, end)). The requester re-sends its stored
// events inside those runs or at/after `end` — never one the responder
// holds. The decoders reject any summary that breaks these rules.
struct SeqRun {
  std::uint32_t lo{0};
  std::uint32_t hi{0};
  bool operator==(const SeqRun&) const = default;
};
struct SyncSummary {
  SensorId sensor{};
  std::uint32_t prefix{1};
  std::uint32_t end{1};
  std::vector<SeqRun> missing;
};
struct SyncResponse {
  AppId app{};
  std::vector<SyncSummary> streams;
};
std::vector<std::byte> encode(const SyncResponse& p);
SyncResponse decode_sync_response(const std::vector<std::byte>& buf);
std::optional<SyncResponse> try_decode_sync_response(
    const std::vector<std::byte>& buf);

// kCommand: app (2) | guarantee (1) | command (33).
struct CommandPayload {
  AppId app{};
  std::uint8_t guarantee{0};
  devices::Command command{};
};
std::vector<std::byte> encode(const CommandPayload& p);
CommandPayload decode_command_payload(const std::vector<std::byte>& buf);
std::optional<CommandPayload> try_decode_command_payload(
    const std::vector<std::byte>& buf);

// kPromote / kDemote: app (2).
std::vector<std::byte> encode_role_change(AppId app);
AppId decode_role_change(const std::vector<std::byte>& buf);
std::optional<AppId> try_decode_role_change(
    const std::vector<std::byte>& buf);

// kCommandAck: app (2) | command id (6).
struct CommandAck {
  AppId app{};
  CommandId command{};
};
std::vector<std::byte> encode(const CommandAck& p);
CommandAck decode_command_ack(const std::vector<std::byte>& buf);
std::optional<CommandAck> try_decode_command_ack(
    const std::vector<std::byte>& buf);

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
// Receivers that know integrity is armed REQUIRE the trailer: a frame
// without it (or with any mismatching byte) is rejected before the base
// decoder runs, so the strict consumed-exactly decoders never see the
// trailer and the unsealed wire format is untouched.
inline constexpr std::size_t kIntegrityTrailerBytes = 17;
inline constexpr std::uint8_t kIntegrityMarker = 0x5A;

struct IntegrityTrailer {
  std::uint64_t chain{0};
  std::uint64_t mac{0};
};

// The keyed MAC over a payload body and its chain digest.
std::uint64_t compute_mac(std::uint64_t key, const std::byte* body,
                          std::size_t n, std::uint64_t chain);

// Append the integrity trailer to an encoded payload.
void seal(std::vector<std::byte>& buf, std::uint64_t key,
          std::uint64_t chain);

// Verify a sealed payload and split it: on success the base bytes are
// copied into `body` (capacity reused across calls) and the trailer into
// `out`; returns false on short input, marker mismatch, or MAC mismatch.
bool verify_and_strip(const std::vector<std::byte>& buf, std::uint64_t key,
                      std::vector<std::byte>& body, IntegrityTrailer* out);

}  // namespace riv::core::wire
