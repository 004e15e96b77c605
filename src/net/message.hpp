// Inter-process message framing.
//
// Every process-to-process payload travels in a Message frame. The frame
// header models the custom serialization of the Java prototype (§7):
//   type (1 B) | src (2 B) | dst (2 B) | payload length (4 B)
// i.e. kHeaderBytes = 9 per frame, charged by the transport's byte
// accounting on top of the payload.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "net/payload.hpp"

namespace riv::net {

enum class MsgType : std::uint8_t {
  kKeepAlive = 1,     // membership heartbeat (view + processed watermarks)
  kRingEvent = 2,     // Gapless ring protocol (e:S:V)
  kRbEvent = 3,       // reliable-broadcast flooding of an event
  kGapForward = 4,    // Gap chain forward of an event
  kSyncRequest = 5,   // successor sync: ask for the successor's log summary
  kSyncResponse = 6,  // reply with per-sensor sequence summaries (prefix,
                      // end, missing runs; see core/wire.hpp)
  kCommand = 7,       // actuation command forwarded to an active actuator peer
  kPromote = 8,       // logic-node promotion notification (§5)
  kDemote = 9,        // logic-node demotion notification (§5)
  kCommandAck = 10,   // actuator-bearing peer confirms a Gapless command
  kStorePut = 11,     // replicated-store single-entry update (extension)
  kStoreSync = 12,    // replicated-store anti-entropy batch (extension)
};

inline const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kKeepAlive: return "keepalive";
    case MsgType::kRingEvent: return "ring_event";
    case MsgType::kRbEvent: return "rb_event";
    case MsgType::kGapForward: return "gap_forward";
    case MsgType::kSyncRequest: return "sync_request";
    case MsgType::kSyncResponse: return "sync_response";
    case MsgType::kCommand: return "command";
    case MsgType::kPromote: return "promote";
    case MsgType::kDemote: return "demote";
    case MsgType::kCommandAck: return "command_ack";
    case MsgType::kStorePut: return "store_put";
    case MsgType::kStoreSync: return "store_sync";
  }
  return "unknown";
}

inline constexpr std::size_t kHeaderBytes = 9;

struct Message {
  ProcessId src{};
  ProcessId dst{};
  MsgType type{};
  // Shared immutable buffer: copying a Message (e.g. per broadcast target
  // or into the network's table of frames in flight) bumps a refcount
  // instead of deep-copying the bytes.
  Payload payload;

  std::size_t wire_size() const { return kHeaderBytes + payload.size(); }

  // Snapshot state (DESIGN.md §16): a frame in flight.
  template <class A, class Self>
  static void io_state(A& a, Self& m) {
    io(a, m.src);
    io(a, m.dst);
    io_as<std::uint8_t>(a, m.type);
    io(a, m.payload);
  }
};

}  // namespace riv::net
