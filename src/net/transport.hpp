// Transport abstraction.
//
// Protocol code (membership, delivery, execution) sends and receives
// Messages through this interface only. The paper's prototype backs it
// with Netty TCP channels; this repository backs it with net::SimNetwork.
// Guarantees expected by the protocols (§3.1): reliable in-order delivery
// per (src, dst) pair while both ends are up and connected; messages may
// be silently lost across crashes and network partitions (TCP connection
// reset), which the protocols tolerate via keep-alives and sync.
#pragma once

#include <functional>

#include "net/message.hpp"

namespace riv::net {

class Transport {
 public:
  using Handler = std::function<void(const Message&)>;

  virtual ~Transport() = default;

  virtual ProcessId local() const = 0;

  // Fire-and-forget send. Never blocks; delivery is asynchronous. The
  // payload converts implicitly from an encoded FrameBuffer (the recycled
  // block encode() wrote the frame into) or from a plain byte vector;
  // broadcast loops should build one Payload and pass it to every send so
  // the targets share the block.
  virtual void send(ProcessId dst, MsgType type, Payload payload) = 0;

  // Install the receive callback. Passing an empty handler detaches the
  // endpoint (used when a process crashes).
  virtual void set_handler(Handler handler) = 0;
};

}  // namespace riv::net
