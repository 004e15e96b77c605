// Shared immutable payload buffer.
//
// A frame's payload is encoded once and then fanned out: reliable
// broadcast sends the identical bytes to every peer, command fan-out to
// every actuator-bearing process, and each in-flight frame holds the
// bytes until delivery. Payload makes those copies reference bumps: it
// holds one refcounted FrameBlock (common/codec.hpp), the recycled buffer
// encode() wrote the frame into, and every Message and frame in flight
// shares it. When the last copy drops, the block returns to its thread's
// free list and the next encode writes into it, so a frame costs no
// allocation once the list is warm (DESIGN.md §9). Decoders are untouched:
// Payload converts implicitly to const std::vector<std::byte>& so
// BinaryReader and the wire codecs read it like a plain vector.
//
// The count is atomic, so a block may be dropped on another thread than
// the one that filled it; the bytes are immutable once a Payload holds
// them.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/codec.hpp"

namespace riv::net {

class Payload {
 public:
  Payload() = default;

  // Implicit on purpose: `send(dst, type, encode(frame))` hands the
  // encoded block over at the call site.
  Payload(FrameBuffer&& frame)  // NOLINT(google-explicit-constructor)
      : block_(std::move(frame).release()) {}
  // A plain vector's bytes are copied into a recycled block.
  Payload(const std::vector<std::byte>& bytes) {  // NOLINT
    if (bytes.empty()) return;
    FrameBuffer frame;
    frame.bytes().assign(bytes.begin(), bytes.end());
    block_ = std::move(frame).release();
  }

  Payload(const Payload& o) noexcept : block_(o.block_) {
    if (block_ != nullptr) ++block_->refs;
  }
  Payload(Payload&& o) noexcept : block_(std::exchange(o.block_, nullptr)) {}
  Payload& operator=(Payload o) noexcept {
    std::swap(block_, o.block_);
    return *this;
  }
  ~Payload() {
    if (block_ != nullptr) FrameBlock::release(block_);
  }

  const std::vector<std::byte>& bytes() const {
    return block_ != nullptr ? block_->bytes : empty_buffer();
  }
  // Implicit view so decode sites (`BinaryReader r(msg.payload)`) are
  // source-compatible with the old by-value vector member.
  operator const std::vector<std::byte>&() const {  // NOLINT
    return bytes();
  }

  std::size_t size() const { return bytes().size(); }
  bool empty() const { return size() == 0; }

 private:
  static const std::vector<std::byte>& empty_buffer() {
    static const std::vector<std::byte> kEmpty;
    return kEmpty;
  }

  FrameBlock* block_{nullptr};
};

// Snapshot field I/O (common/codec.hpp): the bytes, length-prefixed.
// Restore reads them straight into a recycled block.
inline void io(BinaryWriter& w, const Payload& p) { w.bytes(p.bytes()); }
inline void io(BinaryReader& r, Payload& p) {
  FrameBuffer frame;
  r.bytes(frame.bytes());
  p = std::move(frame);
}

}  // namespace riv::net
