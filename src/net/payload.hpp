// Shared immutable payload buffer.
//
// A frame's payload is encoded once and then fanned out: reliable
// broadcast sends the identical bytes to every peer, command fan-out to
// every actuator-bearing process, and each in-flight frame holds the
// bytes until delivery. Payload makes those copies reference bumps: the
// byte vector is built once, frozen behind a shared_ptr-to-const, and
// every Message and frame in flight shares it. Decoders are
// untouched — Payload converts implicitly to const std::vector<std::byte>&
// so BinaryReader and the wire codecs read it like the plain vector the
// transport used to carry.
//
// The refcount is std::shared_ptr's (atomic), so independent simulations
// in a parallel seed sweep can each churn payloads on their own thread;
// the buffers themselves are immutable after construction.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/codec.hpp"

namespace riv::net {

class Payload {
 public:
  Payload() = default;

  // Implicit on purpose: `send(dst, type, writer.take())` freezes the
  // encoded bytes into a shareable buffer at the call site.
  Payload(std::vector<std::byte> bytes)  // NOLINT(google-explicit-constructor)
      : buf_(bytes.empty()
                 ? nullptr
                 : std::make_shared<const std::vector<std::byte>>(
                       std::move(bytes))) {}

  const std::vector<std::byte>& bytes() const {
    return buf_ ? *buf_ : empty_buffer();
  }
  // Implicit view so decode sites (`BinaryReader r(msg.payload)`) are
  // source-compatible with the old by-value vector member.
  operator const std::vector<std::byte>&() const {  // NOLINT
    return bytes();
  }

  std::size_t size() const { return buf_ ? buf_->size() : 0; }
  bool empty() const { return size() == 0; }

 private:
  static const std::vector<std::byte>& empty_buffer() {
    static const std::vector<std::byte> kEmpty;
    return kEmpty;
  }

  std::shared_ptr<const std::vector<std::byte>> buf_;
};

// Snapshot field I/O (common/codec.hpp): the bytes, length-prefixed.
inline void io(BinaryWriter& w, const Payload& p) { w.bytes(p.bytes()); }
inline void io(BinaryReader& r, Payload& p) { p = r.bytes(); }

}  // namespace riv::net
