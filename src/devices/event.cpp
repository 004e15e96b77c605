#include "devices/event.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace riv::devices {
namespace {

constexpr std::uint8_t kFlagPollBased = 0x1;

// Fixed-point quantization for narrow payloads: milli-units in `n` bytes,
// two's complement, little-endian.
void write_quantized(BinaryWriter& w, double value, std::uint32_t n) {
  auto scaled = static_cast<std::int64_t>(std::llround(value * 1000.0));
  for (std::uint32_t i = 0; i < n; ++i) {
    w.u8(static_cast<std::uint8_t>(scaled & 0xff));
    scaled >>= 8;
  }
}

double read_quantized(BinaryReader& r, std::uint32_t n) {
  // n == 0 only arrives from corrupt input (encode asserts >= 1, and a
  // truncated buffer reads payload_size as 0); the caller's consumed()
  // check rejects the message, so any value works — but the sign-extend
  // below must not shift by -1.
  if (n == 0) return 0.0;
  std::uint64_t raw = 0;
  for (std::uint32_t i = 0; i < n; ++i)
    raw |= static_cast<std::uint64_t>(r.u8()) << (8 * i);
  // Sign-extend from n bytes.
  if (n < 8) {
    std::uint64_t sign_bit = 1ULL << (8 * n - 1);
    if (raw & sign_bit) raw |= ~((sign_bit << 1) - 1);
  }
  return static_cast<double>(static_cast<std::int64_t>(raw)) / 1000.0;
}

}  // namespace

void encode(BinaryWriter& w, const SensorEvent& e) {
  RIV_ASSERT(e.payload_size >= 1, "sensor payload must be at least 1 byte");
  w.event_id(e.id);
  w.u32(e.epoch);
  w.time_point(e.emitted_at);
  w.u8(e.poll_based ? kFlagPollBased : 0);
  w.u32(e.payload_size);
  if (e.payload_size >= 8) {
    w.f64(e.value);
    w.opaque(e.payload_size - 8);
  } else {
    write_quantized(w, e.value, e.payload_size);
  }
}

SensorEvent decode_event(BinaryReader& r) {
  SensorEvent e;
  e.id = r.event_id();
  e.epoch = r.u32();
  e.emitted_at = r.time_point();
  e.poll_based = (r.u8() & kFlagPollBased) != 0;
  e.payload_size = r.u32();
  if (e.payload_size >= 8) {
    e.value = r.f64();
    r.skip_opaque(e.payload_size - 8);
  } else {
    e.value = read_quantized(r, e.payload_size);
  }
  return e;
}

std::uint64_t event_mac(std::uint64_t key, const SensorEvent& e) {
  hash::Fnv1aStream h;
  h.put(&key, sizeof key);
  std::uint16_t sensor = e.id.sensor.value;
  h.put(&sensor, sizeof sensor);
  h.put(&e.id.seq, sizeof e.id.seq);
  h.put(&e.epoch, sizeof e.epoch);
  h.put(&e.emitted_at.us, sizeof e.emitted_at.us);
  std::uint8_t flags = e.poll_based ? 1 : 0;
  h.put(&flags, sizeof flags);
  h.put(&e.value, sizeof e.value);
  h.put(&e.chain, sizeof e.chain);
  return h.value();
}

}  // namespace riv::devices
