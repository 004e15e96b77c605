#include "core/wire.hpp"

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace riv::core::wire {
namespace {

// A decode is accepted only if every read stayed in bounds AND the buffer
// was consumed exactly: truncated frames fail (some read ran off the end)
// and trailing garbage fails too. This is what gives the fuzz test its
// every-strict-prefix-is-rejected property.
bool consumed(const BinaryReader& r) { return r.ok() && r.at_end(); }

}  // namespace

std::vector<std::byte> encode(const RingPayload& p) {
  BinaryWriter w;
  w.reserve(6 + 2 * (p.seen.size() + p.need.size()) +
            p.event.wire_size());
  w.app_id(p.app);
  w.sensor_id(p.sensor);
  io(w, p.seen);
  io(w, p.need);
  devices::encode(w, p.event);
  return w.take();
}

bool decode_ring_into(const std::vector<std::byte>& buf, RingPayload& p) {
  BinaryReader r(buf);
  p.app = r.app_id();
  p.sensor = r.sensor_id();
  io(r, p.seen);
  io(r, p.need);
  p.event = devices::decode_event(r);
  return consumed(r);
}

std::optional<RingPayload> try_decode_ring(
    const std::vector<std::byte>& buf) {
  RingPayload p;
  if (!decode_ring_into(buf, p)) return std::nullopt;
  return p;
}

RingPayload decode_ring(const std::vector<std::byte>& buf) {
  std::optional<RingPayload> p = try_decode_ring(buf);
  RIV_ASSERT(p.has_value(), "corrupt ring payload");
  return *std::move(p);
}

std::vector<std::byte> encode_event_payload(const EventPayload& p) {
  BinaryWriter w;
  w.reserve(4 + p.event.wire_size());
  w.app_id(p.app);
  w.sensor_id(p.sensor);
  devices::encode(w, p.event);
  return w.take();
}

std::optional<EventPayload> try_decode_event_payload(
    const std::vector<std::byte>& buf) {
  BinaryReader r(buf);
  EventPayload p;
  p.app = r.app_id();
  p.sensor = r.sensor_id();
  p.event = devices::decode_event(r);
  if (!consumed(r)) return std::nullopt;
  return p;
}

EventPayload decode_event_payload(const std::vector<std::byte>& buf) {
  std::optional<EventPayload> p = try_decode_event_payload(buf);
  RIV_ASSERT(p.has_value(), "corrupt event payload");
  return *std::move(p);
}

std::vector<std::byte> encode_sync_request(AppId app) {
  BinaryWriter w;
  w.app_id(app);
  return w.take();
}

std::optional<AppId> try_decode_sync_request(
    const std::vector<std::byte>& buf) {
  BinaryReader r(buf);
  AppId app = r.app_id();
  if (!consumed(r)) return std::nullopt;
  return app;
}

AppId decode_sync_request(const std::vector<std::byte>& buf) {
  std::optional<AppId> app = try_decode_sync_request(buf);
  RIV_ASSERT(app.has_value(), "corrupt sync request");
  return *app;
}

std::vector<std::byte> encode(const SyncResponse& p) {
  std::size_t size = 4;
  for (const SyncSummary& s : p.streams) size += 14 + 8 * s.missing.size();
  BinaryWriter w;
  w.reserve(size);
  w.app_id(p.app);
  w.u16(static_cast<std::uint16_t>(p.streams.size()));
  for (const SyncSummary& s : p.streams) {
    w.sensor_id(s.sensor);
    w.u32(s.prefix);
    w.u32(s.end);
    w.u32(static_cast<std::uint32_t>(s.missing.size()));
    for (const SeqRun& run : s.missing) {
      w.u32(run.lo);
      w.u32(run.hi);
    }
  }
  return w.take();
}

std::optional<SyncResponse> try_decode_sync_response(
    const std::vector<std::byte>& buf) {
  BinaryReader r(buf);
  SyncResponse p;
  p.app = r.app_id();
  const std::uint16_t n = r.u16();
  // Counts are checked against the bytes left before anything is
  // reserved, so a forged count cannot make the decoder allocate.
  if (!r.ok() || r.remaining() / 14 < n) return std::nullopt;
  p.streams.resize(n);
  for (SyncSummary& s : p.streams) {
    s.sensor = r.sensor_id();
    s.prefix = r.u32();
    s.end = r.u32();
    const std::uint32_t runs = r.u32();
    if (!r.ok() || s.prefix > s.end || r.remaining() / 8 < runs)
      return std::nullopt;
    s.missing.resize(runs);
    std::uint32_t min_lo = s.prefix;
    for (SeqRun& run : s.missing) {
      run.lo = r.u32();
      run.hi = r.u32();
      if (run.lo < min_lo || run.lo >= run.hi || run.hi > s.end)
        return std::nullopt;
      min_lo = run.hi;
    }
  }
  if (!consumed(r)) return std::nullopt;
  return p;
}

SyncResponse decode_sync_response(const std::vector<std::byte>& buf) {
  std::optional<SyncResponse> p = try_decode_sync_response(buf);
  RIV_ASSERT(p.has_value(), "corrupt sync response");
  return *std::move(p);
}

std::vector<std::byte> encode(const CommandPayload& p) {
  BinaryWriter w;
  w.app_id(p.app);
  w.u8(p.guarantee);
  devices::encode(w, p.command);
  return w.take();
}

std::optional<CommandPayload> try_decode_command_payload(
    const std::vector<std::byte>& buf) {
  BinaryReader r(buf);
  CommandPayload p;
  p.app = r.app_id();
  p.guarantee = r.u8();
  p.command = devices::decode_command(r);
  if (!consumed(r)) return std::nullopt;
  return p;
}

CommandPayload decode_command_payload(const std::vector<std::byte>& buf) {
  std::optional<CommandPayload> p = try_decode_command_payload(buf);
  RIV_ASSERT(p.has_value(), "corrupt command payload");
  return *std::move(p);
}

std::vector<std::byte> encode_role_change(AppId app) {
  BinaryWriter w;
  w.app_id(app);
  return w.take();
}

std::optional<AppId> try_decode_role_change(
    const std::vector<std::byte>& buf) {
  BinaryReader r(buf);
  AppId app = r.app_id();
  if (!consumed(r)) return std::nullopt;
  return app;
}

AppId decode_role_change(const std::vector<std::byte>& buf) {
  std::optional<AppId> app = try_decode_role_change(buf);
  RIV_ASSERT(app.has_value(), "corrupt role-change payload");
  return *app;
}

std::vector<std::byte> encode(const CommandAck& p) {
  BinaryWriter w;
  w.app_id(p.app);
  w.command_id(p.command);
  return w.take();
}

std::optional<CommandAck> try_decode_command_ack(
    const std::vector<std::byte>& buf) {
  BinaryReader r(buf);
  CommandAck p;
  p.app = r.app_id();
  p.command = r.command_id();
  if (!consumed(r)) return std::nullopt;
  return p;
}

CommandAck decode_command_ack(const std::vector<std::byte>& buf) {
  std::optional<CommandAck> p = try_decode_command_ack(buf);
  RIV_ASSERT(p.has_value(), "corrupt command ack");
  return *p;
}

namespace {

void put_u64_le(std::vector<std::byte>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}

std::uint64_t get_u64_le(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  return v;
}

}  // namespace

std::uint64_t compute_mac(std::uint64_t key, const std::byte* body,
                          std::size_t n, std::uint64_t chain) {
  hash::Fnv1aStream h;
  h.put(&key, sizeof key);
  h.put(body, n);
  h.put(&chain, sizeof chain);
  std::uint64_t len = n;
  h.put(&len, sizeof len);
  return h.value();
}

void seal(std::vector<std::byte>& buf, std::uint64_t key,
          std::uint64_t chain) {
  std::uint64_t mac = compute_mac(key, buf.data(), buf.size(), chain);
  buf.reserve(buf.size() + kIntegrityTrailerBytes);
  buf.push_back(static_cast<std::byte>(kIntegrityMarker));
  put_u64_le(buf, chain);
  put_u64_le(buf, mac);
}

bool verify_and_strip(const std::vector<std::byte>& buf, std::uint64_t key,
                      std::vector<std::byte>& body, IntegrityTrailer* out) {
  if (buf.size() < kIntegrityTrailerBytes) return false;
  std::size_t base = buf.size() - kIntegrityTrailerBytes;
  const std::byte* t = buf.data() + base;
  if (std::to_integer<std::uint8_t>(t[0]) != kIntegrityMarker) return false;
  IntegrityTrailer tr;
  tr.chain = get_u64_le(t + 1);
  tr.mac = get_u64_le(t + 9);
  if (compute_mac(key, buf.data(), base, tr.chain) != tr.mac) return false;
  body.assign(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(base));
  if (out != nullptr) *out = tr;
  return true;
}

}  // namespace riv::core::wire
