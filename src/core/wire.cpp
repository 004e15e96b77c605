#include "core/wire.hpp"

#include <cstring>

#include "common/hash.hpp"

namespace riv::core::wire {

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

// The trailer's two words are copied in host order, which codec.hpp pins
// to little-endian.
void seal(std::vector<std::byte>& buf, std::uint64_t key,
          std::uint64_t chain) {
  const std::uint64_t mac = compute_mac(key, buf.data(), buf.size(), chain);
  const std::size_t base = buf.size();
  buf.resize(base + kIntegrityTrailerBytes);  // in place: encode left room
  std::byte* t = buf.data() + base;
  t[0] = std::byte{kIntegrityMarker};
  std::memcpy(t + 1, &chain, sizeof chain);
  std::memcpy(t + 9, &mac, sizeof mac);
}

bool verify_and_strip(const std::vector<std::byte>& buf, std::uint64_t key,
                      std::vector<std::byte>& body, IntegrityTrailer* out) {
  if (buf.size() < kIntegrityTrailerBytes) return false;
  std::size_t base = buf.size() - kIntegrityTrailerBytes;
  const std::byte* t = buf.data() + base;
  if (std::to_integer<std::uint8_t>(t[0]) != kIntegrityMarker) return false;
  IntegrityTrailer tr;
  std::memcpy(&tr.chain, t + 1, sizeof tr.chain);
  std::memcpy(&tr.mac, t + 9, sizeof tr.mac);
  if (compute_mac(key, buf.data(), base, tr.chain) != tr.mac) return false;
  body.assign(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(base));
  if (out != nullptr) *out = tr;
  return true;
}

}  // namespace riv::core::wire
