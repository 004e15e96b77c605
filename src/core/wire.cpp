#include "core/wire.hpp"

#include "common/hash.hpp"

namespace riv::core::wire {
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
