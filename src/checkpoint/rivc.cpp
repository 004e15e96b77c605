#include "checkpoint/rivc.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/codec.hpp"
#include "common/hash.hpp"

namespace riv::checkpoint {
namespace {

constexpr char kMagic[4] = {'R', 'I', 'V', 'C'};

bool fail(std::string* error, const char* msg) {
  if (error != nullptr) *error = msg;
  return false;
}

}  // namespace

const Section* Snapshot::find(std::string_view name) const {
  for (const Section& s : sections)
    if (s.name == name) return &s;
  return nullptr;
}

std::vector<std::byte> encode(const Snapshot& snap) {
  BinaryWriter w;
  for (char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(snap.version);
  w.str(snap.scenario);
  w.u64(snap.seed);
  w.bytes(snap.params);
  w.time_point(snap.at);
  w.u64(snap.trace_records);
  w.u64(snap.trace_hash);
  w.u32(static_cast<std::uint32_t>(snap.sections.size()));
  for (const Section& s : snap.sections) {
    w.str(s.name);
    w.bytes(s.payload);
  }
  std::vector<std::byte> out = w.take();
  const std::uint64_t footer = hash::fnv1a(out.data(), out.size());
  BinaryWriter f;
  f.u64(footer);
  std::vector<std::byte> tail = f.take();
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

bool decode(const std::vector<std::byte>& data, Snapshot* out,
            std::string* error) {
  if (data.size() < sizeof(kMagic))
    return fail(error, "truncated checkpoint");
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0)
    return fail(error, "not a RIVC checkpoint (bad magic)");

  BinaryReader r(data);
  r.skip_opaque(sizeof(kMagic));
  Snapshot snap;
  snap.version = r.u32();
  if (!r.ok()) return fail(error, "truncated checkpoint");
  if (snap.version != kRivcVersion) {
    if (error != nullptr)
      *error = "unsupported checkpoint version " +
               std::to_string(snap.version) + " (this build reads " +
               std::to_string(kRivcVersion) + ")";
    return false;
  }
  snap.scenario = r.str();
  snap.seed = r.u64();
  snap.params = r.bytes();
  snap.at = r.time_point();
  snap.trace_records = r.u64();
  snap.trace_hash = r.u64();
  const std::uint32_t n_sections = r.u32();
  if (!r.ok()) return fail(error, "truncated checkpoint");
  snap.sections.reserve(std::min<std::size_t>(n_sections, r.remaining()));
  for (std::uint32_t i = 0; i < n_sections; ++i) {
    Section s;
    s.name = r.str();
    s.payload = r.bytes();
    if (!r.ok()) return fail(error, "truncated checkpoint");
    snap.sections.push_back(std::move(s));
  }
  if (r.remaining() < 8) return fail(error, "truncated checkpoint");
  // The footer covers every byte before it — verify before trusting any
  // parsed field. (Parsing above is bounds-checked, so reading first is
  // safe; trusting is what waits for the hash.)
  const std::size_t footer_off = data.size() - r.remaining();
  const std::uint64_t stored = r.u64();
  if (hash::fnv1a(data.data(), footer_off) != stored)
    return fail(error, "checkpoint footer hash mismatch");
  if (!r.at_end())
    return fail(error, "trailing bytes after checkpoint footer");
  *out = std::move(snap);
  return true;
}

bool save(const Snapshot& snap, const std::string& path, std::string* error) {
  std::vector<std::byte> data = encode(snap);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return fail(error, "cannot open checkpoint file");
  const bool ok =
      std::fwrite(data.data(), 1, data.size(), f) == data.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) return fail(error, "cannot write checkpoint file");
  return true;
}

bool load(const std::string& path, Snapshot* out, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail(error, "cannot open checkpoint file");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::byte> data(size > 0 ? static_cast<std::size_t>(size) : 0);
  const bool ok =
      std::fread(data.data(), 1, data.size(), f) == data.size();
  std::fclose(f);
  if (!ok) return fail(error, "cannot read checkpoint file");
  return decode(data, out, error);
}

std::string diff_snapshots(const Snapshot& a, const Snapshot& b) {
  auto u64_diff = [](const char* field, std::uint64_t x, std::uint64_t y) {
    return std::string(field) + " differs (" + std::to_string(x) + " vs " +
           std::to_string(y) + ")";
  };
  if (a.version != b.version)
    return u64_diff("version", a.version, b.version);
  if (a.scenario != b.scenario)
    return "scenario differs ('" + a.scenario + "' vs '" + b.scenario + "')";
  if (a.seed != b.seed) return u64_diff("seed", a.seed, b.seed);
  if (a.params != b.params) return "params blob differs";
  if (a.at.us != b.at.us)
    return "snapshot time differs (" + std::to_string(a.at.us) + " vs " +
           std::to_string(b.at.us) + ")";
  if (a.trace_records != b.trace_records)
    return u64_diff("trace record count", a.trace_records, b.trace_records);
  if (a.trace_hash != b.trace_hash)
    return "trace hash differs (" + hash::fnv1a_digest(a.trace_hash) +
           " vs " + hash::fnv1a_digest(b.trace_hash) + ")";
  for (std::size_t i = 0; i < a.sections.size() || i < b.sections.size();
       ++i) {
    if (i >= a.sections.size())
      return "section '" + b.sections[i].name + "' only in second";
    if (i >= b.sections.size())
      return "section '" + a.sections[i].name + "' only in first";
    const Section& sa = a.sections[i];
    const Section& sb = b.sections[i];
    if (sa.name != sb.name)
      return "section order differs at index " + std::to_string(i) + " ('" +
             sa.name + "' vs '" + sb.name + "')";
    const std::size_t n = std::min(sa.payload.size(), sb.payload.size());
    for (std::size_t j = 0; j < n; ++j) {
      if (sa.payload[j] != sb.payload[j]) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "section '%s' differs at byte %zu (0x%02x vs 0x%02x)",
                      sa.name.c_str(), j,
                      static_cast<unsigned>(sa.payload[j]),
                      static_cast<unsigned>(sb.payload[j]));
        return buf;
      }
    }
    if (sa.payload.size() != sb.payload.size())
      return "section '" + sa.name + "' length differs (" +
             std::to_string(sa.payload.size()) + " vs " +
             std::to_string(sb.payload.size()) + ")";
  }
  return "";
}

}  // namespace riv::checkpoint
