// RIVC: the versioned checkpoint container (DESIGN.md §13).
//
// A checkpoint is the scenario's identity (name, seed, opaque param blob)
// plus the virtual time it was taken at, the flight-trace position
// (record count + rolling hash), and a list of named state sections —
// each an opaque byte payload: the blobs of a warm-clone image
// (checkpoint/clone.hpp image_sections), plus scenario extras such as
// "chaos.session". The file ends with an FNV-1a footer over every
// preceding byte, so corruption anywhere is detected before a single
// field is trusted.
//
// Sections are used as an *attestation surface*: restore() rebuilds the
// scenario from its identity, re-executes deterministically to `at`, and
// byte-compares the re-captured sections against the stored ones
// (checkpoint/scenario.hpp). A section mismatch means the build's
// behaviour diverged from the one that wrote the checkpoint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"

namespace riv::checkpoint {

// Bumped whenever the container layout or any section payload changes
// incompatibly. A reader only accepts its own version: checkpoints are
// build-coupled by design (they attest behaviour, not archive data).
// Version 2: sections are the warm-clone blobs, metrics included.
// Version 3: each proc.<pid> section carries the process's event logs
// once, also while it is down; its stable store holds no log keys.
// Version 4: "chaos.session" (injector cursors + checker state) replaces
// the injector-only chaos section; registries carry no time series.
// Version 5: "sim.kernel" carries the whole schedule (owner, kind and arg
// per timer), component sections drop their timers' (t, seq), and
// "chaos.session" records the armed plan and the fault trace.
// Version 6: "bus.devices" lists each adapter's identity only, without
// frame counters.
inline constexpr std::uint32_t kRivcVersion = 6;

struct Section {
  std::string name;
  std::vector<std::byte> payload;
};

struct Snapshot {
  std::uint32_t version{kRivcVersion};
  // Scenario identity: registry name + seed + opaque parameter blob
  // (scenario-defined encoding), enough to rebuild the run from scratch.
  std::string scenario;
  std::uint64_t seed{0};
  std::vector<std::byte> params;
  // Virtual time the snapshot was taken at.
  TimePoint at{};
  // Flight-recorder position: records appended and rolling hash so far
  // (both zero when the scenario records no flight trace).
  std::uint64_t trace_records{0};
  std::uint64_t trace_hash{0};
  std::vector<Section> sections;

  const Section* find(std::string_view name) const;
};

// Encode to the RIVC wire form (including magic and footer).
std::vector<std::byte> encode(const Snapshot& snap);

// Decode; returns false and sets *error on any malformed input. Error
// strings are pinned (test_checkpoint_fuzz):
//   "not a RIVC checkpoint (bad magic)"
//   "unsupported checkpoint version N (this build reads 6)"
//   "truncated checkpoint"
//   "checkpoint footer hash mismatch"
//   "trailing bytes after checkpoint footer"
bool decode(const std::vector<std::byte>& data, Snapshot* out,
            std::string* error);

bool save(const Snapshot& snap, const std::string& path, std::string* error);
bool load(const std::string& path, Snapshot* out, std::string* error);

// Human-readable description of the first difference between two
// snapshots ("" when identical): a differing meta field by name, a
// section present in only one, or the first differing payload byte
// ("section 'proc.2' differs at byte 17 (0x3a vs 0x3b)"). This is the
// message a failed restore attestation reports.
std::string diff_snapshots(const Snapshot& a, const Snapshot& b);

}  // namespace riv::checkpoint
