// Runtime configuration knobs.
#pragma once

#include <map>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "core/exec/placement.hpp"
#include "membership/failure_detector.hpp"

namespace riv::core {

// Period of the Bayou-style anti-entropy with the ring successor (§4.1).
// A sync also fires immediately whenever the successor changes; the
// periodic pass guarantees convergence when a one-shot sync is lost to a
// concurrent crash or partition.
inline constexpr Duration kSyncPeriod = seconds(5);

struct Config {
  membership::Config membership{};  // keep-alive every 500 ms, 2 s timeout

  // How logic nodes are placed (chains computed per app in deploy order).
  PlacementPolicy placement_policy{PlacementPolicy::kMaxActiveDevices};

  // Optional explicit placement chains per app (highest priority first).
  // When absent, the placement function of §7 is used.
  std::map<AppId, std::vector<ProcessId>> placement_override;

  // Tamper evidence (DESIGN.md §12). When armed, event-bearing frames
  // carry the integrity trailer (wire::seal) and receivers verify and
  // strip it before any decoder runs; device events are checked against
  // their radio MAC and a per-origin sequence history. Off by default so
  // non-adversarial runs keep byte-identical frames, sizes and timing.
  bool integrity{false};
  std::uint64_t integrity_key{0};
};

}  // namespace riv::core
