// Protocol adapters (§7).
//
// In the Java prototype, adapters (OpenZWave, EmberZNet, IP-camera REST,
// Android SensorManager) encapsulate technology-specific communication.
// Here each technology is an emulated profile capturing the properties the
// paper depends on (§2.1, §3.1):
//   * communication range — determines which processes get active nodes,
//   * multicast capability — whether one emission can reach several
//     processes (Z-Wave mesh: yes; BLE: single bonded host),
//   * link latency and a loss floor from radio interference.
// A process has an adapter for each technology it has hardware for (the
// HomeBus keeps the set); a process without a Z-Wave radio can never create
// an active node for a Z-Wave sensor no matter how close it is.
#pragma once

#include <cstdint>
#include <set>

#include "common/time.hpp"
#include "common/types.hpp"

namespace riv::devices {

enum class Technology : std::uint8_t { kZWave = 0, kZigbee = 1, kBle = 2, kIp = 3 };

inline const char* to_string(Technology t) {
  switch (t) {
    case Technology::kZWave: return "zwave";
    case Technology::kZigbee: return "zigbee";
    case Technology::kBle: return "ble";
    case Technology::kIp: return "ip";
  }
  return "unknown";
}

struct TechProfile {
  Technology tech;
  double range_m;          // §2.1: Zigbee 10–20 m, Z-Wave 40 m, BLE 100 m
  bool multicast;          // can one emission reach multiple processes?
  Duration link_latency;   // sensor -> process one-way, size-independent
  double link_jitter;      // uniform fraction of link_latency
  double loss_floor;       // irreducible radio loss probability
  std::size_t frame_overhead;  // tech framing bytes on the device link
  double bandwidth_bytes_per_us;  // transmission time = size / bandwidth
};

const TechProfile& profile(Technology tech);

// The set of technologies a host has radios for.
using AdapterSet = std::set<Technology>;

}  // namespace riv::devices
