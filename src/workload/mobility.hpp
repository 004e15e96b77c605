// Wearable mobility (§2.1).
//
// "For wearable sensors, a sensor may be in the vicinity of different
// processes at different times due to user mobility." This module moves a
// sensor along a waypoint loop through the home and periodically re-derives
// its radio links from the HomeTopology: multicast technologies get a link
// to every in-range host; a BLE wearable stays bonded to the single
// closest in-range host and re-bonds as the user walks. The delivery
// service needs no special handling — the Gapless ring replicates an event
// no matter which process happened to ingest it — which is exactly the
// paper's point.
#pragma once

#include <cstdint>
#include <vector>

#include "devices/home_bus.hpp"
#include "sim/simulation.hpp"
#include "workload/topology.hpp"

namespace riv::workload {

class MobileSensor : public sim::TimerOwner {
 public:
  MobileSensor(sim::Simulation& sim, HomeTopology& topology,
               devices::HomeBus& bus, SensorId sensor,
               std::vector<Point> waypoints, double speed_mps,
               Duration update_period = milliseconds(500));

  // Begin walking (and immediately derive the initial links).
  void start();
  void stop();

  Point position() const;

  // Number of link-set changes so far (bond migrations for BLE).
  std::uint64_t relinks() const { return relinks_; }
  std::vector<ProcessId> current_links() const;

 private:
  // The walk's update tick, the one timer kind.
  void on_timer(sim::TimerId id, std::uint16_t kind,
                std::uint64_t arg) override;
  void update_links();
  double loop_length() const;

  sim::Simulation* sim_;
  HomeTopology* topology_;
  devices::HomeBus* bus_;
  SensorId sensor_;
  std::vector<Point> waypoints_;
  double speed_mps_;
  Duration period_;
  sim::ProcessTimers timers_;
  TimePoint started_at_{};
  bool running_{false};
  std::uint64_t relinks_{0};
};

}  // namespace riv::workload
