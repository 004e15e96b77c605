// Baseline comparator of §8.5 / Fig 8: uncoordinated polling.
//
// Every process that can reach a poll-based sensor issues one poll request
// at a uniformly random offset inside each epoch, skipping only when an
// event for the epoch was already received. Because the sensors accept a
// single outstanding request and drop the rest silently, overlapping polls
// fail and drain battery for nothing — the effect Fig 8 quantifies at
// 1.5–2.5x the optimal request count.
#pragma once

#include <cstdint>
#include <set>

#include "common/rng.hpp"
#include "devices/home_bus.hpp"
#include "sim/simulation.hpp"

namespace riv::baseline {

class UncoordinatedPoller : public sim::TimerOwner {
 public:
  UncoordinatedPoller(sim::Simulation& sim, devices::HomeBus& bus,
                      ProcessId self, SensorId sensor, Duration epoch,
                      Rng rng);

  void start();

  // The owner fans device events out to its pollers (one HomeBus handler
  // exists per process).
  void on_device_event(const devices::SensorEvent& e);

  std::uint64_t polls_issued() const { return polls_issued_; }

 private:
  // Both timers carry their epoch: the random-offset poll, and the
  // boundary that schedules the next epoch.
  enum TimerKind : std::uint16_t { kPollTimer, kEpochTimer };

  void on_timer(sim::TimerId id, std::uint16_t kind,
                std::uint64_t arg) override;
  void schedule_epoch(std::uint32_t epoch);

  sim::Simulation* sim_;
  devices::HomeBus* bus_;
  ProcessId self_;
  SensorId sensor_;
  Duration epoch_;
  Rng rng_;
  sim::ProcessTimers timers_;
  std::set<std::uint32_t> epochs_seen_;
  std::uint64_t polls_issued_{0};
};

}  // namespace riv::baseline
