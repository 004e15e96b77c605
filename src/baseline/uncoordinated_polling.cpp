#include "baseline/uncoordinated_polling.hpp"

namespace riv::baseline {

UncoordinatedPoller::UncoordinatedPoller(sim::Simulation& sim,
                                         devices::HomeBus& bus,
                                         ProcessId self, SensorId sensor,
                                         Duration epoch, Rng rng)
    : sim_(&sim),
      bus_(&bus),
      self_(self),
      sensor_(sensor),
      epoch_(epoch),
      rng_(rng),
      timers_(sim, *this) {}

void UncoordinatedPoller::start() {
  auto current =
      static_cast<std::uint32_t>(sim_->now().us / epoch_.us);
  schedule_epoch(current + 1);
}

void UncoordinatedPoller::on_device_event(const devices::SensorEvent& e) {
  if (e.id.sensor != sensor_) return;
  epochs_seen_.insert(e.epoch);
  while (epochs_seen_.size() > 1024)
    epochs_seen_.erase(epochs_seen_.begin());
}

void UncoordinatedPoller::schedule_epoch(std::uint32_t epoch) {
  const TimePoint boundary{static_cast<std::int64_t>(epoch) * epoch_.us};
  const Duration offset{
      static_cast<std::int64_t>(rng_.uniform() * static_cast<double>(epoch_.us))};
  timers_.schedule_at(boundary + offset, kPollTimer, epoch);
  timers_.schedule_at(boundary, kEpochTimer, epoch);
}

void UncoordinatedPoller::on_timer(sim::TimerId /*id*/, std::uint16_t kind,
                                   std::uint64_t arg) {
  const auto epoch = static_cast<std::uint32_t>(arg);
  if (kind == kEpochTimer) {
    schedule_epoch(epoch + 1);
  } else if (epochs_seen_.count(epoch) == 0) {
    ++polls_issued_;
    bus_->poll(self_, sensor_, epoch);
  }
}

}  // namespace riv::baseline
