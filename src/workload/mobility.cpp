#include "workload/mobility.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace riv::workload {

MobileSensor::MobileSensor(sim::Simulation& sim, HomeTopology& topology,
                           devices::HomeBus& bus, SensorId sensor,
                           std::vector<Point> waypoints, double speed_mps,
                           Duration update_period)
    : sim_(&sim),
      topology_(&topology),
      bus_(&bus),
      sensor_(sensor),
      waypoints_(std::move(waypoints)),
      speed_mps_(speed_mps),
      period_(update_period),
      timers_(sim, *this) {
  RIV_ASSERT(waypoints_.size() >= 2, "a path needs at least two waypoints");
  RIV_ASSERT(speed_mps_ > 0.0, "speed must be positive");
}

double MobileSensor::loop_length() const {
  double total = 0.0;
  for (std::size_t i = 0; i < waypoints_.size(); ++i) {
    total += distance_m(waypoints_[i],
                        waypoints_[(i + 1) % waypoints_.size()]);
  }
  return total;
}

Point MobileSensor::position() const {
  if (!running_) return waypoints_.front();
  double walked = speed_mps_ * (sim_->now() - started_at_).seconds();
  double along = std::fmod(walked, loop_length());
  for (std::size_t i = 0; i < waypoints_.size(); ++i) {
    Point a = waypoints_[i];
    Point b = waypoints_[(i + 1) % waypoints_.size()];
    double seg = distance_m(a, b);
    if (along <= seg && seg > 0.0) {
      double f = along / seg;
      return {a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f};
    }
    along -= seg;
  }
  return waypoints_.front();
}

void MobileSensor::start() {
  if (running_) return;
  running_ = true;
  started_at_ = sim_->now();
  update_links();
  timers_.schedule_after(period_, 0);
}

void MobileSensor::stop() {
  running_ = false;
  timers_.cancel_all();
}

void MobileSensor::on_timer(sim::TimerId /*id*/, std::uint16_t /*kind*/,
                            std::uint64_t /*arg*/) {
  update_links();
  timers_.schedule_after(period_, 0);
}

std::vector<ProcessId> MobileSensor::current_links() const {
  return bus_->sensor(sensor_).linked_processes();
}

void MobileSensor::update_links() {
  devices::Sensor& sensor = bus_->sensor(sensor_);
  const devices::Technology tech = sensor.spec().tech;
  const Point pos = position();

  // Desired link set at the current position.
  struct Candidate {
    ProcessId process;
    LinkEstimate estimate;
  };
  std::vector<Candidate> in_range;
  for (const HostPlacement& host : topology_->hosts()) {
    LinkEstimate est = topology_->estimate(pos, host, tech);
    if (est.in_range) in_range.push_back({host.process, est});
  }
  if (!devices::profile(tech).multicast && in_range.size() > 1) {
    // BLE: bonded to the single closest host.
    auto best = std::min_element(
        in_range.begin(), in_range.end(),
        [](const Candidate& a, const Candidate& b) {
          return a.estimate.distance < b.estimate.distance;
        });
    in_range = {*best};
  }

  std::vector<ProcessId> current = sensor.linked_processes();
  bool changed = false;
  for (ProcessId p : current) {
    bool still = std::any_of(in_range.begin(), in_range.end(),
                             [p](const Candidate& c) {
                               return c.process == p;
                             });
    if (!still) {
      sensor.remove_link(p);
      changed = true;
    }
  }
  for (const Candidate& c : in_range) {
    if (std::find(current.begin(), current.end(), c.process) ==
        current.end()) {
      devices::LinkParams params;
      params.loss_prob = c.estimate.loss_prob;
      sensor.add_link(c.process, params);
      changed = true;
    } else {
      sensor.set_link_loss(c.process, c.estimate.loss_prob);
    }
  }
  if (changed) ++relinks_;
}

}  // namespace riv::workload
