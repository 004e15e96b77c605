// Baseline comparator of §8.2 / Fig 5: simple broadcast delivery.
//
// Each process that receives an event directly from the sensor broadcasts
// it to every other process — unless it already learned of the event from
// another process first. With m event-receiving processes this costs
// O(m × n) messages in the failure-free case, which is exactly the
// overhead Rivulet's ring protocol avoids (§4.1).
//
// The node rides the same SimNetwork and frame format as Rivulet so the
// byte comparison in bench_fig5 is apples-to-apples.
#pragma once

#include <vector>

#include "common/seq_set.hpp"
#include "core/wire.hpp"
#include "devices/home_bus.hpp"
#include "net/sim_network.hpp"

namespace riv::baseline {

class BroadcastDeliveryNode {
 public:
  BroadcastDeliveryNode(net::SimNetwork& net, devices::HomeBus& bus,
                        ProcessId self, std::vector<ProcessId> all,
                        bool app_bearing);

  // Install transport + device handlers.
  void start();

  std::uint64_t delivered_to_app() const { return delivered_to_app_; }
  std::uint64_t broadcasts() const { return broadcasts_; }

 private:
  void on_device_event(const devices::SensorEvent& e);
  void on_message(const net::Message& msg);
  void note(const devices::SensorEvent& e, bool from_network);

  net::SimNetwork* net_;
  devices::HomeBus* bus_;
  ProcessId self_;
  std::vector<ProcessId> all_;
  bool app_bearing_;
  EventIdSet seen_;
  std::uint64_t delivered_to_app_{0};
  std::uint64_t broadcasts_{0};
};

}  // namespace riv::baseline
