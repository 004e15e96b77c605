#include "baseline/broadcast_delivery.hpp"

namespace riv::baseline {

BroadcastDeliveryNode::BroadcastDeliveryNode(net::SimNetwork& net,
                                             devices::HomeBus& bus,
                                             ProcessId self,
                                             std::vector<ProcessId> all,
                                             bool app_bearing)
    : net_(&net),
      bus_(&bus),
      self_(self),
      all_(std::move(all)),
      app_bearing_(app_bearing) {}

void BroadcastDeliveryNode::start() {
  net_->endpoint(self_).set_handler(
      [this](const net::Message& msg) { on_message(msg); });
  bus_->subscribe(self_, [this](const devices::SensorEvent& e) {
    on_device_event(e);
  });
}

void BroadcastDeliveryNode::on_device_event(const devices::SensorEvent& e) {
  if (seen_.contains(e.id)) return;  // already heard via broadcast
  note(e, /*from_network=*/false);

  core::wire::EventPayload p;
  p.app = AppId{1};
  p.sensor = e.id.sensor;
  p.event = e;
  net::Payload payload = core::wire::encode(p);  // shared buffer
  ++broadcasts_;
  for (ProcessId q : all_) {
    if (q != self_)
      net_->endpoint(self_).send(q, net::MsgType::kRbEvent, payload);
  }
}

void BroadcastDeliveryNode::on_message(const net::Message& msg) {
  if (msg.type != net::MsgType::kRbEvent) return;
  core::wire::EventPayload p;
  if (!core::wire::decode(msg.payload, p)) return;  // malformed: dropped
  if (seen_.contains(p.event.id)) return;
  note(p.event, /*from_network=*/true);
}

void BroadcastDeliveryNode::note(const devices::SensorEvent& e,
                                 bool from_network) {
  (void)from_network;
  seen_.insert(e.id);
  if (app_bearing_) ++delivered_to_app_;
}

}  // namespace riv::baseline
