// Ablation (design decision §4.1): optimistic ring with RB fallback vs.
// always-broadcast, under increasing sensor-process link loss.
//
// The paper's argument: sensor-process link loss is rare, so paying the
// O(m x n) broadcast cost on every event is wasted; the ring costs ~n
// messages and falls back to reliable broadcast only when it stalls.
// This bench quantifies both sides: bytes per event AND delivery
// percentage must match (the ring must not trade reliability for cost).
//
//   bench_ablation_ring_vs_rb [--check]
//
// --check turns the claim into an exit code: non-zero when the ring costs
// more bytes per event than always-broadcast at any loss <= 0.3, or when
// the two delivered percentages differ by more than 2 points at any loss.
#include <cmath>
#include <cstring>

#include "baseline/broadcast_delivery.hpp"
#include "bench_util.hpp"

namespace riv::bench {
namespace {

struct Result {
  double bytes_per_event;
  double delivered_pct;
};

Result ring(double loss, std::uint64_t seed) {
  ScenarioOptions opt;
  opt.n_processes = 5;
  opt.receiver_indices = {1, 2, 3};
  opt.link_loss = loss;
  opt.guarantee = appmodel::Guarantee::kGapless;
  opt.seed = seed;
  auto home = make_scenario(opt);
  home->start();
  home->run_for(seconds(200));
  double emitted =
      static_cast<double>(home->bus().sensor(kSensor).events_emitted());
  Result r;
  r.bytes_per_event =
      static_cast<double>(delivery_bytes(home->metrics())) / emitted;
  r.delivered_pct =
      100.0 *
      static_cast<double>(home->metrics().counter_value("app1.delivered")) /
      emitted;
  return r;
}

Result broadcast(double loss, std::uint64_t seed) {
  workload::HomeDeployment::Options home_opt;
  home_opt.seed = seed;
  home_opt.n_processes = 5;
  workload::HomeDeployment home(home_opt);
  devices::SensorSpec spec;
  spec.id = kSensor;
  spec.name = "software-sensor";
  spec.tech = devices::Technology::kIp;
  spec.payload_size = 4;
  spec.rate_hz = 10.0;
  devices::LinkParams link;
  link.loss_prob = loss;
  home.add_sensor(spec, {home.pid(1), home.pid(2), home.pid(3)}, link);

  std::vector<std::unique_ptr<baseline::BroadcastDeliveryNode>> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(std::make_unique<baseline::BroadcastDeliveryNode>(
        home.net(), home.bus(), home.pid(i), home.processes(), i == 0));
    nodes.back()->start();
  }
  home.bus().start_all();
  home.run_for(seconds(200));
  double emitted =
      static_cast<double>(home.bus().sensor(kSensor).events_emitted());
  Result r;
  r.bytes_per_event = static_cast<double>(home.metrics().counter_value(
                          "net.bytes.rb_event")) /
                      emitted;
  r.delivered_pct =
      100.0 * static_cast<double>(nodes[0]->delivered_to_app()) / emitted;
  return r;
}

}  // namespace
}  // namespace riv::bench

int main(int argc, char** argv) {
  using namespace riv::bench;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr, "usage: %s [--check]\n", argv[0]);
      return 2;
    }
  }
  print_header(
      "Ablation: optimistic ring (+RB fallback) vs always-broadcast",
      "equal delivery %, ring substantially fewer bytes at low loss "
      "(the common case in homes, Fig 1)");
  std::printf("\n%-7s | %-22s | %-22s\n", "loss", "ring B/ev (deliv %)",
              "broadcast B/ev (deliv %)");
  int failures = 0;
  for (double loss : {0.0, 0.05, 0.1, 0.2, 0.3, 0.5}) {
    Result a = ring(loss, 1100 + static_cast<std::uint64_t>(loss * 100));
    Result b =
        broadcast(loss, 1200 + static_cast<std::uint64_t>(loss * 100));
    std::printf("%-7.2f | %8.1f  (%5.1f%%)    | %8.1f  (%5.1f%%)\n", loss,
                a.bytes_per_event, a.delivered_pct, b.bytes_per_event,
                b.delivered_pct);
    if (loss <= 0.3 && a.bytes_per_event > b.bytes_per_event) {
      std::printf("  claim broken: ring costs more bytes than broadcast\n");
      ++failures;
    }
    if (std::fabs(a.delivered_pct - b.delivered_pct) > 2.0) {
      std::printf("  claim broken: delivered %% differ by more than 2\n");
      ++failures;
    }
  }
  if (!check) return 0;
  std::printf("\ncheck: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
