// Figure 5: network overhead of Gapless and of a simple broadcast
// approach, normalized against Gap, with 5 processes and 1..5
// event-receiving processes.
//
// Paper expectations (§8.2):
//   * Gapless has a CONSTANT overhead regardless of how many processes
//     receive the event directly (the ring still sends ~n messages);
//   * broadcast grows with the receiver count: ~1.23x Gapless at 2
//     receivers, ~2x at 3, ~3x at 5 (4 B events);
//   * at 1 receiving process broadcast is cheaper than Gapless (the ring
//     pays for its S/V metadata);
//   * normalized overheads shrink at 20 KB events (metadata amortized).
//
// Every run checks the 4 B claims against bands (broadcast/Gapless
// 1.70 ± 0.15 at m=3 and 2.92 ± 0.25 at m=5, Gapless max/min over m at
// most 1.10, broadcast/Gapless below 1 at m=1), prints one line per band
// and exits 1 when any fails.
#include <algorithm>
#include <cmath>

#include "baseline/broadcast_delivery.hpp"
#include "bench_util.hpp"

namespace riv::bench {
namespace {

// Bytes per emitted event for a Rivulet run.
double rivulet_bytes_per_event(appmodel::Guarantee guarantee, int receivers,
                               std::uint32_t payload, std::uint64_t seed) {
  ScenarioOptions opt;
  opt.n_processes = 5;
  opt.receiver_indices.clear();
  for (int i = 0; i < receivers; ++i) opt.receiver_indices.push_back(i + 1 == 5 ? 0 : i + 1);
  opt.payload = payload;
  opt.guarantee = guarantee;
  opt.seed = seed;
  auto home = make_scenario(opt);
  home->start();
  home->run_for(seconds(200));
  double emitted =
      static_cast<double>(home->bus().sensor(kSensor).events_emitted());
  return static_cast<double>(delivery_bytes(home->metrics())) / emitted;
}

// Bytes per emitted event for the naive broadcast baseline.
double broadcast_bytes_per_event(int receivers, std::uint32_t payload,
                                 std::uint64_t seed) {
  workload::HomeDeployment::Options home_opt;
  home_opt.seed = seed;
  home_opt.n_processes = 5;
  workload::HomeDeployment home(home_opt);

  devices::SensorSpec spec;
  spec.id = kSensor;
  spec.name = "software-sensor";
  spec.tech = devices::Technology::kIp;
  spec.payload_size = payload;
  spec.rate_hz = 10.0;
  std::vector<ProcessId> linked;
  for (int i = 0; i < receivers; ++i)
    linked.push_back(home.pid(i + 1 == 5 ? 0 : i + 1));
  home.add_sensor(spec, linked);

  std::vector<std::unique_ptr<baseline::BroadcastDeliveryNode>> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(std::make_unique<baseline::BroadcastDeliveryNode>(
        home.net(), home.bus(), home.pid(i), home.processes(),
        /*app_bearing=*/i == 0));
    nodes.back()->start();
  }
  home.bus().start_all();
  home.run_for(seconds(200));
  double emitted =
      static_cast<double>(home.bus().sensor(kSensor).events_emitted());
  return static_cast<double>(
             home.metrics().counter_value("net.bytes.rb_event")) /
         emitted;
}

// Bytes per event of each approach, indexed by receivers m = 1..5.
struct Overheads {
  double gap[6], gapless[6], bcast[6];
};

Overheads run_for_size(std::uint32_t payload, const char* size_name) {
  std::printf("\n--- event size %s ---\n", size_name);
  std::printf("%-12s", "receivers");
  for (int m = 1; m <= 5; ++m) std::printf("      m=%d", m);
  std::printf("\n");

  Overheads o;
  auto& [gap, gapless, bcast] = o;
  for (int m = 1; m <= 5; ++m) {
    gap[m] = rivulet_bytes_per_event(appmodel::Guarantee::kGap, m, payload,
                                     300 + m);
    gapless[m] = rivulet_bytes_per_event(appmodel::Guarantee::kGapless, m,
                                         payload, 400 + m);
    bcast[m] = broadcast_bytes_per_event(m, payload, 500 + m);
  }
  // The paper's dotted normalization line is Gap's cost of delivering one
  // event: a single chain forward (at m=5 the app-bearing process receives
  // directly and Gap sends nothing at all, so m=1's cost is the baseline).
  const double gap_unit = gap[1];
  std::printf("%-12s", "Gap");
  for (int m = 1; m <= 5; ++m) std::printf("  %7.2f", gap[m] / gap_unit);
  std::printf("\n%-12s", "Gapless");
  for (int m = 1; m <= 5; ++m)
    std::printf("  %7.2f", gapless[m] / gap_unit);
  std::printf("\n%-12s", "Broadcast");
  for (int m = 1; m <= 5; ++m) std::printf("  %7.2f", bcast[m] / gap_unit);
  std::printf("\n%-12s", "Bcast/Gpls");
  for (int m = 1; m <= 5; ++m)
    std::printf("  %7.2f", bcast[m] / gapless[m]);
  std::printf("\n");
  return o;
}

// The 4 B bands; returns how many failed.
int check_bands(const Overheads& o) {
  int failures = 0;
  auto band = [&failures](const char* what, double got, bool ok,
                          const char* bound) {
    std::printf("check %-28s %5.2f  %-14s %s\n", what, got, bound,
                ok ? "ok" : "FAIL");
    failures += ok ? 0 : 1;
  };
  const double m3 = o.bcast[3] / o.gapless[3];
  const double m5 = o.bcast[5] / o.gapless[5];
  const double m1 = o.bcast[1] / o.gapless[1];
  const double flat = *std::max_element(o.gapless + 1, o.gapless + 6) /
                      *std::min_element(o.gapless + 1, o.gapless + 6);
  band("broadcast/Gapless at m=3", m3, std::fabs(m3 - 1.70) <= 0.15,
       "1.70 +- 0.15");
  band("broadcast/Gapless at m=5", m5, std::fabs(m5 - 2.92) <= 0.25,
       "2.92 +- 0.25");
  band("Gapless max/min over m", flat, flat <= 1.10, "<= 1.10");
  band("broadcast/Gapless at m=1", m1, m1 < 1.0, "< 1");
  return failures;
}

}  // namespace
}  // namespace riv::bench

int main(int argc, char** argv) {
  using namespace riv::bench;
  Output out = parse_output(argc, argv);
  print_header(
      "Figure 5: network overhead normalized against Gap (5 processes)",
      "Gapless constant in m; broadcast ~1.2x Gapless at m=2, ~2x at m=3, "
      "~3x at m=5; broadcast cheaper than Gapless at m=1; ratios smaller "
      "at 20KB");
  const Overheads small = run_for_size(4, "4B");
  run_for_size(20 * 1024, "20KB");
  {
    ScenarioOptions opt;
    opt.n_processes = 5;
    opt.receiver_indices = {1};
    opt.seed = 205;
    dump_reference_run(out, "fig5_overhead", opt, riv::seconds(60));
  }
  std::printf("\n--- 4B bands ---\n");
  const int failures = check_bands(small);
  std::printf("check: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
