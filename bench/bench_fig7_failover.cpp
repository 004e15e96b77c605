// Figure 7: events received by the active logic node over time, with the
// application-bearing process crashed at t = 24 s.
//
// Paper expectations (§8.4, 5 processes, 5 receiving, 10 events/s, 2 s
// failure-detection threshold):
//   * Gap: delivery pauses for the ~2 s detection window — a permanent gap
//     of ~20 events — then resumes at the new primary;
//   * Gapless: the newly promoted logic node replays the backlog, causing
//     a spike of ~20+ events at t ~ 27 s; the cumulative curve rejoins the
//     no-loss line.
#include "bench_util.hpp"

namespace riv::bench {
namespace {

void run(appmodel::Guarantee guarantee) {
  ScenarioOptions opt;
  opt.n_processes = 5;
  opt.receiver_indices = {0, 1, 2, 3, 4};
  opt.guarantee = guarantee;
  opt.seed = 700;
  auto home = make_scenario(opt);
  home->start();
  std::printf("\n--- %s (crash of app-bearing process at t=24s) ---\n",
              to_string(guarantee));
  std::printf("%-6s %-10s %-8s\n", "t(s)", "cumulative", "per-sec");
  // One-second chunks (chunked runs equal one long run); after each, read
  // the delivered counter summed over every process, so the count of the
  // node promoted at failover adds to its predecessor's.
  std::uint64_t prev = 0;
  for (int t = 1; t <= 45; ++t) {
    home->run_for(seconds(1));
    if (t == 24) home->process(0).crash();  // p1 bears the application
    const std::uint64_t delivered =
        home->metrics().counter_value("app1.delivered");
    std::printf("%-6d %-10llu %-8lld\n", t,
                static_cast<unsigned long long>(delivered),
                static_cast<long long>(delivered) -
                    static_cast<long long>(prev));
    prev = delivered;
  }
  std::uint64_t emitted = home->bus().sensor(kSensor).events_emitted();
  std::uint64_t delivered =
      home->metrics().counter_value("app1.delivered");
  std::printf("emitted=%llu delivered=%llu (gap of %lld events)\n",
              static_cast<unsigned long long>(emitted),
              static_cast<unsigned long long>(delivered),
              static_cast<long long>(emitted) -
                  static_cast<long long>(delivered));
}

}  // namespace
}  // namespace riv::bench

int main(int argc, char** argv) {
  using namespace riv::bench;
  Output out = parse_output(argc, argv);
  print_header(
      "Figure 7: events received by the active logic node over time",
      "Gap: ~2s pause at t=24s, ~20 events permanently lost; Gapless: "
      "spike of backlogged events at t~26-27s, nothing lost");
  run(riv::appmodel::Guarantee::kGap);
  run(riv::appmodel::Guarantee::kGapless);
  {
    ScenarioOptions opt;
    opt.n_processes = 5;
    opt.receiver_indices = {1};
    opt.seed = 700;
    dump_reference_run(out, "fig7_failover", opt, riv::seconds(60));
  }
  return 0;
}
