// Figure 6: percentage of emitted events delivered to the application
// under sensor-process link loss, for 2/4/5 event-receiving processes.
//
// Paper expectations (§8.3, 5 processes, 4 B events, 10 events/s):
//   * Gap delivers ~ (1 - loss): it forwards from a single receiving
//     process and never recovers lost events;
//   * Gapless retrieves events across receivers: it delivers roughly the
//     fraction received by at least one process (~ 1 - loss^m), e.g. 99%
//     at 10% loss with 2 receivers, and ~75% / ~87-94% / ~95-97% at 50%
//     loss with 2 / 4 / 5 receivers.
//
// Every run checks both claims in every cell (Gap within 2 points of
// 100(1-p); Gapless at least 100(1-p^m) - 3), prints one line per
// guarantee and m with its worst cell, and exits 1 when any fails.
#include <algorithm>
#include <cmath>

#include "bench_util.hpp"

namespace riv::bench {
namespace {

double delivered_pct(appmodel::Guarantee guarantee, int receivers,
                     double loss, std::uint64_t seed, int runs) {
  double sum = 0.0;
  for (int r = 0; r < runs; ++r) {
    ScenarioOptions opt;
    opt.n_processes = 5;
    opt.receiver_indices.clear();
    // Receivers farthest from the app-bearing process (§8.3).
    for (int i = 0; i < receivers; ++i)
      opt.receiver_indices.push_back(i + 1 == 5 ? 0 : i + 1);
    opt.link_loss = loss;
    opt.guarantee = guarantee;
    opt.seed = seed + static_cast<std::uint64_t>(r) * 1000;
    auto home = make_scenario(opt);
    home->start();
    home->run_for(seconds(200));
    double emitted =
        static_cast<double>(home->bus().sensor(kSensor).events_emitted());
    double delivered = static_cast<double>(
        home->metrics().counter_value("app1.delivered"));
    sum += 100.0 * delivered / emitted;
  }
  return sum / runs;
}

constexpr int kReceivers[] = {2, 4, 5};
constexpr double kLosses[] = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};

// Percent delivered, by receiver count and loss (indexes into the above).
struct Table {
  double gap[3][6], gapless[3][6];
};

// The two bands over every cell; returns how many (guarantee, m) rows
// failed.
int check_bands(const Table& t) {
  int failures = 0;
  for (int i = 0; i < 3; ++i) {
    const int m = kReceivers[i];
    // Gap: the largest distance from 100(1-p) in the row, at most 2.
    double worst_gap = 0.0, gap_p = 0.0;
    // Gapless: the smallest margin over 100(1-p^m) - 3, at least 0.
    double worst_margin = 1e9, gapless_p = 0.0;
    for (int j = 0; j < 6; ++j) {
      const double p = kLosses[j];
      const double gap_off = std::fabs(t.gap[i][j] - 100.0 * (1.0 - p));
      if (gap_off > worst_gap) {
        worst_gap = gap_off;
        gap_p = p;
      }
      const double margin =
          t.gapless[i][j] - (100.0 * (1.0 - std::pow(p, m)) - 3.0);
      if (margin < worst_margin) {
        worst_margin = margin;
        gapless_p = p;
      }
    }
    const bool gap_ok = worst_gap <= 2.0;
    const bool gapless_ok = worst_margin >= 0.0;
    std::printf("check Gap     m=%d  |got - 100(1-p)|      %5.2f at p=%.1f  "
                "<= 2   %s\n",
                m, worst_gap, gap_p, gap_ok ? "ok" : "FAIL");
    std::printf("check Gapless m=%d  got - (100(1-p^m)-3) %5.2f at p=%.1f  "
                ">= 0   %s\n",
                m, worst_margin, gapless_p, gapless_ok ? "ok" : "FAIL");
    failures += (gap_ok ? 0 : 1) + (gapless_ok ? 0 : 1);
  }
  return failures;
}

}  // namespace
}  // namespace riv::bench

int main(int argc, char** argv) {
  using namespace riv::bench;
  Output out = parse_output(argc, argv);
  print_header(
      "Figure 6: % events delivered vs link loss and receiving processes",
      "Gap ~ 100*(1-p); Gapless ~ 100*(1-p^m): 99% at p=0.1,m=2; ~75/94/97% "
      "at p=0.5 with m=2/4/5");
  std::printf("\n%-9s %-4s", "delivery", "m");
  for (double p : kLosses) std::printf("   p=%.1f", p);
  std::printf("\n");
  Table table;
  for (auto g : {riv::appmodel::Guarantee::kGap,
                 riv::appmodel::Guarantee::kGapless}) {
    auto& rows = g == riv::appmodel::Guarantee::kGap ? table.gap
                                                     : table.gapless;
    for (int i = 0; i < 3; ++i) {
      std::printf("%-9s %-4d", to_string(g), kReceivers[i]);
      for (int j = 0; j < 6; ++j) {
        rows[i][j] = delivered_pct(g, kReceivers[i], kLosses[j], 600, 3);
        std::printf("  %6.1f", rows[i][j]);
      }
      std::printf("\n");
    }
  }
  {
    ScenarioOptions opt;
    opt.n_processes = 5;
    opt.receiver_indices = {1, 2};
    opt.link_loss = 0.3;
    opt.seed = 600;
    dump_reference_run(out, "fig6_linkloss", opt, riv::seconds(60));
  }
  std::printf("\n--- bands ---\n");
  const int failures = check_bands(table);
  std::printf("check: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
