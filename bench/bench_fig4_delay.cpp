// Figure 4: event delivery delay vs. number of processes.
//
//   (a) the event-receiving process is FARTHEST from the application-
//       bearing process: Gap forwards once (delay grows slightly with the
//       process count from keep-alive congestion); Gapless rides the ring
//       for ring-distance (n-1) hops, so its delay grows with n and the
//       extra cost at 2-3 processes is small.
//   (b) the application-bearing process receives directly: ~1-2 ms.
//
// Setup per §8.2: one IP software sensor, 10 events/s, 200 s runs,
// averaged over 5 seeds; event sizes from Table 3 (4 B, 8 B, 1 KB, 20 KB).
//
// Every run checks four bands, prints one `check` line per band with its
// worst cell, and exits 1 when any fails:
//   4a Gap grows by at most 0.5 ms per added process, at every size;
//   4a Gapless equals Gap within 0.1 ms at n=2, where the ring is one hop;
//   4a Gapless then grows by 1.5-10 ms per added process (the ring);
//   4b varies by at most 5% across n in every row.
#include <algorithm>
#include <cmath>
#include <string>

#include "bench_util.hpp"
#include "trace/provenance.hpp"
#include "trace/trace.hpp"

namespace riv::bench {
namespace {

double mean_delay_ms(const ScenarioOptions& opt, int runs) {
  double sum = 0.0;
  for (int r = 0; r < runs; ++r) {
    ScenarioOptions o = opt;
    o.seed = opt.seed + static_cast<std::uint64_t>(r) * 1000;
    auto home = make_scenario(o);
    home->start();
    home->run_for(seconds(200));
    sum += home->metrics().latency("app1.delay").mean().millis();
  }
  return sum / runs;
}

constexpr std::uint32_t kSizes[] = {4, 8, 1024, 20 * 1024};
constexpr const char* kSizeNames[] = {"4B", "8B", "1KB", "20KB"};
constexpr int kMinProcs = 2;
constexpr int kMaxProcs = 5;
constexpr int kCounts = kMaxProcs - kMinProcs + 1;

// Mean delay (ms) by guarantee (Gap, Gapless), event size and n - 2.
struct Table {
  double ms[2][4][kCounts];
};

Table run_placement(const char* label, int receiver_index) {
  Table t{};
  std::printf("\n--- %s ---\n", label);
  std::printf("%-9s %-6s", "delivery", "size");
  for (int n = kMinProcs; n <= kMaxProcs; ++n) std::printf("  n=%d(ms)", n);
  std::printf("\n");
  for (int g = 0; g < 2; ++g) {
    const auto guarantee =
        g == 0 ? appmodel::Guarantee::kGap : appmodel::Guarantee::kGapless;
    for (int s = 0; s < 4; ++s) {
      std::printf("%-9s %-6s", to_string(guarantee), kSizeNames[s]);
      for (int n = kMinProcs; n <= kMaxProcs; ++n) {
        ScenarioOptions opt;
        opt.n_processes = n;
        opt.receiver_indices = {receiver_index};
        opt.payload = kSizes[s];
        opt.guarantee = guarantee;
        opt.seed = 100 + static_cast<std::uint64_t>(n);
        t.ms[g][s][n - kMinProcs] = mean_delay_ms(opt, 5);
        std::printf("  %7.2f", t.ms[g][s][n - kMinProcs]);
      }
      std::printf("\n");
    }
  }
  return t;
}

// One band's line: its worst cell, formatted; returns 1 when it failed.
template <class... Args>
int report(const char* band, bool ok, const char* fmt, Args... args) {
  char got[96];
  std::snprintf(got, sizeof got, fmt, args...);
  std::printf("check %-46s %-36s %s\n", band, got, ok ? "ok" : "FAIL");
  return ok ? 0 : 1;
}

// The largest value offered, and the cell it came from.
struct Worst {
  double value;
  std::string cell;
  void offer(double v, std::string at) {
    if (v <= value) return;
    value = v;
    cell = std::move(at);
  }
};

// The four bands; returns how many failed.
int check_bands(const Table& a, const Table& b) {
  constexpr int kGap = 0, kGapless = 1;
  auto cell = [](int s, int n) {
    return std::string(kSizeNames[s]) + " n=" + std::to_string(n);
  };
  // Steps from n-1 to n processes; the Gapless low step is kept negated.
  Worst gap_step{-1e9, ""}, ring_low{-1e9, ""}, ring_high{-1e9, ""};
  Worst one_hop{-1.0, ""}, spread{-1.0, ""};
  for (int s = 0; s < 4; ++s) {
    one_hop.offer(std::fabs(a.ms[kGapless][s][0] - a.ms[kGap][s][0]),
                  kSizeNames[s]);
    for (int i = 1; i < kCounts; ++i) {
      gap_step.offer(a.ms[kGap][s][i] - a.ms[kGap][s][i - 1],
                     cell(s, i + kMinProcs));
      const double ring = a.ms[kGapless][s][i] - a.ms[kGapless][s][i - 1];
      ring_low.offer(-ring, cell(s, i + kMinProcs));
      ring_high.offer(ring, cell(s, i + kMinProcs));
    }
    for (int g = 0; g < 2; ++g) {
      const double* row = b.ms[g][s];
      const auto [lo, hi] = std::minmax_element(row, row + kCounts);
      const std::string guarantee = g == kGap ? "Gap " : "Gapless ";
      spread.offer((*hi - *lo) / *lo, guarantee + kSizeNames[s]);
    }
  }
  int failures = 0;
  failures += report("4a Gap      ms per added process",
                     gap_step.value <= 0.5, "max %+.2f at %s  <= 0.5",
                     gap_step.value, gap_step.cell.c_str());
  failures += report("4a Gapless  |Gapless - Gap| at n=2",
                     one_hop.value <= 0.1, "max %.2f at %s  <= 0.1",
                     one_hop.value, one_hop.cell.c_str());
  failures += report("4a Gapless  ms per added process in [1.5, 10]",
                     -ring_low.value >= 1.5 && ring_high.value <= 10.0,
                     "%+.2f (%s) .. %+.2f (%s)", -ring_low.value,
                     ring_low.cell.c_str(), ring_high.value,
                     ring_high.cell.c_str());
  failures += report("4b         spread across n in a row",
                     spread.value <= 0.05, "max %.1f%% (%s)  <= 5%%",
                     100 * spread.value, spread.cell.c_str());
  return failures;
}

// Where the time goes: record one Fig-4a run with the flight recorder on
// and let the provenance analyzer attribute the end-to-end delay to
// pipeline stages. The summed leg medians should account for the e2e
// delay the table above reports for the same configuration.
void run_stage_breakdown() {
  ScenarioOptions opt;
  opt.n_processes = 5;
  opt.receiver_indices = {1};
  opt.guarantee = appmodel::Guarantee::kGapless;
  opt.seed = 105;
  trace::Recorder rec(trace::kAllComponents &
                      ~trace::component_bit(trace::Component::kSim));
  {
    trace::Scope scope(rec);
    auto home = make_scenario(opt);
    home->start();
    home->run_for(seconds(60));
  }
  std::printf("\n--- per-stage latency attribution "
              "(Gapless, n=5, receiver p2, 60s) ---\n");
  std::printf("%s", trace::render(trace::analyze(rec.records())).c_str());
}

}  // namespace
}  // namespace riv::bench

int main(int argc, char** argv) {
  using namespace riv::bench;
  Output out = parse_output(argc, argv);
  print_header(
      "Figure 4a: delay, receiver farthest from the app-bearing process",
      "Gap: small, slowly increasing with n; Gapless: grows with n "
      "(ring), only a small extra cost at 2-3 processes; both grow with "
      "event size");
  const Table a =
      run_placement("Fig 4a (receiver = ring-farthest process p2)", 1);

  print_header(
      "Figure 4b: delay when the app-bearing process receives directly",
      "~1-2 ms for small events, independent of the number of processes");
  const Table b =
      run_placement("Fig 4b (receiver = app-bearing process p1)", 0);
  run_stage_breakdown();
  {
    ScenarioOptions opt;
    opt.n_processes = 5;
    opt.receiver_indices = {1};
    opt.seed = 105;
    dump_reference_run(out, "fig4_delay", opt, riv::seconds(60));
  }
  std::printf("\n--- bands ---\n");
  const int failures = check_bands(a, b);
  std::printf("check: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
