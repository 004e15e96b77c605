// Supporting sweep for §8.3's closing claim: "We observe a similar trend
// for other event rates and sizes" — the Gap vs Gapless delivery gap under
// link loss is independent of the event rate and of the event size.
//
// Grid: rates {1, 10, 50} ev/s x sizes {4 B, 1 KB, 20 KB} at 30% loss,
// 5 processes, 3 receiving, receiver farthest from the app process.
//
// --fork K runs the grid as warm-prefix branches: every cell gets K seed
// replicates (mean delivered-% is reported), and each cell's replicates
// share ONE warm deployment — the home is built and run to the 90 s warm
// point once, captured as a WarmImage, and cloned K times; each clone
// salts the device RNG streams (HomeBus::perturb) and finishes the run.
// The from-scratch leg re-executes the identical protocol without
// clones (re-running the 90 s warm-up K times per cell), every replicate
// is checked bit-identical between the two legs, and both wall-clocks
// are printed: the speed-up is eliminated warm-up work, not parallelism,
// so it holds even on one core. EXPERIMENTS.md records the before/after.
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "checkpoint/clone.hpp"

namespace riv::bench {
namespace {

constexpr std::int64_t kWarmS = 90;   // shared prefix
constexpr std::int64_t kTailS = 10;   // per-replicate divergent tail

double wall_now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

ScenarioOptions cell_options(appmodel::Guarantee g, double rate,
                             std::uint32_t payload, std::uint64_t seed) {
  ScenarioOptions opt;
  opt.n_processes = 5;
  opt.receiver_indices = {1, 2, 3};
  opt.link_loss = 0.3;
  opt.rate_hz = rate;
  opt.payload = payload;
  opt.guarantee = g;
  opt.seed = seed;
  return opt;
}

double harvest_pct(workload::HomeDeployment& home) {
  double emitted =
      static_cast<double>(home.bus().sensor(kSensor).events_emitted());
  return 100.0 *
         static_cast<double>(home.metrics().counter_value("app1.delivered")) /
         emitted;
}

double delivered_pct(appmodel::Guarantee g, double rate,
                     std::uint32_t payload, std::uint64_t seed) {
  auto home = make_scenario(cell_options(g, rate, payload, seed));
  home->start();
  home->run_for(seconds(100));
  return harvest_pct(*home);
}

// One replicate of the --fork protocol, from scratch: warm 90 s, perturb
// with the replicate salt, finish the last 10 s. A clone that perturbs
// the same warm state with the same salt must produce this exact number
// — that equality is checked per replicate.
double replicate_pct_fresh(const ScenarioOptions& opt, std::uint64_t salt) {
  auto home = make_scenario(opt);
  home->start();
  home->run_for(seconds(kWarmS));
  home->bus().perturb(salt);
  home->run_for(seconds(kTailS));
  return harvest_pct(*home);
}

std::string fmt_pct(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", pct);
  return buf;
}

}  // namespace
}  // namespace riv::bench

int main(int argc, char** argv) {
  using namespace riv::bench;
  Output out = parse_output(argc, argv);
  int replicates = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fork") == 0 && i + 1 < argc)
      replicates = std::atoi(argv[i + 1]);
  }
  print_header(
      "Sweep (§8.3 claim): Gap/Gapless delivery under 30% loss is "
      "insensitive to event rate and size",
      "Gap ~70% and Gapless ~97% (1 - 0.3^3) across the whole grid");
  const double rates[] = {1.0, 10.0, 50.0};
  const std::uint32_t sizes[] = {4, 1024, 20 * 1024};
  const char* size_names[] = {"4B", "1KB", "20KB"};
  std::printf("\n%-8s %-6s %10s %12s\n", "rate", "size", "Gap(%)",
              "Gapless(%)");
  if (replicates > 0) {
    const std::size_t k = static_cast<std::size_t>(replicates);
    // Leg 1 — from-scratch: every replicate rebuilds and re-warms.
    std::uint64_t seed = 1500;
    std::vector<std::vector<std::string>> fresh;  // [cell][replicate]
    double t0 = wall_now();
    for (double rate : rates) {
      for (int s = 0; s < 3; ++s) {
        for (auto g : {riv::appmodel::Guarantee::kGap,
                       riv::appmodel::Guarantee::kGapless}) {
          ScenarioOptions opt = cell_options(g, rate, sizes[s], seed++);
          std::vector<std::string> reps;
          for (std::size_t r = 0; r < k; ++r)
            reps.push_back(
                fmt_pct(replicate_pct_fresh(opt, 0x5eed0000 + r)));
          fresh.push_back(std::move(reps));
        }
      }
    }
    const double fresh_wall = wall_now() - t0;

    // Leg 2 — cloned: warm once per cell, clone K divergent replicates.
    seed = 1500;
    std::size_t cell = 0, mismatches = 0;
    t0 = wall_now();
    riv::checkpoint::WarmImage img;
    for (double rate : rates) {
      for (int s = 0; s < 3; ++s) {
        double mean[2] = {0, 0};
        int leg = 0;
        for (auto g : {riv::appmodel::Guarantee::kGap,
                       riv::appmodel::Guarantee::kGapless}) {
          ScenarioOptions opt = cell_options(g, rate, sizes[s], seed++);
          {
            auto home = make_scenario(opt);
            home->start();
            home->run_for(riv::seconds(kWarmS));
            riv::checkpoint::capture_warm_home(*home, opt.seed, img,
                                               /*with_attest=*/false);
          }
          std::vector<std::string> reps = parallel_map<std::string>(
              1, k, [&opt, &img](std::size_t r) {
                auto clone = make_scenario(opt);
                std::string err;
                if (!riv::checkpoint::apply_warm_home(img, *clone, opt.seed,
                                                      &err))
                  return "apply failed: " + err;
                clone->bus().perturb(0x5eed0000 + r);
                clone->run_for(riv::seconds(kTailS));
                return fmt_pct(harvest_pct(*clone));
              });
          double sum = 0;
          for (std::size_t r = 0; r < k; ++r) {
            if (reps[r] != fresh[cell][r]) {
              ++mismatches;
              std::fprintf(stderr,
                           "replicate mismatch cell %zu rep %zu: "
                           "cloned '%s' vs fresh '%s'\n",
                           cell, r, reps[r].c_str(), fresh[cell][r].c_str());
            }
            sum += std::atof(reps[r].c_str());
          }
          mean[leg++] = sum / static_cast<double>(k);
          ++cell;
        }
        std::printf("%-8.0f %-6s %10.1f %12.1f\n", rate, size_names[s],
                    mean[0], mean[1]);
      }
    }
    const double cloned_wall = wall_now() - t0;
    std::printf("\nwarm-prefix clones: 18 cells x %zu replicates "
                "(%llds warm + %llds tail)\n",
                k, static_cast<long long>(kWarmS),
                static_cast<long long>(kTailS));
    std::printf("from-scratch %.2f s   cloned (shared warm-up) %.2f s   "
                "speed-up %.2fx\n",
                fresh_wall, cloned_wall,
                cloned_wall > 0 ? fresh_wall / cloned_wall : 0.0);
    std::printf("replicate equality (cloned vs from-scratch): %s "
                "(%zu/%zu identical)\n",
                mismatches == 0 ? "ok" : "FAILED",
                18 * k - mismatches, 18 * k);
    if (mismatches != 0) return 1;
  } else {
    const double t0 = wall_now();
    std::uint64_t seed = 1500;
    for (double rate : rates) {
      for (int s = 0; s < 3; ++s) {
        double gap = delivered_pct(riv::appmodel::Guarantee::kGap, rate,
                                   sizes[s], seed++);
        double gapless = delivered_pct(riv::appmodel::Guarantee::kGapless,
                                       rate, sizes[s], seed++);
        std::printf("%-8.0f %-6s %10.1f %12.1f\n", rate, size_names[s], gap,
                    gapless);
      }
    }
    std::printf("\nsweep wall-clock: %.2f s (serial)\n", wall_now() - t0);
  }
  {
    ScenarioOptions opt;
    opt.n_processes = 5;
    opt.receiver_indices = {1, 2, 3};
    opt.link_loss = 0.3;
    opt.rate_hz = 10.0;
    opt.seed = 1500;
    dump_reference_run(out, "sweep_rates", opt, riv::seconds(60));
  }
  return 0;
}
