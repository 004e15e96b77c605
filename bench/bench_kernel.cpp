// bench_kernel: self-benchmark of the simulation-kernel hot path, and the
// repo's two fleet speed floors.
//
// This is the repo's perf-trajectory artifact: it measures the substrate
// every other bench and the chaos corpus run on, and writes the numbers
// as JSON so CI can fail on regressions (--check BASELINE.json: a median
// events/sec more than 30% below the baseline fails, and so does
// chaos_flight making >10% more allocations per event — a count that
// repeats exactly, so its gate is tight). Each gated events/sec is the
// median of kRepeats timed repeats that each loop the scenario for at
// least kMinRepeatWall of wall time; one 4 ms run reads host noise.
// Every run prints and writes a host fingerprint (CPU model, hardware
// threads, compiler, build type); --check prints the baseline's beside
// it, because an events/s baseline only means something on its own host.
//
// Scenarios:
//   timer_churn  — raw kernel: periodic timers + cancel/reschedule churn,
//                  the keep-alive/retransmit pattern that dominates real
//                  workloads. Pure Simulation, no network.
//   chaos_flight — the golden chaos scenario (seed 7, gapless, full
//                  protocol stack + fault injection), the ISSUE's
//                  reference workload. Also reports allocations/event
//                  via a counting global-new hook.
//   traced_flight — the same chaos scenario with a full-mask flight
//                  recorder installed: the traced hot path the golden
//                  corpus and trace_analyze workflows actually run.
//                  Reports events/s plus bytes/record and allocs/record
//                  (trace overhead only: traced minus untraced allocs).
//   steady_home  — §8.2 steady-state home (5 processes, 10 Hz sensor),
//                  reported as wall-seconds per simulated hour.
//
// Fleet pair gates (hard, with or without --check; --jobs 1 whatever
// --jobs says):
//   observed/steady — 1% sampled flight recording + top-16 health
//                  scoring must keep at least 0.90 of the unobserved
//                  fleet's homes/s.
//   warm/cold    — an 8-campaign sweep over snapshot-cloned warm-ups
//                  must run at least 1.50x the homes/s of re-executing
//                  the prefix per campaign, with identical rows and
//                  digests in every pair.
//
//   bench_kernel [--jobs N] [--check BENCH_kernel.json] [--json PATH]
//                [--out DIR]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "chaos/engine.hpp"
#include "checkpoint/clone.hpp"
#include "checkpoint/rivc.hpp"
#include "checkpoint/scenario.hpp"
#include "fleet/fleet.hpp"
#include "sim/simulation.hpp"
#include "trace/trace.hpp"

// --- counting allocator hook ---------------------------------------------
// Global operator new override local to this binary: every heap allocation
// made while measuring bumps one relaxed atomic. The delta around a
// scenario divided by events fired gives allocs/event — the kernel
// rewrite's "steady-state scheduling does no allocation" claim, measured.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}

// None of them is inlined: GCC would otherwise see malloc() meet
// operator delete, or operator new meet free(), and warn of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
// The nothrow forms too (std::stable_sort's buffer), so that every
// allocation the delete operators below free came from malloc.
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace riv::bench {
namespace {

double now_wall() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct Result {
  double events_per_sec{0};  // median repeat (gated scenarios)
  double events_per_sec_min{-1};  // < 0 = not repeated
  double events_per_sec_max{-1};
  double wall_s{0};             // timed wall time, all repeats
  std::uint64_t events{0};      // events in one run of the scenario
  double allocs_per_event{-1};       // < 0 = not measured
  double wall_s_per_sim_hour{-1};    // < 0 = not measured
  std::uint64_t records{0};          // trace records (traced scenarios)
  double bytes_per_record{-1};       // < 0 = not measured
  double allocs_per_record{-1};      // < 0 = not measured
};

// --- repeats ---------------------------------------------------------------
constexpr int kRepeats = 5;
constexpr double kMinRepeatWall = 0.1;

// One run of a scenario: the events it fired and the wall time it took
// (the timed part only).
struct Run {
  std::uint64_t events;
  double wall_s;
};

// Fill r's events/s spread: kRepeats repeats, each looping `run_once`
// until kMinRepeatWall of timed wall has passed; the repeat's rate is its
// events over its wall time. Every run fires the same events (r.events).
template <typename RunOnce>
void measure_rate(RunOnce&& run_once, Result& r) {
  std::vector<double> rates;
  for (int rep = 0; rep < kRepeats; ++rep) {
    std::uint64_t events = 0;
    double wall = 0;
    while (wall < kMinRepeatWall) {
      const Run run = run_once();
      r.events = run.events;
      events += run.events;
      wall += run.wall_s;
    }
    rates.push_back(static_cast<double>(events) / wall);
    r.wall_s += wall;
  }
  std::sort(rates.begin(), rates.end());
  r.events_per_sec = rates[kRepeats / 2];
  r.events_per_sec_min = rates.front();
  r.events_per_sec_max = rates.back();
}

// --- timer_churn ---------------------------------------------------------
// 64 periodic timers (keep-alive pattern) plus a churn timer per period
// that is scheduled and then cancelled before firing (retransmit pattern):
// the cancel-heavy steady state the wheel's tombstones are built for.
Run run_timer_churn() {
  constexpr int kPeriodic = 64;
  constexpr std::uint64_t kTargetFires = 2'000'000;
  sim::Simulation sim(1);
  std::uint64_t fires = 0;
  std::vector<sim::TimerId> churn(kPeriodic, 0);
  std::function<void(int)> tick = [&](int i) {
    ++fires;
    // Cancel last period's churn timer (it never fires) and arm a new one.
    sim.cancel(churn[static_cast<std::size_t>(i)]);
    churn[static_cast<std::size_t>(i)] =
        sim.schedule_after(milliseconds(40), [] {});
    if (fires < kTargetFires)
      sim.schedule_after(milliseconds(1 + i % 17), [&tick, i] { tick(i); });
  };
  for (int i = 0; i < kPeriodic; ++i) {
    int delay = 1 + i;
    sim.schedule_after(microseconds(delay), [&tick, i] { tick(i); });
  }
  double t0 = now_wall();
  while (fires < kTargetFires && sim.step()) {
  }
  return {sim.events_fired(), now_wall() - t0};
}

Result bench_timer_churn() {
  Result r;
  measure_rate(run_timer_churn, r);
  return r;
}

// --- chaos_flight --------------------------------------------------------
chaos::ChaosResult run_chaos(std::uint64_t seed, std::int64_t horizon_s) {
  chaos::EngineOptions opt;
  opt.scenario.seed = seed;
  opt.scenario.guarantee = appmodel::Guarantee::kGapless;
  opt.plan.horizon = seconds(horizon_s);
  return chaos::ChaosEngine(opt).run();
}

Result bench_chaos_flight() {
  constexpr std::int64_t kHorizonS = 60;
  // Warm-up run keeps one-time setup costs out of the measurement.
  run_chaos(7, 2);
  Result r;
  // The run is deterministic, so one run's allocation count is exact.
  std::uint64_t allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  chaos::ChaosResult res = run_chaos(7, kHorizonS);
  std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  if (!res.ok())
    std::fprintf(stderr, "warning: chaos_flight run reported a violation\n");
  r.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(res.sim_events);
  measure_rate(
      [] {
        double t0 = now_wall();
        chaos::ChaosResult run = run_chaos(7, kHorizonS);
        return Run{run.sim_events, now_wall() - t0};
      },
      r);
  return r;
}

// --- traced_flight -------------------------------------------------------
// The chaos_flight run with a full-mask flight recorder installed — the
// path every golden-trace test, chaos corpus seed and trace_analyze
// workflow actually executes. allocs/record isolates the recorder's own
// allocation cost by subtracting the untraced run's allocations (both
// runs are deterministic, so the delta is exactly the tracing overhead).
chaos::ChaosResult run_chaos_traced(std::uint64_t seed,
                                    std::int64_t horizon_s) {
  chaos::EngineOptions opt;
  opt.scenario.seed = seed;
  opt.scenario.guarantee = appmodel::Guarantee::kGapless;
  opt.plan.horizon = seconds(horizon_s);
  opt.flight = true;
  opt.flight_mask = riv::trace::kAllComponents;
  return chaos::ChaosEngine(opt).run();
}

Result bench_traced_flight() {
  constexpr std::int64_t kHorizonS = 60;
  run_chaos_traced(7, 2);  // warm-up
  std::uint64_t untraced0 = g_alloc_count.load(std::memory_order_relaxed);
  run_chaos(7, kHorizonS);
  std::uint64_t untraced_allocs =
      g_alloc_count.load(std::memory_order_relaxed) - untraced0;
  Result r;
  std::uint64_t allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  chaos::ChaosResult res = run_chaos_traced(7, kHorizonS);
  std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  if (!res.ok())
    std::fprintf(stderr, "warning: traced_flight run reported a violation\n");
  r.records = res.flight->size();
  r.bytes_per_record = static_cast<double>(res.flight->payload_bytes()) /
                       static_cast<double>(r.records);
  double overhead = allocs > untraced_allocs
                        ? static_cast<double>(allocs - untraced_allocs)
                        : 0.0;
  r.allocs_per_record = overhead / static_cast<double>(r.records);
  measure_rate(
      [] {
        double t0 = now_wall();
        chaos::ChaosResult run = run_chaos_traced(7, kHorizonS);
        return Run{run.sim_events, now_wall() - t0};
      },
      r);
  return r;
}

// --- steady_home ---------------------------------------------------------
Run run_steady_home() {
  constexpr std::int64_t kSimMinutes = 10;
  ScenarioOptions opt;  // 5 processes, 10 Hz, gapless
  auto home = make_scenario(opt);
  home->start();
  double t0 = now_wall();
  home->run_for(minutes(kSimMinutes));
  return {home->sim().events_fired(), now_wall() - t0};
}

Result bench_steady_home() {
  constexpr double kSimHoursPerRun = 10.0 / 60.0;
  Result r;
  measure_rate(run_steady_home, r);
  // Reported at the median rate, so it reads as steadily as the gate.
  r.wall_s_per_sim_hour =
      static_cast<double>(r.events) / r.events_per_sec / kSimHoursPerRun;
  return r;
}

// --- checkpoint ----------------------------------------------------------
// The checkpoint layer's costs, measured on the chaos reference workload
// (seed 7, gapless) snapshotted mid-run: RIVC size, capture/save/load
// wall time, restore (= re-execution to the snapshot time + byte-level
// attestation), and the headline — a warm-prefix sweep over session
// clones against from-scratch runs of the same seeds. Attestation and
// clone-vs-fresh equality are hard gates: a mismatch fails the bench
// regardless of --check.
struct CheckpointResult {
  std::uint64_t snapshot_bytes{0};
  double capture_us{0};
  double save_us{0};
  double load_us{0};
  double restore_us{0};
  double sweep_fresh_wall_s{0};
  double sweep_cloned_wall_s{0};
  double sweep_speedup{0};
  bool ok{false};
};

std::string chaos_outcome_line(const chaos::ChaosResult& r) {
  return std::string(r.ok() ? "ok" : "FAIL") +
         " faults=" + std::to_string(r.faults_injected) +
         " trace=" + r.trace_digest;
}

CheckpointResult bench_checkpoint(int jobs) {
  CheckpointResult out;
  out.ok = true;

  chaos::EngineOptions opt;
  opt.scenario.seed = 7;
  opt.scenario.guarantee = appmodel::Guarantee::kGapless;
  opt.plan.horizon = seconds(30);

  // capture / save / load / restore on a mid-run snapshot.
  std::unique_ptr<checkpoint::Scenario> sc =
      checkpoint::make_chaos_scenario(opt);
  sc->start();
  sc->run_to(TimePoint{} + seconds(15));
  constexpr int kIters = 5;
  checkpoint::Snapshot snap;
  out.capture_us = 1e18;
  for (int i = 0; i < kIters; ++i) {
    double t0 = now_wall();
    snap = sc->capture();
    out.capture_us = std::min(out.capture_us, (now_wall() - t0) * 1e6);
  }
  out.snapshot_bytes = checkpoint::encode(snap).size();
  const std::string path =
      (std::filesystem::temp_directory_path() / "bench_kernel.rivc")
          .string();
  out.save_us = 1e18;
  out.load_us = 1e18;
  for (int i = 0; i < kIters; ++i) {
    std::string err;
    double t0 = now_wall();
    if (!checkpoint::save(snap, path, &err)) {
      std::fprintf(stderr, "checkpoint save failed: %s\n", err.c_str());
      out.ok = false;
    }
    out.save_us = std::min(out.save_us, (now_wall() - t0) * 1e6);
    checkpoint::Snapshot loaded;
    t0 = now_wall();
    if (!checkpoint::load(path, &loaded, &err)) {
      std::fprintf(stderr, "checkpoint load failed: %s\n", err.c_str());
      out.ok = false;
    }
    out.load_us = std::min(out.load_us, (now_wall() - t0) * 1e6);
  }
  {
    double t0 = now_wall();
    checkpoint::RestoreReport rep = checkpoint::restore(snap);
    out.restore_us = (now_wall() - t0) * 1e6;
    if (!rep.ok) {
      std::fprintf(stderr, "restore attestation FAILED: %s\n",
                   rep.error.c_str());
      out.ok = false;
    }
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);

  // Cloned sweep vs from-scratch: same warm-up prefix, same plan seeds,
  // outcome lines must match exactly. The configuration is
  // warm-up-dominated (120 s shared prefix, 10 s of chaos per seed) —
  // the shape the sweep exists for: from-scratch re-executes the prefix
  // N times, the cloned sweep once, so the speed-up holds even on a
  // single core (it is eliminated work, not parallelism).
  const std::vector<std::uint64_t> seeds = {3, 7, 11, 19};
  const Duration warmup = seconds(120);
  auto make_options = [] {
    chaos::EngineOptions o;
    o.scenario.seed = 3;
    o.scenario.guarantee = appmodel::Guarantee::kGapless;
    o.plan.horizon = seconds(10);
    o.defer_plan = true;
    return o;
  };
  std::vector<std::string> fresh;
  double t0 = now_wall();
  for (std::uint64_t seed : seeds) {
    chaos::ChaosSession session(make_options());
    session.run_to(TimePoint{} + warmup);
    session.arm_plan(seed, warmup);
    session.run_to(session.run_end());
    chaos::ChaosResult r;
    session.finish(r);
    fresh.push_back(chaos_outcome_line(r));
  }
  out.sweep_fresh_wall_s = now_wall() - t0;

  t0 = now_wall();
  checkpoint::SessionImage img;
  {
    chaos::ChaosSession shared(make_options());
    shared.run_to(TimePoint{} + warmup);
    checkpoint::capture_session(shared, img);
  }
  std::vector<std::string> cloned = parallel_map<std::string>(
      jobs, seeds.size(), [&img, &seeds, warmup](std::size_t i) {
        std::unique_ptr<chaos::ChaosSession> s =
            checkpoint::clone_session(img);
        s->arm_plan(seeds[i], warmup);
        s->run_to(s->run_end());
        chaos::ChaosResult r;
        s->finish(r);
        return chaos_outcome_line(r);
      });
  out.sweep_cloned_wall_s = now_wall() - t0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (cloned[i] != fresh[i]) {
      std::fprintf(stderr,
                   "clone-vs-fresh MISMATCH seed %llu: '%s' vs '%s'\n",
                   static_cast<unsigned long long>(seeds[i]),
                   cloned[i].c_str(), fresh[i].c_str());
      out.ok = false;
    }
  }
  out.sweep_speedup = out.sweep_cloned_wall_s > 0
                          ? out.sweep_fresh_wall_s / out.sweep_cloned_wall_s
                          : 0;
  return out;
}

void print_checkpoint(const CheckpointResult& r) {
  std::printf("%-14s %8llu snapshot-B   capture %.0fus  save %.0fus  "
              "load %.0fus  restore %.0fus\n",
              "checkpoint",
              static_cast<unsigned long long>(r.snapshot_bytes),
              r.capture_us, r.save_us, r.load_us, r.restore_us);
  std::printf("%-14s sweep fresh %.3fs vs cloned %.3fs  (%.2fx)\n", "",
              r.sweep_fresh_wall_s, r.sweep_cloned_wall_s, r.sweep_speedup);
  std::printf("%-14s attestation + clone-vs-fresh: %s\n", "",
              r.ok ? "ok" : "FAILED");
}

void append_checkpoint_json(std::string& out, const CheckpointResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    \"checkpoint\": {\"snapshot_bytes\": %llu, \"capture_us\": "
      "%.1f, \"save_us\": %.1f, \"load_us\": %.1f, \"restore_us\": %.1f, "
      "\"sweep_fresh_wall_s\": %.4f, \"sweep_cloned_wall_s\": %.4f, "
      "\"sweep_speedup\": %.2f},\n",
      static_cast<unsigned long long>(r.snapshot_bytes), r.capture_us,
      r.save_us, r.load_us, r.restore_us, r.sweep_fresh_wall_s,
      r.sweep_cloned_wall_s, r.sweep_speedup);
  out += buf;
}

// --- fleet pair gates ----------------------------------------------------
// Every fleet home is a pure function of its seed, so two legs over the
// same homes differ only in the path under test. A pair runs both legs
// back to back, alternating which goes first, and a gate reads the median
// of its pair ratios: a shared host's slow phases can last seconds, so a
// pair sees one phase on both legs where two unpaired runs need not. Both
// gates run at --jobs 1; their floors, pair counts and shapes are fixed.
struct FleetLeg {
  double wall_s{0};
  std::vector<fleet::FleetResult> results;  // one per campaign
};

FleetLeg fleet_leg(const fleet::FleetOptions& opt,
                   const std::vector<fleet::CampaignPlan>& campaigns) {
  FleetLeg leg;
  const double t0 = now_wall();
  leg.results = fleet::run_fleet_campaigns(opt, campaigns);
  leg.wall_s = now_wall() - t0;
  return leg;
}

// Rows, fault digest and merged-metrics fingerprint, campaign by campaign.
bool same_outcome(const std::vector<fleet::FleetResult>& a,
                  const std::vector<fleet::FleetResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t c = 0; c < a.size(); ++c) {
    if (a[c].rows != b[c].rows || a[c].fault_digest != b[c].fault_digest ||
        fleet::registry_fingerprint(a[c].merged) !=
            fleet::registry_fingerprint(b[c].merged))
      return false;
  }
  return true;
}

struct PairGate {
  const char* name;  // "test/reference"
  double floor;      // the median ratio must reach it
  std::uint64_t homes;
  std::vector<double> ratios;  // test homes/s over reference, per pair
  int differing{0};            // pairs whose two legs' outcomes differ
  double wall_s{0};            // both legs of every pair

  // Pair counts are odd, so the median is one pair's ratio.
  double median() const {
    std::vector<double> sorted = ratios;
    std::sort(sorted.begin(), sorted.end());
    return sorted[sorted.size() / 2];
  }
  bool ok() const { return differing == 0 && median() >= floor; }
};

// Both legs run the same homes, so the test leg's homes/s over the
// reference's is the reference's wall time over the test's.
template <typename Test, typename Reference>
void run_pairs(PairGate& g, int pairs, Test&& test, Reference&& reference) {
  for (int i = 0; i < pairs; ++i) {
    FleetLeg t;
    FleetLeg r;
    if (i % 2 == 0) {
      t = test();
      r = reference();
    } else {
      r = reference();
      t = test();
    }
    g.ratios.push_back(r.wall_s / t.wall_s);
    g.wall_s += t.wall_s + r.wall_s;
    if (!same_outcome(t.results, r.results)) ++g.differing;
  }
}

// 1% sampled flight recording plus top-16 health scoring must keep 90%
// of the unobserved fleet's homes/s (DESIGN.md §15, Cost).
PairGate observed_gate() {
  PairGate g{"observed/steady", 0.90, 500, {}};
  fleet::FleetOptions steady;
  steady.homes = g.homes;
  steady.jobs = 1;
  fleet::FleetOptions observed = steady;
  observed.observe.sample = 0.01;
  observed.observe.top_k = 16;
  const std::vector<fleet::CampaignPlan> no_campaign(1);
  run_pairs(
      g, 21, [&] { return fleet_leg(observed, no_campaign); },
      [&] { return fleet_leg(steady, no_campaign); });
  return g;
}

// An 8-campaign sweep over busy homes (4-8 sensors at 4-12 Hz): an 18 s
// fault-free prefix, then a 2 s window per campaign. The cold leg
// re-executes the prefix per campaign (8 x 20 virtual seconds a home);
// the warm leg runs it once, clones the warmed home per campaign and
// byte-attests 5% of the clones (18 + 8 x 2). Warm must buy 1.5x homes/s
// and change no row or digest (DESIGN.md §16).
PairGate warm_gate() {
  PairGate g{"warm/cold", 1.50, 24, {}};
  fleet::FleetOptions cold;
  cold.homes = g.homes;
  cold.jobs = 1;
  cold.population.sensors = {4, 8};
  cold.population.rate_hz = {4.0, 12.0};
  cold.population.sim_duration = seconds(2);
  cold.keep_home_rows = true;
  cold.warm.prefix = seconds(18);
  cold.warm.attest_sample = 0.05;
  cold.warm.resalt = 0x77a7;
  fleet::FleetOptions warm = cold;
  warm.warm.enabled = true;
  std::vector<fleet::CampaignPlan> sweep(8);
  const fleet::CampaignFault kinds[] = {fleet::CampaignFault::kWifiOutage,
                                        fleet::CampaignFault::kPowerBlip,
                                        fleet::CampaignFault::kSensorDegrade};
  for (std::size_t c = 0; c < sweep.size(); ++c) {
    fleet::CampaignEvent ev;
    ev.kind = kinds[c % 3];
    ev.at = seconds(1);
    ev.duration = seconds(1);
    ev.fraction = c < 4 ? 0.3 : 0.15;
    sweep[c].events.push_back(ev);
  }
  run_pairs(
      g, 5, [&] { return fleet_leg(warm, sweep); },
      [&] { return fleet_leg(cold, sweep); });
  return g;
}

void print_gate(const PairGate& g) {
  const auto [lo, hi] = std::minmax_element(g.ratios.begin(), g.ratios.end());
  std::printf("%-15s %zu pairs of %llu homes (--jobs 1, %.1f wall-s), "
              "homes/s ratio per pair:",
              g.name, g.ratios.size(),
              static_cast<unsigned long long>(g.homes), g.wall_s);
  for (double r : g.ratios) std::printf(" %.3f", r);
  const char* verdict = g.median() < g.floor ? "TOO SLOW"
                        : g.differing > 0       ? "OUTCOMES DIFFER"
                                                : "ok";
  std::printf("\ncheck %-16s median %.3fx (min %.3fx, max %.3fx), floor "
              "%.2fx; rows+digests identical in %zu/%zu pairs  %s\n",
              g.name, g.median(), *lo, *hi, g.floor,
              g.ratios.size() - static_cast<std::size_t>(g.differing),
              g.ratios.size(), verdict);
}

void append_gate_json(std::string& out, const PairGate& g, bool last) {
  const auto [lo, hi] = std::minmax_element(g.ratios.begin(), g.ratios.end());
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    \"%s\": {\"pairs\": %zu, \"homes\": %llu, "
                "\"ratio_median\": %.3f, \"ratio_min\": %.3f, "
                "\"ratio_max\": %.3f, \"floor\": %.2f, "
                "\"differing_pairs\": %d, \"wall_s\": %.3f}%s\n",
                g.name, g.ratios.size(),
                static_cast<unsigned long long>(g.homes), g.median(), *lo, *hi,
                g.floor, g.differing, g.wall_s, last ? "" : ",");
  out += buf;
}

// --- host fingerprint -----------------------------------------------------
// What an events/s baseline depends on besides the code. Informational:
// --check prints the baseline's next to this run's, and gates nothing.
struct Host {
  std::string cpu{"unknown"};
  unsigned threads{0};
  std::string compiler;
  std::string build_type;

  bool operator==(const Host&) const = default;
  std::string describe() const {
    return cpu + ", " + std::to_string(threads) + " hardware threads, " +
           compiler + ", " + build_type;
  }
};

Host this_host() {
  Host h;
  h.threads = std::thread::hardware_concurrency();
  h.compiler = RIV_COMPILER;
  h.build_type = RIV_BUILD_TYPE;
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos)
      continue;
    const auto first = line.find_first_not_of(" \t", colon + 1);
    if (first != std::string::npos) h.cpu = line.substr(first);
    break;
  }
  // The JSON is written and read without escapes.
  std::erase_if(h.cpu, [](char c) { return c == '"' || c == '\\'; });
  return h;
}

// --- reporting -----------------------------------------------------------
void print_result(const char* name, const Result& r) {
  std::printf("%-14s %12.0f events/s   %9llu events   %7.3f wall-s", name,
              r.events_per_sec, static_cast<unsigned long long>(r.events),
              r.wall_s);
  if (r.events_per_sec_min >= 0)
    std::printf("   (median of %d; min %.0f, max %.0f)", kRepeats,
                r.events_per_sec_min, r.events_per_sec_max);
  if (r.allocs_per_event >= 0)
    std::printf("   %6.2f allocs/event", r.allocs_per_event);
  if (r.wall_s_per_sim_hour >= 0)
    std::printf("   %6.2f wall-s/sim-hour", r.wall_s_per_sim_hour);
  if (r.bytes_per_record >= 0)
    std::printf("   %9llu records   %6.1f bytes/record   %6.3f allocs/record",
                static_cast<unsigned long long>(r.records),
                r.bytes_per_record, r.allocs_per_record);
  std::printf("\n");
}

void append_json(std::string& out, const char* name, const Result& r,
                 bool last) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    \"%s\": {\"events_per_sec\": %.0f, \"events\": %llu, "
                "\"wall_s\": %.4f",
                name, r.events_per_sec,
                static_cast<unsigned long long>(r.events), r.wall_s);
  out += buf;
  if (r.events_per_sec_min >= 0) {
    std::snprintf(buf, sizeof(buf),
                  ", \"events_per_sec_min\": %.0f, "
                  "\"events_per_sec_max\": %.0f",
                  r.events_per_sec_min, r.events_per_sec_max);
    out += buf;
  }
  if (r.allocs_per_event >= 0) {
    std::snprintf(buf, sizeof(buf), ", \"allocs_per_event\": %.3f",
                  r.allocs_per_event);
    out += buf;
  }
  if (r.wall_s_per_sim_hour >= 0) {
    std::snprintf(buf, sizeof(buf), ", \"wall_s_per_sim_hour\": %.3f",
                  r.wall_s_per_sim_hour);
    out += buf;
  }
  if (r.bytes_per_record >= 0) {
    std::snprintf(buf, sizeof(buf),
                  ", \"records\": %llu, \"bytes_per_record\": %.1f, "
                  "\"allocs_per_record\": %.3f",
                  static_cast<unsigned long long>(r.records),
                  r.bytes_per_record, r.allocs_per_record);
    out += buf;
  }
  out += last ? "}\n" : "},\n";
}

// The raw text of `object` -> `key` in a previously written
// BENCH_kernel.json (a string without its quotes), or "" when either is
// absent. Minimal parser for exactly the format this file writes: flat
// objects, one per scenario, no escapes.
std::string baseline_field(const std::string& json, const std::string& object,
                           const std::string& key) {
  const auto at = json.find("\"" + object + "\"");
  if (at == std::string::npos) return {};
  const auto close = json.find('}', at);
  const std::string needle = "\"" + key + "\": ";
  auto found = json.find(needle, at);
  if (found == std::string::npos || found > close) return {};
  found += needle.size();
  if (json[found] == '"')
    return json.substr(found + 1, json.find('"', found + 1) - found - 1);
  return json.substr(found, json.find_first_of(",}", found) - found);
}

// A number from the baseline; -1 when it is absent.
double baseline_value(const std::string& json, const std::string& object,
                      const std::string& key) {
  const std::string text = baseline_field(json, object, key);
  return text.empty() ? -1 : std::atof(text.c_str());
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

}  // namespace
}  // namespace riv::bench

int main(int argc, char** argv) {
  using namespace riv::bench;
  int jobs = 2;
  std::string check_path;
  std::string json_path;
  riv::bench::Output out;
  auto usage = [&argv] {
    std::fprintf(stderr,
                 "usage: %s [--jobs N] [--check BENCH_kernel.json] "
                 "[--json PATH] [--out DIR]\n",
                 argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--jobs") {
      jobs = std::atoi(next());
    } else if (arg == "--check") {
      check_path = next();
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--out") {
      out.dir = next();
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage();
    }
  }
  if (jobs < 1) jobs = 1;

  print_header("bench_kernel — simulation-kernel hot path",
               "repo artifact (no paper figure): events/sec, wall-s per "
               "simulated hour, allocs/event; fleet sampling and warm-start "
               "floors");
  const Host host = this_host();
  std::printf("host           %s\n", host.describe().c_str());

  Result timer_churn = bench_timer_churn();
  print_result("timer_churn", timer_churn);
  Result chaos_flight = bench_chaos_flight();
  print_result("chaos_flight", chaos_flight);
  Result traced_flight = bench_traced_flight();
  print_result("traced_flight", traced_flight);
  Result steady_home = bench_steady_home();
  print_result("steady_home", steady_home);
  CheckpointResult checkpoint = bench_checkpoint(jobs);
  print_checkpoint(checkpoint);
  const PairGate observed = observed_gate();
  print_gate(observed);
  const PairGate warm = warm_gate();
  print_gate(warm);

  std::string json = "{\n  \"bench\": \"kernel\",\n";
  json += "  \"host\": {\"cpu\": \"" + host.cpu +
          "\", \"threads\": " + std::to_string(host.threads) +
          ", \"compiler\": \"" + host.compiler + "\", \"build_type\": \"" +
          host.build_type + "\"},\n";
  json += "  \"scenarios\": {\n";
  append_json(json, "timer_churn", timer_churn, false);
  append_json(json, "chaos_flight", chaos_flight, false);
  append_json(json, "traced_flight", traced_flight, false);
  append_json(json, "steady_home", steady_home, false);
  append_checkpoint_json(json, checkpoint);
  append_gate_json(json, observed, false);
  append_gate_json(json, warm, true);
  json += "  }\n}\n";

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("json written: %s\n", json_path.c_str());
  }
  if (out.enabled()) {
    std::FILE* f = out.open("BENCH_kernel.json");
    if (f != nullptr) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
      std::printf("json written: %s\n",
                  out.path_for("BENCH_kernel.json").c_str());
    }
  }

  int failures = (checkpoint.ok ? 0 : 1) + (observed.ok() ? 0 : 1) +
                 (warm.ok() ? 0 : 1);
  if (!check_path.empty()) {
    const std::string baseline = read_file(check_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "cannot read baseline %s\n", check_path.c_str());
      return 1;
    }
    const Host base_host{
        baseline_field(baseline, "host", "cpu"),
        static_cast<unsigned>(
            std::max(0.0, baseline_value(baseline, "host", "threads"))),
        baseline_field(baseline, "host", "compiler"),
        baseline_field(baseline, "host", "build_type")};
    std::printf("check host           this run  %s\n",
                host.describe().c_str());
    std::printf("check host           baseline  %s  (%s)\n",
                base_host.cpu.empty() ? "none recorded"
                                      : base_host.describe().c_str(),
                base_host == host
                    ? "same"
                    : "DIFFERS: events/s is compared across hosts");
    struct {
      const char* name;
      double current;
    } checks[] = {
        {"timer_churn", timer_churn.events_per_sec},
        {"chaos_flight", chaos_flight.events_per_sec},
        {"traced_flight", traced_flight.events_per_sec},
        {"steady_home", steady_home.events_per_sec},
    };
    for (const auto& c : checks) {
      double base = baseline_value(baseline, c.name, "events_per_sec");
      if (base <= 0) {
        std::fprintf(stderr, "baseline missing scenario %s\n", c.name);
        ++failures;
        continue;
      }
      double ratio = c.current / base;
      bool ok = ratio >= 0.7;  // fail on >30% regression of the median
      std::printf("check %-14s %12.0f vs baseline %12.0f  (%.2fx)  %s  "
                  "median events/s\n",
                  c.name, c.current, base, ratio, ok ? "ok" : "REGRESSION");
      if (!ok) ++failures;
    }
    // Allocations per event do not depend on the host: fail on >10% more.
    double base_allocs =
        baseline_value(baseline, "chaos_flight", "allocs_per_event");
    if (base_allocs <= 0) {
      std::fprintf(stderr, "baseline missing chaos_flight allocs_per_event\n");
      ++failures;
    } else {
      double ratio = chaos_flight.allocs_per_event / base_allocs;
      bool ok = ratio <= 1.10;
      std::printf(
          "check %-14s %12.3f vs baseline %12.3f  (%.2fx)  %s  allocs/event\n",
          "chaos_flight", chaos_flight.allocs_per_event, base_allocs, ratio,
          ok ? "ok" : "REGRESSION");
      if (!ok) ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
