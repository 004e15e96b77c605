// chaos_run: seed-range driver for the deterministic chaos engine.
//
//   chaos_run --seeds 1..200            # sweep, verify determinism per seed
//   chaos_run --seed 42 --print-trace   # one seed, dump the fault trace
//
// Each seed fully determines the fault schedule AND the workload, so any
// invariant violation this tool reports is reproducible with the one-line
// command it prints. By default every seed is executed twice and the two
// fault-trace hashes compared — a mismatch means nondeterminism crept into
// the stack and is reported as a failure even if no invariant fired.
//
// Exit status: 0 clean; 1 invariant violation / determinism mismatch /
// failed drain; 2 usage error.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chaos/engine.hpp"
#include "checkpoint/clone.hpp"
#include "checkpoint/rivc.hpp"
#include "checkpoint/scenario.hpp"
#include "common/parallel.hpp"

namespace {

using namespace riv;

struct CliOptions {
  std::vector<std::uint64_t> seeds{1};
  appmodel::Guarantee guarantee{appmodel::Guarantee::kGapless};
  int procs{4};
  int receivers{2};
  double loss{0.1};
  std::int64_t duration_s{60};
  std::int64_t check_interval_ms{500};
  int jobs{1};
  // --kinds: comma-separated fault-kind names; when non-empty only the
  // named categories are armed (everything else off). Kept verbatim for
  // the repro line.
  std::string kinds;
  bool verify_determinism{true};
  bool print_trace{false};
  bool demo_violation{false};
  bool quiet{false};
  // When non-empty, run every seed with the flight recorder on and save a
  // replayable .rivtrace artifact under this directory for each FAILING
  // seed (tools/trace_diff reads them).
  std::string trace_dir;
  // Ring sink: cap the in-memory flight trace at ~N bytes of packed
  // records, keeping the most recent ones (implies flight recording).
  std::size_t trace_ring_bytes{0};
  // Streaming sink: write DIR/seed-N.rivtrace incrementally during the
  // run for EVERY seed, with one chunk of buffering (implies flight
  // recording; only the primary run streams, the determinism re-run
  // records in memory).
  std::string stream_dir;
  // When non-empty, capture per-process metric snapshots every virtual
  // second and save DIR/seed-N.metrics.csv for EVERY seed (a timeline is
  // useful even — especially — when the seed passes).
  std::string metrics_dir;
  // Checkpoint the primary run every N virtual seconds: the run goes
  // through the checkpointable-scenario layer (flight recording forced
  // on, chunked run_to — behaviourally identical to one big run) and a
  // RIVC snapshot lands at checkpoint_dir/seed-N-tS.rivc per boundary.
  std::int64_t checkpoint_every_s{0};
  std::string checkpoint_dir{"checkpoints"};
  // Resume mode: load a .rivc file, restore (attested re-execution),
  // run the remaining virtual time, report the outcome.
  std::string from_checkpoint;
  // Warm-prefix sweep: warm ONE session (workload seed = first seed) to
  // this many virtual seconds, then clone it once per seed; each clone
  // arms that seed's fault plan from the shared warm state. < 0 means
  // off.
  std::int64_t fork_warmup_s{-1};
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --seed N              run one seed (default 1)\n"
      "  --seeds A..B | a,b,c  run an inclusive range or an explicit list\n"
      "  --guarantee G         gapless | gap (default gapless)\n"
      "  --procs N             processes in the home (default 4)\n"
      "  --receivers M         processes linked to the sensor (default 2)\n"
      "  --loss P              baseline device link loss (default 0.1)\n"
      "  --duration S          chaos horizon, virtual seconds (default 60)\n"
      "  --check-interval MS   continuous-check period (default 500)\n"
      "  --jobs N              run seeds on N worker threads (default 1;\n"
      "                        0 = one per hardware thread); per-seed\n"
      "                        results and output order are identical to\n"
      "                        a serial run\n"
      "  --kinds a,b,c         arm only the named fault kinds (names as\n"
      "                        printed by --list-kinds; naming either kind\n"
      "                        of a begin/end pair arms both)\n"
      "  --list-kinds          print every fault kind and its category,\n"
      "                        then exit\n"
      "  --no-verify           skip the determinism double-run\n"
      "  --print-trace         dump the fault trace of every run\n"
      "  --demo-violation      register an always-failing invariant to\n"
      "                        demonstrate violation reporting + repro\n"
      "  --trace DIR           record a flight trace per seed; save\n"
      "                        DIR/seed-N.rivtrace for every failing seed\n"
      "  --trace-ring N        keep only the last ~N bytes of packed\n"
      "                        flight records (bounded memory; implies\n"
      "                        flight recording)\n"
      "  --trace-stream DIR    stream DIR/seed-N.rivtrace to disk during\n"
      "                        the run for every seed (bounded memory)\n"
      "  --metrics DIR         snapshot per-process counters every virtual\n"
      "                        second; save DIR/seed-N.metrics.csv per seed\n"
      "  --checkpoint-every S  save a RIVC checkpoint of the primary run\n"
      "                        every S virtual seconds (implies flight\n"
      "                        recording; see --checkpoint-dir)\n"
      "  --checkpoint-dir DIR  where checkpoints land as seed-N-tS.rivc\n"
      "                        (default: checkpoints)\n"
      "  --from-checkpoint F   restore F (attested re-execution), run the\n"
      "                        remaining virtual time, report the outcome;\n"
      "                        all scenario flags are read from the file\n"
      "  --fork-sweep W        warm one session W virtual seconds, then\n"
      "                        clone it per seed; each clone arms that\n"
      "                        seed's fault plan from the shared state\n"
      "                        (workload seed = first seed; clones run on\n"
      "                        --jobs threads)\n"
      "  --quiet               only print failures and the final summary\n",
      argv0);
}

// "N", "A..B" (inclusive range), or "a,b,c" (explicit list, run in the
// order given — the seed corpus is curated, not contiguous).
bool parse_seeds(const std::string& arg, std::vector<std::uint64_t>& out) {
  out.clear();
  try {
    if (arg.find(',') != std::string::npos) {
      std::size_t pos = 0;
      while (pos <= arg.size()) {
        std::size_t comma = arg.find(',', pos);
        if (comma == std::string::npos) comma = arg.size();
        out.push_back(std::stoull(arg.substr(pos, comma - pos)));
        pos = comma + 1;
      }
      return !out.empty();
    }
    auto dots = arg.find("..");
    if (dots == std::string::npos) {
      out.push_back(std::stoull(arg));
      return true;
    }
    std::uint64_t lo = std::stoull(arg.substr(0, dots));
    std::uint64_t hi = std::stoull(arg.substr(dots + 2));
    if (lo > hi) return false;
    for (std::uint64_t s = lo; s <= hi; ++s) out.push_back(s);
    return true;
  } catch (...) {
    return false;
  }
}

// Fault-kind filter: every FaultKind name maps to the PlanOptions toggle
// that arms its category (begin/end and fault/heal pairs share a toggle,
// so naming either arms both — a plan with an un-healable fault would not
// be well-formed). Quiesce windows are structural and always on.
struct KindToggle {
  const char* kind;  // to_string(FaultKind)
  bool chaos::PlanOptions::*toggle;
};
constexpr KindToggle kKindToggles[] = {
    {"crash", &chaos::PlanOptions::crashes},
    {"recover", &chaos::PlanOptions::crashes},
    {"partition", &chaos::PlanOptions::partitions},
    {"heal-partition", &chaos::PlanOptions::partitions},
    {"edge-down", &chaos::PlanOptions::asym_partitions},
    {"edge-up", &chaos::PlanOptions::asym_partitions},
    {"edge-delay", &chaos::PlanOptions::delay_spikes},
    {"edge-delay-clear", &chaos::PlanOptions::delay_spikes},
    {"edge-loss", &chaos::PlanOptions::edge_loss},
    {"edge-loss-clear", &chaos::PlanOptions::edge_loss},
    {"device-link-loss", &chaos::PlanOptions::device_link_loss},
    {"device-crash", &chaos::PlanOptions::device_crashes},
    {"device-recover", &chaos::PlanOptions::device_crashes},
    {"spoof-event", &chaos::PlanOptions::spoof_events},
    {"replay-event", &chaos::PlanOptions::replay_events},
    {"corrupt-begin", &chaos::PlanOptions::corrupt_process},
    {"corrupt-end", &chaos::PlanOptions::corrupt_process},
};

void list_kinds() {
  std::printf("fault kinds (--kinds name,name,...):\n");
  for (const KindToggle& k : kKindToggles) std::printf("  %s\n", k.kind);
  std::printf("always on: quiesce-begin, quiesce-end (convergence "
              "windows are structural)\n");
}

// Apply "a,b,c" to the plan toggles: all categories off, then each named
// kind's category on. False on an unknown name (caller exits 2).
bool apply_kinds(const std::string& spec, chaos::PlanOptions& plan) {
  for (const KindToggle& k : kKindToggles) plan.*(k.toggle) = false;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string name = spec.substr(pos, comma - pos);
    bool found = false;
    for (const KindToggle& k : kKindToggles) {
      if (name == k.kind) {
        plan.*(k.toggle) = true;
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown fault kind '%s' (see --list-kinds)\n",
                   name.c_str());
      return false;
    }
    pos = comma + 1;
  }
  return true;
}

// The artificial invariant breaker: proves that a violation surfaces as a
// failing seed with a working one-line repro. It trips once deliveries
// start, which every healthy run reaches.
class DemoViolation : public chaos::Invariant {
 public:
  const char* name() const override { return "demo-always-violated"; }
  bool continuous() const override { return false; }
  void check(const chaos::CheckContext& ctx,
             std::vector<chaos::Violation>& out) const override {
    if (!ctx.final_check) return;
    out.push_back({name(), ctx.home->sim().now(),
                   "artificially broken invariant (--demo-violation)"});
  }
};

std::string repro_command(const CliOptions& cli, std::uint64_t seed) {
  std::string cmd = "chaos_run --seed " + std::to_string(seed);
  cmd += cli.guarantee == appmodel::Guarantee::kGapless
             ? " --guarantee gapless"
             : " --guarantee gap";
  cmd += " --procs " + std::to_string(cli.procs);
  cmd += " --receivers " + std::to_string(cli.receivers);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", cli.loss);
  cmd += std::string(" --loss ") + buf;
  cmd += " --duration " + std::to_string(cli.duration_s);
  if (!cli.kinds.empty()) cmd += " --kinds " + cli.kinds;
  if (cli.demo_violation) cmd += " --demo-violation";
  return cmd;
}

chaos::EngineOptions build_engine_options(const CliOptions& cli,
                                          std::uint64_t seed) {
  chaos::EngineOptions opt;
  opt.scenario.seed = seed;
  opt.scenario.guarantee = cli.guarantee;
  opt.scenario.n_processes = cli.procs;
  opt.scenario.receivers = cli.receivers;
  opt.scenario.device_link_loss = cli.loss;
  // Clamped so that the conversion to microseconds cannot overflow; a
  // value this far out fails chaos::validate either way.
  auto clamp = [](std::int64_t v) {
    return std::clamp<std::int64_t>(v, -1'000'000'000, 1'000'000'000);
  };
  opt.plan.horizon = seconds(clamp(cli.duration_s));
  if (!cli.kinds.empty()) apply_kinds(cli.kinds, opt.plan);  // pre-validated
  opt.check_interval = milliseconds(clamp(cli.check_interval_ms));
  opt.flight = !cli.trace_dir.empty() || cli.trace_ring_bytes > 0 ||
               !cli.stream_dir.empty();
  opt.flight_ring_bytes = cli.trace_ring_bytes;
  if (!cli.metrics_dir.empty()) opt.metrics_period = seconds(1);
  return opt;
}

// Primary-run variant that rides the checkpointable-scenario layer:
// identical behaviour (chunked run_to ≡ one big run; flight recording is
// passive), plus a RIVC snapshot saved at every --checkpoint-every
// boundary. Any of those files feeds --from-checkpoint or riv_replay.
chaos::ChaosResult run_checkpointed(const CliOptions& cli,
                                    std::uint64_t seed,
                                    chaos::EngineOptions opt) {
  std::error_code ec;
  std::filesystem::create_directories(cli.checkpoint_dir, ec);
  std::unique_ptr<checkpoint::Scenario> sc =
      checkpoint::make_chaos_scenario(std::move(opt));
  sc->start();
  const TimePoint end = sc->end_time();
  for (std::int64_t k = 1;; ++k) {
    const std::int64_t at_s = k * cli.checkpoint_every_s;
    const TimePoint t = TimePoint{} + seconds(at_s);
    if (!(t < end)) break;
    sc->run_to(t);
    checkpoint::Snapshot snap = sc->capture();
    const std::string path = cli.checkpoint_dir + "/seed-" +
                             std::to_string(seed) + "-t" +
                             std::to_string(at_s) + ".rivc";
    std::string err;
    if (!checkpoint::save(snap, path, &err))
      std::fprintf(stderr, "seed %llu: checkpoint save failed: %s\n",
                   static_cast<unsigned long long>(seed), err.c_str());
  }
  sc->run_to(end);
  sc->finish();
  return *sc->chaos_result();
}

chaos::ChaosResult run_once(const CliOptions& cli, std::uint64_t seed,
                            bool primary = true) {
  chaos::EngineOptions opt = build_engine_options(cli, seed);
  // Only the primary run streams to disk; the determinism re-run would
  // otherwise overwrite the same artifact mid-flight.
  if (primary && !cli.stream_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cli.stream_dir, ec);
    opt.flight_stream_path =
        cli.stream_dir + "/seed-" + std::to_string(seed) + ".rivtrace";
  }
  // The determinism re-run stays on the plain engine path on purpose:
  // matching fault-trace hashes then also prove the checkpointed chunked
  // run is equivalent to the uninterrupted one.
  if (primary && cli.checkpoint_every_s > 0)
    return run_checkpointed(cli, seed, std::move(opt));
  chaos::ChaosEngine engine(opt);
  if (cli.demo_violation)
    engine.add_invariant(std::make_unique<DemoViolation>());
  return engine.run();
}

// Everything one seed produces; computed (possibly on a worker thread)
// separately from reporting, so --jobs N can run seeds concurrently while
// the main thread prints outcomes strictly in seed order.
struct SeedOutcome {
  std::uint64_t seed{0};
  chaos::ChaosResult result;
  bool deterministic{true};
  std::string second_digest;
};

SeedOutcome run_seed(const CliOptions& cli, std::uint64_t seed) {
  SeedOutcome o;
  o.seed = seed;
  o.result = run_once(cli, seed);
  if (cli.verify_determinism) {
    chaos::ChaosResult r2 = run_once(cli, seed, /*primary=*/false);
    o.deterministic = r2.trace_hash == o.result.trace_hash;
    o.second_digest = r2.trace_digest;
  }
  return o;
}

// The seed line and the failure lines under it, as every mode prints
// them (CI and the corpus scripts diff the `seed ` lines). `verified`:
// the run was double-checked for determinism.
std::string seed_lines(const SeedOutcome& o, bool verified, bool quiet) {
  const chaos::ChaosResult& r = o.result;
  const bool failed = !r.ok() || !o.deterministic;
  std::string out;
  if (!quiet || failed) {
    // Applied faults and planned-but-inapplicable ones (victim already
    // down, nothing eligible to replay, ...) are separate counts: a plan
    // where most actions no-op'd is a very different run from one where
    // they all landed, even when the totals match.
    out += "seed " + std::to_string(o.seed) + (failed ? ": FAIL" : ": ok") +
           "  faults=" + std::to_string(r.faults_injected) +
           " noop=" + std::to_string(r.faults_noop) +
           (r.byzantine_attacks > 0
                ? " byz=" + std::to_string(r.byzantine_attacks)
                : "") +
           " emitted=" + std::to_string(r.emitted) +
           " ingested=" + std::to_string(r.ingested) +
           " delivered=" + std::to_string(r.delivered) +
           " trace=" + r.trace_digest +
           (verified && o.deterministic ? " (deterministic)" : "") + "\n";
  }
  if (!o.deterministic)
    out += "  NONDETERMINISM: second run trace=" + o.second_digest +
           " differs\n";
  if (!r.quiesced) out += "  drain did not reach quiescence within bound\n";
  for (const chaos::Violation& v : r.violations)
    out += "  " + chaos::to_string(v) + "\n";
  return out;
}

// Print one seed's outcome and return whether it failed. Runs only on the
// main thread (it touches stdout and the trace directory).
bool report_outcome(const CliOptions& cli, const SeedOutcome& o) {
  const chaos::ChaosResult& r = o.result;
  bool failed = !r.ok() || !o.deterministic;
  if (cli.print_trace) {
    for (const std::string& line : r.trace)
      std::printf("    %s\n", line.c_str());
  }
  std::fputs(seed_lines(o, cli.verify_determinism, cli.quiet).c_str(), stdout);
  if (failed && !cli.trace_dir.empty() && r.flight &&
      !r.flight->streaming()) {
    std::error_code ec;
    std::filesystem::create_directories(cli.trace_dir, ec);
    std::string path =
        cli.trace_dir + "/seed-" + std::to_string(o.seed) + ".rivtrace";
    std::string err;
    if (r.flight->save(path, &err)) {
      if (r.flight->dropped_records() > 0) {
        std::printf("  flight trace (last %zu records; ring dropped %llu) "
                    "saved: %s\n",
                    r.flight->size(),
                    static_cast<unsigned long long>(
                        r.flight->dropped_records()),
                    path.c_str());
      } else {
        std::printf("  flight trace (%zu records) saved: %s\n",
                    r.flight->size(), path.c_str());
      }
    } else {
      std::printf("  flight trace save failed: %s\n", err.c_str());
    }
  }
  if (!cli.quiet && !cli.stream_dir.empty() && r.flight &&
      r.flight->streaming()) {
    std::printf("  flight trace streamed: %s/seed-%llu.rivtrace\n",
                cli.stream_dir.c_str(),
                static_cast<unsigned long long>(o.seed));
  }
  if (!cli.metrics_dir.empty() && !r.metrics_csv.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cli.metrics_dir, ec);
    std::string path = cli.metrics_dir + "/seed-" +
                       std::to_string(o.seed) + ".metrics.csv";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(r.metrics_csv.data(), 1, r.metrics_csv.size(), f);
      std::fclose(f);
      if (!cli.quiet)
        std::printf("  metrics timeline saved: %s\n", path.c_str());
    } else {
      std::printf("  metrics timeline save failed: %s\n", path.c_str());
    }
  }
  if (failed)
    std::printf("  repro: %s\n", repro_command(cli, o.seed).c_str());
  return failed;
}

// --from-checkpoint: load → restore (attested) → run the tail → report.
// Every scenario parameter comes from the file; the usual scenario flags
// are ignored. Exit 0 clean, 1 violation / failed attestation, 2 on an
// unreadable or malformed file.
int run_from_checkpoint(const CliOptions& cli) {
  checkpoint::Snapshot snap;
  std::string err;
  if (!checkpoint::load(cli.from_checkpoint, &snap, &err)) {
    std::fprintf(stderr, "%s: %s\n", cli.from_checkpoint.c_str(),
                 err.c_str());
    return 2;
  }
  std::printf("checkpoint: scenario=%s seed=%llu at=%.3fs sections=%zu "
              "trace_records=%llu\n",
              snap.scenario.c_str(),
              static_cast<unsigned long long>(snap.seed),
              static_cast<double>((snap.at - TimePoint{}).us) / 1e6,
              snap.sections.size(),
              static_cast<unsigned long long>(snap.trace_records));
  checkpoint::RestoreReport rep = checkpoint::restore(snap);
  if (!rep.ok) {
    std::fprintf(stderr, "restore FAILED: %s\n", rep.error.c_str());
    return 1;
  }
  std::printf("restore attested: all sections byte-identical "
              "(restored ≡ uninterrupted)\n");
  checkpoint::Scenario& sc = *rep.scenario;
  sc.run_to(sc.end_time());
  sc.finish();
  const chaos::ChaosResult* cr = sc.chaos_result();
  if (cr == nullptr) {
    // A golden home scenario: no engine verdict, just the trace identity.
    std::printf("%s: %s\n", sc.name().c_str(), sc.summary().c_str());
    return 0;
  }
  CliOptions report = cli;
  report.verify_determinism = false;  // single resumed run, nothing to diff
  SeedOutcome o;
  o.seed = snap.seed;
  o.result = *cr;
  return report_outcome(report, o) ? 1 : 0;
}

// --fork-sweep W: one warm-up shared by every seed, then an in-process
// clone per seed. The workload seed is seeds[0]; each clone arms seed
// i's fault plan at the warm point, so the sweep varies the fault
// schedule over an identical warm state (test_checkpoint proves each
// clone's outcome equals a fresh run of the same configuration). The
// warm session records no flight trace and no metric snapshots: neither
// can be cloned, and the sweep's output never used them.
int run_clone_sweep(const CliOptions& cli) {
  chaos::EngineOptions opt = build_engine_options(cli, cli.seeds[0]);
  opt.defer_plan = true;
  opt.flight = false;
  opt.metrics_period = {};
  const Duration warmup = seconds(cli.fork_warmup_s);
  checkpoint::SessionImage img;
  {
    chaos::ChaosSession warm(std::move(opt));
    warm.run_to(TimePoint{} + warmup);
    checkpoint::capture_session(warm, img);
  }
  if (!cli.quiet)
    std::printf("fork-sweep: workload seed %llu warmed to %llds; cloning "
                "%zu plan seeds (%d jobs)\n",
                static_cast<unsigned long long>(cli.seeds[0]),
                static_cast<long long>(cli.fork_warmup_s),
                cli.seeds.size(), cli.jobs);
  std::vector<SeedOutcome> outcomes = parallel_map<SeedOutcome>(
      cli.jobs, cli.seeds.size(), [&cli, &img, warmup](std::size_t i) {
        std::unique_ptr<chaos::ChaosSession> s =
            checkpoint::clone_session(img);
        s->arm_plan(cli.seeds[i], warmup);
        s->run_to(s->run_end());
        SeedOutcome o;
        o.seed = cli.seeds[i];
        s->finish(o.result);
        return o;
      });
  std::uint64_t failures = 0;
  for (const SeedOutcome& o : outcomes) {
    std::fputs(seed_lines(o, /*verified=*/false, cli.quiet).c_str(), stdout);
    if (!o.result.ok()) ++failures;
  }
  std::printf("%llu/%llu seeds clean\n",
              static_cast<unsigned long long>(cli.seeds.size() - failures),
              static_cast<unsigned long long>(cli.seeds.size()));
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed" || arg == "--seeds") {
      if (!parse_seeds(next(), cli.seeds)) {
        std::fprintf(stderr, "bad seed spec\n");
        return 2;
      }
    } else if (arg == "--guarantee") {
      std::string g = next();
      if (g == "gapless") {
        cli.guarantee = appmodel::Guarantee::kGapless;
      } else if (g == "gap") {
        cli.guarantee = appmodel::Guarantee::kGap;
      } else {
        std::fprintf(stderr, "bad guarantee '%s'\n", g.c_str());
        return 2;
      }
    } else if (arg == "--procs") {
      cli.procs = std::atoi(next());
    } else if (arg == "--receivers") {
      cli.receivers = std::atoi(next());
    } else if (arg == "--loss") {
      cli.loss = std::atof(next());
    } else if (arg == "--duration") {
      cli.duration_s = std::atoll(next());
    } else if (arg == "--check-interval") {
      cli.check_interval_ms = std::atoll(next());
    } else if (arg == "--jobs") {
      // 0 = auto-detect: one worker per hardware thread.
      cli.jobs = riv::resolve_jobs(std::atoi(next()));
    } else if (arg == "--kinds") {
      cli.kinds = next();
      chaos::PlanOptions probe;
      if (!apply_kinds(cli.kinds, probe)) return 2;
    } else if (arg == "--list-kinds") {
      list_kinds();
      return 0;
    } else if (arg == "--no-verify") {
      cli.verify_determinism = false;
    } else if (arg == "--print-trace") {
      cli.print_trace = true;
    } else if (arg == "--demo-violation") {
      cli.demo_violation = true;
    } else if (arg == "--trace") {
      cli.trace_dir = next();
    } else if (arg == "--trace-ring") {
      cli.trace_ring_bytes = static_cast<std::size_t>(std::atoll(next()));
      if (cli.trace_ring_bytes == 0) {
        std::fprintf(stderr, "bad --trace-ring size\n");
        return 2;
      }
    } else if (arg == "--trace-stream") {
      cli.stream_dir = next();
    } else if (arg == "--metrics") {
      cli.metrics_dir = next();
    } else if (arg == "--checkpoint-every") {
      cli.checkpoint_every_s = std::atoll(next());
      if (cli.checkpoint_every_s < 1) {
        std::fprintf(stderr, "bad --checkpoint-every interval\n");
        return 2;
      }
    } else if (arg == "--checkpoint-dir") {
      cli.checkpoint_dir = next();
    } else if (arg == "--from-checkpoint") {
      cli.from_checkpoint = next();
    } else if (arg == "--fork-sweep") {
      cli.fork_warmup_s = std::atoll(next());
      if (cli.fork_warmup_s < 1) {
        std::fprintf(stderr, "bad --fork-sweep warm-up\n");
        return 2;
      }
    } else if (arg == "--quiet") {
      cli.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  const std::string bad =
      chaos::validate(build_engine_options(cli, cli.seeds[0]));
  if (!bad.empty()) {
    std::fprintf(stderr, "bad scenario parameters: %s\n", bad.c_str());
    return 2;
  }
  if (cli.checkpoint_every_s > 0 && cli.demo_violation) {
    // The demo invariant is injected into the engine directly; it has no
    // place in a (name, seed, params)-identified checkpointable run.
    std::fprintf(stderr,
                 "--checkpoint-every and --demo-violation are exclusive\n");
    return 2;
  }
  if (!cli.from_checkpoint.empty()) return run_from_checkpoint(cli);
  if (cli.fork_warmup_s >= 0) return run_clone_sweep(cli);

  const std::vector<std::uint64_t>& seeds = cli.seeds;

  std::uint64_t failures = 0;
  if (cli.jobs == 1 || seeds.size() == 1) {
    for (std::uint64_t seed : seeds) {
      if (report_outcome(cli, run_seed(cli, seed))) ++failures;
    }
  } else {
    // Worker threads claim seeds in order; each simulation is fully
    // self-contained (own Rng, clock, metrics, thread-local trace scope),
    // so concurrent runs produce exactly the serial per-seed results. The
    // main thread reports outcome i only after outcomes 0..i-1, keeping
    // the output byte-identical to --jobs 1.
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::optional<SeedOutcome>> done(seeds.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    const std::size_t n_workers =
        std::min<std::size_t>(static_cast<std::size_t>(cli.jobs),
                              seeds.size());
    pool.reserve(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w) {
      pool.emplace_back([&] {
        for (;;) {
          std::size_t i = next.fetch_add(1);
          if (i >= seeds.size()) return;
          SeedOutcome o = run_seed(cli, seeds[i]);
          {
            std::lock_guard<std::mutex> lock(mu);
            done[i] = std::move(o);
          }
          cv.notify_one();
        }
      });
    }
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      SeedOutcome o;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done[i].has_value(); });
        o = std::move(*done[i]);
        done[i].reset();
      }
      if (report_outcome(cli, o)) ++failures;
    }
    for (std::thread& t : pool) t.join();
  }
  const std::uint64_t total = seeds.size();

  std::printf("%llu/%llu seeds clean\n",
              static_cast<unsigned long long>(total - failures),
              static_cast<unsigned long long>(total));
  return failures == 0 ? 0 : 1;
}
