// ChaosEngine: one seed in, one verdict out.
//
// Ties the pieces together for the standard chaos scenario (the door→light
// app of the paper's running example on an n-process home): builds the
// deployment, derives a FaultPlan from the seed, arms the injector,
// registers the invariants the deployed guarantee promises, runs the
// schedule with continuous checking, drains to quiescence, and runs the
// exact final checks. The result carries every violation (timestamped),
// the full fault trace, and the trace's determinism hash.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "appmodel/graph.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"
#include "chaos/trace.hpp"
#include "trace/trace.hpp"

namespace riv {
class BinaryWriter;
namespace workload {
class HomeDeployment;
}
}  // namespace riv

namespace riv::chaos {

struct ScenarioOptions {
  std::uint64_t seed{1};
  appmodel::Guarantee guarantee{appmodel::Guarantee::kGapless};
  int n_processes{4};
  int receivers{2};             // processes with a link to the sensor
  double device_link_loss{0.1};  // baseline loss on each sensor link
  double rate_hz{10.0};
};

struct EngineOptions {
  ScenarioOptions scenario;
  // Plan knobs; n_processes / devices / device_links are filled in from
  // the scenario. quiesce_len is raised to cover ring-wide anti-entropy
  // propagation ((n-1) sync periods) so converged checks cannot fire
  // before convergence is even possible.
  PlanOptions plan;
  Duration check_interval{milliseconds(500)};
  // When set, the run records a full flight-recorder trace (src/trace)
  // covering the components in flight_mask; the recorder lands in
  // ChaosResult::flight and can be saved as a replayable .rivtrace
  // artifact (tools/chaos_run --trace).
  bool flight{false};
  std::uint32_t flight_mask{riv::trace::kAllComponents};
  // Ring sink: keep only the most recent ~N bytes of packed flight
  // records (chaos_run --trace-ring). 0 = unbounded in-memory arena.
  std::size_t flight_ring_bytes{0};
  // Streaming sink: when non-empty, packed chunks are flushed to this
  // file as they fill (bounded memory); the engine finalises the footer
  // at the end of the run. ChaosResult::flight then holds only the
  // recorder's rolling hash, not the records themselves.
  std::string flight_stream_path;
  // When positive, per-process + shared counter snapshots are captured
  // every `metrics_period` of virtual time and the timeline lands in
  // ChaosResult::metrics_csv (tools/chaos_run --metrics).
  Duration metrics_period{};
  // When any Byzantine plan category is enabled the engine arms the
  // tamper-evidence layer (device MACs + sealed frames + receiver
  // verification) unless this is cleared — tests clear it to demonstrate
  // what an undefended home does with the same attacks. Sensors sign
  // their emissions whenever Byzantine chaos is on, so the attacker model
  // is identical in both modes; only the verification differs.
  bool byzantine_defense{true};
  // Warm-prefix sweeps: build the deployment but generate/arm NO fault
  // plan. The caller warms the home up, clones the session
  // (checkpoint::capture_session / clone_session), then calls
  // ChaosSession::arm_plan(seed, offset) once per clone, so many
  // divergent fault schedules share one warm-up prefix.
  bool defer_plan{false};
};

// The one range check for options that come from outside the program
// (chaos_run's command line, a RIVC params blob): "" when the engine can
// run them, otherwise the first field out of range and its bounds. A
// home has 1..64 processes (ProcessId is 16-bit, and a quiescence window
// grows with n), probabilities lie in [0, 1], spans are at most a day of
// virtual time, and the checker and metric periods are at least 1 ms (a
// zero period re-arms its timer at the same instant forever). The plan's
// n_processes, devices and device_links are derived from the scenario,
// not checked.
std::string validate(const EngineOptions& options);
// validate()'s bound on a home's processes.
inline constexpr int kMaxProcesses = 64;

struct ChaosResult {
  std::vector<Violation> violations;
  std::vector<std::string> trace;
  std::uint64_t trace_hash{0};
  std::string trace_digest;
  // Flight-recorder trace (only when EngineOptions::flight was set).
  std::shared_ptr<riv::trace::Recorder> flight;
  // Snapshot-timeline CSV (only when EngineOptions::metrics_period set).
  std::string metrics_csv;
  bool quiesced{false};
  std::size_t faults_injected{0};
  // Plan actions that landed on already-satisfied state ("(noop)").
  std::size_t faults_noop{0};
  // Byzantine attacks actually performed (spoof/replay injections and
  // interposer mutate/dup/drop events); 0 unless a Byzantine category ran.
  std::size_t byzantine_attacks{0};
  std::uint64_t delivered{0};
  std::uint64_t ingested{0};
  std::uint64_t emitted{0};
  // Discrete events the sim kernel dispatched over the whole run
  // (bench_kernel's throughput numerator).
  std::uint64_t sim_events{0};

  bool ok() const { return violations.empty() && quiesced; }
};

class ChaosEngine {
 public:
  explicit ChaosEngine(EngineOptions options);
  ~ChaosEngine();

  // Register an extra invariant before run() (tests use this to prove the
  // violation→repro pipeline fires).
  void add_invariant(std::unique_ptr<Invariant> invariant);

  // Execute the full schedule. Call once per engine instance.
  ChaosResult run();

 private:
  EngineOptions options_;
  std::vector<std::unique_ptr<Invariant>> extra_;
};

// One chaos run, held open. Construction builds the deployment, arms the
// seed's fault plan (unless EngineOptions::defer_plan), and starts the
// home + checker — exactly the prefix ChaosEngine::run() always executed.
// The caller then advances virtual time in chunks (run_to), may capture a
// checkpoint between chunks, and calls finish() for the drain + final
// converged checks + summary. ChaosEngine::run() is now a thin wrapper
// over one session, and a chunked session produces a trace byte-identical
// to the monolithic run it replaced (test_checkpoint pins this).
class ChaosSession {
 public:
  // Restores the home's state, every pending timer included, into the
  // freshly built deployment — in practice checkpoint::apply_warm_home,
  // which riv_chaos cannot link.
  using HomeRestore = std::function<void(workload::HomeDeployment& home)>;

  explicit ChaosSession(EngineOptions options,
                        std::vector<std::unique_ptr<Invariant>> extra = {});
  // Clone constructor: build the same session without starting it, then
  // restore the home and `state` (a clone_state blob). A plan that was
  // armed is regenerated from its seed and loaded without scheduling:
  // the kernel restored its pending actions (checkpoint::clone_session).
  ChaosSession(EngineOptions options, const std::vector<std::byte>& state,
               const HomeRestore& restore_home);
  ~ChaosSession();
  ChaosSession(const ChaosSession&) = delete;
  ChaosSession& operator=(const ChaosSession&) = delete;

  // The deployment under test (checkpoint capture reads it).
  workload::HomeDeployment& home();
  const EngineOptions& options() const;

  // Virtual end of the scheduled run: plan horizon + 1s of settle time,
  // measured from the moment the plan was armed.
  TimePoint run_end() const;

  // Advance virtual time to `t` (no-op if `t` is already past).
  void run_to(TimePoint t);

  // Drain to quiescence, run the final converged checks, and fill every
  // ChaosResult field except `flight` — the engine attaches the flight
  // recorder only after teardown so shutdown records reach a streaming
  // sink first. Call once, after the last run_to.
  void finish(ChaosResult& result);

  // defer_plan mode: generate the plan for `plan_seed` and arm it with
  // every action shifted by `offset`. Warm-prefix sweeps call this once
  // per clone of a shared fault-free warm-up, so divergent schedules
  // reuse one warm prefix.
  void arm_plan(std::uint64_t plan_seed, Duration offset = {});
  bool plan_armed() const;

  // The flight recorder (null unless EngineOptions::flight was set).
  std::shared_ptr<riv::trace::Recorder> flight() const;

  // The human-readable fault trace accumulated so far.
  const TraceRecorder& fault_trace() const;

  // Serialize the session's own state next to the home's image: whether
  // a plan is armed (with its seed, offset and the run's end), the fault
  // trace so far, the checker's state, and the injector's fault-plan
  // cursors. The kernel's blob carries the timers.
  void clone_state(BinaryWriter& w) const;

 private:
  struct Impl;
  // Everything both constructors share: the flight recorder, the
  // standard home (built, not started), the plan options, the checker
  // and the injector. No timer exists yet when this returns.
  void build(std::vector<std::unique_ptr<Invariant>> extra);
  // The one field list behind clone_state and the clone constructor.
  template <class A, class Self>
  static void io_state(A& a, Self& im);

  std::unique_ptr<Impl> impl_;
};

// The scenario's fixed identifiers (shared with tests).
inline constexpr AppId kChaosApp{1};
inline constexpr SensorId kChaosSensor{1};
inline constexpr ActuatorId kChaosActuator{1};

}  // namespace riv::chaos
