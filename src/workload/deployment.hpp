// HomeDeployment: one-stop harness for experiments, tests and examples.
//
// Bundles the full simulated home of §8.1 — virtual time, the WiFi
// network, the device bus, and one RivuletProcess per host — behind a
// small builder API, so a bench can say "five processes, one 4-byte IP
// sensor at 10 ev/s received by p2 and p3 with 10% link loss, this app
// deployed everywhere" in a handful of lines.
#pragma once

#include <memory>
#include <vector>

#include "core/runtime.hpp"
#include "devices/home_bus.hpp"
#include "metrics/metrics.hpp"
#include "net/sim_network.hpp"
#include "sim/simulation.hpp"

namespace riv::workload {

class HomeDeployment : public sim::TimerOwner {
 public:
  struct Options {
    std::uint64_t seed{1};
    int n_processes{5};
    net::WifiModel wifi{};
    core::Config config{};
  };

  explicit HomeDeployment(Options options);
  ~HomeDeployment();

  HomeDeployment(const HomeDeployment&) = delete;
  HomeDeployment& operator=(const HomeDeployment&) = delete;

  // Process ids are 1-based: pid(0) == p1.
  ProcessId pid(int index) const;
  const std::vector<ProcessId>& processes() const { return processes_; }

  // Add a sensor linked to the given processes (same LinkParams each).
  devices::Sensor& add_sensor(const devices::SensorSpec& spec,
                              const std::vector<ProcessId>& linked,
                              devices::LinkParams params = {});
  devices::Actuator& add_actuator(const devices::ActuatorSpec& spec,
                                  const std::vector<ProcessId>& linked);

  // Install an app on every process.
  void deploy(appmodel::AppGraph graph);
  const std::vector<AppId>& deployed_apps() const { return deployed_apps_; }

  // Start all Rivulet processes and all push sensors.
  void start();

  void run_for(Duration d) { sim_.run_for(d); }
  void run_until(TimePoint t) { sim_.run_until(t); }

  // Repair every injected fault: recover crashed processes and devices,
  // heal partitions, clear directed-edge reachability/delay/loss
  // overrides. (Device link-loss baselines are the caller's to restore —
  // the deployment does not know what "normal" loss was.)
  void heal_all();

  // Stop push-sensor emission, repair all faults, then run the simulation
  // until protocol activity no longer changes any event log, delivery
  // counter, or logic-role assignment for `stable_for` of virtual time
  // (covers the anti-entropy period), bounded by `max_wait`. Returns true
  // when the deployment quiesced within the bound. Replaces the old
  // "run 15 more seconds and hope" slack in tests: after a successful
  // drain, convergence assertions can be exact.
  bool drain_to_quiescence(Duration step = milliseconds(500),
                           Duration stable_for = seconds(12),
                           Duration max_wait = seconds(240));

  sim::Simulation& sim() { return sim_; }

  // Deployment-wide aggregate view: the shared registry (network,
  // devices) folded together with every per-process registry. Rebuilt on
  // each call — read it fresh, do not hold the reference across run_for()
  // and expect live values, and never write through it.
  metrics::Registry& metrics();
  // The registry shared by cross-process infrastructure (SimNetwork).
  metrics::Registry& shared_metrics() { return shared_metrics_; }
  // The registry one RivuletProcess writes its own metrics into.
  metrics::Registry& process_metrics(ProcessId p);

  // Capture a SnapshotTimeline row-set (per-process + shared counters)
  // every `period` of virtual time, starting one period from now.
  void enable_metric_snapshots(Duration period);
  const metrics::SnapshotTimeline& metric_snapshots() const {
    return snapshots_;
  }

  net::SimNetwork& net() { return net_; }
  devices::HomeBus& bus() { return bus_; }
  const core::Config& config() const { return config_; }
  core::RivuletProcess& process(ProcessId p);
  core::RivuletProcess& process(int index) { return process(pid(index)); }

  // The process whose logic node for `app` is currently active (nullptr
  // if none — e.g. mid-failover).
  core::RivuletProcess* active_logic_process(AppId app);

 private:
  // The metric-snapshot timer, the deployment's one timer kind.
  void on_timer(sim::TimerId id, std::uint16_t kind,
                std::uint64_t arg) override;

  sim::Simulation sim_;
  metrics::Registry shared_metrics_;
  metrics::Registry merged_;  // scratch for metrics(); rebuilt per call
  net::SimNetwork net_;
  devices::HomeBus bus_;
  sim::ProcessTimers timers_;
  core::Config config_;
  std::vector<ProcessId> processes_;
  // One registry per process, declared before procs_ so each
  // RivuletProcess can hold a reference for its whole lifetime.
  std::vector<std::unique_ptr<metrics::Registry>> proc_metrics_;
  std::vector<std::unique_ptr<core::RivuletProcess>> procs_;
  std::vector<AppId> deployed_apps_;
  metrics::SnapshotTimeline snapshots_;
  Duration snapshot_period_{};
};

}  // namespace riv::workload
