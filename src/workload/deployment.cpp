#include "workload/deployment.hpp"

#include "common/assert.hpp"

namespace riv::workload {

HomeDeployment::HomeDeployment(Options options)
    : sim_(options.seed),
      net_(sim_, shared_metrics_, options.wifi),
      bus_(sim_),
      timers_(sim_, *this),
      config_(options.config) {
  RIV_ASSERT(options.n_processes >= 1, "need at least one process");
  for (int i = 0; i < options.n_processes; ++i) {
    ProcessId p{static_cast<std::uint16_t>(i + 1)};
    processes_.push_back(p);
    // Every host gets every adapter by default; which devices a host can
    // reach is controlled by link wiring, which is what experiments vary.
    bus_.add_adapter(p, devices::Technology::kIp);
    bus_.add_adapter(p, devices::Technology::kZWave);
    bus_.add_adapter(p, devices::Technology::kZigbee);
    bus_.add_adapter(p, devices::Technology::kBle);
  }
  for (ProcessId p : processes_) {
    proc_metrics_.push_back(std::make_unique<metrics::Registry>());
    procs_.push_back(std::make_unique<core::RivuletProcess>(
        sim_, net_, bus_, p, processes_, config_, *proc_metrics_.back()));
  }
}

HomeDeployment::~HomeDeployment() { sim_.shut_down(); }

ProcessId HomeDeployment::pid(int index) const {
  RIV_ASSERT(index >= 0 &&
                 index < static_cast<int>(processes_.size()),
             "process index out of range");
  return processes_[static_cast<std::size_t>(index)];
}

devices::Sensor& HomeDeployment::add_sensor(
    const devices::SensorSpec& spec, const std::vector<ProcessId>& linked,
    devices::LinkParams params) {
  devices::Sensor& s = bus_.add_sensor(spec);
  for (ProcessId p : linked) bus_.link_sensor(spec.id, p, params);
  return s;
}

devices::Actuator& HomeDeployment::add_actuator(
    const devices::ActuatorSpec& spec, const std::vector<ProcessId>& linked) {
  devices::Actuator& a = bus_.add_actuator(spec);
  for (ProcessId p : linked) bus_.link_actuator(spec.id, p);
  return a;
}

void HomeDeployment::deploy(appmodel::AppGraph graph) {
  auto shared =
      std::make_shared<const appmodel::AppGraph>(std::move(graph));
  deployed_apps_.push_back(shared->id);
  for (auto& proc : procs_) proc->deploy(shared);
}

void HomeDeployment::heal_all() {
  net_.heal_partition();
  net_.clear_reachable_overrides();
  net_.clear_edge_overrides();
  for (auto& proc : procs_) {
    if (!proc->up()) proc->recover();
  }
  for (SensorId s : bus_.sensors()) {
    if (bus_.sensor(s).crashed()) bus_.sensor(s).recover();
  }
}

bool HomeDeployment::drain_to_quiescence(Duration step, Duration stable_for,
                                         Duration max_wait) {
  for (SensorId s : bus_.sensors()) bus_.sensor(s).stop();
  heal_all();

  // Fingerprint of everything the protocols may still be converging:
  // per-process per-app delivered counts and per-sensor log sizes, plus
  // which processes hold an active logic node.
  auto fingerprint = [this] {
    std::vector<std::uint64_t> fp;
    for (auto& proc : procs_) {
      for (AppId app : deployed_apps_) {
        fp.push_back(proc->delivered(app));
        fp.push_back(proc->logic_active(app) ? 1 : 0);
        core::EventLog* log = proc->event_log(app);
        if (log == nullptr) continue;
        for (SensorId s : bus_.sensors())
          fp.push_back(log->size(s));
      }
    }
    return fp;
  };

  TimePoint deadline = sim_.now() + max_wait;
  std::vector<std::uint64_t> last = fingerprint();
  Duration stable{};
  while (sim_.now() < deadline) {
    sim_.run_for(step);
    std::vector<std::uint64_t> cur = fingerprint();
    if (cur == last) {
      stable += step;
      if (stable >= stable_for) return true;
    } else {
      stable = Duration{};
      last = std::move(cur);
    }
  }
  return false;
}

void HomeDeployment::start() {
  for (auto& proc : procs_) proc->start();
  bus_.start_all();
}

metrics::Registry& HomeDeployment::metrics() {
  merged_.reset();
  merged_.merge_scalars_from(shared_metrics_);
  for (auto& reg : proc_metrics_) merged_.merge_scalars_from(*reg);
  return merged_;
}

metrics::Registry& HomeDeployment::process_metrics(ProcessId p) {
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    if (processes_[i] == p) return *proc_metrics_[i];
  }
  RIV_ASSERT(false, "unknown process");
  return *proc_metrics_.front();
}

void HomeDeployment::enable_metric_snapshots(Duration period) {
  RIV_ASSERT(period.us > 0, "snapshot period must be positive");
  if (snapshot_period_.us > 0) {
    snapshot_period_ = period;  // already armed; just change the cadence
    return;
  }
  snapshot_period_ = period;
  timers_.schedule_after(snapshot_period_, 0);
}

void HomeDeployment::on_timer(sim::TimerId /*id*/, std::uint16_t /*kind*/,
                              std::uint64_t /*arg*/) {
  TimePoint now = sim_.now();
  for (std::size_t i = 0; i < processes_.size(); ++i)
    snapshots_.capture(now, processes_[i], *proc_metrics_[i]);
  snapshots_.capture(now, ProcessId{0}, shared_metrics_);
  timers_.schedule_after(snapshot_period_, 0);
}

core::RivuletProcess& HomeDeployment::process(ProcessId p) {
  for (auto& proc : procs_) {
    if (proc->id() == p) return *proc;
  }
  RIV_ASSERT(false, "unknown process");
  return *procs_.front();
}

core::RivuletProcess* HomeDeployment::active_logic_process(AppId app) {
  for (auto& proc : procs_) {
    if (proc->up() && proc->logic_active(app)) return proc.get();
  }
  return nullptr;
}

}  // namespace riv::workload
