#include "checkpoint/scenario.hpp"

#include <optional>
#include <utility>

#include "checkpoint/clone.hpp"
#include "common/codec.hpp"
#include "common/hash.hpp"
#include "trace/trace.hpp"
#include "workload/apps.hpp"
#include "workload/deployment.hpp"

namespace riv::checkpoint {
namespace {

// The golden scenarios' fixed identifiers (mirrors tests/test_trace_golden).
constexpr AppId kApp{1};
constexpr SensorId kDoor{1};
constexpr ActuatorId kLight{1};

constexpr std::uint32_t kGoldenMask =
    trace::kAllComponents & ~trace::component_bit(trace::Component::kSim);

// The paper's running example (door sensor → light on a 3-process home),
// construction kept field-for-field identical to the golden-trace test so
// a registry run reproduces the blessed traces bit-for-bit.
class HomeScenario final : public Scenario {
 public:
  HomeScenario(std::string name, std::uint64_t seed,
               appmodel::Guarantee guarantee, bool crash_active_logic,
               std::uint32_t mask)
      : name_(std::move(name)),
        seed_(seed),
        guarantee_(guarantee),
        crash_(crash_active_logic),
        mask_(mask) {}

  const std::string& name() const override { return name_; }
  std::uint64_t seed() const override { return seed_; }

  std::vector<std::byte> params() const override {
    BinaryWriter w;
    w.u32(mask_);
    return w.take();
  }

  void start() override {
    rec_ = std::make_shared<trace::Recorder>(mask_);
    scope_.emplace(*rec_);

    workload::HomeDeployment::Options opt;
    opt.seed = seed_;
    opt.n_processes = 3;
    home_.emplace(opt);

    devices::SensorSpec spec;
    spec.id = kDoor;
    spec.name = "door";
    spec.kind = devices::SensorKind::kDoor;
    spec.tech = devices::Technology::kIp;
    spec.rate_hz = 2.0;
    devices::LinkParams link;
    link.loss_prob = 0.1;
    home_->add_sensor(spec, {home_->pid(0), home_->pid(1)}, link);

    devices::ActuatorSpec light;
    light.id = kLight;
    light.name = "light";
    light.tech = devices::Technology::kIp;
    home_->add_actuator(light, {home_->pid(0)});
    home_->deploy(
        workload::apps::turn_light_on_off(kApp, kDoor, kLight, guarantee_));

    home_->start();
  }

  void run_to(TimePoint t) override {
    // The failover scenario's one scripted action: crash the active logic
    // holder at 3s. Applying it on the way through keeps chunked runs
    // (checkpoint at 4s, continue) identical to the monolithic golden run
    // (run 3s, crash, run 5s).
    const TimePoint crash_at = TimePoint{} + seconds(3);
    if (crash_ && !crash_done_ && t >= crash_at) {
      if (home_->sim().now() < crash_at) home_->run_until(crash_at);
      core::RivuletProcess* active = home_->active_logic_process(kApp);
      if (active != nullptr) active->crash();
      trace::emit_text(home_->sim().now(), ProcessId{0},
                       trace::Component::kChaos, trace::Kind::kMark,
                       "crash_active_logic");
      crash_done_ = true;
    }
    if (t > home_->sim().now()) home_->run_until(t);
  }

  TimePoint now() override { return home_->sim().now(); }
  TimePoint end_time() const override { return TimePoint{} + seconds(8); }

  void finish() override {
    // Teardown while the Scope is still installed: shutdown records are
    // part of the blessed golden traces.
    summary_ = "records=" + std::to_string(rec_->size()) +
               " hash=" + rec_->digest();
    home_.reset();
    scope_.reset();
  }

  std::shared_ptr<trace::Recorder> recorder() const override { return rec_; }
  workload::HomeDeployment& home() override { return *home_; }
  std::string summary() const override { return summary_; }

 private:
  std::string name_;
  std::uint64_t seed_;
  appmodel::Guarantee guarantee_;
  bool crash_;
  std::uint32_t mask_;
  std::shared_ptr<trace::Recorder> rec_;
  std::optional<trace::Scope> scope_;
  std::optional<workload::HomeDeployment> home_;
  bool crash_done_{false};
  std::string summary_;
};

class ChaosScenario final : public Scenario {
 public:
  ChaosScenario(std::string name, chaos::EngineOptions opt)
      : name_(std::move(name)), opt_(std::move(opt)) {
    // The trace position is part of the checkpoint contract, and a
    // restored run cannot re-open the original stream file.
    opt_.flight = true;
    opt_.flight_stream_path.clear();
  }

  const std::string& name() const override { return name_; }
  std::uint64_t seed() const override { return opt_.scenario.seed; }
  std::vector<std::byte> params() const override {
    return encode_chaos_params(opt_);
  }

  void start() override {
    session_.emplace(opt_);
    rec_ = session_->flight();
  }

  void run_to(TimePoint t) override { session_->run_to(t); }
  TimePoint now() override { return session_->home().sim().now(); }
  TimePoint end_time() const override {
    return session_ ? session_->run_end()
                    : TimePoint{} + opt_.plan.horizon + seconds(1);
  }

  void finish() override {
    session_->finish(result_);
    session_.reset();  // teardown records land in the flight trace
    result_.flight = rec_;
    finished_ = true;
    summary_ = "violations=" + std::to_string(result_.violations.size()) +
               " quiesced=" + (result_.quiesced ? "yes" : "no") +
               " faults=" + std::to_string(result_.faults_injected) +
               " trace=" + result_.trace_digest;
  }

  std::shared_ptr<trace::Recorder> recorder() const override { return rec_; }
  workload::HomeDeployment& home() override { return session_->home(); }
  std::string summary() const override { return summary_; }

  chaos::ChaosSession* session() { return session_ ? &*session_ : nullptr; }
  const chaos::ChaosResult* chaos_result() const override {
    return finished_ ? &result_ : nullptr;
  }

 protected:
  void extra_sections(Snapshot& snap) override {
    BinaryWriter w;
    session_->clone_state(w);
    snap.sections.push_back({"chaos.session", w.take()});
  }

 private:
  std::string name_;
  chaos::EngineOptions opt_;
  std::optional<chaos::ChaosSession> session_;
  std::shared_ptr<trace::Recorder> rec_;
  chaos::ChaosResult result_;
  bool finished_{false};
  std::string summary_;
};

bool is_home_name(const std::string& name) {
  return name == "gapless_ring" || name == "gap_chain" || name == "failover";
}

std::unique_ptr<Scenario> make_home_scenario(const std::string& name,
                                             std::uint64_t seed,
                                             std::uint32_t mask) {
  const bool crash = name == "failover";
  const appmodel::Guarantee g = name == "gap_chain"
                                    ? appmodel::Guarantee::kGap
                                    : appmodel::Guarantee::kGapless;
  return std::make_unique<HomeScenario>(name, seed, g, crash, mask);
}

}  // namespace

Snapshot Scenario::capture() {
  Snapshot snap;
  snap.scenario = name();
  snap.seed = seed();
  snap.params = params();
  workload::HomeDeployment& h = home();
  snap.at = h.sim().now();
  if (auto rec = recorder()) {
    snap.trace_records = rec->size();
    snap.trace_hash = rec->hash();
  }
  WarmImage img;
  capture_warm_home(h, seed(), img, /*with_attest=*/false);
  snap.sections = image_sections(std::move(img), h);
  extra_sections(snap);
  return snap;
}

std::unique_ptr<Scenario> make_golden_scenario(const std::string& name) {
  if (is_home_name(name)) return make_home_scenario(name, 42, kGoldenMask);
  if (name == "chaos_flight") {
    chaos::EngineOptions opt;
    opt.scenario.seed = 7;
    opt.scenario.guarantee = appmodel::Guarantee::kGapless;
    opt.plan.horizon = seconds(12);
    opt.flight = true;
    opt.flight_mask =
        kGoldenMask & ~trace::component_bit(trace::Component::kNet);
    return std::make_unique<ChaosScenario>(name, std::move(opt));
  }
  return nullptr;
}

std::unique_ptr<Scenario> make_chaos_scenario(chaos::EngineOptions opt) {
  return std::make_unique<ChaosScenario>("chaos", std::move(opt));
}

std::unique_ptr<Scenario> scenario_from_snapshot(const Snapshot& snap,
                                                 std::string* error) {
  if (is_home_name(snap.scenario)) {
    BinaryReader r(snap.params);
    const std::uint32_t mask = r.u32();
    if (!r.ok() || !r.at_end()) {
      if (error != nullptr) *error = "bad home-scenario params blob";
      return nullptr;
    }
    return make_home_scenario(snap.scenario, snap.seed, mask);
  }
  if (snap.scenario == "chaos" || snap.scenario == "chaos_flight") {
    chaos::EngineOptions opt;
    if (!decode_chaos_params(snap.params, &opt, error)) return nullptr;
    return std::make_unique<ChaosScenario>(snap.scenario, std::move(opt));
  }
  if (error != nullptr)
    *error = "unknown checkpoint scenario '" + snap.scenario + "'";
  return nullptr;
}

namespace {

// The chaos params blob: every EngineOptions field a rebuild needs, each
// flag a 0/1 byte. Returns false when a flag byte read is neither.
template <class A, class Options>
bool chaos_params_state(A& a, Options& o) {
  bool flags_ok = true;
  auto flag = [&a, &flags_ok](auto& f) {
    std::uint8_t byte = f ? 1 : 0;
    io(a, byte);
    if constexpr (A::kReads) {
      flags_ok = flags_ok && byte <= 1;
      f = byte == 1;
    }
  };
  io(a, o.scenario.seed);
  io_as<std::uint8_t>(a, o.scenario.guarantee);
  io_as<std::uint32_t>(a, o.scenario.n_processes);
  io_as<std::uint32_t>(a, o.scenario.receivers);
  io(a, o.scenario.device_link_loss);
  io(a, o.scenario.rate_hz);
  io(a, o.plan.horizon);
  io(a, o.plan.mean_gap);
  io(a, o.plan.quiesce_every);
  io(a, o.plan.quiesce_len);
  io(a, o.plan.max_fault_hold);
  for (auto* f : {&o.plan.crashes, &o.plan.partitions,
                  &o.plan.asym_partitions, &o.plan.delay_spikes,
                  &o.plan.edge_loss, &o.plan.device_link_loss,
                  &o.plan.device_crashes, &o.plan.spoof_events,
                  &o.plan.replay_events, &o.plan.corrupt_process})
    flag(*f);
  io(a, o.plan.max_edge_loss);
  io(a, o.plan.max_device_link_loss);
  io(a, o.plan.max_delay_spike);
  io(a, o.check_interval);
  io(a, o.flight_mask);
  io(a, o.flight_ring_bytes);
  io(a, o.metrics_period);
  flag(o.byzantine_defense);
  flag(o.defer_plan);
  return flags_ok;
}

}  // namespace

std::vector<std::byte> encode_chaos_params(const chaos::EngineOptions& o) {
  BinaryWriter w;
  chaos_params_state(w, o);
  return w.take();
}

bool decode_chaos_params(const std::vector<std::byte>& params,
                         chaos::EngineOptions* out, std::string* error) {
  BinaryReader r(params);
  chaos::EngineOptions o;
  o.flight = true;
  const bool flags_ok = chaos_params_state(r, o);
  // A blob with a fresh footer can still carry any value: every field
  // is range-checked before a deployment is built from it.
  if (!r.ok() || !r.at_end() || !flags_ok || !chaos::validate(o).empty()) {
    if (error != nullptr) *error = "bad chaos-scenario params blob";
    return false;
  }
  *out = std::move(o);
  return true;
}

RestoreReport restore(const Snapshot& snap) {
  RestoreReport rep;
  rep.scenario = scenario_from_snapshot(snap, &rep.error);
  if (rep.scenario == nullptr) return rep;
  // Re-execution would run to any time a file names, years past the end
  // included: refuse one the scenario's run never reaches.
  if (snap.at < TimePoint{} || snap.at > rep.scenario->end_time()) {
    rep.error = "snapshot time outside the scenario's run";
    rep.scenario.reset();
    return rep;
  }
  rep.scenario->start();
  rep.scenario->run_to(snap.at);
  Snapshot re = rep.scenario->capture();
  const std::string diff = diff_snapshots(snap, re);
  if (!diff.empty()) {
    rep.error = "restore attestation failed: " + diff;
    return rep;
  }
  rep.ok = true;
  return rep;
}

}  // namespace riv::checkpoint
