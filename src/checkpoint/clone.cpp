#include "checkpoint/clone.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/codec.hpp"
#include "metrics/metrics.hpp"
#include "workload/deployment.hpp"

namespace riv::checkpoint {
namespace {

// The "metrics" section: the shared registry, then each process's in pid
// order.
template <class A>
void metrics_state(A& a, workload::HomeDeployment& home) {
  io(a, home.shared_metrics());
  for (ProcessId p : home.processes()) io(a, home.process_metrics(p));
}

}  // namespace

std::size_t WarmImage::bytes() const {
  std::size_t total =
      kernel.size() + metrics.size() + network.size() + devices.size();
  for (const auto& p : procs) total += p.size();
  return total;
}

void WarmImage::clear() {
  seed = 0;
  at = {};
  n_processes = 0;
  n_sensors = 0;
  kernel.clear();
  metrics.clear();
  network.clear();
  devices.clear();
  for (auto& p : procs) p.clear();
  attest = false;
}

void enable_clone_tracking(workload::HomeDeployment& /*home*/) {}

void capture_warm_home(workload::HomeDeployment& home, std::uint64_t seed,
                       WarmImage& out, bool with_attest) {
  out.seed = seed;
  out.at = home.sim().now();
  out.n_processes = static_cast<std::uint32_t>(home.processes().size());
  out.n_sensors = static_cast<std::uint32_t>(home.bus().sensors().size());
  {
    BinaryWriter w(std::move(out.kernel));
    home.sim().clone_state(w);
    out.kernel = w.take();
  }
  {
    BinaryWriter w(std::move(out.metrics));
    metrics_state(w, home);
    out.metrics = w.take();
  }
  {
    BinaryWriter w(std::move(out.network));
    home.net().clone_state(w);
    out.network = w.take();
  }
  {
    BinaryWriter w(std::move(out.devices));
    home.bus().clone_state(w);
    out.devices = w.take();
  }
  out.procs.resize(out.n_processes);
  std::size_t i = 0;
  for (ProcessId p : home.processes()) {
    BinaryWriter w(std::move(out.procs[i]));
    home.process(p).clone_state(w);
    out.procs[i++] = w.take();
  }
  out.attest = with_attest;
}

std::vector<Section> image_sections(WarmImage img,
                                    const workload::HomeDeployment& home) {
  RIV_ASSERT(img.procs.size() == home.processes().size(),
             "image sections: per-process blob count mismatch");
  std::vector<Section> out;
  out.reserve(4 + img.procs.size());
  out.push_back({"sim.kernel", std::move(img.kernel)});
  out.push_back({"metrics", std::move(img.metrics)});
  out.push_back({"net.wifi", std::move(img.network)});
  out.push_back({"bus.devices", std::move(img.devices)});
  std::size_t i = 0;
  for (ProcessId p : home.processes()) {
    out.push_back(
        {"proc." + std::to_string(p.value), std::move(img.procs[i++])});
  }
  return out;
}

bool apply_warm_home(const WarmImage& img, workload::HomeDeployment& target,
                     std::uint64_t seed, std::string* error) {
  // Deployment-level identity gate: rejected cleanly, before any restore
  // call touches the target. (Deeper structural divergence with matching
  // counts is a build/scenario bug and trips component asserts instead.)
  auto reject = [error](std::string msg) {
    if (error) *error = std::move(msg);
    return false;
  };
  if (img.seed != seed)
    return reject("clone identity mismatch: image seed " +
                  std::to_string(img.seed) + ", target seed " +
                  std::to_string(seed));
  if (img.n_processes != target.processes().size())
    return reject("clone identity mismatch: image has " +
                  std::to_string(img.n_processes) + " processes, target " +
                  std::to_string(target.processes().size()));
  if (img.n_sensors != target.bus().sensors().size())
    return reject("clone identity mismatch: image has " +
                  std::to_string(img.n_sensors) + " sensors, target " +
                  std::to_string(target.bus().sensors().size()));
  RIV_ASSERT(img.procs.size() == img.n_processes,
             "clone image: per-process blob count mismatch");

  // A never-started target has an empty network registry (endpoints are
  // created by each process's volatile shell, which runs further down).
  // Pre-register them in pid order — the same first-touch order the
  // source used — so SimNetwork::restore_clone sees matching identity.
  for (ProcessId p : target.processes()) target.net().endpoint(p);

  {
    BinaryReader r(img.kernel);
    target.sim().restore_clone(r);
    RIV_ASSERT(r.ok() && r.remaining() == 0, "clone restore: kernel blob");
  }
  {
    BinaryReader r(img.metrics);
    metrics_state(r, target);
    RIV_ASSERT(r.ok() && r.remaining() == 0, "clone restore: metrics blob");
  }
  {
    BinaryReader r(img.network);
    target.net().restore_clone(r);
    RIV_ASSERT(r.ok() && r.remaining() == 0, "clone restore: network blob");
  }
  {
    BinaryReader r(img.devices);
    target.bus().restore_clone(r);
    RIV_ASSERT(r.ok() && r.remaining() == 0, "clone restore: devices blob");
  }
  std::size_t i = 0;
  for (ProcessId p : target.processes()) {
    BinaryReader r(img.procs[i++]);
    target.process(p).restore_clone(r);
    RIV_ASSERT(r.ok() && r.remaining() == 0, "clone restore: process blob");
  }
  if (error) error->clear();
  return true;
}

std::string attest_clone(const WarmImage& img,
                         workload::HomeDeployment& clone) {
  RIV_ASSERT(img.attest,
             "attest_clone requires a capture taken with with_attest");
  WarmImage recaptured;
  capture_warm_home(clone, img.seed, recaptured, false);
  Snapshot ref;
  ref.at = img.at;
  ref.sections = image_sections(img, clone);
  Snapshot cur;
  cur.at = recaptured.at;
  cur.sections = image_sections(std::move(recaptured), clone);
  return diff_snapshots(ref, cur);
}

void capture_session(chaos::ChaosSession& session, SessionImage& out) {
  RIV_ASSERT(session.options().metrics_period.us == 0,
             "capture_session: metric snapshots are on, and their timeline "
             "is not in the image");
  RIV_ASSERT(session.flight() == nullptr,
             "capture_session: a clone cannot carry the flight-trace prefix");
  out.options = session.options();
  capture_warm_home(session.home(), out.options.scenario.seed, out.home,
                    /*with_attest=*/false);
  BinaryWriter w(std::move(out.session));
  session.clone_state(w);
  out.session = w.take();
}

std::unique_ptr<chaos::ChaosSession> clone_session(const SessionImage& img) {
  return std::make_unique<chaos::ChaosSession>(
      img.options, img.session,
      [&img](workload::HomeDeployment& home) {
        std::string err;
        RIV_ASSERT(apply_warm_home(img.home, home, img.options.scenario.seed,
                                   &err),
                   err.c_str());
      });
}

}  // namespace riv::checkpoint
