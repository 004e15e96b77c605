// Figure 1: events received at different processes from different sensors
// in a 15-day sample home deployment (§2.1).
//
// Paper expectations: significant per-process skew for some sensors due to
// interference/obstructions — e.g. differences of ~2357 events for Door 1,
// ~58 for Motion 1, ~21 for Motion 3 — while the fraction of events lost
// on *all* links simultaneously stays tiny (~0.01-1%), which is the
// opportunity Gapless delivery exploits.
//
// Checkpointed long-run mode: --checkpoint-every D chunks the 15-day run
// and drops a RIVC snapshot ("fig1" scenario: sim.kernel + bus.devices
// sections) at every D-day boundary; --from-checkpoint F proves the
// snapshot by rebuilding the deployment, re-running to the snapshot time,
// byte-comparing a fresh capture against the stored sections (restore is
// re-execution + attestation, like everywhere in the checkpoint layer),
// then finishing the remaining days and printing the figure.
//
//   bench_fig1_deployment [--days D] [--checkpoint-every DAYS]
//                         [--checkpoint-dir DIR] [--from-checkpoint F]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "chaos/engine.hpp"
#include "checkpoint/rivc.hpp"
#include "common/codec.hpp"
#include "workload/fig1.hpp"

namespace {

using namespace riv;

void print_figure(const workload::Fig1Result& result) {
  std::printf("\n==============================================================\n");
  std::printf("Figure 1: per-process event counts, 15-day deployment\n");
  std::printf("Paper expectation: large skew on Door 1 (~2300 events), small\n");
  std::printf("skews on motion sensors; almost no event lost on every link\n");
  std::printf("==============================================================\n\n");
  std::printf("%-10s %-9s %-9s %-9s %-9s %-7s\n", "sensor", "emitted",
              "proc1", "proc2", "proc3", "skew");
  for (const auto& row : result.rows) {
    std::printf("%-10s %-9llu", row.sensor.c_str(),
                static_cast<unsigned long long>(row.emitted));
    for (const auto& [p, n] : row.received)
      std::printf(" %-9llu", static_cast<unsigned long long>(n));
    std::printf(" %-7llu\n", static_cast<unsigned long long>(row.skew()));
  }
  std::printf("\nfraction of events lost on ALL links simultaneously: %.4f%%\n",
              100.0 * result.all_link_loss_fraction);
}

// params blob: duration (us) + process count — everything a rebuild needs
// beyond (name, seed).
std::vector<std::byte> encode_fig1_params(const workload::Fig1Options& o) {
  BinaryWriter w;
  w.duration(o.duration);
  w.u32(static_cast<std::uint32_t>(o.n_processes));
  return w.take();
}

// A blob with a fresh footer can still carry any value: the duration
// must be positive and the process count within chaos::validate's bound.
bool decode_fig1_params(const std::vector<std::byte>& params,
                        workload::Fig1Options* out) {
  BinaryReader r(params);
  out->duration = r.duration();
  out->n_processes = static_cast<int>(r.u32());
  return r.ok() && r.at_end() && out->duration > Duration{} &&
         out->n_processes >= 1 && out->n_processes <= chaos::kMaxProcesses;
}

checkpoint::Snapshot capture_fig1(workload::Fig1Deployment& d,
                                  const workload::Fig1Options& opt) {
  checkpoint::Snapshot snap;
  snap.scenario = "fig1";
  snap.seed = opt.seed;
  snap.params = encode_fig1_params(opt);
  snap.at = d.now();
  BinaryWriter sim_w;
  d.checkpoint_sim(sim_w);
  snap.sections.push_back({"sim.kernel", sim_w.take()});
  BinaryWriter bus_w;
  d.checkpoint_bus(bus_w);
  snap.sections.push_back({"bus.devices", bus_w.take()});
  return snap;
}

int run_from_checkpoint(const std::string& path) {
  checkpoint::Snapshot snap;
  std::string err;
  if (!checkpoint::load(path, &snap, &err)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
    return 2;
  }
  if (snap.scenario != "fig1") {
    std::fprintf(stderr, "%s: not a fig1 checkpoint (scenario '%s')\n",
                 path.c_str(), snap.scenario.c_str());
    return 2;
  }
  workload::Fig1Options opt;
  opt.seed = snap.seed;
  if (!decode_fig1_params(snap.params, &opt)) {
    std::fprintf(stderr, "%s: undecodable fig1 params\n", path.c_str());
    return 2;
  }
  if (snap.at < TimePoint{} || snap.at > TimePoint{} + opt.duration) {
    std::fprintf(stderr, "%s: snapshot time outside the scenario's run\n",
                 path.c_str());
    return 2;
  }
  const double at_days =
      static_cast<double>((snap.at - TimePoint{}).us) / 86400e6;
  std::printf("restoring %s: fig1 seed=%llu at day %.2f of %.2f\n",
              path.c_str(), static_cast<unsigned long long>(snap.seed),
              at_days,
              static_cast<double>(opt.duration.us) / 86400e6);
  workload::Fig1Deployment d(opt);
  d.start();
  d.run_to(snap.at);
  checkpoint::Snapshot fresh = capture_fig1(d, opt);
  std::string diff = checkpoint::diff_snapshots(snap, fresh);
  if (!diff.empty()) {
    std::fprintf(stderr, "restore attestation FAILED: %s\n", diff.c_str());
    return 1;
  }
  std::printf("restore attested: sim.kernel + bus.devices byte-identical "
              "(restored ≡ uninterrupted)\n");
  d.run_to(d.end_time());
  print_figure(d.result());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace riv;
  double days_total = 15.0;
  double checkpoint_every_days = 0.0;
  std::string checkpoint_dir = "checkpoints";
  std::string from_checkpoint;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: %s [--days D] [--checkpoint-every DAYS] "
                     "[--checkpoint-dir DIR] [--from-checkpoint F]\n",
                     argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--days") {
      days_total = std::atof(next());
    } else if (arg == "--checkpoint-every") {
      checkpoint_every_days = std::atof(next());
    } else if (arg == "--checkpoint-dir") {
      checkpoint_dir = next();
    } else if (arg == "--from-checkpoint") {
      from_checkpoint = next();
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }

  if (!from_checkpoint.empty()) return run_from_checkpoint(from_checkpoint);

  workload::Fig1Options options;
  options.duration = microseconds(
      static_cast<std::int64_t>(days_total * 86400e6));

  if (checkpoint_every_days <= 0) {
    print_figure(workload::run_fig1_deployment(options));
    return 0;
  }

  std::error_code ec;
  std::filesystem::create_directories(checkpoint_dir, ec);
  workload::Fig1Deployment d(options);
  d.start();
  const Duration step = microseconds(
      static_cast<std::int64_t>(checkpoint_every_days * 86400e6));
  const TimePoint end = d.end_time();
  for (int k = 1;; ++k) {
    const TimePoint t = TimePoint{} + Duration{step.us * k};
    if (!(t < end)) break;
    d.run_to(t);
    checkpoint::Snapshot snap = capture_fig1(d, options);
    char day_buf[32];
    std::snprintf(day_buf, sizeof(day_buf), "%g", checkpoint_every_days * k);
    const std::string path =
        checkpoint_dir + "/fig1-day" + day_buf + ".rivc";
    std::string err;
    if (!checkpoint::save(snap, path, &err)) {
      std::fprintf(stderr, "checkpoint save failed: %s\n", err.c_str());
      return 1;
    }
    std::printf("checkpoint: day %.2f -> %s (%zu + %zu section bytes)\n",
                static_cast<double>((t - TimePoint{}).us) / 86400e6,
                path.c_str(), snap.sections[0].payload.size(),
                snap.sections[1].payload.size());
  }
  d.run_to(end);
  print_figure(d.result());
  return 0;
}
