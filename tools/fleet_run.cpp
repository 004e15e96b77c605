// fleet_run: population-scale simulation driver.
//
//   fleet_run --homes 100000 --jobs 0            # fleet across every core
//   fleet_run --homes 20000 --campaign wifi:720:60:0.05
//                                                # WiFi outage across 5% of
//                                                # homes in minute 12
//
// Every home is an independent deterministic simulation derived from the
// fleet seed; the merged dashboard (population p99 delivery latency,
// survival rate, events/s/core, bytes/home) and both digests are
// bit-identical for any --jobs value — rerun with --jobs 1 to verify.
//
// Exit status: 0 ok; 2 usage error.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "fleet/fleet.hpp"

namespace {

using namespace riv;

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --homes N             homes in the fleet (default 1000)\n"
      "  --seed S              fleet seed; every per-home seed derives\n"
      "                        from it (default 1)\n"
      "  --jobs N              worker threads (default 0 = one per\n"
      "                        hardware thread); results are bit-identical\n"
      "                        for any value\n"
      "  --duration S          steady-state window simulated per home,\n"
      "                        virtual seconds (default 10)\n"
      "  --shard N             homes per work item (default 64)\n"
      "  --procs LO..HI        processes per home (default 2..4)\n"
      "  --sensors LO..HI      sensors per home (default 1..3)\n"
      "  --rate LO..HI         per-sensor rate in Hz (default 0.5..4)\n"
      "  --campaign SPEC       add a correlated fault event; SPEC =\n"
      "                        kind:at_s:dur_s:fraction[:region] with\n"
      "                        kind = wifi | power | rf. Repeatable.\n"
      "  --sweep SPEC          multi-campaign fan-out: each --sweep adds\n"
      "                        one single-event campaign (same SPEC syntax)\n"
      "                        and the whole population runs under every\n"
      "                        campaign. Repeatable; excludes --campaign,\n"
      "                        --rows and --triage.\n"
      "  --prefix S            fault-free warm-up prefix per home, virtual\n"
      "                        seconds; campaign clocks start after it\n"
      "                        (default 0)\n"
      "  --warm / --no-warm    snapshot-clone the warmed prefix state per\n"
      "                        home/per campaign instead of re-executing it\n"
      "                        (default off; requires --prefix > 0; results\n"
      "                        are bit-identical either way)\n"
      "  --attest F            byte-attest fraction F of warm clones\n"
      "                        against their images (default 0)\n"
      "  --resalt N            fold salt N ^ campaign into device RNGs at\n"
      "                        the prefix point (campaign decorrelation)\n"
      "  --regions N           region count for scoped events (default 16)\n"
      "  --rows PATH           write one CSV row per home to PATH\n"
      "  --sample F            flight-record fraction F of homes (pure\n"
      "                        function of seed+index; 0.001 = 0.1%%)\n"
      "  --top K               track the K unhealthiest homes (SLO health\n"
      "                        scoring; printed with the dashboard)\n"
      "  --slo MS              delivery-p99 SLO in milliseconds the health\n"
      "                        score is computed against (default 500)\n"
      "  --trace-dir DIR       save each sampled home's flight recording\n"
      "                        as DIR/home-<index>.rivtrace\n"
      "  --triage K            after the run, re-run the K unhealthiest\n"
      "                        homes with full tracing and print a triage\n"
      "                        report per home (implies --top >= K)\n"
      "  --quiet               only print the digest line\n",
      argv0);
}

bool parse_int_range(const char* arg, riv::fleet::IntRange& out) {
  const char* dots = std::strstr(arg, "..");
  if (dots == nullptr) {
    out.lo = out.hi = std::atoi(arg);
    return out.lo > 0;
  }
  out.lo = std::atoi(std::string(arg, dots).c_str());
  out.hi = std::atoi(dots + 2);
  return out.lo > 0 && out.hi >= out.lo;
}

bool parse_double_range(const char* arg, riv::fleet::DoubleRange& out) {
  const char* dots = std::strstr(arg, "..");
  if (dots == nullptr) {
    out.lo = out.hi = std::atof(arg);
    return out.lo > 0;
  }
  out.lo = std::atof(std::string(arg, dots).c_str());
  out.hi = std::atof(dots + 2);
  return out.lo > 0 && out.hi >= out.lo;
}

double now_wall() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  fleet::FleetOptions opt;
  opt.jobs = 0;  // auto-detect by default: fleets exist to fill cores
  std::string rows_path;
  std::vector<fleet::CampaignPlan> sweep;
  int triage_k = 0;
  bool quiet = false;
  bool warm = false;
  long prefix_s = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--homes") {
      opt.homes = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--jobs") {
      opt.jobs = std::atoi(next());
    } else if (arg == "--duration") {
      opt.population.sim_duration = seconds(std::atoll(next()));
    } else if (arg == "--shard") {
      opt.shard_size = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--procs") {
      if (!parse_int_range(next(), opt.population.processes)) {
        std::fprintf(stderr, "bad --procs range\n");
        return 2;
      }
    } else if (arg == "--sensors") {
      if (!parse_int_range(next(), opt.population.sensors)) {
        std::fprintf(stderr, "bad --sensors range\n");
        return 2;
      }
    } else if (arg == "--rate") {
      if (!parse_double_range(next(), opt.population.rate_hz)) {
        std::fprintf(stderr, "bad --rate range\n");
        return 2;
      }
    } else if (arg == "--campaign") {
      const char* spec = next();
      fleet::CampaignEvent ev;
      if (!fleet::parse_campaign_event(spec, ev)) {
        std::fprintf(stderr,
                     "bad --campaign spec '%s' (kind:at_s:dur_s:fraction"
                     "[:region], kind = wifi|power|rf)\n",
                     spec);
        usage(argv[0]);
        return 2;
      }
      opt.campaign.events.push_back(ev);
    } else if (arg == "--sweep") {
      const char* spec = next();
      fleet::CampaignEvent ev;
      if (!fleet::parse_campaign_event(spec, ev)) {
        std::fprintf(stderr,
                     "bad --sweep spec '%s' (kind:at_s:dur_s:fraction"
                     "[:region], kind = wifi|power|rf)\n",
                     spec);
        usage(argv[0]);
        return 2;
      }
      fleet::CampaignPlan plan;
      plan.events.push_back(ev);
      sweep.push_back(std::move(plan));
    } else if (arg == "--warm") {
      warm = true;
    } else if (arg == "--no-warm") {
      warm = false;
    } else if (arg == "--prefix") {
      prefix_s = std::atol(next());
      if (prefix_s < 0) {
        std::fprintf(stderr, "bad --prefix seconds\n");
        return 2;
      }
    } else if (arg == "--attest") {
      opt.warm.attest_sample = std::atof(next());
      if (opt.warm.attest_sample < 0 || opt.warm.attest_sample > 1) {
        std::fprintf(stderr, "bad --attest fraction (want [0, 1])\n");
        return 2;
      }
    } else if (arg == "--resalt") {
      opt.warm.resalt = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--regions") {
      opt.campaign.n_regions = std::atoi(next());
      if (opt.campaign.n_regions < 1) {
        std::fprintf(stderr, "bad --regions count\n");
        return 2;
      }
    } else if (arg == "--rows") {
      rows_path = next();
      opt.keep_home_rows = true;
    } else if (arg == "--sample") {
      opt.observe.sample = std::atof(next());
      if (opt.observe.sample < 0 || opt.observe.sample > 1) {
        std::fprintf(stderr, "bad --sample fraction (want [0, 1])\n");
        return 2;
      }
    } else if (arg == "--top") {
      int k = std::atoi(next());
      if (k < 1) {
        std::fprintf(stderr, "bad --top count\n");
        return 2;
      }
      opt.observe.top_k = static_cast<std::uint32_t>(k);
    } else if (arg == "--slo") {
      long ms = std::atol(next());
      if (ms < 1) {
        std::fprintf(stderr, "bad --slo milliseconds\n");
        return 2;
      }
      opt.observe.slo.delivery_p99 = milliseconds(ms);
    } else if (arg == "--trace-dir") {
      opt.observe.trace_dir = next();
    } else if (arg == "--triage") {
      triage_k = std::atoi(next());
      if (triage_k < 1) {
        std::fprintf(stderr, "bad --triage count\n");
        return 2;
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (opt.homes == 0 || opt.population.sim_duration <= Duration{}) {
    std::fprintf(stderr, "bad fleet parameters\n");
    return 2;
  }
  opt.warm.prefix = seconds(prefix_s);
  opt.warm.enabled = warm;
  if (warm && prefix_s == 0) {
    std::fprintf(stderr, "--warm requires --prefix > 0\n");
    usage(argv[0]);
    return 2;
  }
  if (!sweep.empty()) {
    if (!opt.campaign.events.empty()) {
      std::fprintf(stderr, "--sweep and --campaign are mutually exclusive\n");
      usage(argv[0]);
      return 2;
    }
    if (!rows_path.empty() || triage_k > 0) {
      std::fprintf(stderr, "--sweep does not combine with --rows/--triage\n");
      usage(argv[0]);
      return 2;
    }
    for (fleet::CampaignPlan& plan : sweep)
      plan.n_regions = opt.campaign.n_regions;
  }
  // Triage needs the worst-K list, so it implies health scoring.
  if (triage_k > 0 &&
      opt.observe.top_k < static_cast<std::uint32_t>(triage_k))
    opt.observe.top_k = static_cast<std::uint32_t>(triage_k);
  if (!opt.observe.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.observe.trace_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s\n",
                   opt.observe.trace_dir.c_str());
      return 1;
    }
  }

  const int jobs = riv::resolve_jobs(opt.jobs);
  if (!quiet)
    std::printf("fleet: %llu homes, seed %llu, %d jobs, %.0fs/home%s\n",
                static_cast<unsigned long long>(opt.homes),
                static_cast<unsigned long long>(opt.seed), jobs,
                opt.population.sim_duration.seconds(),
                opt.warm.enabled ? " (warm-start)" : "");

  if (!sweep.empty()) {
    // Multi-campaign fan-out: the same population under every campaign,
    // one dashboard per campaign. With --warm each home's construction +
    // warm-up prefix is paid once and snapshot-cloned per campaign.
    double t0 = now_wall();
    std::vector<fleet::FleetResult> results =
        fleet::run_fleet_campaigns(opt, sweep);
    double wall = now_wall() - t0;
    for (std::size_t c = 0; c < results.size(); ++c) {
      if (quiet) {
        std::printf(
            "campaign %zu digest faults=%s metrics=%s\n", c,
            riv::hash::fnv1a_digest(results[c].fault_digest).c_str(),
            riv::hash::fnv1a_digest(
                fleet::registry_fingerprint(results[c].merged))
                .c_str());
        continue;
      }
      std::printf("--- campaign %zu ---\n", c);
      fleet::Dashboard dash =
          fleet::make_dashboard(results[c], wall / results.size(), jobs);
      std::printf("%s", fleet::render_dashboard(results[c], dash).c_str());
      std::printf("%s",
                  fleet::render_observation(results[c].observation).c_str());
    }
    if (!quiet) std::printf("wall            %.2fs (%zu campaigns)\n", wall,
                            results.size());
    return 0;
  }

  double t0 = now_wall();
  fleet::FleetResult result = fleet::run_fleet(opt);
  double wall = now_wall() - t0;

  fleet::Dashboard dash = fleet::make_dashboard(result, wall, jobs);
  if (quiet) {
    std::printf("digest          faults=%s metrics=%s\n",
                riv::hash::fnv1a_digest(result.fault_digest).c_str(),
                riv::hash::fnv1a_digest(
                    fleet::registry_fingerprint(result.merged))
                    .c_str());
  } else {
    std::printf("%s", fleet::render_dashboard(result, dash).c_str());
    std::printf("%s",
                fleet::render_observation(result.observation).c_str());
    std::printf("wall            %.2fs\n", wall);
  }

  if (triage_k > 0) {
    const auto& worst = result.observation.top.rows();
    const std::size_t n =
        std::min<std::size_t>(worst.size(), static_cast<std::size_t>(triage_k));
    for (std::size_t i = 0; i < n; ++i) {
      fleet::TriageReport rep = fleet::triage_home(opt, worst[i].index);
      std::printf("%s", fleet::render(rep).c_str());
    }
  }

  if (!rows_path.empty()) {
    std::FILE* f = std::fopen(rows_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", rows_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "home,seed,processes,sensors,sim_events,emitted,"
                 "delivered,faults,hit,survived,fault_hash\n");
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
      const fleet::HomeOutcome& row = result.rows[i];
      std::fprintf(f, "%zu,%llu,%u,%u,%llu,%llu,%llu,%u,%d,%d,%s\n", i,
                   static_cast<unsigned long long>(row.seed),
                   row.n_processes, row.n_sensors,
                   static_cast<unsigned long long>(row.sim_events),
                   static_cast<unsigned long long>(row.emitted),
                   static_cast<unsigned long long>(row.delivered),
                   row.faults_injected, row.hit ? 1 : 0,
                   row.survived ? 1 : 0,
                   riv::hash::fnv1a_digest(row.fault_hash).c_str());
    }
    std::fclose(f);
    if (!quiet)
      std::printf("rows written: %s\n", rows_path.c_str());
  }
  return 0;
}
