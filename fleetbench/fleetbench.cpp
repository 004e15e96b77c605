// fleetbench: the measuring program behind fleetbench/run.py.
//
//   fleetbench setup --workload W --t0-ns N
//       Set up only: process start (t0, taken by the caller just before
//       it spawned this process) until the warm-up slice is done; then
//       times the host-speed reference.
//   fleetbench timed --workload W --seed S --process P --seconds T --t0-ns N
//       Set up, then run closed batches of the workload's fleet on one
//       worker through fleet::run_fleet / run_fleet_campaigns until T
//       seconds have passed. Reports set-up time, per-batch wall time, the
//       host-speed reference's time before each batch and after the last,
//       and the first batch's digests.
//   fleetbench stats --workload W --seed S
//       The statistics fleet on N workers: the paper-guarantee statistics,
//       their digests, and the peak RSS of the run.
//   fleetbench check --workload W --seed S
//       Correctness slices: 1 worker vs N workers, and (warm_sweep) warm
//       clones vs the cold reference.
//   fleetbench_traced trace --workload W --seed S --spans PATH
//       Per-layer run: drives every home of a slice through the public
//       calls fleet.cpp's execute_home makes, with a span around each call,
//       checks the replica against the fleet, and writes the spans.
//
// Every mode prints one JSON object as the last line of its stdout.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "chaos/injector.hpp"
#include "chaos/trace.hpp"
#include "checkpoint/clone.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "trace/provenance.hpp"

namespace {

using namespace riv;

std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double seconds_since(std::int64_t t_ns) {
  return static_cast<double>(mono_ns() - t_ns) * 1e-9;
}

// Host-speed reference: a fixed, allocation-free mix of the work the
// simulator does (a binary heap of timers, integer hashing, and reads and
// writes scattered over a cache-resident region and over a table bigger
// than this process's share of the last-level cache). The shared host runs
// this process faster or slower from second to second, by up to a factor
// of two, and memory-bound work slows most; the time of this fixed work,
// taken next to the timed work, measures how fast. It never calls into the
// program, so a change to the program cannot move it.
class HostReference {
 public:
  HostReference() : table_(kTableSize, 1), heap_(kHeapSize, 0) {
    seconds();  // first touch of the table
  }

  double seconds() {
    const std::int64_t t = mono_ns();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::size_t n = 0;
    const auto later = std::greater<std::uint64_t>();
    for (int i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table_[x & (kHotSize - 1)] += static_cast<std::uint32_t>(x >> 40);
      table_[(x >> 20) & (kTableSize - 1)] += static_cast<std::uint32_t>(x);
      if (n == kHeapSize || (n > 0 && (x & 3) == 0)) {
        std::pop_heap(heap_.begin(), heap_.begin() + n, later);
        --n;
      } else {
        heap_[n++] = x;
        std::push_heap(heap_.begin(), heap_.begin() + n, later);
      }
    }
    sink_ += table_[x & (kTableSize - 1)] + heap_[0];
    return seconds_since(t);
  }
  // Read by the caller so the work above cannot be optimised away.
  std::uint64_t sink() const { return sink_; }

 private:
  static constexpr std::size_t kTableSize = std::size_t{1} << 21;  // 8 MiB
  static constexpr std::size_t kHotSize = std::size_t{1} << 16;    // 256 KiB
  static constexpr std::size_t kHeapSize = 4096;
  static constexpr int kSteps = 200000;
  std::vector<std::uint32_t> table_;
  std::vector<std::uint64_t> heap_;
  std::uint64_t sink_{0};
};

// Peak resident set of this process image in MiB: the kernel's VmHWM.
// getrusage's ru_maxrss is not used because it keeps the high-water mark
// of the parent that forked this process, from before exec.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

// Worker count of the statistics fleet, the check slices and the traced
// run: every CPU this process may run on, at most 4.
int worker_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int n = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp(n, 1, 4);
}

// ---------------------------------------------------------------- JSON out

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

class Json {
 public:
  Json& num(const std::string& k, double v) { return raw(k, number(v)); }
  Json& count(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, quoted(v));
  }
  Json& raw(const std::string& k, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += quoted(k) + ':' + json;
    return *this;
  }
  std::string done() const { return '{' + body_ + '}'; }

 private:
  std::string body_;
};

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? "," : "") + items[i];
  return out + "]";
}

// Times of the reference next to the work a process timed, for run.py:
// after set-up, or before each timed batch and after the last.
void add_reference(Json& out, const std::vector<std::string>& walls,
                   const HostReference& reference) {
  out.raw("reference_walls", json_list(walls))
      .count("reference_sink", reference.sink());
}

// ---------------------------------------------------------------- workloads

// Timed batches run on one worker for every workload. On a shared machine
// the rate of four workers drifts two to three times as much from run to
// run as the rate of one; fleet.parallel_eff in the traced run covers
// scaling.
constexpr int kTimedJobs = 1;

// Seeds: the statistics fleet, the check slices and the traced slice use
// derive_seed(seed, 0) (each slice is that fleet's first homes); timed
// process p runs batch b at derive_seed(derive_seed(seed, p + 1), b), so
// no two batches of a run share a home. The set-up slice is the same
// homes in every run, so set-up time does not depend on the seed.
constexpr std::uint64_t kWarmupSeed = 0x5e7a9;

std::uint64_t batch_seed(std::uint64_t seed, std::uint64_t process,
                         std::uint64_t batch) {
  return derive_seed(derive_seed(seed, process + 1), batch);
}

struct Workload {
  fleet::FleetOptions base;  // seed, homes, jobs and campaign set per call
  std::vector<fleet::CampaignPlan> campaigns;  // more than one: a sweep
  std::uint64_t batch_homes{0};   // homes per timed batch
  std::uint64_t stat_homes{0};    // statistics fleet (stats mode)
  std::uint64_t warmup_homes{0};  // set-up slice
  std::uint64_t check_homes{0};   // correctness slices
  std::uint64_t trace_homes{0};   // traced replica slice

  bool sweep() const { return campaigns.size() > 1; }
  std::uint64_t sims(std::uint64_t homes) const {
    return homes * campaigns.size();
  }
};

fleet::CampaignEvent campaign_event(fleet::CampaignFault kind, int at_s,
                                    int dur_s, double fraction) {
  fleet::CampaignEvent e;
  e.kind = kind;
  e.at = seconds(at_s);
  e.duration = seconds(dur_s);
  e.fraction = fraction;
  return e;
}

// The four workloads (README.md gives the reason for each shape).
std::optional<Workload> make_workload(const std::string& name) {
  using fleet::CampaignFault;
  Workload w;
  fleet::PopulationModel& pop = w.base.population;
  fleet::CampaignPlan plan;
  if (name == "steady_fleet") {
    w.campaigns.push_back(plan);
    w.batch_homes = 1024;
    w.stat_homes = 6144;
    w.warmup_homes = 512;
    w.check_homes = 512;
    w.trace_homes = 4096;
  } else if (name == "chaos_fleet") {
    pop.processes = {3, 5};
    pop.sensors = {4, 8};
    pop.rate_hz = {4.0, 12.0};
    pop.sim_duration = seconds(60);
    w.base.shard_size = 4;
    plan.events = {campaign_event(CampaignFault::kWifiOutage, 10, 15, 0.3),
                   campaign_event(CampaignFault::kPowerBlip, 35, 5, 0.2),
                   campaign_event(CampaignFault::kSensorDegrade, 45, 10, 0.2)};
    w.campaigns.push_back(plan);
    // Which homes an outage hits moves the fleet's delay p99 from seed to
    // seed (interquartile spread 0.18 of the median over 25 seeds at 1536
    // homes); 3072 homes bring it near 0.13.
    w.batch_homes = 16;
    w.stat_homes = 3072;
    w.warmup_homes = 8;
    w.check_homes = 32;
    w.trace_homes = 96;
  } else if (name == "warm_sweep") {
    pop.sensors = {4, 8};
    pop.rate_hz = {4.0, 12.0};
    pop.sim_duration = seconds(2);
    w.base.shard_size = 4;
    w.base.warm.enabled = true;
    w.base.warm.prefix = seconds(18);
    w.base.warm.attest_sample = 0.05;
    w.base.warm.resalt = 0x5eed;
    for (CampaignFault kind : {CampaignFault::kWifiOutage,
                               CampaignFault::kPowerBlip,
                               CampaignFault::kSensorDegrade}) {
      for (double fraction : {0.3, 0.15}) {
        plan.events = {campaign_event(kind, 1, 1, fraction)};
        w.campaigns.push_back(plan);
      }
    }
    w.batch_homes = 32;
    w.stat_homes = 1024;
    w.warmup_homes = 8;
    w.check_homes = 32;
    w.trace_homes = 192;
  } else if (name == "traced_fleet") {
    pop.sensors = {2, 4};
    pop.rate_hz = {1.0, 6.0};
    pop.sim_duration = seconds(30);
    w.base.shard_size = 16;
    w.base.observe.sample = 1.0;
    w.base.observe.top_k = 16;
    plan.events = {campaign_event(CampaignFault::kWifiOutage, 5, 10, 0.3)};
    w.campaigns.push_back(plan);
    w.batch_homes = 128;
    w.stat_homes = 2048;
    w.warmup_homes = 64;
    w.check_homes = 128;
    w.trace_homes = 512;
  } else {
    return std::nullopt;
  }
  return w;
}

fleet::FleetOptions options(const Workload& w, std::uint64_t fleet_seed,
                            std::uint64_t homes, int jobs) {
  fleet::FleetOptions opt = w.base;
  opt.seed = fleet_seed;
  opt.homes = homes;
  opt.jobs = jobs;
  opt.campaign = w.campaigns[0];
  return opt;
}

// One closed batch: every home queued at once through the public API.
std::vector<fleet::FleetResult> run_batch(const Workload& w,
                                          const fleet::FleetOptions& opt) {
  if (!w.sweep()) {
    std::vector<fleet::FleetResult> out;
    out.push_back(fleet::run_fleet(opt));
    return out;
  }
  return fleet::run_fleet_campaigns(opt, w.campaigns);
}

// ---------------------------------------------------------------- outcomes

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

std::uint64_t counter_suffix_sum(const metrics::Registry& reg,
                                 const char* suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, c] : reg.counters())
    if (ends_with(name, suffix)) total += c.value();
  return total;
}

// Value range [lo, hi) of bucket `idx` of metrics::Histogram: exact 1 µs
// buckets below 16 µs, then 16 sub-buckets per power-of-two octave.
std::pair<double, double> bucket_range(int idx) {
  const int octave = idx >> metrics::Histogram::kSubBits;
  const std::int64_t sub = idx & (metrics::Histogram::kSubBuckets - 1);
  if (octave == 0) return {static_cast<double>(sub), sub + 1.0};
  const int scale = octave - 1;
  const std::int64_t lower = (metrics::Histogram::kSubBuckets + sub) << scale;
  return {static_cast<double>(lower),
          static_cast<double>(lower + (std::int64_t{1} << scale))};
}

// Percentile in µs, interpolated linearly inside the bucket that holds
// the rank, so the reading moves with the counts rather than snapping to
// a bucket edge.
double percentile_us(const metrics::Histogram& h, double q) {
  if (h.count() == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count() - 1) + 1.0;
  double seen = 0.0;
  const auto& buckets = h.buckets();
  for (int i = 0; i < metrics::Histogram::kBucketCount; ++i) {
    const auto c = static_cast<double>(buckets[static_cast<std::size_t>(i)]);
    if (c == 0.0) continue;
    if (seen + c >= rank) {
      const auto [lo, hi] = bucket_range(i);
      const double v = lo + (rank - seen) / c * (hi - lo);
      return std::clamp(v, static_cast<double>(h.min().us),
                        static_cast<double>(h.max().us));
    }
    seen += c;
  }
  return static_cast<double>(h.max().us);
}

// The paper-guarantee statistics of one batch, summed over its campaigns.
struct SimStats {
  std::uint64_t sims{0};
  std::uint64_t emitted{0};
  std::uint64_t delivered{0};
  std::uint64_t net_bytes{0};
  std::uint64_t survivors{0};
  std::uint64_t homes_hit{0};
  std::uint64_t sim_events{0};
  metrics::Histogram delay;

  void add(const fleet::FleetResult& r) {
    sims += r.homes;
    emitted += r.emitted;
    delivered += r.delivered;
    net_bytes += r.merged.counter_sum("net.bytes.");
    survivors += r.homes_hit_survived + r.homes_survived;
    homes_hit += r.homes_hit;
    sim_events += r.sim_events;
    for (const auto& [name, lat] : r.merged.latencies())
      if (ends_with(name, ".delay")) delay.merge(lat.hist());
  }

  std::string json() const {
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    return Json()
        .num("delivery_ratio", ratio(delivered, emitted))
        .num("delivery_delay_ms_p50", percentile_us(delay, 0.50) / 1000.0)
        .num("delivery_delay_ms_p99", percentile_us(delay, 0.99) / 1000.0)
        .num("net_bytes_per_event", ratio(net_bytes, emitted))
        .num("survival_rate", ratio(survivors, sims))
        .count("delay_samples", delay.count())
        .count("stat_sims", sims)
        .count("emitted", emitted)
        .count("delivered", delivered)
        .count("homes_hit", homes_hit)
        .count("sim_events", sim_events)
        .done();
  }
};

// Per-campaign fault, merged-metrics and flight-trace digests.
std::string digests_json(const std::vector<fleet::FleetResult>& results) {
  std::vector<std::string> rows;
  for (const fleet::FleetResult& r : results) {
    rows.push_back(
        Json()
            .str("faults", hash::fnv1a_digest(r.fault_digest))
            .str("metrics",
                 hash::fnv1a_digest(fleet::registry_fingerprint(r.merged)))
            .str("traces", hash::fnv1a_digest(r.observation.trace_digest()))
            .done());
  }
  return json_list(rows);
}

// Build identity every mode reports.
std::string build_json() {
  return Json()
      .str("type", FLEETBENCH_BUILD_TYPE)
#if defined(__clang__)
      .str("compiler", "clang " __clang_version__)
#else
      .str("compiler", "gcc " __VERSION__)
#endif
      .count("jobs", static_cast<std::uint64_t>(worker_count()))
      .count("timed_jobs", static_cast<std::uint64_t>(kTimedJobs))
      .done();
}

// Checks every batch must pass; "" when it does.
std::string batch_problem(const Workload& w, const fleet::FleetOptions& opt,
                          const std::vector<fleet::FleetResult>& results) {
  if (results.size() != w.campaigns.size()) return "wrong campaign count";
  for (const fleet::FleetResult& r : results) {
    if (r.homes != opt.homes) return "home count mismatch";
    if (r.sim_events == 0 || r.emitted == 0 || r.delivered == 0)
      return "a campaign simulated, emitted or delivered nothing";
    if (opt.observe.sample >= 1.0) {
      if (r.observation.samples.size() != opt.homes)
        return "not every home was flight-recorded";
      if (r.observation.unexplained_orphans != 0)
        return "trace analysis found " +
               std::to_string(r.observation.unexplained_orphans) +
               " unexplained orphans";
    }
  }
  return "";
}

// What a mode attempted and what failed: simulations are counted as
// home×campaign runs, and a failed check fails the simulations it covers.
struct Tally {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> errors;  // JSON strings

  void fail(std::uint64_t sims, const std::string& why) {
    failed += sims;
    note(why);
  }
  void note(const std::string& why) { errors.push_back(quoted(why)); }
  // Runs one fleet call of `sims` simulations and applies batch_problem;
  // returns false (the failure recorded) when it throws or fails.
  bool run(const Workload& w, const fleet::FleetOptions& opt,
           const std::string& what, std::vector<fleet::FleetResult>& out) {
    const std::uint64_t sims = w.sims(opt.homes);
    attempted += sims;
    try {
      out = run_batch(w, opt);
    } catch (const std::exception& e) {
      fail(sims, what + " threw: " + e.what());
      return false;
    }
    const std::string why = batch_problem(w, opt, out);
    if (!why.empty()) fail(sims, what + ": " + why);
    return why.empty();
  }
  void print(Json& j) const {
    j.count("attempted", attempted)
        .count("failed", failed)
        .raw("errors", json_list(errors))
        .raw("build", build_json());
    std::printf("%s\n", j.done().c_str());
  }
};

// Compare two runs of the same homes: every home row and every aggregate.
// A home whose rows differ fails; when only an aggregate differs, all do.
// Returns whether the runs agree.
bool same_runs(const std::vector<fleet::FleetResult>& a,
               const std::vector<fleet::FleetResult>& b,
               const std::string& what, Tally& tally) {
  if (a.size() != b.size()) {
    std::uint64_t homes = 0;
    for (const fleet::FleetResult& r : a) homes += r.homes;
    tally.fail(homes, what + ": campaign counts differ");
    return false;
  }
  bool agree = true;
  for (std::size_t c = 0; c < a.size(); ++c) {
    const fleet::FleetResult& x = a[c];
    const fleet::FleetResult& y = b[c];
    std::uint64_t rows_bad = 0;
    for (std::size_t i = 0; i < x.rows.size(); ++i)
      if (i >= y.rows.size() || !(x.rows[i] == y.rows[i])) ++rows_bad;
    const bool same =
        x.rows.size() == y.rows.size() && x.fault_digest == y.fault_digest &&
        fleet::registry_fingerprint(x.merged) ==
            fleet::registry_fingerprint(y.merged) &&
        x.sim_events == y.sim_events && x.emitted == y.emitted &&
        x.delivered == y.delivered && x.homes_hit == y.homes_hit &&
        x.homes_hit_survived == y.homes_hit_survived &&
        x.homes_survived == y.homes_survived &&
        x.observation.trace_digest() == y.observation.trace_digest() &&
        x.observation.top.rows() == y.observation.top.rows();
    if (rows_bad == 0 && same) continue;
    agree = false;
    tally.fail(rows_bad > 0 ? rows_bad : x.homes,
               what + ": campaign " + std::to_string(c) + " differs (" +
                   std::to_string(rows_bad) + " home rows)");
  }
  return agree;
}

// ---------------------------------------------------------------- set-up

// Set-up: process start until allocator arenas, the worker pool (when
// jobs > 1) and any lazy state have been filled by a warm-up slice of
// homes no batch reuses. Returns seconds since t0_ns, the process start
// the caller recorded.
double set_up(const Workload& w, int jobs, std::int64_t t0_ns,
              Tally& tally) {
  std::vector<fleet::FleetResult> ignored;
  tally.run(w, options(w, kWarmupSeed, w.warmup_homes, jobs), "warm-up",
            ignored);
  return seconds_since(t0_ns);
}

// Reference timings a set-up process takes after it has set up.
constexpr int kSetupReferences = 5;

int setup_main(const Workload& w, std::int64_t t0_ns) {
  Tally tally;
  const double setup_s = set_up(w, kTimedJobs, t0_ns, tally);
  HostReference reference;
  std::vector<std::string> refs;
  for (int i = 0; i < kSetupReferences; ++i)
    refs.push_back(number(reference.seconds()));
  Json out;
  out.str("mode", "setup").num("setup_s", setup_s);
  add_reference(out, refs, reference);
  tally.print(out);
  return tally.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- timed

int timed_main(const Workload& w, std::uint64_t seed, std::uint64_t process,
               double budget_s, std::int64_t t0_ns) {
  Tally tally;
  const double setup_s = set_up(w, kTimedJobs, t0_ns, tally);
  HostReference reference;
  const std::int64_t start = mono_ns();
  std::vector<std::string> walls, refs;
  std::string digests = "[]";
  for (std::uint64_t b = 0; seconds_since(start) < budget_s || b == 0; ++b) {
    const fleet::FleetOptions opt = options(
        w, batch_seed(seed, process, b), w.batch_homes, kTimedJobs);
    std::vector<fleet::FleetResult> results;
    refs.push_back(number(reference.seconds()));
    const std::int64_t t = mono_ns();
    const bool ok = tally.run(w, opt, "batch " + std::to_string(b), results);
    walls.push_back(number(seconds_since(t)));
    if (!ok) break;
    if (b == 0) digests = digests_json(results);
  }
  refs.push_back(number(reference.seconds()));  // after the last batch
  Json out;
  out.str("mode", "timed")
      .num("setup_s", setup_s)
      .count("batch_sims", w.sims(w.batch_homes))
      .raw("batch_walls", json_list(walls))
      .raw("digests", digests);
  add_reference(out, refs, reference);
  tally.print(out);
  return tally.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- stats

// The simulated statistics are deterministic, so they are measured once
// per run, on N workers, over a fleet big enough to steady them across
// seeds; the same fleet gives the peak memory of a realistic fleet run.
int stats_main(const Workload& w, std::uint64_t seed) {
  Tally tally;
  const fleet::FleetOptions opt =
      options(w, derive_seed(seed, 0), w.stat_homes, worker_count());
  std::vector<fleet::FleetResult> results;
  Json out;
  out.str("mode", "stats");
  if (tally.run(w, opt, "statistics fleet", results)) {
    SimStats stats;
    for (const fleet::FleetResult& r : results) stats.add(r);
    out.num("peak_rss_mb", peak_rss_mib())
        .raw("sim", stats.json())
        .raw("digests", digests_json(results));
  }
  tally.print(out);
  return tally.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- check

// Correctness slices: the first check_homes homes of the statistics fleet
// at 1 worker and at N, and on the sweep warm clones against the cold
// reference.
int check_main(const Workload& w, std::uint64_t seed) {
  const int jobs = worker_count();
  Tally tally;
  fleet::FleetOptions opt =
      options(w, derive_seed(seed, 0), w.check_homes, jobs);
  opt.keep_home_rows = true;
  fleet::FleetOptions serial = opt;
  serial.jobs = 1;
  std::vector<fleet::FleetResult> one, many;
  if (tally.run(w, serial, "check slice, 1 worker", one) &&
      tally.run(w, opt, "check slice, N workers", many)) {
    same_runs(one, many, "1 vs " + std::to_string(jobs) + " workers", tally);
    if (w.sweep()) {
      fleet::FleetOptions cold = opt;
      cold.warm.enabled = false;
      std::vector<fleet::FleetResult> ref;
      if (tally.run(w, cold, "cold reference", ref))
        same_runs(many, ref, "warm vs cold", tally);
    }
  }
  Json out;
  out.str("mode", "check");
  tally.print(out);
  return tally.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- trace

// Spans at each layer boundary of a home. A home's spans share its index
// as their id; every span but the home root has the root as parent.
enum SpanName : std::uint8_t {
  kHome,
  kSample,
  kBuild,
  kTrack,
  kStart,
  kRun,
  kCapture,
  kApply,
  kAttest,
  kArm,
  kView,
  kMerge,
  kTeardown,
  kAnalyze,
  kAccount,  // the benchmark's own per-home bookkeeping, not a layer
  kSpanNames,
};
constexpr const char* kSpanLabel[kSpanNames] = {
    "fleet.home",         "fleet.sample",      "workload.build",
    "checkpoint.track",   "workload.start",    "sim.run",
    "checkpoint.capture", "checkpoint.apply",  "checkpoint.attest",
    "chaos.arm",          "metrics.view",      "metrics.merge",
    "workload.teardown",  "trace.analyze",     "bench.account"};
constexpr std::uint32_t kNoParent = 0xffffffff;

struct Span {
  std::uint64_t home{0};
  std::uint32_t parent{kNoParent};  // index in the same shard's log
  SpanName name{kHome};
  int campaign{-1};  // -1: not tied to one campaign
  std::int64_t start_ns{0};
  std::int64_t dur_ns{0};
  std::uint64_t allocs{0};  // allocations inside, children included
};

// Everything one shard of the replica produces. Shards run on one worker
// thread each, so spans and the allocation counter never cross threads.
struct ShardOut {
  std::vector<Span> spans;
  std::vector<std::vector<fleet::HomeOutcome>> rows;  // [campaign][home]
  std::vector<metrics::Registry> merged;              // [campaign]
  std::vector<std::uint64_t> flight_hashes;  // per home, campaign 0
  checkpoint::WarmImage image;               // scratch, reused per home
  std::int64_t home_ns{0};
  std::uint64_t unexplained_orphans{0};
  std::uint64_t promotions_hit{0};
  std::uint64_t names{0};
  std::uint64_t records{0};
  std::uint64_t record_bytes{0};
  std::uint64_t image_bytes{0};
  std::uint64_t images{0};

  std::uint32_t open(SpanName n, std::uint64_t home, std::uint32_t parent,
                     int campaign) {
    Span s;
    s.home = home;
    s.parent = parent;
    s.name = n;
    s.campaign = campaign;
    s.allocs = fleetbench::thread_allocs();
    s.start_ns = mono_ns();
    spans.push_back(s);
    return static_cast<std::uint32_t>(spans.size() - 1);
  }
  void close(std::uint32_t id) {
    Span& s = spans[id];
    s.dur_ns = mono_ns() - s.start_ns;
    s.allocs = fleetbench::thread_allocs() - s.allocs;
  }
  template <typename F>
  void span(SpanName n, std::uint64_t home, std::uint32_t parent,
            int campaign, F&& f) {
    const std::uint32_t id = open(n, home, parent, campaign);
    f();
    close(id);
  }
};

// One (home, campaign) simulation, replayed from outside through the same
// public calls, in the same order, as fleet.cpp's execute_home and
// run_one_home. `record` false skips the flight recorder a sampled home
// would carry (the recorder-overhead pass).
fleet::HomeOutcome replica_campaign(const Workload& w,
                                    const fleet::FleetOptions& opt, int c,
                                    std::uint64_t index, bool record,
                                    const checkpoint::WarmImage* image,
                                    bool attest, std::uint32_t root,
                                    ShardOut& out) {
  const fleet::CampaignPlan& campaign =
      w.campaigns[static_cast<std::size_t>(c)];
  const fleet::ObserveOptions& ob = opt.observe;
  const bool sampled = fleet::home_sampled(opt.seed, index, ob.sample);
  const std::uint64_t salt =
      opt.warm.resalt == 0
          ? 0
          : derive_seed(opt.warm.resalt, static_cast<std::uint64_t>(c));
  auto span = [&](SpanName n, auto&& f) { out.span(n, index, root, c, f); };

  std::optional<trace::Recorder> flight;
  if (sampled && record) flight.emplace(ob.flight_mask);
  fleet::HomeOutcome o;
  fleet::HomeHealth health;
  {
    std::optional<trace::Scope> flight_scope;
    if (flight) flight_scope.emplace(*flight);

    fleet::HomeSpec spec;
    span(kSample, [&] { spec = fleet::sample_home(opt.population, opt.seed,
                                                  index); });
    std::unique_ptr<workload::HomeDeployment> home;
    span(kBuild, [&] { home = fleet::build_home(spec); });
    const Duration prefix = opt.warm.prefix;
    o.seed = spec.seed;
    o.n_processes = static_cast<std::uint32_t>(spec.n_processes);
    o.n_sensors = static_cast<std::uint32_t>(spec.sensors.size());
    {
      chaos::TraceRecorder fault_trace;
      chaos::FaultInjector injector(*home, fault_trace);
      std::uint64_t delivered_at_heal = 0;
      bool probed = false;
      const TimePoint sim_end = TimePoint{} + prefix + spec.sim_duration;
      auto arm_campaign = [&] {
        span(kArm, [&] {
          if (campaign.empty()) return;
          chaos::FaultPlan plan =
              fleet::stamp_home_plan(campaign, opt.seed, spec);
          if (plan.actions.empty()) return;
          o.hit = true;
          injector.arm(plan, {}, prefix);
          const TimePoint heal =
              fleet::last_heal_time(campaign, opt.seed, index) + prefix;
          if (heal < sim_end) {
            workload::HomeDeployment* h = home.get();
            home->sim().schedule_at(heal, [h, &delivered_at_heal, &probed] {
              delivered_at_heal = fleet::total_delivered(h->metrics());
              probed = true;
            });
          }
        });
      };

      if (image != nullptr) {
        span(kApply, [&] {
          std::string err;
          if (!checkpoint::apply_warm_home(*image, *home, spec.seed, &err))
            throw std::runtime_error("warm clone rejected: " + err);
        });
        if (attest) {
          span(kAttest, [&] {
            const std::string diff = checkpoint::attest_clone(*image, *home);
            if (!diff.empty())
              throw std::runtime_error("warm clone attestation: " + diff);
          });
        }
        if (salt != 0) home->bus().perturb(salt);
        arm_campaign();
        span(kRun, [&] { home->run_for(spec.sim_duration); });
      } else if (prefix.us > 0) {
        span(kStart, [&] { home->start(); });
        span(kRun, [&] { home->run_for(prefix); });
        if (salt != 0) home->bus().perturb(salt);
        arm_campaign();
        span(kRun, [&] { home->run_for(spec.sim_duration); });
      } else {
        if (salt != 0) home->bus().perturb(salt);
        arm_campaign();
        span(kStart, [&] { home->start(); });
        span(kRun, [&] { home->run_for(spec.sim_duration); });
      }

      const metrics::Registry* m = nullptr;
      span(kView, [&] { m = &home->metrics(); });
      o.delivered = fleet::total_delivered(*m);
      o.sim_events = home->sim().events_fired();
      for (SensorId s : home->bus().sensors())
        o.emitted += home->bus().sensor(s).events_emitted();
      o.faults_injected =
          static_cast<std::uint32_t>(injector.injected() + injector.noops());
      if (o.hit) {
        o.fault_hash = fault_trace.hash();
        o.survived = probed && o.delivered > delivered_at_heal;
      } else {
        o.survived = o.delivered > 0;
      }
      if (ob.top_k > 0 || sampled)
        health = fleet::score_home(ob.slo, index, o, *m);
      span(kMerge, [&] {
        out.merged[static_cast<std::size_t>(c)].merge_scalars_from(*m);
      });
      span(kAccount, [&] {
        if (o.hit) out.promotions_hit += counter_suffix_sum(*m, ".promotions");
        out.names += m->counters().size() + m->latencies().size();
      });
    }
    span(kTeardown, [&] { home.reset(); });
  }
  if (flight) {
    span(kAnalyze, [&] {
      const trace::Analysis an = trace::analyze(flight->records());
      fleet::apply_provenance(health, an);
      out.unexplained_orphans += an.unexplained_orphans();
    });
    out.records += flight->size();
    out.record_bytes += flight->payload_bytes();
    if (c == 0) out.flight_hashes.back() = flight->hash();
  }
  return o;
}

// One home of the replica: the warm source (run_shard_campaigns), then
// every campaign, all under one root span.
void replica_home(const Workload& w, const fleet::FleetOptions& opt,
                  std::uint64_t index, bool record, ShardOut& out) {
  const std::uint32_t root = out.open(kHome, index, kNoParent, -1);
  out.flight_hashes.push_back(0);
  const bool sampled = fleet::home_sampled(opt.seed, index, opt.observe.sample);
  const bool warm = opt.warm.enabled && opt.warm.prefix.us > 0 && !sampled;
  bool attest = false;
  if (warm) {
    attest = fleet::home_attested(opt.seed, index, opt.warm.attest_sample);
    auto span = [&](SpanName n, auto&& f) { out.span(n, index, root, -1, f); };
    fleet::HomeSpec spec;
    span(kSample, [&] {
      spec = fleet::sample_home(opt.population, opt.seed, index);
    });
    std::unique_ptr<workload::HomeDeployment> home;
    span(kBuild, [&] { home = fleet::build_home(spec); });
    span(kTrack, [&] { checkpoint::enable_clone_tracking(*home); });
    span(kStart, [&] { home->start(); });
    span(kRun, [&] { home->run_for(opt.warm.prefix); });
    span(kCapture, [&] {
      checkpoint::capture_warm_home(*home, spec.seed, out.image, attest);
    });
    span(kTeardown, [&] { home.reset(); });
    out.image_bytes += out.image.bytes();
    ++out.images;
  }
  for (std::size_t c = 0; c < w.campaigns.size(); ++c) {
    out.rows[c].push_back(replica_campaign(
        w, opt, static_cast<int>(c), index, record,
        warm ? &out.image : nullptr, attest && c == 0, root, out));
  }
  out.close(root);
  out.home_ns += out.spans[root].dur_ns;
}

std::vector<ShardOut> run_replica(const Workload& w,
                                  const fleet::FleetOptions& opt,
                                  bool record) {
  const std::uint64_t shard = opt.shard_size;
  const std::uint64_t n_shards = (opt.homes + shard - 1) / shard;
  return parallel_map<ShardOut>(opt.jobs, n_shards, [&](std::size_t s) {
    ShardOut out;
    out.rows.resize(w.campaigns.size());
    out.merged.resize(w.campaigns.size());
    const std::uint64_t last = std::min(opt.homes, (s + 1) * shard);
    for (std::uint64_t i = s * shard; i < last; ++i)
      replica_home(w, opt, i, record, out);
    return out;
  });
}

double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::int64_t run_self_ns(const std::vector<ShardOut>& shards) {
  std::int64_t total = 0;
  for (const ShardOut& s : shards)
    for (const Span& sp : s.spans)
      if (sp.name == kRun) total += sp.dur_ns;
  return total;
}

class LayerOut {
 public:
  void add(const std::string& name, double value, const char* unit) {
    body_.raw(name, Json().num("value", value).str("unit", unit).done());
  }
  std::string done() const { return body_.done(); }

 private:
  Json body_;
};

int trace_main(const Workload& w, std::uint64_t seed,
               const std::string& spans_path) {
  if (!fleetbench::alloc_counting()) {
    std::fprintf(stderr, "trace mode needs the allocation-counting build "
                         "(fleetbench_traced)\n");
    return 2;
  }
  const int jobs = worker_count();
  fleet::FleetOptions opt =
      options(w, derive_seed(seed, 0), w.trace_homes, jobs);
  opt.keep_home_rows = true;
  const std::uint64_t homes = opt.homes;
  const std::uint64_t sims = w.sims(homes);
  const std::size_t n_camp = w.campaigns.size();
  // bad[c][i]: (campaign, home) failed a check.
  std::vector<std::vector<bool>> bad(n_camp, std::vector<bool>(homes, false));
  auto flag_all = [&] {
    for (auto& v : bad) std::fill(v.begin(), v.end(), true);
  };

  LayerOut layers;
  Tally tally;
  try {
    set_up(w, jobs, mono_ns(), tally);
    // Untraced fleet passes over the same homes: 1 worker, then N.
    fleet::FleetOptions serial = opt;
    serial.jobs = 1;
    std::int64_t t = mono_ns();
    const std::vector<fleet::FleetResult> one = run_batch(w, serial);
    const double wall_1 = seconds_since(t);
    t = mono_ns();
    const std::vector<fleet::FleetResult> fleet_res = run_batch(w, opt);
    const double wall_n = seconds_since(t);
    same_runs(one, fleet_res, "trace slice 1 vs N workers", tally);

    // The traced replica. Where the fleet flight-records homes, the same
    // homes also run without the recorder just before and just after, so
    // load that drifts during the run weighs on both sides alike.
    const bool recorded = opt.observe.sample > 0.0;
    const std::int64_t bare_before =
        recorded ? run_self_ns(run_replica(w, opt, false)) : 0;
    t = mono_ns();
    std::vector<ShardOut> shards = run_replica(w, opt, true);
    const double wall_replica = seconds_since(t);
    const std::int64_t run_ns = run_self_ns(shards);
    double recorder_overhead = 1.0;  // no recorder installed: same run
    if (recorded) {
      const std::int64_t bare_ns =
          bare_before + run_self_ns(run_replica(w, opt, false));
      recorder_overhead =
          bare_ns > 0 ? 2.0 * static_cast<double>(run_ns) / bare_ns : 0.0;
    }

    // Replica vs fleet: every row, the merged registry and fault digest.
    std::vector<metrics::Registry> merged(n_camp);
    std::vector<fleet::HomeOutcome> rows_all;
    for (std::size_t c = 0; c < n_camp; ++c) {
      std::vector<fleet::HomeOutcome> rows;
      for (const ShardOut& s : shards) {
        merged[c].merge_scalars_from(s.merged[c]);
        rows.insert(rows.end(), s.rows[c].begin(), s.rows[c].end());
      }
      const fleet::FleetResult& ref = fleet_res[c];
      hash::Fnv1aStream digest;
      for (std::size_t i = 0; i < homes; ++i) {
        if (i >= rows.size() || i >= ref.rows.size() ||
            !(rows[i] == ref.rows[i]))
          bad[c][i] = true;
        if (i < rows.size())
          for (int b = 0; b < 8; ++b)
            digest.put(static_cast<std::uint8_t>(rows[i].fault_hash >> (8 * b)));
      }
      if (fleet::registry_fingerprint(merged[c]) !=
              fleet::registry_fingerprint(ref.merged) ||
          digest.value() != ref.fault_digest) {
        tally.note("replica campaign " + std::to_string(c) +
                   " merged metrics or fault digest differ");
        std::fill(bad[c].begin(), bad[c].end(), true);
      }
      rows_all.insert(rows_all.end(), rows.begin(), rows.end());
    }
    std::vector<std::uint64_t> flight_hashes;
    std::uint64_t unexplained = 0;
    for (const ShardOut& s : shards) {
      flight_hashes.insert(flight_hashes.end(), s.flight_hashes.begin(),
                           s.flight_hashes.end());
      unexplained += s.unexplained_orphans;
    }
    if (unexplained != 0) {
      tally.note(std::to_string(unexplained) +
                 " unexplained orphans in traced homes");
      flag_all();
    }

    // Replica vs fleet::run_home for the same index (campaign 0; a sweep's
    // campaign 0 through the cold reference path).
    const std::vector<char> run_home_ok = parallel_map<char>(
        jobs, homes, [&](std::size_t i) -> char {
          const bool traced =
              fleet::home_sampled(opt.seed, i, opt.observe.sample);
          const fleet::HomeRun hr = fleet::run_home(opt, i, traced);
          if (!(hr.outcome == rows_all[i])) return 0;
          return !traced || hr.flight->hash() == flight_hashes[i];
        });
    std::uint64_t run_home_bad = 0;
    for (std::size_t i = 0; i < homes; ++i) {
      if (run_home_ok[i]) continue;
      ++run_home_bad;
      bad[0][i] = true;
    }
    if (run_home_bad > 0)
      tally.note(std::to_string(run_home_bad) +
                 " homes differ from fleet::run_home");

    // Per-layer numbers.
    std::vector<std::vector<double>> per_home_us(kSpanNames);
    std::vector<double> home_us;
    std::vector<double> home_self_us;
    std::vector<std::uint64_t> span_count(kSpanNames, 0);
    std::vector<std::uint64_t> span_allocs(kSpanNames, 0);
    std::FILE* f = std::fopen(spans_path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + spans_path);
    std::fprintf(f, "home\tspan\tparent\tname\tcampaign\tstart_ns\tdur_ns\t"
                    "self_ns\tself_allocs\n");
    const std::int64_t origin = shards.empty() || shards[0].spans.empty()
                                    ? 0
                                    : shards[0].spans[0].start_ns;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const std::vector<Span>& spans = shards[s].spans;
      std::vector<std::int64_t> child_ns(spans.size(), 0);
      std::vector<std::uint64_t> child_allocs(spans.size(), 0);
      for (const Span& sp : spans) {
        if (sp.parent == kNoParent) continue;
        child_ns[sp.parent] += sp.dur_ns;
        child_allocs[sp.parent] += sp.allocs;
      }
      // Spans of one home are contiguous, root first.
      std::vector<std::int64_t> home_self(kSpanNames, 0);
      std::vector<bool> seen(kSpanNames, false);
      auto flush_home = [&] {
        for (int n = kSample; n < kSpanNames; ++n)
          if (seen[n]) per_home_us[n].push_back(home_self[n] * 1e-3);
        std::fill(home_self.begin(), home_self.end(), 0);
        std::fill(seen.begin(), seen.end(), false);
      };
      for (std::size_t k = 0; k < spans.size(); ++k) {
        const Span& sp = spans[k];
        const std::int64_t self = sp.dur_ns - child_ns[k];
        const std::uint64_t self_allocs = sp.allocs - child_allocs[k];
        if (sp.name == kHome) {
          if (k > 0) flush_home();
          home_us.push_back(sp.dur_ns * 1e-3);
          home_self_us.push_back(self * 1e-3);
        } else {
          home_self[sp.name] += self;
          seen[sp.name] = true;
        }
        ++span_count[sp.name];
        span_allocs[sp.name] += self_allocs;
        std::fprintf(
            f, "%llu\t%llu\t%lld\t%s\t%d\t%lld\t%lld\t%lld\t%llu\n",
            static_cast<unsigned long long>(sp.home),
            static_cast<unsigned long long>((s << 32) | k),
            sp.parent == kNoParent
                ? -1LL
                : static_cast<long long>((s << 32) | sp.parent),
            kSpanLabel[sp.name], sp.campaign,
            static_cast<long long>(sp.start_ns - origin),
            static_cast<long long>(sp.dur_ns), static_cast<long long>(self),
            static_cast<unsigned long long>(self_allocs));
      }
      if (!spans.empty()) flush_home();
    }
    std::fclose(f);

    std::uint64_t sim_events = 0, emitted = 0, delivered = 0, hit = 0,
                  hit_faults = 0;
    for (const fleet::HomeOutcome& r : rows_all) {
      sim_events += r.sim_events;
      emitted += r.emitted;
      delivered += r.delivered;
      if (r.hit) {
        ++hit;
        hit_faults += r.faults_injected;
      }
    }
    metrics::Registry all;
    for (const metrics::Registry& m : merged) all.merge_scalars_from(m);
    std::uint64_t promotions_hit = 0, names = 0, records = 0,
                  record_bytes = 0, image_bytes = 0, images = 0;
    std::int64_t home_ns = 0;
    for (const ShardOut& s : shards) {
      promotions_hit += s.promotions_hit;
      names += s.names;
      records += s.records;
      record_bytes += s.record_bytes;
      image_bytes += s.image_bytes;
      images += s.images;
      home_ns += s.home_ns;
    }
    const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
    const auto dsims = static_cast<double>(sims);
    const auto devents = static_cast<double>(sim_events);
    const std::uint64_t net_bytes = all.counter_sum("net.bytes.");
    const std::uint64_t ring = all.counter_value("net.msgs.ring_event");
    const std::uint64_t rb = all.counter_value("net.msgs.rb_event");

    auto timing = [&](SpanName n) {
      const std::string base = std::string(kSpanLabel[n]) + "_us";
      layers.add(base + ".p50", nearest_rank(per_home_us[n], 0.50), "us");
      layers.add(base + ".p99", nearest_rank(per_home_us[n], 0.99), "us");
      if (n != kRun)
        layers.add(std::string(kSpanLabel[n]) + "_allocs",
                   ratio(static_cast<double>(span_allocs[n]),
                         static_cast<double>(span_count[n])),
                   "allocs/span");
    };
    layers.add("fleet.home_us.p50", nearest_rank(home_us, 0.50), "us");
    layers.add("fleet.home_us.p99", nearest_rank(home_us, 0.99), "us");
    layers.add("fleet.home_self_us.p50", nearest_rank(home_self_us, 0.50), "us");
    layers.add("fleet.home_self_us.p99", nearest_rank(home_self_us, 0.99), "us");
    timing(kSample);
    layers.add("fleet.parallel_eff",
               ratio(wall_1, jobs * wall_n), "ratio");
    layers.add("fleet.tail_idle_share",
               ratio(wall_replica * 1e9 * jobs - static_cast<double>(home_ns),
                     wall_replica * 1e9 * jobs),
               "ratio");
    layers.add("fleet.span_overhead", ratio(wall_replica, wall_n), "ratio");
    layers.add("fleet.untraced_homes_per_s", ratio(dsims, wall_n), "1/s");
    layers.add("fleet.traced_homes_per_s", ratio(dsims, wall_replica), "1/s");

    timing(kBuild);
    timing(kStart);
    timing(kTeardown);

    timing(kRun);
    layers.add("sim.events_per_home", ratio(devents, dsims), "count/home");
    layers.add("sim.ns_per_event",
               ratio(static_cast<double>(run_ns), devents), "ns/event");
    layers.add("sim.allocs_per_event",
               ratio(static_cast<double>(span_allocs[kRun]), devents),
               "allocs/event");

    std::uint64_t msgs = all.counter_sum("net.msgs.");
    layers.add("net.msgs_per_event", ratio(static_cast<double>(msgs), devents),
               "msgs/event");
    for (const char* type :
         {"keepalive", "ring_event", "rb_event", "gap_forward", "sync_request",
          "sync_response", "command", "command_ack", "promote", "demote"}) {
      layers.add(std::string("net.bytes_per_home.") + type,
                 ratio(static_cast<double>(all.counter_value(
                           std::string("net.bytes.") + type)),
                       dsims),
                 "B/home");
    }
    layers.add("membership.keepalive_bytes_share",
               ratio(static_cast<double>(all.counter_value("net.bytes.keepalive")),
                     static_cast<double>(net_bytes)),
               "ratio");
    layers.add("devices.emitted_per_home",
               ratio(static_cast<double>(emitted), dsims), "count/home");
    layers.add("devices.polls_per_home",
               ratio(static_cast<double>(all.counter_sum("polls.issued.")),
                     dsims),
               "count/home");
    layers.add("delivery.rb_share",
               ratio(static_cast<double>(rb), static_cast<double>(ring + rb)),
               "ratio");
    layers.add("delivery.ingest_per_delivered",
               ratio(static_cast<double>(all.counter_sum("ingest.")),
                     static_cast<double>(delivered)),
               "ratio");
    layers.add("runtime.promotions_per_hit_home",
               ratio(static_cast<double>(promotions_hit),
                     static_cast<double>(hit)),
               "count/home");
    layers.add("runtime.dup_instance_deliveries",
               ratio(static_cast<double>(
                         counter_suffix_sum(all, ".dup_instance_delivery")),
                     dsims),
               "count/home");
    layers.add("runtime.commands_retried",
               ratio(static_cast<double>(
                         counter_suffix_sum(all, ".commands_retried")),
                     dsims),
               "count/home");

    timing(kView);
    timing(kMerge);
    layers.add("metrics.names_per_home",
               ratio(static_cast<double>(names), dsims), "count/home");

    timing(kArm);
    layers.add("chaos.faults_per_hit_home",
               ratio(static_cast<double>(hit_faults), static_cast<double>(hit)),
               "count/home");

    timing(kTrack);
    timing(kCapture);
    timing(kApply);
    timing(kAttest);
    layers.add("checkpoint.image_bytes",
               ratio(static_cast<double>(image_bytes),
                     static_cast<double>(images)),
               "B");

    layers.add("trace.records_per_home",
               ratio(static_cast<double>(records), dsims), "count/home");
    layers.add("trace.bytes_per_record",
               ratio(static_cast<double>(record_bytes),
                     static_cast<double>(records)),
               "B");
    timing(kAnalyze);
    layers.add("trace.recorder_overhead", recorder_overhead, "ratio");
  } catch (const std::exception& e) {
    tally.note(std::string("trace run threw: ") + e.what());
    flag_all();
  }

  tally.attempted += sims;
  for (const auto& v : bad)
    tally.failed += static_cast<std::uint64_t>(std::count(v.begin(), v.end(), true));
  Json out;
  out.str("mode", "trace").raw("layers", layers.done());
  tally.print(out);
  return tally.failed == 0 ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: fleetbench setup|timed|stats|check|trace --workload W "
               "--seed S [--process P] [--seconds T] [--t0-ns N] "
               "[--spans PATH]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string mode = argv[1];
  std::string workload;
  std::string spans_path;
  std::uint64_t seed = 0;
  std::uint64_t process = 0;
  double budget_s = 1.0;
  std::int64_t t0_ns = mono_ns();
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* val = argv[i + 1];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      budget_s = std::atof(val);
    } else if (arg == "--t0-ns") {
      t0_ns = std::strtoll(val, nullptr, 10);
    } else if (arg == "--process") {
      process = std::strtoull(val, nullptr, 10);
    } else if (arg == "--spans") {
      spans_path = val;
    } else {
      usage();
      return 2;
    }
  }
  const std::optional<Workload> w = make_workload(workload);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  if (mode == "setup") return setup_main(*w, t0_ns);
  if (mode == "timed") return timed_main(*w, seed, process, budget_s, t0_ns);
  if (mode == "stats") return stats_main(*w, seed);
  if (mode == "check") return check_main(*w, seed);
  if (mode == "trace" && !spans_path.empty())
    return trace_main(*w, seed, spans_path);
  usage();
  return 2;
}
