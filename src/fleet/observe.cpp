#include "fleet/observe.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "fleet/fleet.hpp"

namespace riv::fleet {

namespace {

// Domain-separation salt for sampler membership draws, disjoint from the
// campaign's region/event salts (campaign.cpp) so arming a campaign can
// never perturb which homes are flight-recorded.
constexpr std::uint64_t kSampleSalt = 0x4f627365'72765331ULL;

// Uniform [0,1) from a mixed 64-bit state (same mantissa trick as Rng).
double unit_from(std::uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

void fnv_u64(hash::Fnv1aStream& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b)
    h.put(static_cast<std::uint8_t>((v >> (8 * b)) & 0xff));
}

// "from->to" label of leg[stage] (stage-1 -> stage), e.g.
// "ingested->delivered", using the canonical Stage names.
std::string leg_name(int stage) {
  std::string out = trace::to_string(static_cast<trace::Stage>(stage - 1));
  out += "->";
  out += trace::to_string(static_cast<trace::Stage>(stage));
  return out;
}

// Record kinds a healthy steady-state home never logs mid-run: fault
// injection, process crash, gapless-ring fallback, integrity rejections,
// Byzantine attack markers. The first such record is where a sick home's
// execution diverges from a healthy one. Deployment teardown emits a
// kCrash per process at the very end of the trace — normal shutdown, so
// crashes at the final instant don't count.
bool divergent(const trace::RecordView& r, std::int64_t end_us) {
  switch (r.kind) {
    case trace::Kind::kCrash:
      return r.at.us < end_us;
    case trace::Kind::kFault:
    case trace::Kind::kFallback:
    case trace::Kind::kTamper:
    case trace::Kind::kByzantine:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool home_sampled(std::uint64_t fleet_seed, std::uint64_t home_index,
                  double sample) {
  if (sample <= 0.0) return false;
  if (sample >= 1.0) return true;
  return unit_from(derive_seed(fleet_seed ^ kSampleSalt, home_index)) <
         sample;
}

bool worse(const HomeHealth& a, const HomeHealth& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

HomeHealth score_home(const SloSpec& slo, std::uint64_t index,
                      const HomeOutcome& outcome,
                      const metrics::Registry& home_metrics) {
  HomeHealth h;
  h.index = index;
  h.seed = outcome.seed;
  h.delivered = outcome.delivered;
  h.emitted = outcome.emitted;
  h.faults = outcome.faults_injected;
  h.hit = outcome.hit;
  h.survived = outcome.survived;
  h.slo_us = slo.delivery_p99.us;

  // This home's own delivery p99: its app delay histograms, merged the
  // same way make_dashboard does fleet-wide.
  metrics::Histogram delay;
  for (const auto& [name, lat] : home_metrics.latencies()) {
    if (name.size() >= 6 && name.compare(name.size() - 6, 6, ".delay") == 0)
      delay.merge(lat.hist());
  }
  h.delay_p99_us = delay.percentile(0.99).us;

  if (h.emitted > 0 && h.delivered == 0) h.score += 50'000'000;
  if (h.hit && !h.survived) h.score += 10'000'000;
  if (h.delay_p99_us > h.slo_us)
    h.score += static_cast<std::uint64_t>(h.delay_p99_us - h.slo_us);
  return h;
}

void apply_provenance(HomeHealth& row, const trace::Analysis& analysis) {
  row.sampled = true;
  row.unexplained_orphans =
      static_cast<std::uint32_t>(analysis.unexplained_orphans());
  row.duplicates = static_cast<std::uint32_t>(analysis.duplicates.size());
  row.ordering_violations =
      static_cast<std::uint32_t>(analysis.ordering_violations.size());
  row.score += 500'000ull * row.ordering_violations;
  row.score += 200'000ull * (row.unexplained_orphans + row.duplicates);
}

void TopKHealth::add(const HomeHealth& row) {
  if (k_ == 0) return;
  if (rows_.size() == k_ && !worse(row, rows_.back())) return;
  auto at = std::lower_bound(rows_.begin(), rows_.end(), row, worse);
  rows_.insert(at, row);
  if (rows_.size() > k_) rows_.pop_back();
}

void TopKHealth::merge_from(const TopKHealth& other) {
  if (k_ == 0) k_ = other.k_;
  for (const HomeHealth& row : other.rows_) add(row);
}

void Observation::fold_from(const Observation& shard) {
  samples.insert(samples.end(), shard.samples.begin(), shard.samples.end());
  for (int s = 1; s < trace::kStageCount; ++s) leg[s].merge(shard.leg[s]);
  e2e_delivery.merge(shard.e2e_delivery);
  trace_records += shard.trace_records;
  trace_bytes += shard.trace_bytes;
  chains += shard.chains;
  orphans += shard.orphans;
  unexplained_orphans += shard.unexplained_orphans;
  duplicates += shard.duplicates;
  top.merge_from(shard.top);
}

std::uint64_t Observation::trace_digest() const {
  hash::Fnv1aStream h;
  for (const TraceSample& s : samples) {
    fnv_u64(h, s.index);
    fnv_u64(h, s.trace_hash);
  }
  return h.value();
}

std::string render_observation(const Observation& o) {
  char buf[512];
  std::string out;
  if (!o.samples.empty()) {
    std::snprintf(
        buf, sizeof(buf),
        "observed        %12zu homes sampled   %llu records   %llu chains"
        "   digest traces=%s\n",
        o.samples.size(), static_cast<unsigned long long>(o.trace_records),
        static_cast<unsigned long long>(o.chains),
        hash::fnv1a_digest(o.trace_digest()).c_str());
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "provenance      %12llu orphans (%llu unexplained)   %llu "
        "duplicates\n",
        static_cast<unsigned long long>(o.orphans),
        static_cast<unsigned long long>(o.unexplained_orphans),
        static_cast<unsigned long long>(o.duplicates));
    out += buf;
    out += "sampled legs   ";
    for (int s = 1; s < trace::kStageCount; ++s) {
      if (o.leg[s].empty()) continue;
      std::snprintf(buf, sizeof(buf), "  %s p99 %.2fms",
                    leg_name(s).c_str(),
                    o.leg[s].percentile(0.99).millis());
      out += buf;
    }
    out += "\n";
  }
  if (o.top.k() > 0) {
    std::snprintf(buf, sizeof(buf), "worst homes     (top %zu of fleet)\n",
                  o.top.k());
    out += buf;
    for (const HomeHealth& h : o.top.rows()) {
      std::snprintf(
          buf, sizeof(buf),
          "  home %-9llu score %-10llu p99 %8.2fms   faults %-4u "
          "delivered %-6llu%s%s%s\n",
          static_cast<unsigned long long>(h.index),
          static_cast<unsigned long long>(h.score),
          static_cast<double>(h.delay_p99_us) / 1e3, h.faults,
          static_cast<unsigned long long>(h.delivered),
          h.hit ? (h.survived ? "   hit+recovered" : "   hit+FAILED") : "",
          h.sampled ? "   [traced]" : "",
          h.unexplained_orphans + h.duplicates + h.ordering_violations > 0
              ? "   PROVENANCE"
              : "");
      out += buf;
    }
  }
  return out;
}

TriageReport triage_home(const FleetOptions& opt, std::uint64_t index,
                         const TriageOptions& topt) {
  HomeRun run = run_home(opt, index, /*traced=*/true,
                         opt.observe.flight_mask);
  TriageReport rep;
  const trace::Analysis an = trace::analyze(*run.flight, topt.analyze);

  rep.health = score_home(opt.observe.slo, index, run.outcome, run.metrics);
  apply_provenance(rep.health, an);
  rep.trace_hash = run.flight->hash();
  rep.trace_records = run.flight->size();

  const trace::CheckResult verdict = trace::check(an);
  rep.check_ok = verdict.ok;
  rep.problems = verdict.problems;

  rep.faults = static_cast<std::uint32_t>(an.faults.size());
  if (!an.faults.empty()) rep.fault = an.faults.front().what;

  for (int s = 1; s < trace::kStageCount; ++s) {
    if (an.leg[s].empty()) continue;
    const std::int64_t p99 = an.leg[s].percentile(0.99).us;
    if (rep.worst_leg.empty() || p99 > rep.worst_leg_p99_us) {
      rep.worst_leg = leg_name(s);
      rep.worst_leg_p99_us = p99;
    }
  }

  std::int64_t end_us = 0;
  run.flight->scan([&](const trace::RecordView& v) { end_us = v.at.us; });
  std::optional<trace::RecordView> first;
  run.flight->scan([&](const trace::RecordView& v) {
    if (!first && divergent(v, end_us)) first = v;
  });
  if (first) {
    rep.first_divergence = trace::to_string(trace::Record{
        first->at, first->process, first->component, first->kind,
        first->prov, first->detail()});
    rep.first_divergence_us = first->at.us;
  }

  if (!topt.trace_dir.empty()) {
    const std::string path =
        topt.trace_dir + "/home-" + std::to_string(index) + ".rivtrace";
    std::string err;
    if (!run.flight->save(path, &err))
      throw std::runtime_error("triage trace save: " + err);
    rep.trace_path = path;
  }
  return rep;
}

std::string render(const TriageReport& r) {
  char buf[512];
  std::string out;
  const HomeHealth& h = r.health;
  std::snprintf(buf, sizeof(buf),
                "home %llu  seed %llu  score %llu  (%s)\n",
                static_cast<unsigned long long>(h.index),
                static_cast<unsigned long long>(h.seed),
                static_cast<unsigned long long>(h.score),
                h.score == 0 ? "healthy" : "unhealthy");
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  delivery     p99 %.2fms vs SLO %.2fms   %llu delivered / "
                "%llu emitted\n",
                static_cast<double>(h.delay_p99_us) / 1e3,
                static_cast<double>(h.slo_us) / 1e3,
                static_cast<unsigned long long>(h.delivered),
                static_cast<unsigned long long>(h.emitted));
  out += buf;
  if (r.faults > 0) {
    std::snprintf(buf, sizeof(buf), "  fault        %u injected; first: %s\n",
                  r.faults, r.fault.c_str());
    out += buf;
    std::snprintf(buf, sizeof(buf), "  recovery     %s\n",
                  h.hit ? (h.survived ? "survived (delivered after heal)"
                                      : "FAILED (nothing after heal)")
                        : "not campaign-hit");
    out += buf;
  }
  if (!r.worst_leg.empty()) {
    std::snprintf(buf, sizeof(buf), "  worst leg    %s p99 %.2fms\n",
                  r.worst_leg.c_str(),
                  static_cast<double>(r.worst_leg_p99_us) / 1e3);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  causal check %s (%u orphans unexplained, %u duplicates, "
                "%u order violations)\n",
                r.check_ok ? "OK" : "FAILED", h.unexplained_orphans,
                h.duplicates, h.ordering_violations);
  out += buf;
  for (const std::string& p : r.problems) {
    out += "    problem: ";
    out += p;
    out += "\n";
  }
  if (!r.first_divergence.empty()) {
    std::snprintf(buf, sizeof(buf), "  divergence   %s\n",
                  r.first_divergence.c_str());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "  trace        %llu records  hash %s%s%s\n",
                static_cast<unsigned long long>(r.trace_records),
                hash::fnv1a_digest(r.trace_hash).c_str(),
                r.trace_path.empty() ? "" : "  saved ",
                r.trace_path.c_str());
  out += buf;
  return out;
}

std::string render_triage_json(const std::vector<TriageReport>& reports) {
  std::string out = "{\n  \"triage\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const TriageReport& r = reports[i];
    const HomeHealth& h = r.health;
    std::snprintf(
        buf, sizeof(buf),
        "    {\"home\": %llu, \"seed\": %llu, \"score\": %llu, "
        "\"delay_p99_us\": %lld, \"slo_us\": %lld, \"delivered\": %llu, "
        "\"emitted\": %llu, \"faults\": %u, \"hit\": %s, \"survived\": %s, "
        "\"check_ok\": %s, \"unexplained_orphans\": %u, \"duplicates\": %u, "
        "\"ordering_violations\": %u, ",
        static_cast<unsigned long long>(h.index),
        static_cast<unsigned long long>(h.seed),
        static_cast<unsigned long long>(h.score),
        static_cast<long long>(h.delay_p99_us),
        static_cast<long long>(h.slo_us),
        static_cast<unsigned long long>(h.delivered),
        static_cast<unsigned long long>(h.emitted), r.faults,
        h.hit ? "true" : "false", h.survived ? "true" : "false",
        r.check_ok ? "true" : "false", h.unexplained_orphans, h.duplicates,
        h.ordering_violations);
    out += buf;
    out += "\"fault\": \"";
    out += trace::json_escape(r.fault);
    out += "\", \"worst_leg\": \"";
    out += trace::json_escape(r.worst_leg);
    std::snprintf(buf, sizeof(buf),
                  "\", \"worst_leg_p99_us\": %lld, \"trace_records\": %llu, "
                  "\"trace_hash\": \"%s\", ",
                  static_cast<long long>(r.worst_leg_p99_us),
                  static_cast<unsigned long long>(r.trace_records),
                  hash::fnv1a_digest(r.trace_hash).c_str());
    out += buf;
    out += "\"first_divergence\": \"";
    out += trace::json_escape(r.first_divergence);
    out += "\", \"trace_path\": \"";
    out += trace::json_escape(r.trace_path);
    out += "\"}";
    out += (i + 1 < reports.size()) ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace riv::fleet
