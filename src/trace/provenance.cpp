#include "trace/provenance.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>
#include <tuple>
#include <utility>

namespace riv::trace {

namespace {

// Pull "key=value" out of a canonical detail string; empty when absent.
std::string_view detail_value(std::string_view detail,
                              std::string_view key) {
  std::size_t pos = 0;
  while (pos < detail.size()) {
    std::size_t end = detail.find(' ', pos);
    if (end == std::string_view::npos) end = detail.size();
    std::string_view token = detail.substr(pos, end - pos);
    if (token.size() > key.size() + 1 &&
        token.substr(0, key.size()) == key && token[key.size()] == '=')
      return token.substr(key.size() + 1);
    pos = end + 1;
  }
  return {};
}

std::uint64_t parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') break;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

Stage stage_of(Kind k) {
  switch (k) {
    case Kind::kEmit: return Stage::kGenerated;
    case Kind::kAdapterRx: return Stage::kAdapterRx;
    case Kind::kIngest: return Stage::kIngested;
    case Kind::kDeliver: return Stage::kDelivered;
    case Kind::kLogicFire: return Stage::kLogicFired;
    case Kind::kCommand: return Stage::kCommandSent;
    case Kind::kActuated: return Stage::kActuated;
    default: return static_cast<Stage>(-1);
  }
}

std::string fmt_ms(std::int64_t us) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3fms",
                static_cast<double>(us) / 1e3);
  return buf;
}

std::string fmt_s(std::int64_t us) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6fs",
                static_cast<double>(us) / 1e6);
  return buf;
}

void hist_json(std::string& out, const char* name,
               const metrics::Histogram& h) {
  out += '"';
  out += name;
  out += "\":{\"count\":" + std::to_string(h.count());
  out += ",\"p50_us\":" + std::to_string(h.percentile(0.5).us);
  out += ",\"p99_us\":" + std::to_string(h.percentile(0.99).us);
  out += ",\"max_us\":" + std::to_string(h.max().us);
  out += ",\"mean_us\":" + std::to_string(h.mean().us);
  out += '}';
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

const char* to_string(Stage s) {
  switch (s) {
    case Stage::kGenerated: return "generated";
    case Stage::kAdapterRx: return "adapter_rx";
    case Stage::kIngested: return "ingested";
    case Stage::kDelivered: return "delivered";
    case Stage::kLogicFired: return "logic_fired";
    case Stage::kCommandSent: return "command_sent";
    case Stage::kActuated: return "actuated";
  }
  return "?";
}

std::int64_t Chain::last_activity_us() const {
  std::int64_t last = -1;
  for (std::int64_t t : first_us) last = std::max(last, t);
  return last;
}

std::size_t Analysis::unexplained_orphans() const {
  std::size_t n = 0;
  for (const Orphan& o : orphans)
    if (!o.explained()) ++n;
  return n;
}

int Analysis::stages_present() const {
  int n = 0;
  for (std::uint64_t c : stage_chains)
    if (c > 0) ++n;
  return n;
}

namespace {

// What the analysis reads besides a record's header, per record source. A
// Record carries rendered text, so its app id is parsed out of `detail`
// as it always was; a RecordView reads the typed field. Fault records need
// their text either way (FaultSpan::what), so a view renders it into
// `buf`.
std::uint32_t app_of(const Record& r) {
  return static_cast<std::uint32_t>(parse_u64(detail_value(r.detail, "app")));
}
std::uint32_t app_of(const RecordView& v) {
  return static_cast<std::uint32_t>(v.u64(Key::kApp).value_or(0));
}
std::string_view text_of(const Record& r, std::string&) { return r.detail; }
std::string_view text_of(const RecordView& v, std::string& buf) {
  buf.clear();
  v.render_detail(buf);
  return buf;
}

// Chains in first-seen order behind an open-addressing hash index keyed
// by provenance id (linear probing, load at most one half).
class ChainIndex {
 public:
  ChainIndex() : slots_(256, kEmpty) {}

  Chain& operator[](ProvenanceId id) {
    std::size_t i = probe(id);
    if (slots_[i] != kEmpty) return chains_[slots_[i]];
    if (2 * (chains_.size() + 1) > slots_.size()) {
      grow();
      i = probe(id);
    }
    slots_[i] = static_cast<std::uint32_t>(chains_.size());
    Chain& c = chains_.emplace_back();
    c.id = id;
    return c;
  }

  // The chains, sorted by id; the index is spent.
  std::vector<Chain> take_sorted() {
    std::sort(chains_.begin(), chains_.end(),
              [](const Chain& x, const Chain& y) { return x.id < y.id; });
    return std::move(chains_);
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  std::size_t probe(ProvenanceId id) const {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(id.origin) << 32) | id.seq;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
                        (key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
    while (slots_[i] != kEmpty && chains_[slots_[i]].id != id)
      i = (i + 1) & mask;
    return i;
  }
  void grow() {
    slots_.assign(2 * slots_.size(), kEmpty);
    for (std::uint32_t c = 0; c < chains_.size(); ++c)
      slots_[probe(chains_[c].id)] = c;
  }

  std::vector<Chain> chains_;
  std::vector<std::uint32_t> slots_;  // chain index, or kEmpty
};

// The one analysis core. `for_each(visit)` calls `visit` on every record
// in trace order; records are Records or RecordViews.
template <typename ForEach>
Analysis analyze_core(std::size_t n_records, ForEach&& for_each,
                      const AnalyzeOptions& opt) {
  Analysis a;
  a.n_records = n_records;

  ChainIndex index;

  // Promotion epochs: failover legitimately re-delivers an event to the
  // newly promoted logic node, so duplicate detection is scoped to one
  // (process, app) promotion epoch.
  struct Epoch {
    std::uint16_t process;
    std::uint32_t app;
    std::uint32_t n;
  };
  std::vector<Epoch> epochs;  // a handful: processes x apps
  auto epoch = [&epochs](std::uint16_t process, std::uint32_t app)
      -> std::uint32_t& {
    for (Epoch& e : epochs)
      if (e.process == process && e.app == app) return e.n;
    epochs.push_back({process, app, 0});
    return epochs.back().n;
  };
  struct DeliverKey {
    ProvenanceId id;
    std::uint16_t process;
    std::uint32_t app;
    std::uint32_t epoch;
    auto operator<=>(const DeliverKey&) const = default;
  };
  std::vector<DeliverKey> deliveries;

  std::vector<std::uint16_t> down;  // processes crashed and not yet recovered
  std::string text;                 // a fault record's rendered detail

  for_each([&](const auto& r) {
    a.trace_end_us = std::max(a.trace_end_us, r.at.us);

    switch (r.kind) {
      case Kind::kPromote:
        ++epoch(r.process.value, app_of(r));
        break;
      case Kind::kCrash:
        if (std::find(down.begin(), down.end(), r.process.value) == down.end())
          down.push_back(r.process.value);
        break;
      case Kind::kRecover:
        down.erase(std::remove(down.begin(), down.end(), r.process.value),
                   down.end());
        break;
      case Kind::kFault: {
        const std::string_view detail = text_of(r, text);
        std::string_view id = detail_value(detail, "id");
        if (!id.empty()) {
          FaultSpan f;
          f.fault_id = static_cast<int>(parse_u64(id));
          f.at_us = r.at.us;
          std::size_t sp = detail.find(' ');
          if (sp != std::string_view::npos) f.what = detail.substr(sp + 1);
          a.faults.push_back(std::move(f));
        }
        break;
      }
      default:
        break;
    }

    if (!r.prov.valid()) return;
    Stage s = stage_of(r.kind);
    if (static_cast<int>(s) < 0) return;

    Chain& c = index[r.prov];
    std::size_t si = static_cast<std::size_t>(s);
    if (c.first_us[si] < 0) c.first_us[si] = r.at.us;
    ++c.count[si];
    c.last_seen_us = std::max(c.last_seen_us, r.at.us);

    if (s == Stage::kIngested) c.ingest_processes.insert(r.process);
    if (s == Stage::kDelivered) {
      const std::uint32_t app = app_of(r);
      deliveries.push_back(
          {r.prov, r.process.value, app, epoch(r.process.value, app)});
    }
  });

  const std::vector<Chain> chains = index.take_sorted();
  a.n_chains = chains.size();

  std::sort(deliveries.begin(), deliveries.end());
  for (std::size_t i = 0; i < deliveries.size();) {
    std::size_t j = i + 1;
    while (j < deliveries.size() && deliveries[j] == deliveries[i]) ++j;
    if (j - i > 1) {
      Duplicate d;
      d.id = deliveries[i].id;
      d.process = ProcessId{deliveries[i].process};
      d.app = deliveries[i].app;
      d.deliveries = static_cast<std::uint32_t>(j - i);
      a.duplicates.push_back(d);
    }
    i = j;
  }

  // Per-chain derivations: stage coverage, leg latencies, e2e, ordering,
  // orphan classification.
  for (const Chain& c : chains) {
    const ProvenanceId id = c.id;
    for (int i = 0; i < kStageCount; ++i)
      if (c.first_us[static_cast<std::size_t>(i)] >= 0)
        ++a.stage_chains[static_cast<std::size_t>(i)];

    for (int i = 1; i < kStageCount; ++i) {
      Stage cur = static_cast<Stage>(i);
      Stage prev = static_cast<Stage>(i - 1);
      if (c.reached(cur) && c.reached(prev))
        a.leg[static_cast<std::size_t>(i)].record_us(c.at(cur) -
                                                     c.at(prev));
    }
    if (c.reached(Stage::kGenerated) && c.reached(Stage::kDelivered))
      a.e2e_delivery.record_us(c.at(Stage::kDelivered) -
                               c.at(Stage::kGenerated));
    if (c.reached(Stage::kGenerated) && c.reached(Stage::kActuated))
      a.e2e_full.record_us(c.at(Stage::kActuated) -
                           c.at(Stage::kGenerated));

    std::int64_t prev_t = -1;
    Stage prev_s = Stage::kGenerated;
    for (int i = 0; i < kStageCount; ++i) {
      Stage s = static_cast<Stage>(i);
      if (!c.reached(s)) continue;
      if (prev_t >= 0 && c.at(s) < prev_t) {
        a.ordering_violations.push_back(
            "event " + riv::to_string(id) + ": " + to_string(s) +
            " at " + fmt_s(c.at(s)) + " before " + to_string(prev_s) +
            " at " + fmt_s(prev_t));
      }
      prev_t = c.at(s);
      prev_s = s;
    }

    if (c.reached(Stage::kIngested) && !c.reached(Stage::kDelivered)) {
      Orphan o;
      o.id = id;
      o.last_activity_us = c.last_seen_us;
      if (o.last_activity_us >= a.trace_end_us - opt.grace.us) {
        o.reason = "in_flight_at_end";
      } else {
        bool all_down = !c.ingest_processes.empty();
        for (ProcessId p : c.ingest_processes)
          if (std::find(down.begin(), down.end(), p.value) == down.end())
            all_down = false;
        o.reason = all_down ? "crashed_host" : "unexplained";
      }
      a.orphans.push_back(std::move(o));
    }
  }

  // Tail attribution: chains whose delivery e2e reached the tail quantile,
  // joined against faults overlapping [generated - window, last stage].
  std::int64_t threshold =
      a.e2e_delivery.percentile(opt.tail_quantile).us;
  if (!a.e2e_delivery.empty()) {
    for (const Chain& c : chains) {
      if (!c.reached(Stage::kGenerated) || !c.reached(Stage::kDelivered))
        continue;
      std::int64_t e2e = c.at(Stage::kDelivered) - c.at(Stage::kGenerated);
      if (e2e < threshold) continue;
      TailEvent t;
      t.id = c.id;
      t.e2e_us = e2e;
      std::int64_t lo = c.at(Stage::kGenerated) - opt.fault_window.us;
      std::int64_t hi = c.last_activity_us();
      for (const FaultSpan& f : a.faults)
        if (f.at_us >= lo && f.at_us <= hi) t.fault_ids.push_back(f.fault_id);
      a.tails.push_back(std::move(t));
    }
    std::sort(a.tails.begin(), a.tails.end(),
              [](const TailEvent& x, const TailEvent& y) {
                if (x.e2e_us != y.e2e_us) return x.e2e_us > y.e2e_us;
                return x.id < y.id;
              });
  }

  return a;
}

}  // namespace

Analysis analyze(const std::vector<Record>& records,
                 const AnalyzeOptions& opt) {
  return analyze_core(
      records.size(),
      [&records](auto&& visit) {
        for (const Record& r : records) visit(r);
      },
      opt);
}

Analysis analyze(const Recorder& rec, const AnalyzeOptions& opt) {
  return analyze_core(
      rec.size(), [&rec](auto&& visit) { rec.scan(visit); }, opt);
}

std::string render(const Analysis& a) {
  std::string out;
  char buf[256];

  std::snprintf(buf, sizeof(buf),
                "trace: %zu records, %zu event chains, ends at %s\n",
                a.n_records, a.n_chains, fmt_s(a.trace_end_us).c_str());
  out += buf;

  out += "stage coverage (chains reaching each stage):\n";
  for (int i = 0; i < kStageCount; ++i) {
    std::snprintf(buf, sizeof(buf), "  %-13s %8llu\n",
                  to_string(static_cast<Stage>(i)),
                  static_cast<unsigned long long>(
                      a.stage_chains[static_cast<std::size_t>(i)]));
    out += buf;
  }

  out += "per-stage latency (p50 / p99 / max):\n";
  std::int64_t sum_medians = 0;
  for (int i = 1; i < kStageCount; ++i) {
    const metrics::Histogram& h = a.leg[static_cast<std::size_t>(i)];
    if (h.empty()) continue;
    std::snprintf(buf, sizeof(buf),
                  "  %-11s -> %-13s %12s / %12s / %12s  (n=%zu)\n",
                  to_string(static_cast<Stage>(i - 1)),
                  to_string(static_cast<Stage>(i)),
                  fmt_ms(h.percentile(0.5).us).c_str(),
                  fmt_ms(h.percentile(0.99).us).c_str(),
                  fmt_ms(h.max().us).c_str(), h.count());
    out += buf;
    if (i <= static_cast<int>(Stage::kDelivered))
      sum_medians += h.percentile(0.5).us;
  }

  if (!a.e2e_delivery.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "e2e generated -> delivered: p50 %s  p99 %s  max %s  "
                  "(n=%zu)\n",
                  fmt_ms(a.e2e_delivery.percentile(0.5).us).c_str(),
                  fmt_ms(a.e2e_delivery.percentile(0.99).us).c_str(),
                  fmt_ms(a.e2e_delivery.max().us).c_str(),
                  a.e2e_delivery.count());
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  sum of leg medians on the delivery path: %s\n",
                  fmt_ms(sum_medians).c_str());
    out += buf;
  }
  if (!a.e2e_full.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "e2e generated -> actuated : p50 %s  p99 %s  max %s  "
                  "(n=%zu)\n",
                  fmt_ms(a.e2e_full.percentile(0.5).us).c_str(),
                  fmt_ms(a.e2e_full.percentile(0.99).us).c_str(),
                  fmt_ms(a.e2e_full.max().us).c_str(),
                  a.e2e_full.count());
    out += buf;
  }

  std::size_t in_flight = 0, crashed = 0;
  for (const Orphan& o : a.orphans) {
    if (o.reason == "in_flight_at_end") ++in_flight;
    if (o.reason == "crashed_host") ++crashed;
  }
  std::snprintf(buf, sizeof(buf),
                "orphans: %zu (%zu in_flight_at_end, %zu crashed_host, "
                "%zu unexplained)\n",
                a.orphans.size(), in_flight, crashed,
                a.unexplained_orphans());
  out += buf;
  for (const Orphan& o : a.orphans) {
    if (o.explained()) continue;
    out += "  UNEXPLAINED " + riv::to_string(o.id) + " last activity " +
           fmt_s(o.last_activity_us) + "\n";
  }

  std::snprintf(buf, sizeof(buf), "duplicate deliveries: %zu\n",
                a.duplicates.size());
  out += buf;
  for (const Duplicate& d : a.duplicates) {
    std::snprintf(buf, sizeof(buf),
                  "  DUPLICATE %s delivered %u times to p%u app %u within "
                  "one promotion epoch\n",
                  riv::to_string(d.id).c_str(), d.deliveries,
                  d.process.value, d.app);
    out += buf;
  }

  std::snprintf(buf, sizeof(buf), "faults injected: %zu\n",
                a.faults.size());
  out += buf;

  std::size_t attributed = 0;
  for (const TailEvent& t : a.tails)
    if (!t.fault_ids.empty()) ++attributed;
  std::snprintf(buf, sizeof(buf),
                "tail events (e2e >= p99): %zu, %zu attributed to faults\n",
                a.tails.size(), attributed);
  out += buf;
  std::size_t shown = 0;
  for (const TailEvent& t : a.tails) {
    if (shown++ >= 10) {
      std::snprintf(buf, sizeof(buf), "  ... %zu more\n",
                    a.tails.size() - 10);
      out += buf;
      break;
    }
    out += "  " + riv::to_string(t.id) + " e2e=" + fmt_ms(t.e2e_us) +
           " faults=[";
    for (std::size_t i = 0; i < t.fault_ids.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(t.fault_ids[i]);
    }
    out += "]\n";
  }

  if (!a.ordering_violations.empty()) {
    std::snprintf(buf, sizeof(buf), "stage-ordering violations: %zu\n",
                  a.ordering_violations.size());
    out += buf;
    for (const std::string& v : a.ordering_violations)
      out += "  " + v + "\n";
  }

  return out;
}

std::string render_json(const Analysis& a) {
  std::string out = "{";
  out += "\"records\":" + std::to_string(a.n_records);
  out += ",\"chains\":" + std::to_string(a.n_chains);
  out += ",\"trace_end_us\":" + std::to_string(a.trace_end_us);
  out += ",\"stages\":{";
  for (int i = 0; i < kStageCount; ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += to_string(static_cast<Stage>(i));
    out += "\":" +
           std::to_string(a.stage_chains[static_cast<std::size_t>(i)]);
  }
  out += "},\"legs\":{";
  bool first = true;
  for (int i = 1; i < kStageCount; ++i) {
    const metrics::Histogram& h = a.leg[static_cast<std::size_t>(i)];
    if (h.empty()) continue;
    if (!first) out += ',';
    first = false;
    std::string name = std::string(to_string(static_cast<Stage>(i - 1))) +
                       "->" + to_string(static_cast<Stage>(i));
    hist_json(out, name.c_str(), h);
  }
  out += "},";
  hist_json(out, "e2e_delivery", a.e2e_delivery);
  out += ',';
  hist_json(out, "e2e_full", a.e2e_full);

  out += ",\"orphans\":[";
  for (std::size_t i = 0; i < a.orphans.size(); ++i) {
    const Orphan& o = a.orphans[i];
    if (i > 0) out += ',';
    out += "{\"event\":\"" + json_escape(riv::to_string(o.id)) +
           "\",\"last_activity_us\":" +
           std::to_string(o.last_activity_us) + ",\"reason\":\"" +
           json_escape(o.reason) + "\"}";
  }
  out += "],\"duplicates\":[";
  for (std::size_t i = 0; i < a.duplicates.size(); ++i) {
    const Duplicate& d = a.duplicates[i];
    if (i > 0) out += ',';
    out += "{\"event\":\"" + json_escape(riv::to_string(d.id)) +
           "\",\"process\":" + std::to_string(d.process.value) +
           ",\"app\":" + std::to_string(d.app) +
           ",\"deliveries\":" + std::to_string(d.deliveries) + "}";
  }
  out += "],\"faults\":[";
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    const FaultSpan& f = a.faults[i];
    if (i > 0) out += ',';
    out += "{\"id\":" + std::to_string(f.fault_id) +
           ",\"at_us\":" + std::to_string(f.at_us) + ",\"what\":\"" +
           json_escape(f.what) + "\"}";
  }
  out += "],\"tails\":[";
  for (std::size_t i = 0; i < a.tails.size(); ++i) {
    const TailEvent& t = a.tails[i];
    if (i > 0) out += ',';
    out += "{\"event\":\"" + json_escape(riv::to_string(t.id)) +
           "\",\"e2e_us\":" + std::to_string(t.e2e_us) + ",\"faults\":[";
    for (std::size_t j = 0; j < t.fault_ids.size(); ++j) {
      if (j > 0) out += ',';
      out += std::to_string(t.fault_ids[j]);
    }
    out += "]}";
  }
  out += "],\"ordering_violations\":[";
  for (std::size_t i = 0; i < a.ordering_violations.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + json_escape(a.ordering_violations[i]) + '"';
  }
  out += "]}";
  return out;
}

CheckResult check(const Analysis& a) {
  CheckResult r;
  for (const Orphan& o : a.orphans) {
    if (o.explained()) continue;
    r.problems.push_back("unexplained orphan " + riv::to_string(o.id) +
                         " (ingested, never delivered, hosts alive)");
  }
  for (const Duplicate& d : a.duplicates) {
    r.problems.push_back(
        "duplicate delivery of " + riv::to_string(d.id) + " to p" +
        std::to_string(d.process.value) + " app " + std::to_string(d.app) +
        " (" + std::to_string(d.deliveries) + "x in one epoch)");
  }
  for (const std::string& v : a.ordering_violations)
    r.problems.push_back("stage ordering: " + v);
  r.ok = r.problems.empty();
  return r;
}

// --- Byzantine integrity audit ------------------------------------------

namespace {

// The kText field renders bare (no "name=" prefix), so the attack /
// verdict word is the one token without '=' in a canonical detail string.
std::string_view bare_text(std::string_view detail) {
  std::size_t pos = 0;
  while (pos < detail.size()) {
    std::size_t end = detail.find(' ', pos);
    if (end == std::string_view::npos) end = detail.size();
    std::string_view token = detail.substr(pos, end - pos);
    if (!token.empty() && token.find('=') == std::string_view::npos)
      return token;
    pos = end + 1;
  }
  return {};
}

// "pN" -> N (0 when absent/malformed).
std::uint64_t parse_pid(std::string_view s) {
  if (s.size() < 2 || s[0] != 'p') return 0;
  return parse_u64(s.substr(1));
}

// A ground-truth kByzantine marker, fields parsed once.
struct Marker {
  std::int64_t at{0};
  std::uint64_t fault_id{0};
  std::string what;        // spoof|replay|mutate|dup|drop
  ProvenanceId prov{};     // device attacks (spoof/replay)
  std::string type;        // net attacks (mutate/dup/drop)
  std::uint64_t src{0};
  std::uint64_t dst{0};
};

// A runtime kTamper verdict awaiting attribution.
struct TamperRec {
  std::int64_t at{0};
  std::uint64_t process{0};  // the rejecting process
  std::string what;          // spoof|replay|bad_mac
  ProvenanceId prov{};       // spoof/replay
  std::string type;          // bad_mac
  std::uint64_t src{0};      // bad_mac
  bool used{false};
};

// One network-layer record for a frame: a transmitted copy (kSend or an
// at-send kDrop) or a loss/byzantine drop.
struct NetRec {
  std::int64_t at{0};
  bool is_drop{false};
  std::string reason;  // empty for kSend
  bool used{false};
};

std::string fmt_at(std::int64_t us) { return "t=" + fmt_s(us); }

}  // namespace

Audit audit(const std::vector<Record>& records) {
  Audit a;
  a.n_records = records.size();

  std::vector<Marker> markers;
  std::vector<TamperRec> tampers;
  // Byzantine drops and per-frame transmission records, keyed by the
  // frame tuple. Vectors stay time-ordered (records are).
  using FrameKey = std::tuple<std::string, std::uint64_t, std::uint64_t>;
  std::map<FrameKey, std::vector<NetRec>> frames;

  for (const Record& r : records) {
    if (r.kind == Kind::kByzantine) {
      Marker m;
      m.at = r.at.us;
      m.fault_id = parse_u64(detail_value(r.detail, "id"));
      m.what = std::string(bare_text(r.detail));
      m.prov = r.prov;
      m.type = std::string(detail_value(r.detail, "type"));
      m.src = parse_pid(detail_value(r.detail, "src"));
      m.dst = parse_pid(detail_value(r.detail, "dst"));
      markers.push_back(std::move(m));
    } else if (r.kind == Kind::kTamper) {
      TamperRec t;
      t.at = r.at.us;
      t.process = r.process.value;
      t.what = std::string(bare_text(r.detail));
      t.prov = r.prov;
      t.type = std::string(detail_value(r.detail, "type"));
      t.src = parse_pid(detail_value(r.detail, "src"));
      tampers.push_back(std::move(t));
    } else if (r.component == Component::kNet &&
               (r.kind == Kind::kSend || r.kind == Kind::kDrop)) {
      std::string type(detail_value(r.detail, "type"));
      if (type.empty()) continue;
      NetRec n;
      n.at = r.at.us;
      n.is_drop = r.kind == Kind::kDrop;
      if (n.is_drop) n.reason = std::string(detail_value(r.detail, "reason"));
      frames[{std::move(type), parse_pid(detail_value(r.detail, "src")),
              parse_pid(detail_value(r.detail, "dst"))}]
          .push_back(std::move(n));
    }
  }

  a.attacks = markers.size();

  // Match each marker greedily in trace order, consuming evidence so N
  // identical attacks demand N independent pieces of evidence. Mutates
  // are only classified here; their evidence is resolved in a second
  // pass below, which needs the full per-key marker set at once.
  std::map<FrameKey, std::vector<std::size_t>> mutate_idx;
  for (const Marker& m : markers) {
    AuditFinding f;
    f.fault_id = m.fault_id;
    f.at_us = m.at;

    auto claim_tamper = [&](const char* verdict,
                            auto&& match) -> TamperRec* {
      for (TamperRec& t : tampers) {
        if (t.used || t.what != verdict || t.at < m.at) continue;
        if (!match(t)) continue;
        t.used = true;
        return &t;
      }
      return nullptr;
    };

    if (m.what == "spoof" || m.what == "replay") {
      f.cls = m.what == "spoof" ? "forged_origin" : "replayed_seq";
      f.attack = m.what + " of " + riv::to_string(m.prov) + " -> p" +
                 std::to_string(m.dst);
      // Device dispatch is synchronous: the verdict lands at the marker
      // instant, at the targeted process, for that exact event.
      if (TamperRec* t = claim_tamper(m.what.c_str(), [&](const TamperRec& t) {
            return t.process == m.dst && t.prov == m.prov;
          })) {
        f.detected = true;
        f.evidence = "rejected by p" + std::to_string(t->process) + " (" +
                     t->what + ", " + fmt_at(t->at) + ")";
      }
    } else if (m.what == "mutate") {
      f.cls = "mutated_payload";
      f.attack = "mutate " + m.type + " p" + std::to_string(m.src) + " -> p" +
                 std::to_string(m.dst);
      mutate_idx[{m.type, m.src, m.dst}].push_back(a.findings.size());
    } else if (m.what == "dup") {
      f.cls = "duplicated_forward";
      f.attack = "duplicate " + m.type + " p" + std::to_string(m.src) +
                 " -> p" + std::to_string(m.dst);
      // Each transmitted copy logs exactly one at-send record (kSend, or
      // kDrop unreachable/edge_loss) at the marker instant; two copies on
      // the wire is the attack's network-visible signature.
      auto it = frames.find({m.type, m.src, m.dst});
      std::size_t copies = 0;
      if (it != frames.end()) {
        for (NetRec& n : it->second) {
          if (n.used || n.at != m.at) continue;
          if (n.is_drop && n.reason != "edge_loss" &&
              n.reason != "unreachable")
            continue;
          n.used = true;
          if (++copies == 2) break;
        }
      }
      if (copies >= 2) {
        f.detected = true;
        f.evidence = "2 copies on the air at " + fmt_at(m.at);
      }
    } else if (m.what == "drop") {
      f.cls = "dropped_by_corrupt_host";
      f.attack = "drop " + m.type + " p" + std::to_string(m.src) + " -> p" +
                 std::to_string(m.dst);
      auto it = frames.find({m.type, m.src, m.dst});
      if (it != frames.end()) {
        for (NetRec& n : it->second) {
          if (n.used || !n.is_drop || n.at != m.at ||
              n.reason != "byzantine")
            continue;
          n.used = true;
          f.detected = true;
          f.evidence = "kDrop reason=byzantine at " + fmt_at(n.at);
          break;
        }
      }
    } else {
      f.cls = "unknown_attack";
      f.attack = m.what;
    }

    a.findings.push_back(std::move(f));
  }

  // Resolve mutate markers per frame key. A bad_mac verdict can ONLY
  // come from a mutated frame (a genuinely sealed frame never fails the
  // MAC), so every verdict belongs to some marker — assign each verdict
  // to the LATEST still-open marker at or before it. Assigning earliest-
  // first instead would let a marker whose frame died in the network
  // swallow a verdict belonging to a later attack, whose own loss drops
  // all lie in the past — misreporting a detected attack as missed.
  for (auto& [key, idxs] : mutate_idx) {
    for (TamperRec& t : tampers) {
      if (t.used || t.what != "bad_mac") continue;
      if (t.process != std::get<2>(key) || t.src != std::get<1>(key) ||
          t.type != std::get<0>(key))
        continue;
      std::size_t* best = nullptr;
      for (std::size_t& i : idxs) {
        if (a.findings[i].detected || a.findings[i].lost) continue;
        if (a.findings[i].at_us > t.at) break;  // idxs are time-ordered
        best = &i;
      }
      if (best == nullptr) continue;  // leave unattributed
      t.used = true;
      AuditFinding& f = a.findings[*best];
      f.detected = true;
      f.evidence = "bad_mac rejected by p" + std::to_string(t.process) +
                   " (" + fmt_at(t.at) + ")";
    }
    // Markers with no verdict: the frame must have died in the simulated
    // network before reaching a receive gate. Claim the matching drop.
    auto fit = frames.find(key);
    for (std::size_t i : idxs) {
      AuditFinding& f = a.findings[i];
      if (f.detected || fit == frames.end()) continue;
      for (NetRec& n : fit->second) {
        if (n.used || !n.is_drop || n.at < f.at_us) continue;
        if (n.reason != "edge_loss" && n.reason != "unreachable" &&
            n.reason != "in_flight")
          continue;
        n.used = true;
        f.lost = true;
        f.evidence = "frame lost in network (" + n.reason + ", " +
                     fmt_at(n.at) + ")";
        break;
      }
    }
  }

  for (const AuditFinding& f : a.findings) {
    if (f.detected) {
      ++a.detected;
      ++a.by_class[f.cls];
    } else if (f.lost) {
      ++a.lost;
    } else {
      ++a.missed;
    }
  }

  // Whatever detector evidence is left matched no injected attack.
  for (const TamperRec& t : tampers) {
    if (t.used) continue;
    std::string d = "tamper " + t.what + " at p" + std::to_string(t.process) +
                    " (" + fmt_at(t.at) + ")";
    if (t.prov.valid()) d += " event " + riv::to_string(t.prov);
    if (!t.type.empty())
      d += " frame " + t.type + " from p" + std::to_string(t.src);
    a.unattributed.push_back(std::move(d));
  }
  for (const auto& [key, recs] : frames) {
    for (const NetRec& n : recs) {
      if (n.used || !n.is_drop || n.reason != "byzantine") continue;
      a.unattributed.push_back(
          "kDrop reason=byzantine " + std::get<0>(key) + " p" +
          std::to_string(std::get<1>(key)) + " -> p" +
          std::to_string(std::get<2>(key)) + " (" + fmt_at(n.at) + ")");
    }
  }
  return a;
}

std::string render(const Audit& a) {
  std::string out = "== integrity audit ==\n";
  out += "records:  " + std::to_string(a.n_records) + "\n";
  out += "attacks:  " + std::to_string(a.attacks) + " injected; " +
         std::to_string(a.detected) + " detected, " +
         std::to_string(a.lost) + " lost in network, " +
         std::to_string(a.missed) + " missed\n";
  if (!a.by_class.empty()) {
    out += "by class:\n";
    for (const auto& [cls, n] : a.by_class)
      out += "  " + cls + ": " + std::to_string(n) + "\n";
  }
  for (const AuditFinding& f : a.findings) {
    out += "[" + f.cls + "] fault id=" + std::to_string(f.fault_id) + " " +
           fmt_at(f.at_us) + ": " + f.attack + "\n";
    if (f.detected || f.lost)
      out += "    " + f.evidence + "\n";
    else
      out += "    MISSED: no detector evidence in trace\n";
  }
  if (!a.unattributed.empty()) {
    out += "unattributed detector evidence (" +
           std::to_string(a.unattributed.size()) + "):\n";
    for (const std::string& u : a.unattributed) out += "  " + u + "\n";
  }
  out += a.all_accounted()
             ? "verdict:  all attacks accounted for\n"
             : "verdict:  AUDIT FAILED\n";
  return out;
}

std::string render_json(const Audit& a) {
  std::string out = "{";
  out += "\"records\":" + std::to_string(a.n_records);
  out += ",\"attacks\":" + std::to_string(a.attacks);
  out += ",\"detected\":" + std::to_string(a.detected);
  out += ",\"lost\":" + std::to_string(a.lost);
  out += ",\"missed\":" + std::to_string(a.missed);
  out += ",\"by_class\":{";
  bool first = true;
  for (const auto& [cls, n] : a.by_class) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(cls) + "\":" + std::to_string(n);
  }
  out += "},\"findings\":[";
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    const AuditFinding& f = a.findings[i];
    if (i > 0) out += ',';
    out += "{\"class\":\"" + json_escape(f.cls) + "\"";
    out += ",\"fault_id\":" + std::to_string(f.fault_id);
    out += ",\"at_us\":" + std::to_string(f.at_us);
    out += ",\"attack\":\"" + json_escape(f.attack) + "\"";
    out += ",\"detected\":" + std::string(f.detected ? "true" : "false");
    out += ",\"lost\":" + std::string(f.lost ? "true" : "false");
    out += ",\"evidence\":\"" + json_escape(f.evidence) + "\"}";
  }
  out += "],\"unattributed\":[";
  for (std::size_t i = 0; i < a.unattributed.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + json_escape(a.unattributed[i]) + '"';
  }
  out += "],\"ok\":" + std::string(a.all_accounted() ? "true" : "false");
  out += "}";
  return out;
}

CheckResult check(const Audit& a) {
  CheckResult r;
  for (const AuditFinding& f : a.findings) {
    if (f.detected || f.lost) continue;
    r.problems.push_back("undetected attack: [" + f.cls + "] fault id=" +
                         std::to_string(f.fault_id) + " " + f.attack);
  }
  for (const std::string& u : a.unattributed)
    r.problems.push_back("unattributed detector evidence: " + u);
  r.ok = r.problems.empty();
  return r;
}

}  // namespace riv::trace
