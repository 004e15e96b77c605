// Causal provenance analysis over flight-recorder traces.
//
// Every sensor event carries a ProvenanceId from the moment the device
// emits it, and every pipeline layer stamps that id into its trace
// records. This module reads a recorded trace back and reconstructs, per
// event, the causal chain through the fixed stage pipeline
//
//   generated -> adapter_rx -> ingested -> delivered -> logic_fired
//             -> command_sent -> actuated
//
// from which it derives per-stage ("leg") latency distributions, an
// end-to-end distribution, orphaned events (ingested but never delivered,
// classified by cause: still in flight when the trace ended, or stranded
// on crashed hosts), duplicate deliveries (same event fed twice to the
// same logic incarnation), and fault attribution: tail-latency events
// joined by overlap against the chaos injector's fault records, so a slow
// event can be blamed on the specific fault id that delayed it.
//
// Latency distributions use metrics::Histogram (constant memory, <=6.25%
// relative percentile error), so analysis cost is linear in the trace and
// does not retain per-event samples.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/pid_set.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "metrics/metrics.hpp"
#include "trace/trace.hpp"

namespace riv::trace {

// The canonical pipeline stages, in causal order. A chain need not visit
// every stage (a gap-guarantee event skips fallback machinery; an event
// that merely feeds a window fires no command), but the stages it does
// visit must be time-ordered.
enum class Stage : int {
  kGenerated = 0,    // device emitted the event          (kEmit)
  kAdapterRx = 1,    // a process adapter received it     (kAdapterRx)
  kIngested = 2,     // a delivery stream accepted it     (kIngest)
  kDelivered = 3,    // fed to the active logic node      (kDeliver)
  kLogicFired = 4,   // logic trigger fired with it as cause (kLogicFire)
  kCommandSent = 5,  // actuation command submitted       (kCommand)
  kActuated = 6,     // actuator applied the command      (kActuated)
};
inline constexpr int kStageCount = 7;
const char* to_string(Stage s);

// The reconstructed pipeline of one sensor event. Times are microseconds
// of virtual time; -1 marks a stage the event never reached. `first` is
// the stage's earliest occurrence anywhere in the home, which is the
// causal frontier (later occurrences are replication/failover echoes).
struct Chain {
  ProvenanceId id{};
  std::array<std::int64_t, kStageCount> first_us{};
  std::array<std::uint32_t, kStageCount> count{};
  // Latest record of any stage: the orphan's last activity.
  std::int64_t last_seen_us{0};
  // Every process that ingested the event (orphan classification needs to
  // know whether all of them died).
  PidSet ingest_processes;

  Chain() { first_us.fill(-1); }
  bool reached(Stage s) const {
    return first_us[static_cast<std::size_t>(s)] >= 0;
  }
  std::int64_t at(Stage s) const {
    return first_us[static_cast<std::size_t>(s)];
  }
  // Latest stage timestamp present (-1 for an empty chain).
  std::int64_t last_activity_us() const;
};

// An event that was ingested by at least one delivery stream but never
// reached the active logic node.
struct Orphan {
  ProvenanceId id{};
  std::int64_t last_activity_us{-1};
  // "in_flight_at_end" — last activity within the grace window of the end
  //   of the trace; delivery was plausibly still in progress.
  // "crashed_host"    — every process that ingested it was down when the
  //   trace ended; the event died with its hosts.
  // "unexplained"     — none of the above; a real delivery bug.
  std::string reason;
  bool explained() const { return reason != "unexplained"; }
};

// The same event fed twice to the same (process, app) logic node within
// one promotion epoch — i.e. not a legitimate failover re-delivery.
struct Duplicate {
  ProvenanceId id{};
  ProcessId process{};
  std::uint32_t app{0};
  std::uint32_t deliveries{0};  // within the offending epoch
};

// One fault the chaos injector applied, parsed from its kFault record
// ("id=N <action...>").
struct FaultSpan {
  int fault_id{0};
  std::int64_t at_us{0};
  std::string what;
};

// A chain whose end-to-end latency reached the tail quantile, joined
// against the faults that overlapped its lifetime.
struct TailEvent {
  ProvenanceId id{};
  std::int64_t e2e_us{0};
  std::vector<int> fault_ids;  // empty = slow for no injected reason
};

struct AnalyzeOptions {
  // Orphans whose last activity is within `grace` of the end of the trace
  // are classed in_flight_at_end (traces routinely end mid-convergence).
  Duration grace{seconds(5)};
  // e2e latency at or above this quantile counts as a tail event.
  double tail_quantile{0.99};
  // A fault is blamed for a tail chain when it fired inside
  // [generated - fault_window, last stage] of that chain.
  Duration fault_window{seconds(10)};
};

struct Analysis {
  std::size_t n_records{0};
  std::size_t n_chains{0};
  std::int64_t trace_end_us{0};

  // How many chains reached each stage.
  std::array<std::uint64_t, kStageCount> stage_chains{};
  // Legs: leg[i] is the stage(i-1) -> stage(i) latency over chains that
  // reached both endpoints (leg[0] is unused). Skipped stages do not
  // contribute (the leg spans only adjacent present stages).
  std::array<metrics::Histogram, kStageCount> leg{};
  // generated -> delivered (the latency bench_fig4 measures).
  metrics::Histogram e2e_delivery;
  // generated -> actuated, over chains that closed the full loop.
  metrics::Histogram e2e_full;

  std::vector<Orphan> orphans;
  std::vector<Duplicate> duplicates;
  std::vector<FaultSpan> faults;
  std::vector<TailEvent> tails;

  // Stage first-occurrence ordering violations ("event s1#7: delivered at
  // 1.2s before ingested at 1.3s"). Empty on a causally sound trace.
  std::vector<std::string> ordering_violations;

  std::size_t unexplained_orphans() const;
  int stages_present() const;  // stages reached by at least one chain
};

// Reconstruct chains and derive the full report. Both overloads run the
// same analysis: the first over rendered Records, parsing `app=` and
// `id=` out of each detail; the second over the recorder's packed records
// in place (Recorder::scan), reading the typed app field and rendering
// text only for fault records. On any trace made by the emit sites the
// two reports are identical.
Analysis analyze(const std::vector<Record>& records,
                 const AnalyzeOptions& opt = {});
Analysis analyze(const Recorder& rec, const AnalyzeOptions& opt = {});

// Human-readable report (multi-line, aligned).
std::string render(const Analysis& a);
// Machine-readable JSON document with the same content.
std::string render_json(const Analysis& a);
// `s` as the body of a JSON string: quote and backslash escaped, every
// other control character as \u00XX. The one escaper every JSON writer
// here shares.
std::string json_escape(const std::string& s);

// Health verdict used by CI: a trace passes when it has no unexplained
// orphans, no duplicate deliveries, and no stage-ordering violations.
struct CheckResult {
  bool ok{true};
  std::vector<std::string> problems;
};
CheckResult check(const Analysis& a);

// --- Byzantine integrity audit (DESIGN §12) -----------------------------
//
// The chaos injector stamps every attack it performs with a ground-truth
// kByzantine marker carrying the fault id. The audit walks the trace and
// demands that every marker is accounted for by detector evidence:
//
//   spoof  -> a runtime kTamper("spoof")  rejecting that exact event at
//             the targeted process (MAC over all fields + origin chain);
//   replay -> a runtime kTamper("replay") for that event/process (the
//             per-origin seq history refuses the repeat);
//   mutate -> a kTamper("bad_mac") at the destination for that
//             (type, src) frame — or, when the simulated network ate the
//             frame first, the matching kDrop record (classed `lost`, not
//             missed: the attack never reached a detector);
//   dup    -> >= 2 network records for the (type, src, dst) frame at the
//             marker instant (each transmitted copy logs exactly one);
//   drop   -> the kDrop reason=byzantine record the network logs when the
//             interposer eats a frame.
//
// Evidence is consumed greedily in time order, so N attacks need N pieces
// of evidence. Detector records left over after matching (a kTamper or
// byzantine kDrop with no marker) are reported as unattributed — on a
// clean non-adversarial trace both sides are empty by construction, which
// is what CI's golden audit asserts.

// One injected attack (ground-truth marker) and what the audit found.
struct AuditFinding {
  // forged_origin | replayed_seq | mutated_payload | duplicated_forward |
  // dropped_by_corrupt_host
  std::string cls;
  std::uint64_t fault_id{0};
  std::int64_t at_us{0};   // when the attack was performed
  std::string attack;      // human description of the injected attack
  std::string evidence;    // matched trace evidence (empty when missed)
  bool detected{false};    // an integrity detector rejected/witnessed it
  bool lost{false};        // frame provably died in the network first
};

struct Audit {
  std::size_t n_records{0};
  std::size_t attacks{0};               // ground-truth markers seen
  std::vector<AuditFinding> findings;   // one per marker, trace order
  std::size_t detected{0};
  std::size_t lost{0};
  std::size_t missed{0};                // neither detected nor lost
  // Per-class detected counts, keyed by AuditFinding::cls.
  std::map<std::string, std::size_t> by_class;
  // Detector evidence that matched no marker (must be empty: a tamper
  // verdict with no injected cause is either a false positive or an
  // attack the harness does not know about).
  std::vector<std::string> unattributed;
  bool all_accounted() const { return missed == 0 && unattributed.empty(); }
};

// Match every kByzantine marker against detector evidence in the trace.
Audit audit(const std::vector<Record>& records);

std::string render(const Audit& a);
std::string render_json(const Audit& a);

// CI verdict: every injected attack accounted for (detected or provably
// lost in the network) and no unattributed detector evidence.
CheckResult check(const Audit& a);

}  // namespace riv::trace
