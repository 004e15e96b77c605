// Checkpointable scenarios: the runs RIVC snapshots can name and rebuild.
//
// A Scenario is a named, seeded, parameterized deployment run whose whole
// behaviour is a pure function of (name, seed, params) — the golden-trace
// scenarios and any chaos-engine configuration qualify. Checkpointing one
// is capture(): the deployment's warm-clone image (checkpoint/clone.hpp)
// as named RIVC sections, plus scenario extras and the flight-trace
// position.
//
// restore() is re-execution + attestation, not deserialization: the
// flight trace's prefix is part of the contract and no section carries
// it, so the faithful way back to a mid-run state is to rebuild the
// scenario from its identity, run it deterministically to the snapshot
// time, and then byte-compare a fresh capture against the stored
// sections. A match proves "restored ≡ uninterrupted" for every captured
// layer; a mismatch names the first divergent section and byte. The
// restored scenario is live and can keep running (riv_replay, chaos_run
// --from-checkpoint).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "chaos/engine.hpp"
#include "checkpoint/rivc.hpp"

namespace riv::trace {
class Recorder;
}
namespace riv::workload {
class HomeDeployment;
}

namespace riv::checkpoint {

class Scenario {
 public:
  virtual ~Scenario() = default;

  virtual const std::string& name() const = 0;
  virtual std::uint64_t seed() const = 0;
  // Opaque parameter blob; scenario_from_snapshot() round-trips it.
  virtual std::vector<std::byte> params() const = 0;

  // Build the deployment and start it (virtual time 0). Call once.
  virtual void start() = 0;
  // Advance virtual time to `t`, applying any scripted mid-run actions
  // (e.g. the failover scenario's crash at 3s) that fall inside the
  // window. Chunked calls are equivalent to one big call — the property
  // that makes checkpoint-at-T invisible to the run.
  virtual void run_to(TimePoint t) = 0;
  virtual TimePoint now() = 0;
  // The scenario's natural end (golden runs: 8s; chaos: horizon + 1s).
  virtual TimePoint end_time() const = 0;
  // Finish the run and tear the deployment down; after this the flight
  // recorder holds the complete trace (teardown records included) and
  // summary() describes the outcome. Call once, after the last run_to.
  virtual void finish() = 0;

  virtual std::shared_ptr<riv::trace::Recorder> recorder() const = 0;
  virtual workload::HomeDeployment& home() = 0;
  virtual std::string summary() const = 0;
  // The engine verdict — non-null only for chaos scenarios, after
  // finish() (tools print violations / exit status from it).
  virtual const chaos::ChaosResult* chaos_result() const { return nullptr; }

  // Serialize the current logical state into a snapshot: scenario
  // identity + virtual time + flight-trace position + one section per
  // layer ("sim.kernel", "metrics", "net.wifi", "bus.devices",
  // "proc.<pid>", plus scenario extras such as "chaos.session").
  Snapshot capture();

 protected:
  // Scenario-private sections appended after the deployment's.
  virtual void extra_sections(Snapshot& /*snap*/) {}
};

// The four blessed golden-trace scenarios: "gapless_ring", "gap_chain",
// "failover" (home runs, seed 42), "chaos_flight" (engine run, seed 7).
// Returns null for an unknown name.
std::unique_ptr<Scenario> make_golden_scenario(const std::string& name);

// Any chaos-engine configuration as a scenario named "chaos"; the full
// EngineOptions ride in the params blob. flight is forced on (the trace
// position is part of the checkpoint contract); flight_stream_path is
// NOT round-tripped — a restored run keeps its trace in memory.
std::unique_ptr<Scenario> make_chaos_scenario(chaos::EngineOptions opt);

// Rebuild the scenario a snapshot names, ready for start(). Returns null
// and sets *error for an unknown name or an undecodable params blob.
std::unique_ptr<Scenario> scenario_from_snapshot(const Snapshot& snap,
                                                 std::string* error);

std::vector<std::byte> encode_chaos_params(const chaos::EngineOptions& opt);
// Total over outside bytes: a short or long blob, a flag byte other than
// 0 or 1, or any field chaos::validate rejects fails with the pinned
// "bad chaos-scenario params blob".
bool decode_chaos_params(const std::vector<std::byte>& params,
                         chaos::EngineOptions* out, std::string* error);

struct RestoreReport {
  bool ok{false};
  // On failure: the load/rebuild error, "snapshot time outside the
  // scenario's run", or the attestation mismatch (first divergent section
  // + byte, from diff_snapshots).
  std::string error;
  // The live scenario, positioned exactly at snap.at (set even when the
  // attestation failed, so tools can still inspect the divergent run).
  std::unique_ptr<Scenario> scenario;
};

// Rebuild + re-execute to snap.at + byte-compare against the stored
// sections ("restored ≡ uninterrupted" or the exact first difference).
// A snap.at outside [0, end_time()] is refused before anything runs.
RestoreReport restore(const Snapshot& snap);

}  // namespace riv::checkpoint
