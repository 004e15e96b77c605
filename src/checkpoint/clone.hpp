// Warm snapshot clones: restore a captured home directly, no re-execution.
//
// Every pending timer is data (DESIGN.md §9), so the kernel's clone blob
// carries the whole schedule and restores it itself; every other
// component lists its own data, payloads in flight included, once, in one
// state function that clone_state (capture) and restore_clone both run
// (DESIGN.md §16, common/codec.hpp). The target must be a
// freshly built, never-started deployment with the same identity (same
// HomeSpec / builder calls, hence the same timer owners registered in the
// same order); apply_warm_home() then overwrites its state in one pass
// and the clone continues exactly where the source stood.
//
// The same blobs are the sections of a RIVC checkpoint (image_sections),
// which restores by attested re-execution instead (checkpoint/scenario.hpp)
// because a flight trace's prefix is part of that contract and no section
// carries it.
//
// A chaos session clones too (capture_session / clone_session), armed
// or not: its blob carries the plan's seed and offset, the fault trace so
// far, the invariant checker's state and the injector's cursors; the
// plan itself is regenerated from its seed. Warm-prefix sweeps (chaos_run
// --fork-sweep, bench_kernel) clone one warmed session per plan seed and
// run the tails over parallel_map.
//
// Correctness is attested by *sampling*: attest_clone() re-captures the
// restored clone and diffs it against the image section by section (the
// fleet runs this on the observe.cpp hash-threshold-sampled subset, not on
// every clone). Capture and restore read one field list, so the round
// trip checks what only restore does (rebuilt indexes and views, the
// re-created shell); a field no state function names is invisible to it,
// and the warm ≡ cold gates cover behaviour.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chaos/engine.hpp"
#include "checkpoint/rivc.hpp"
#include "common/time.hpp"

namespace riv::workload {
class HomeDeployment;
}

namespace riv::checkpoint {

// One captured home, held entirely in memory. Buffers are reused across
// capture calls (clear() keeps capacity) so a shard warming many homes
// allocates its scratch once.
struct WarmImage {
  std::uint64_t seed{0};  // home seed (identity; rejected on mismatch)
  TimePoint at{};         // virtual time of capture
  std::uint32_t n_processes{0};
  std::uint32_t n_sensors{0};
  std::vector<std::byte> kernel;   // Simulation header + live timers
  std::vector<std::byte> metrics;  // shared + per-process registries
  std::vector<std::byte> network;
  std::vector<std::byte> devices;
  std::vector<std::vector<std::byte>> procs;  // one per process, pid order
  // Clones of this image will be attested (attest_clone requires it).
  bool attest{false};

  std::size_t bytes() const;
  void clear();
};

// Does nothing: every deployment can be captured. Kept for callers that
// predate the data timers.
void enable_clone_tracking(workload::HomeDeployment& home);

// Serialize the live deployment into `out` (buffers reused). `seed` is
// the home's identity seed (the caller knows it; HomeDeployment does not
// retain it). with_attest flags the image for later attest_clone() calls.
void capture_warm_home(workload::HomeDeployment& home, std::uint64_t seed,
                       WarmImage& out, bool with_attest);

// The RIVC section view of an image: "sim.kernel", "metrics", "net.wifi",
// "bus.devices", then "proc.<pid>" for each process of `home`, the
// deployment the image was captured from or restored into.
std::vector<Section> image_sections(WarmImage img,
                                    const workload::HomeDeployment& home);

// Restore `img` into `target`, a freshly built, never-started deployment
// of the same identity. Returns false (and sets *error, never touching
// the target's state machine mid-way) when the deployment-level identity
// differs: seed, process count, or sensor count. Deeper structural
// mismatches (diverged builder calls with matching counts) fail hard via
// component-level identity asserts. The kernel restores timers of owners
// outside the home too (a chaos session's checker and injector), so they
// must be registered by then.
bool apply_warm_home(const WarmImage& img, workload::HomeDeployment& target,
                     std::uint64_t seed, std::string* error);

// Sampled background attestation: re-capture the restored clone (before
// it runs) and diff it against the image section by section. Returns ""
// when identical, else the first difference (rivc.hpp diff semantics).
// Requires an image captured with with_attest=true.
std::string attest_clone(const WarmImage& img,
                         workload::HomeDeployment& clone);

// A warmed chaos session, held in memory: the options it was built from,
// the image of its home, and its own clone_state blob.
struct SessionImage {
  chaos::EngineOptions options;
  WarmImage home;
  std::vector<std::byte> session;
};

// Capture `session` at rest. Aborts unless the session can be cloned:
// no metric snapshots (the timeline is not in the image) and no flight
// recorder (a clone cannot carry the trace prefix).
void capture_session(chaos::ChaosSession& session, SessionImage& out);

// Build a fresh session from the image's options and restore the image
// into it: the clone continues exactly where the source stood. Clones of
// one image are independent, so they may run on different threads.
std::unique_ptr<chaos::ChaosSession> clone_session(const SessionImage& img);

}  // namespace riv::checkpoint
