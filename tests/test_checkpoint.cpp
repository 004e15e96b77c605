// Checkpoint, session clones & time-travel replay, proven correct by
// differential testing.
//
// The correctness contract is "restored ≡ uninterrupted, byte-for-byte,
// traces and hashes included", and every test here is a differential:
//
//   * each blessed golden scenario is run with a mid-run checkpoint, the
//     first run is torn down, the checkpoint is restored from its file,
//     and the restored run's complete trace must be byte-identical to
//     the blessed golden file (same FNV-1a footer);
//   * warm-prefix sweeps over session clones must produce, per seed,
//     exactly the fault trace a from-scratch run of that seed produces,
//     and a clone must re-capture exactly as its source captured;
//   * capture must be a pure function of logical state, pinned against
//     the known sources of incidental divergence (StableStore hash-map
//     iteration, timer cancel order, chunked-vs-monolithic runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "chaos/engine.hpp"
#include "checkpoint/clone.hpp"
#include "checkpoint/rivc.hpp"
#include "checkpoint/scenario.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "sim/simulation.hpp"
#include "sim/stable_store.hpp"
#include "trace/trace.hpp"
#include "workload/deployment.hpp"

#ifndef RIV_TRACE_GOLDEN_DIR
#error "RIV_TRACE_GOLDEN_DIR must point at tests/trace_golden"
#endif

namespace riv {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(RIV_TRACE_GOLDEN_DIR) + "/" + name + ".rivtrace";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Checkpoint halfway through the interesting part of each scenario: past
// the failover crash at 3s for the home runs, mid-plan for chaos.
TimePoint mid_time(const std::string& name) {
  return TimePoint{} + (name == "chaos_flight" ? seconds(6) : seconds(4));
}

std::string chaos_fingerprint(const chaos::ChaosResult& r) {
  return r.trace_digest + " violations=" + std::to_string(r.violations.size()) +
         " faults=" + std::to_string(r.faults_injected) +
         " noop=" + std::to_string(r.faults_noop) +
         " attacks=" + std::to_string(r.byzantine_attacks) +
         " delivered=" + std::to_string(r.delivered) +
         " quiesced=" + (r.quiesced ? "1" : "0");
}

// The first difference between two session captures ("" when they are
// byte-identical): the home images section by section, then the session
// blob.
std::string session_diff(const checkpoint::SessionImage& x,
                         const workload::HomeDeployment& x_home,
                         const checkpoint::SessionImage& y,
                         const workload::HomeDeployment& y_home) {
  checkpoint::Snapshot a;
  a.at = x.home.at;
  a.sections = checkpoint::image_sections(x.home, x_home);
  a.sections.push_back({"chaos.session", x.session});
  checkpoint::Snapshot b;
  b.at = y.home.at;
  b.sections = checkpoint::image_sections(y.home, y_home);
  b.sections.push_back({"chaos.session", y.session});
  return checkpoint::diff_snapshots(a, b);
}

// One golden scenario end-to-end: checkpoint mid-run, prove the
// checkpoint changed nothing, tear that run down, then restore from the
// file and prove the restored run reproduces the blessed golden
// byte-for-byte.
void check_golden_scenario(const std::string& name) {
  SCOPED_TRACE(name);
  trace::Recorder golden;
  std::string err;
  ASSERT_TRUE(trace::Recorder::load(golden_path(name), &golden, &err)) << err;
  const std::uint64_t golden_hash = golden.hash();
  const std::size_t golden_records = golden.size();

  // --- checkpointed run: capture mid-run, then keep going ---------------
  const std::string rivc_path =
      ::testing::TempDir() + "ckpt_" + name + ".rivc";
  {
    std::unique_ptr<checkpoint::Scenario> sc =
        checkpoint::make_golden_scenario(name);
    ASSERT_NE(sc, nullptr);
    sc->start();
    sc->run_to(mid_time(name));
    checkpoint::Snapshot snap = sc->capture();
    EXPECT_EQ(snap.at, mid_time(name));
    EXPECT_FALSE(snap.sections.empty());
    ASSERT_TRUE(checkpoint::save(snap, rivc_path, &err)) << err;

    sc->run_to(sc->end_time());
    sc->finish();
    // Capturing a checkpoint must be invisible: the interrupted run's
    // full trace still matches the blessed golden exactly.
    EXPECT_EQ(sc->recorder()->hash(), golden_hash);
    EXPECT_EQ(sc->recorder()->size(), golden_records);
  }

  // --- restore from the file alone --------------------------------------
  checkpoint::Snapshot loaded;
  ASSERT_TRUE(checkpoint::load(rivc_path, &loaded, &err)) << err;
  checkpoint::RestoreReport rep = checkpoint::restore(loaded);
  ASSERT_TRUE(rep.ok) << rep.error;
  rep.scenario->run_to(rep.scenario->end_time());
  rep.scenario->finish();
  std::shared_ptr<trace::Recorder> rec = rep.scenario->recorder();
  EXPECT_EQ(rec->digest(), golden.digest());
  EXPECT_EQ(rec->size(), golden_records);
  // The restored run's saved trace is byte-identical to the blessed
  // golden file — identical records, chunking, and FNV-1a footer.
  const std::string trace_path = rivc_path + ".trace";
  ASSERT_TRUE(rec->save(trace_path, &err)) << err;
  const std::string restored_bytes = read_file(trace_path);
  ASSERT_FALSE(restored_bytes.empty());
  EXPECT_EQ(restored_bytes, read_file(golden_path(name)))
      << "restored trace file differs from blessed golden";
  std::remove(rivc_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(CheckpointGolden, GaplessRing) { check_golden_scenario("gapless_ring"); }
TEST(CheckpointGolden, GapChain) { check_golden_scenario("gap_chain"); }
TEST(CheckpointGolden, Failover) { check_golden_scenario("failover"); }
TEST(CheckpointGolden, ChaosFlight) { check_golden_scenario("chaos_flight"); }

// The snapshot layout, pinned: the FNV-1a of each golden scenario's RIVC
// bytes at mid_time. A section whose bytes change without a kRivcVersion
// bump fails here. A deliberate layout change bumps kRivcVersion and
// re-pins; a golden re-bless moves the trace position and re-pins too.
TEST(CheckpointGolden, SnapshotLayoutIsPinned) {
  const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
      {"gapless_ring", 0x33c263ca13be59bdULL},
      {"gap_chain", 0x042480d18cea3fadULL},
      {"failover", 0x7da690edcc89e802ULL},
      {"chaos_flight", 0x0b1909a228573304ULL},
  };
  for (const auto& [name, digest] : pinned) {
    std::unique_ptr<checkpoint::Scenario> sc =
        checkpoint::make_golden_scenario(name);
    sc->start();
    sc->run_to(mid_time(name));
    const std::vector<std::byte> bytes = checkpoint::encode(sc->capture());
    const std::uint64_t got = hash::fnv1a(bytes.data(), bytes.size());
    EXPECT_EQ(got, digest) << name << ": the layout moved; new digest "
                           << hash::fnv1a_digest(got);
  }
}

// A tampered checkpoint must fail the restore attestation with the exact
// divergent section named — the negative control for the equivalences
// above (if this passed, the byte-compares would be vacuous).
TEST(CheckpointGolden, TamperedSectionFailsAttestation) {
  std::unique_ptr<checkpoint::Scenario> sc =
      checkpoint::make_golden_scenario("gapless_ring");
  sc->start();
  sc->run_to(mid_time("gapless_ring"));
  checkpoint::Snapshot snap = sc->capture();
  checkpoint::Section* target = nullptr;
  for (checkpoint::Section& s : snap.sections)
    if (s.name == "proc.1") target = &s;
  ASSERT_NE(target, nullptr);
  ASSERT_FALSE(target->payload.empty());
  target->payload[3] ^= std::byte{0x40};

  checkpoint::RestoreReport rep = checkpoint::restore(snap);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("restore attestation failed"), std::string::npos)
      << rep.error;
  EXPECT_NE(rep.error.find("proc.1"), std::string::npos) << rep.error;
}

// clone-per-seed ≡ fresh-per-seed: N seeds run as clones of one shared
// warm-up, on two worker threads, must produce exactly the fault traces
// and outcomes of N independent from-scratch runs arming the same plans
// at the same time. The plans open corrupt windows, and the seeds are
// picked so the cloned tails reach every path that cancels a restored
// timer: a process crash and recovery and a device crash (cancel by
// owner), and a logic demotion (cancel by id) — asserted below.
TEST(CheckpointClone, ClonePerSeedMatchesFreshRuns) {
  const Duration warmup = seconds(2);
  const std::vector<std::uint64_t> seeds = {202, 404, 505};
  auto make_options = [] {
    chaos::EngineOptions opt;
    opt.scenario.seed = 11;
    opt.scenario.n_processes = 3;
    opt.plan.horizon = seconds(8);
    opt.plan.corrupt_process = true;
    opt.defer_plan = true;
    return opt;
  };

  std::vector<std::string> fresh;
  std::string fault_lines;
  std::uint64_t demotions = 0;
  for (std::uint64_t seed : seeds) {
    chaos::ChaosSession session(make_options());
    session.run_to(TimePoint{} + warmup);
    session.arm_plan(seed, warmup);
    session.run_to(session.run_end());
    chaos::ChaosResult r;
    session.finish(r);
    fresh.push_back(chaos_fingerprint(r));
    for (const std::string& line : r.trace) fault_lines += line + "\n";
    demotions += session.home().metrics().counter_value("app1.demotions");
  }
  EXPECT_NE(fault_lines.find(" crash p"), std::string::npos);
  EXPECT_NE(fault_lines.find(" recover p"), std::string::npos);
  EXPECT_NE(fault_lines.find(" device-crash "), std::string::npos);
  EXPECT_NE(fault_lines.find(" corrupt-begin "), std::string::npos);
  EXPECT_GT(demotions, 0u);

  checkpoint::SessionImage img;
  {
    chaos::ChaosSession shared(make_options());
    shared.run_to(TimePoint{} + warmup);
    checkpoint::capture_session(shared, img);
  }
  std::vector<std::string> cloned = parallel_map<std::string>(
      2, seeds.size(), [&img, &seeds, warmup](std::size_t i) {
        std::unique_ptr<chaos::ChaosSession> s =
            checkpoint::clone_session(img);
        s->arm_plan(seeds[i], warmup);
        s->run_to(s->run_end());
        chaos::ChaosResult r;
        s->finish(r);
        return chaos_fingerprint(r);
      });

  ASSERT_EQ(cloned.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i)
    EXPECT_EQ(cloned[i], fresh[i]) << "seed " << seeds[i];
}

// A clone re-captured before it runs equals its source byte for byte:
// the home's image (the kernel's timer list included, so the checker's
// restored tick has its original identity) and the session blob
// (injector cursors, checks run, invariant cursors, tick). The session
// is Byzantine-defended, so the stateful NoForgedActuation cursor and
// the integrity layer's device state are part of the round trip.
TEST(CheckpointClone, SessionCloneRecapturesIdentically) {
  chaos::EngineOptions opt;
  opt.scenario.seed = 5;
  opt.plan.spoof_events = true;
  opt.plan.replay_events = true;
  opt.defer_plan = true;
  chaos::ChaosSession source(opt);
  source.run_to(TimePoint{} + milliseconds(4300));  // eight checker ticks

  checkpoint::SessionImage img;
  checkpoint::capture_session(source, img);
  std::unique_ptr<chaos::ChaosSession> clone = checkpoint::clone_session(img);
  EXPECT_FALSE(clone->plan_armed());
  checkpoint::SessionImage again;
  checkpoint::capture_session(*clone, again);

  EXPECT_EQ(session_diff(img, source.home(), again, clone->home()), "");

  // The clone runs on exactly like its source.
  source.run_to(TimePoint{} + seconds(8));
  clone->run_to(TimePoint{} + seconds(8));
  checkpoint::SessionImage src_later, clone_later;
  checkpoint::capture_session(source, src_later);
  checkpoint::capture_session(*clone, clone_later);
  EXPECT_EQ(session_diff(src_later, source.home(), clone_later, clone->home()),
            "");
}

// An armed session clones like any other: the plan is regenerated from
// its seed and the kernel restores the pending actions. The capture falls
// mid-plan in a Byzantine-defended run — actions have fired, more are
// pending, p3's corrupt window (3.48 s to 7.29 s) is open and p2 is down
// (2.79 s to 6.36 s).
TEST(CheckpointClone, ArmedSessionCloneRecapturesIdentically) {
  chaos::EngineOptions opt;
  opt.scenario.seed = 4;
  opt.scenario.n_processes = 3;
  opt.plan.horizon = seconds(10);
  opt.plan.partitions = false;
  opt.plan.asym_partitions = false;
  opt.plan.delay_spikes = false;
  opt.plan.edge_loss = false;
  opt.plan.device_link_loss = false;
  opt.plan.device_crashes = false;
  opt.plan.spoof_events = true;
  opt.plan.replay_events = true;
  opt.plan.corrupt_process = true;

  chaos::ChaosResult uninterrupted = chaos::ChaosEngine(opt).run();

  chaos::ChaosSession source(opt);
  source.run_to(TimePoint{} + seconds(5));
  checkpoint::SessionImage img;
  checkpoint::capture_session(source, img);
  std::unique_ptr<chaos::ChaosSession> clone = checkpoint::clone_session(img);
  EXPECT_TRUE(clone->plan_armed());
  EXPECT_FALSE(source.home().process(1).up());
  std::string fault_lines;
  for (const std::string& line : source.fault_trace().lines())
    fault_lines += line + "\n";
  EXPECT_NE(fault_lines.find(" corrupt-begin p3"), std::string::npos);
  EXPECT_EQ(fault_lines.find(" corrupt-end"), std::string::npos);  // pending
  checkpoint::SessionImage again;
  checkpoint::capture_session(*clone, again);
  EXPECT_EQ(session_diff(img, source.home(), again, clone->home()), "");

  chaos::ChaosResult from_source;
  source.run_to(source.run_end());
  source.finish(from_source);
  chaos::ChaosResult from_clone;
  clone->run_to(clone->run_end());
  clone->finish(from_clone);
  EXPECT_GT(from_source.byzantine_attacks, 0u);
  EXPECT_EQ(chaos_fingerprint(from_clone), chaos_fingerprint(from_source));
  EXPECT_EQ(chaos_fingerprint(from_source), chaos_fingerprint(uninterrupted));
}

// The clone constructor checks the blob itself: a blob with a tampered
// byte is rejected.
TEST(CheckpointCloneDeathTest, CloningATamperedBlobAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  chaos::EngineOptions opt;
  opt.scenario.n_processes = 3;
  opt.defer_plan = true;
  checkpoint::SessionImage img;
  {
    chaos::ChaosSession warm(opt);
    warm.run_to(TimePoint{} + seconds(2));
    checkpoint::capture_session(warm, img);
  }
  checkpoint::SessionImage tampered = img;
  tampered.session.back() ^= std::byte{1};
  EXPECT_DEATH(checkpoint::clone_session(tampered), "malformed session blob");
}

TEST(CheckpointRivc, EncodeDecodeRoundTrips) {
  std::unique_ptr<checkpoint::Scenario> sc =
      checkpoint::make_golden_scenario("gap_chain");
  sc->start();
  sc->run_to(mid_time("gap_chain"));
  checkpoint::Snapshot snap = sc->capture();

  std::vector<std::byte> wire = checkpoint::encode(snap);
  checkpoint::Snapshot back;
  std::string err;
  ASSERT_TRUE(checkpoint::decode(wire, &back, &err)) << err;
  EXPECT_EQ(checkpoint::diff_snapshots(snap, back), "");
  EXPECT_EQ(back.scenario, "gap_chain");
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.at, snap.at);
  EXPECT_EQ(back.trace_hash, snap.trace_hash);
  ASSERT_NE(back.find("sim.kernel"), nullptr);
  ASSERT_NE(back.find("net.wifi"), nullptr);
  ASSERT_NE(back.find("bus.devices"), nullptr);
  ASSERT_NE(back.find("proc.1"), nullptr);
  EXPECT_EQ(back.find("nonexistent"), nullptr);
  // Re-encoding the decoded snapshot is byte-identical (canonical form).
  EXPECT_EQ(checkpoint::encode(back), wire);
}

// A RIVC file re-encoded under a fresh footer decodes whatever its params
// blob says, so each field is outside input: an out-of-range one must be
// refused before a deployment is built from it. Unchecked, n_processes 0
// trips an assert, 70,000 overflows the 16-bit ProcessId and
// check_interval 0 re-arms the checker at the same instant forever.
TEST(CheckpointRivc, OutOfRangeChaosParamsAreRejected) {
  chaos::EngineOptions base;
  base.scenario.seed = 7;
  base.plan.horizon = seconds(10);
  std::unique_ptr<checkpoint::Scenario> sc =
      checkpoint::make_chaos_scenario(base);
  sc->start();
  sc->run_to(TimePoint{} + seconds(1));
  const checkpoint::Snapshot captured = sc->capture();
  auto reload = [&captured](std::vector<std::byte> params) {
    checkpoint::Snapshot snap = captured;
    snap.params = std::move(params);
    checkpoint::Snapshot back;
    std::string err;
    EXPECT_TRUE(checkpoint::decode(checkpoint::encode(snap), &back, &err))
        << err;
    return back;
  };
  std::string err;
  EXPECT_NE(checkpoint::scenario_from_snapshot(reload(captured.params), &err),
            nullptr)
      << err;

  const std::vector<void (*)(chaos::EngineOptions&)> mutations = {
      [](chaos::EngineOptions& o) { o.check_interval = Duration{}; },
      [](chaos::EngineOptions& o) { o.scenario.n_processes = 0; },
      [](chaos::EngineOptions& o) { o.scenario.n_processes = 70'000; },
      [](chaos::EngineOptions& o) {
        o.scenario.guarantee = static_cast<appmodel::Guarantee>(9);
      },
      [](chaos::EngineOptions& o) { o.scenario.device_link_loss = -3.0; },
  };
  std::vector<std::vector<std::byte>> bad;
  for (auto mutate : mutations) {
    chaos::EngineOptions o = base;
    mutate(o);
    bad.push_back(checkpoint::encode_chaos_params(o));
  }
  // A flag byte must be 0 or 1: find the crashes flag by flipping it.
  chaos::EngineOptions no_crashes = base;
  no_crashes.plan.crashes = false;
  const std::vector<std::byte> on = checkpoint::encode_chaos_params(base);
  std::vector<std::byte> two = checkpoint::encode_chaos_params(no_crashes);
  const auto at = std::mismatch(on.begin(), on.end(), two.begin()).first;
  ASSERT_NE(at, on.end());
  two[static_cast<std::size_t>(at - on.begin())] = std::byte{2};
  bad.push_back(std::move(two));

  for (std::size_t i = 0; i < bad.size(); ++i) {
    err.clear();
    EXPECT_EQ(checkpoint::scenario_from_snapshot(reload(bad[i]), &err),
              nullptr)
        << "case " << i;
    EXPECT_EQ(err, "bad chaos-scenario params blob") << "case " << i;
  }
}

// Restore re-executes to the time a file names, so a hostile file could
// ask for years of simulation or a time before the start. Both are refused
// with one pinned error before the scenario starts.
TEST(CheckpointRivc, SnapshotTimeOutsideTheScenarioIsRejected) {
  chaos::EngineOptions base;
  base.scenario.seed = 7;
  base.plan.horizon = seconds(10);
  std::unique_ptr<checkpoint::Scenario> sc =
      checkpoint::make_chaos_scenario(base);
  sc->start();
  sc->run_to(TimePoint{} + seconds(1));
  const checkpoint::Snapshot captured = sc->capture();
  const TimePoint end = sc->end_time();
  for (TimePoint at : {end + seconds(3), TimePoint{} + seconds(-5)}) {
    checkpoint::Snapshot snap = captured;
    snap.at = at;
    checkpoint::Snapshot back;
    std::string err;
    ASSERT_TRUE(checkpoint::decode(checkpoint::encode(snap), &back, &err))
        << err;
    const checkpoint::RestoreReport rep = checkpoint::restore(back);
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.error, "snapshot time outside the scenario's run") << at.us;
    EXPECT_EQ(rep.scenario, nullptr);
  }
}

TEST(CheckpointRivc, DiffNamesFirstDivergentSectionAndByte) {
  checkpoint::Snapshot a;
  a.scenario = "x";
  a.sections.push_back(
      {"sim.kernel", {std::byte{1}, std::byte{2}, std::byte{3}}});
  a.sections.push_back(
      {"proc.2", {std::byte{9}, std::byte{8}, std::byte{7}}});
  checkpoint::Snapshot b = a;
  EXPECT_EQ(checkpoint::diff_snapshots(a, b), "");
  b.sections[1].payload[1] = std::byte{0x3b};
  const std::string diff = checkpoint::diff_snapshots(a, b);
  EXPECT_NE(diff.find("proc.2"), std::string::npos) << diff;
  EXPECT_NE(diff.find("byte 1"), std::string::npos) << diff;
  b = a;
  b.trace_hash = 1;
  EXPECT_NE(checkpoint::diff_snapshots(a, b).find("trace hash"),
            std::string::npos);
}

// Two independent runs of the same scenario, captured at the same virtual
// time, must serialize byte-identically — capture is a pure function of
// logical state with no incidental layout leaking through.
TEST(CheckpointDeterminismPins, CaptureIsAPureFunctionOfState) {
  auto capture_at_mid = [] {
    std::unique_ptr<checkpoint::Scenario> sc =
        checkpoint::make_golden_scenario("failover");
    sc->start();
    sc->run_to(mid_time("failover"));
    return checkpoint::encode(sc->capture());
  };
  EXPECT_EQ(capture_at_mid(), capture_at_mid());
}

// Running to T in several uneven chunks (how a checkpointing run crosses
// T) must capture exactly what one monolithic run_to(T) captures.
TEST(CheckpointDeterminismPins, ChunkedRunEqualsMonolithicRun) {
  auto capture_at_end = [](bool chunked) {
    std::unique_ptr<checkpoint::Scenario> sc =
        checkpoint::make_golden_scenario("failover");
    sc->start();
    if (chunked) {
      sc->run_to(TimePoint{} + milliseconds(1234));
      sc->run_to(TimePoint{} + milliseconds(2500));
      sc->run_to(TimePoint{} + seconds(4));
      sc->run_to(TimePoint{} + milliseconds(7001));
    }
    sc->run_to(TimePoint{} + seconds(8));
    return checkpoint::encode(sc->capture());
  };
  EXPECT_EQ(capture_at_end(true), capture_at_end(false));
}

// StableStore is the one unordered container on a state-affecting path:
// its serialization must not depend on insertion order or rehash history
// (the sort in clone_state is load-bearing).
TEST(CheckpointDeterminismPins, StableStoreOrder) {
  auto value = [](int i) {
    return std::vector<std::byte>{std::byte(i), std::byte(i / 7)};
  };
  sim::StableStore ascending;
  for (int i = 0; i < 40; ++i)
    ascending.put("key/" + std::to_string(i), value(i));
  sim::StableStore descending;
  // Different insertion order plus churn: extra keys inserted and erased
  // to perturb the hash map's bucket/rehash history.
  for (int i = 0; i < 64; ++i)
    descending.put("churn/" + std::to_string(i), value(i));
  for (int i = 39; i >= 0; --i)
    descending.put("key/" + std::to_string(i), value(i));
  for (int i = 0; i < 64; ++i) descending.erase("churn/" + std::to_string(i));

  BinaryWriter wa, wb;
  ascending.clone_state(wa);
  descending.clone_state(wb);
  EXPECT_EQ(wa.take(), wb.take());
}

// Cancelling timers in different orders leaves different slab/free-list
// layouts behind; the kernel's capture must not see any of it.
TEST(CheckpointDeterminismPins, TimerCancelOrderIndependence) {
  auto capture = [](bool swap_cancel_order) {
    sim::Simulation sim(7);
    sim::TimerId keep1 = sim.schedule_after(seconds(10), [] {});
    sim::TimerId victim1 = sim.schedule_after(seconds(20), [] {});
    sim::TimerId victim2 = sim.schedule_after(seconds(30), [] {});
    sim::TimerId keep2 = sim.schedule_after(seconds(40), [] {});
    (void)keep1;
    (void)keep2;
    if (swap_cancel_order) {
      sim.cancel(victim2);
      sim.cancel(victim1);
    } else {
      sim.cancel(victim1);
      sim.cancel(victim2);
    }
    sim.run_for(seconds(1));
    BinaryWriter w;
    sim.clone_state(w);
    return w.take();
  };
  EXPECT_EQ(capture(false), capture(true));
}

}  // namespace
}  // namespace riv
