// Property-based tests: seeded, reproducible fault schedules checking the
// paper's core invariants across many executions. The fault schedules come
// from the chaos engine (src/chaos) — a FaultPlan is a pure function of
// its seed, the engine injects it, continuously evaluates invariants, and
// drains the home to quiescence before the exact end-state checks. Any
// failure here reproduces with
//   chaos_run --seed <seed> ... (the engine prints the knobs it used).
//
//   Gapless invariant (§4.1): every event received by at least one
//   process that stays correct is eventually delivered to an active logic
//   node, across link loss, crashes with recovery, partitions (symmetric
//   and one-directional), delay spikes, and device faults.
//
//   Gap invariant (§4.2): no logic instance is ever fed the same event
//   twice; under single-view fault mixes the home-wide delivery count
//   never exceeds the emission count.
//
//   Execution invariant (§5): after faults stop and views converge,
//   exactly one logic node is active.
#include <gtest/gtest.h>

#include <memory>

#include "chaos/engine.hpp"
#include "common/rng.hpp"
#include "workload/apps.hpp"
#include "workload/deployment.hpp"

namespace riv {
namespace {

using workload::HomeDeployment;

constexpr AppId kApp{1};
constexpr SensorId kDoor{1};
constexpr ActuatorId kLight{1};

// No padding: gtest names each case after the parameter's bytes.
struct FaultCase {
  std::uint64_t seed;
  double link_loss;
  int n_processes;
  int receivers;
};
static_assert(sizeof(FaultCase) ==
              sizeof(std::uint64_t) + sizeof(double) + 2 * sizeof(int));

void print_case(const FaultCase& c) {
  SCOPED_TRACE(::testing::Message()
               << "seed=" << c.seed << " loss=" << c.link_loss
               << " n=" << c.n_processes << " m=" << c.receivers);
}

chaos::EngineOptions engine_options(const FaultCase& c,
                                    appmodel::Guarantee g) {
  chaos::EngineOptions opt;
  opt.scenario.seed = c.seed;
  opt.scenario.guarantee = g;
  opt.scenario.n_processes = c.n_processes;
  opt.scenario.receivers = c.receivers;
  opt.scenario.device_link_loss = c.link_loss;
  opt.plan.horizon = seconds(30);  // keeps each case well under a second
  return opt;
}

// Every violation becomes its own test failure, timestamped and tied to
// the seed via print_case — no slack, no aggregate assertion.
void expect_clean(const chaos::ChaosResult& r) {
  EXPECT_TRUE(r.quiesced) << "drain did not reach quiescence";
  for (const chaos::Violation& v : r.violations)
    ADD_FAILURE() << chaos::to_string(v);
}

class GaplessChaos : public ::testing::TestWithParam<FaultCase> {};

// Full fault mix: crashes, symmetric and asymmetric partitions, delay
// spikes, edge loss, device-link-loss ramps, device crashes.
TEST_P(GaplessChaos, EveryIngestedEventEventuallyDelivered) {
  FaultCase c = GetParam();
  print_case(c);
  chaos::ChaosEngine engine(engine_options(c, appmodel::Guarantee::kGapless));
  chaos::ChaosResult r = engine.run();
  expect_clean(r);
  // Post-ingest guarantee, exact: everything that reached at least one
  // process was delivered to an active logic node at least once.
  EXPECT_GE(r.delivered, r.ingested);
  EXPECT_GT(r.ingested, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Chaos, GaplessChaos,
    ::testing::Values(FaultCase{101, 0.0, 3, 3}, FaultCase{102, 0.1, 3, 2},
                      FaultCase{103, 0.3, 5, 3}, FaultCase{104, 0.0, 5, 5},
                      FaultCase{105, 0.5, 4, 4}, FaultCase{106, 0.2, 2, 2},
                      FaultCase{107, 0.4, 5, 2}, FaultCase{108, 0.1, 4, 1}));

class GapChaos : public ::testing::TestWithParam<FaultCase> {};

// Crash/recover + device faults only (no partitions or network
// degradation): views never split, so exactly one logic node is active at
// any instant and the home-wide delivered ≤ emitted bound is sound. The
// engine checks it continuously via the NoOverDelivery invariant on top
// of the per-instance duplicate check it always runs.
TEST_P(GapChaos, NeverDeliversMoreThanEmitted) {
  FaultCase c = GetParam();
  print_case(c);
  chaos::EngineOptions opt = engine_options(c, appmodel::Guarantee::kGap);
  opt.plan.partitions = false;
  opt.plan.asym_partitions = false;
  opt.plan.delay_spikes = false;
  opt.plan.edge_loss = false;
  chaos::ChaosEngine engine(opt);
  engine.add_invariant(std::make_unique<chaos::NoOverDelivery>());
  chaos::ChaosResult r = engine.run();
  expect_clean(r);
  EXPECT_LE(r.delivered, r.emitted);
}

INSTANTIATE_TEST_SUITE_P(
    Chaos, GapChaos,
    ::testing::Values(FaultCase{201, 0.0, 3, 3}, FaultCase{202, 0.2, 4, 2},
                      FaultCase{203, 0.5, 5, 4}, FaultCase{204, 0.1, 2, 1},
                      FaultCase{205, 0.3, 5, 5}));

// Gap under the full fault mix, including asymmetric partitions: the
// home-wide bound no longer applies (two logic nodes can be legitimately
// active while views disagree) but the per-instance no-duplicate and
// converged single-active invariants must still hold.
TEST_P(GapChaos, NoDuplicatesUnderPartitions) {
  FaultCase c = GetParam();
  print_case(c);
  chaos::ChaosEngine engine(engine_options(c, appmodel::Guarantee::kGap));
  chaos::ChaosResult r = engine.run();
  expect_clean(r);
}

class PartitionChaos : public ::testing::TestWithParam<std::uint64_t> {};

// Direct deployment-level test (no engine): repeated random symmetric
// splits, then HomeDeployment::drain_to_quiescence and EXACT convergence
// assertions — every live log identical, delivery covers ingest, one
// active logic node.
TEST_P(PartitionChaos, GaplessConvergesAfterRepeatedPartitions) {
  const std::uint64_t seed = GetParam();
  HomeDeployment::Options opt;
  opt.seed = seed;
  opt.n_processes = 4;
  HomeDeployment home(opt);
  devices::SensorSpec spec;
  spec.id = kDoor;
  spec.name = "door";
  spec.kind = devices::SensorKind::kDoor;
  spec.tech = devices::Technology::kIp;
  spec.rate_hz = 10.0;
  devices::LinkParams link;
  link.loss_prob = 0.1;
  home.add_sensor(spec, {home.pid(0), home.pid(1)}, link);
  devices::ActuatorSpec light;
  light.id = kLight;
  light.name = "light";
  light.tech = devices::Technology::kIp;
  home.add_actuator(light, {home.pid(0)});
  home.deploy(workload::apps::turn_light_on_off(
      kApp, kDoor, kLight, appmodel::Guarantee::kGapless));
  home.start();

  Rng rng(seed ^ 0x9e3779b9);
  for (int round = 0; round < 4; ++round) {
    home.run_for(seconds(8));
    std::set<ProcessId> a, b;
    for (int i = 0; i < 4; ++i) {
      (rng.bernoulli(0.5) ? a : b).insert(home.pid(i));
    }
    if (a.empty() || b.empty()) continue;
    home.net().set_partition({a, b});
    home.run_for(seconds(8));
    home.net().heal_partition();
  }
  ASSERT_TRUE(home.drain_to_quiescence());

  std::uint64_t ingested_anywhere = 0;
  for (int i = 0; i < 4; ++i) {
    ingested_anywhere = std::max(
        ingested_anywhere,
        home.metrics().counter_value(
            "ingest.p" + std::to_string(i + 1) + ".s1"));
  }
  EXPECT_GE(home.metrics().counter_value("app1.delivered"),
            ingested_anywhere);

  // All live logs converge to exactly the same event-set size.
  std::size_t max_log = 0;
  for (int i = 0; i < 4; ++i) {
    max_log = std::max(max_log, home.process(i).event_log(kApp)->size(kDoor));
  }
  EXPECT_GT(max_log, 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(home.process(i).event_log(kApp)->size(kDoor), max_log)
        << "process " << i << " did not converge";
  }

  int actives = 0;
  for (int i = 0; i < 4; ++i) actives += home.process(i).logic_active(kApp);
  EXPECT_EQ(actives, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionChaos,
                         ::testing::Values(301, 302, 303, 304, 305, 306));

}  // namespace
}  // namespace riv
