// Tests for the causal-provenance analyzer (src/trace/provenance):
// synthetic traces with known shapes exercise chain reconstruction, leg
// latencies, orphan classification, duplicate detection, fault
// attribution and the health check; a live deployment run then proves the
// real emit sites produce a causally sound trace end-to-end.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fleet/campaign.hpp"
#include "fleet/fleet.hpp"
#include "trace/provenance.hpp"
#include "trace/trace.hpp"
#include "workload/apps.hpp"
#include "workload/deployment.hpp"

namespace riv {
namespace {

using namespace riv::trace;

Record rec(std::int64_t us, std::uint16_t pid, Component c, Kind k,
           ProvenanceId prov, std::string detail) {
  return Record{TimePoint{us}, ProcessId{pid}, c, k, prov,
                std::move(detail)};
}

// One event walking the full pipeline with per-leg gaps of 2..7 µs. All
// legs stay under 16 µs where histogram buckets are exact, so the
// assertions below are equalities, not tolerances.
std::vector<Record> full_pipeline(ProvenanceId id, std::int64_t base) {
  return {
      rec(base + 0, 0, Component::kDevice, Kind::kEmit, id, "event=x"),
      rec(base + 2, 1, Component::kDevice, Kind::kAdapterRx, id,
          "event=x up=1"),
      rec(base + 5, 1, Component::kDelivery, Kind::kIngest, id,
          "app=1 event=x src=device"),
      rec(base + 9, 1, Component::kRuntime, Kind::kDeliver, id,
          "app=1 event=x"),
      rec(base + 14, 1, Component::kRuntime, Kind::kLogicFire, id,
          "app=1 op=light"),
      rec(base + 20, 1, Component::kRuntime, Kind::kCommand, id,
          "cmd=p1!1 actuator=a1"),
      rec(base + 27, 0, Component::kDevice, Kind::kActuated, id,
          "cmd=p1!1 actuator=a1 accepted=1 dup=0"),
  };
}

TEST(ProvenanceAnalyze, ReconstructsChainAndLegLatencies) {
  std::vector<Record> records = full_pipeline(ProvenanceId{1, 1}, 0);
  Analysis a = analyze(records);

  EXPECT_EQ(a.n_chains, 1u);
  EXPECT_EQ(a.stages_present(), kStageCount);
  for (int i = 0; i < kStageCount; ++i)
    EXPECT_EQ(a.stage_chains[static_cast<std::size_t>(i)], 1u);

  // Legs are exactly the constructed gaps (sub-16µs buckets are exact).
  const std::int64_t want[kStageCount] = {0, 2, 3, 4, 5, 6, 7};
  for (int i = 1; i < kStageCount; ++i) {
    ASSERT_EQ(a.leg[static_cast<std::size_t>(i)].count(), 1u) << i;
    EXPECT_EQ(a.leg[static_cast<std::size_t>(i)].percentile(0.5).us,
              want[i])
        << to_string(static_cast<Stage>(i));
  }
  ASSERT_EQ(a.e2e_delivery.count(), 1u);
  EXPECT_EQ(a.e2e_delivery.max().us, 9);
  ASSERT_EQ(a.e2e_full.count(), 1u);
  EXPECT_EQ(a.e2e_full.max().us, 27);

  EXPECT_TRUE(a.orphans.empty());
  EXPECT_TRUE(a.duplicates.empty());
  EXPECT_TRUE(a.ordering_violations.empty());
  EXPECT_TRUE(check(a).ok);
}

TEST(ProvenanceAnalyze, ClassifiesOrphans) {
  AnalyzeOptions opt;
  opt.grace = seconds(5);
  std::vector<Record> records;
  // Orphan 1: ingested one second before the trace ends — in flight.
  records.push_back(rec(seconds(19).us, 1, Component::kDelivery,
                        Kind::kIngest, ProvenanceId{1, 1},
                        "app=1 event=a src=device"));
  // Orphan 2: ingested early, but its only host crashed and stayed down.
  records.push_back(rec(seconds(1).us, 2, Component::kDelivery,
                        Kind::kIngest, ProvenanceId{1, 2},
                        "app=1 event=b src=device"));
  records.push_back(rec(seconds(2).us, 2, Component::kRuntime,
                        Kind::kCrash, ProvenanceId{}, ""));
  // Orphan 3: ingested early, host alive the whole time — a real bug.
  records.push_back(rec(seconds(1).us, 3, Component::kDelivery,
                        Kind::kIngest, ProvenanceId{1, 3},
                        "app=1 event=c src=device"));
  // Push the end of the trace out to t=20s.
  records.push_back(rec(seconds(20).us, 0, Component::kChaos, Kind::kMark,
                        ProvenanceId{}, "end"));

  Analysis a = analyze(records, opt);
  ASSERT_EQ(a.orphans.size(), 3u);
  EXPECT_EQ(a.unexplained_orphans(), 1u);
  for (const Orphan& o : a.orphans) {
    if (o.id == ProvenanceId{1, 1})
      EXPECT_EQ(o.reason, "in_flight_at_end");
    if (o.id == ProvenanceId{1, 2}) EXPECT_EQ(o.reason, "crashed_host");
    if (o.id == ProvenanceId{1, 3}) EXPECT_EQ(o.reason, "unexplained");
  }
  CheckResult cr = check(a);
  EXPECT_FALSE(cr.ok);
  ASSERT_EQ(cr.problems.size(), 1u);
  EXPECT_NE(cr.problems[0].find("unexplained orphan"), std::string::npos);

  // A recovered host is not a crashed host: orphan 2 becomes unexplained.
  records.push_back(rec(seconds(20).us + 1, 2, Component::kRuntime,
                        Kind::kRecover, ProvenanceId{}, ""));
  Analysis b = analyze(records, opt);
  EXPECT_EQ(b.unexplained_orphans(), 2u);
}

// Chains are indexed by hash and sorted once at the end: whatever order
// events first appear in, each id is one chain and orphans come out in
// id order. 3,000 ids force the index to grow past its first table.
TEST(ProvenanceAnalyze, ChainsComeOutInIdOrderWhateverTheTraceOrder) {
  std::vector<Record> records;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    const ProvenanceId id{static_cast<std::uint16_t>(1 + i % 5),
                          (i * 7919u) % 3001u};
    for (std::uint16_t p : {1, 2})
      records.push_back(rec(1000 + i, p, Component::kDelivery, Kind::kIngest,
                            id, "app=1 src=device"));
  }
  records.push_back(rec(seconds(60).us, 0, Component::kChaos, Kind::kMark,
                        ProvenanceId{}, "end"));

  const Analysis a = analyze(records);
  EXPECT_EQ(a.n_chains, 3000u);
  ASSERT_EQ(a.orphans.size(), 3000u);
  for (std::size_t i = 1; i < a.orphans.size(); ++i)
    EXPECT_LT(a.orphans[i - 1].id, a.orphans[i].id) << i;
  for (const Orphan& o : a.orphans) EXPECT_EQ(o.reason, "unexplained");
}

TEST(ProvenanceAnalyze, DetectsDuplicatesWithinOnePromotionEpoch) {
  ProvenanceId id{1, 5};
  std::vector<Record> records;
  records.push_back(rec(100, 1, Component::kRuntime, Kind::kPromote,
                        ProvenanceId{}, "app=1"));
  records.push_back(
      rec(200, 1, Component::kRuntime, Kind::kDeliver, id, "app=1 event=x"));
  // Failover: p2 promoted, re-delivery there is legitimate.
  records.push_back(rec(300, 2, Component::kRuntime, Kind::kPromote,
                        ProvenanceId{}, "app=1"));
  records.push_back(
      rec(400, 2, Component::kRuntime, Kind::kDeliver, id, "app=1 event=x"));
  Analysis clean = analyze(records);
  EXPECT_TRUE(clean.duplicates.empty());

  // Same event again to p2 with no intervening promotion: a duplicate.
  records.push_back(
      rec(500, 2, Component::kRuntime, Kind::kDeliver, id, "app=1 event=x"));
  Analysis dirty = analyze(records);
  ASSERT_EQ(dirty.duplicates.size(), 1u);
  EXPECT_EQ(dirty.duplicates[0].id, id);
  EXPECT_EQ(dirty.duplicates[0].process, ProcessId{2});
  EXPECT_EQ(dirty.duplicates[0].deliveries, 2u);
  EXPECT_FALSE(check(dirty).ok);

  // A promotion between repeats resets the epoch: no duplicate.
  records.pop_back();
  records.push_back(rec(450, 2, Component::kRuntime, Kind::kPromote,
                        ProvenanceId{}, "app=1"));
  records.push_back(
      rec(500, 2, Component::kRuntime, Kind::kDeliver, id, "app=1 event=x"));
  EXPECT_TRUE(analyze(records).duplicates.empty());
}

TEST(ProvenanceAnalyze, AttributesTailLatencyToOverlappingFaults) {
  std::vector<Record> records;
  // Three fast events early on (1 ms e2e each).
  for (std::uint32_t i = 1; i <= 3; ++i) {
    ProvenanceId id{1, i};
    std::int64_t base = static_cast<std::int64_t>(i) * 100000;
    records.push_back(
        rec(base, 0, Component::kDevice, Kind::kEmit, id, "event=f"));
    records.push_back(rec(base + 1000, 1, Component::kRuntime,
                          Kind::kDeliver, id, "app=1 event=f"));
  }
  // One slow event spanning an injected fault: generated at 10s,
  // partition at 15s, finally delivered at 30s.
  ProvenanceId slow{1, 9};
  records.push_back(rec(seconds(10).us, 0, Component::kDevice, Kind::kEmit,
                        slow, "event=s"));
  records.push_back(rec(seconds(15).us, 0, Component::kChaos, Kind::kFault,
                        ProvenanceId{}, "id=3 partition {p1} | {p2 p3}"));
  records.push_back(rec(seconds(30).us, 1, Component::kRuntime,
                        Kind::kDeliver, slow, "app=1 event=s"));

  Analysis a = analyze(records);
  ASSERT_EQ(a.faults.size(), 1u);
  EXPECT_EQ(a.faults[0].fault_id, 3);
  ASSERT_FALSE(a.tails.empty());
  // Tails are sorted slowest-first; the slow chain leads and carries the
  // fault id, while the fast chains (if present at the threshold) do not.
  EXPECT_EQ(a.tails[0].id, slow);
  ASSERT_EQ(a.tails[0].fault_ids.size(), 1u);
  EXPECT_EQ(a.tails[0].fault_ids[0], 3);
  for (std::size_t i = 1; i < a.tails.size(); ++i)
    EXPECT_TRUE(a.tails[i].fault_ids.empty());
}

TEST(ProvenanceAnalyze, FlagsStageOrderingViolations) {
  ProvenanceId id{1, 7};
  std::vector<Record> records;
  records.push_back(
      rec(5000, 1, Component::kRuntime, Kind::kDeliver, id, "app=1 event=x"));
  records.push_back(rec(9000, 1, Component::kDelivery, Kind::kIngest, id,
                        "app=1 event=x src=device"));
  Analysis a = analyze(records);
  ASSERT_EQ(a.ordering_violations.size(), 1u);
  EXPECT_NE(a.ordering_violations[0].find("delivered"), std::string::npos);
  EXPECT_FALSE(check(a).ok);
}

TEST(ProvenanceAnalyze, RendersHumanAndJsonReports) {
  std::vector<Record> records = full_pipeline(ProvenanceId{1, 1}, 0);
  Analysis a = analyze(records);

  std::string text = render(a);
  EXPECT_NE(text.find("stage coverage"), std::string::npos);
  EXPECT_NE(text.find("generated"), std::string::npos);
  EXPECT_NE(text.find("e2e generated -> delivered"), std::string::npos);
  EXPECT_NE(text.find("orphans: 0"), std::string::npos);

  std::string json = render_json(a);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"chains\":1"), std::string::npos);
  EXPECT_NE(json.find("\"e2e_delivery\""), std::string::npos);
  EXPECT_NE(json.find("\"ordering_violations\":[]"), std::string::npos);
}

// A real deployment: the paper's door -> light app on three processes,
// with the flight recorder on. The emit sites across devices, delivery,
// runtime and logic must together produce a causally sound trace that the
// analyzer reconstructs end-to-end.
TEST(ProvenanceLive, GaplessPipelineProducesHealthyChains) {
  auto recorder = std::make_shared<trace::Recorder>(
      trace::kAllComponents &
      ~trace::component_bit(trace::Component::kSim));
  Analysis a;
  {
    trace::Scope scope(*recorder);

    workload::HomeDeployment::Options opt;
    opt.seed = 11;
    opt.n_processes = 3;
    workload::HomeDeployment home(opt);

    devices::SensorSpec spec;
    spec.id = SensorId{1};
    spec.name = "door";
    spec.kind = devices::SensorKind::kDoor;
    spec.tech = devices::Technology::kIp;
    spec.rate_hz = 5.0;
    home.add_sensor(spec, {home.pid(0), home.pid(1)});

    devices::ActuatorSpec light;
    light.id = ActuatorId{1};
    light.name = "light";
    light.tech = devices::Technology::kIp;
    home.add_actuator(light, {home.pid(0)});
    home.deploy(workload::apps::turn_light_on_off(
        AppId{1}, SensorId{1}, ActuatorId{1},
        appmodel::Guarantee::kGapless));

    home.start();
    home.run_for(seconds(10));
    home.drain_to_quiescence();
    a = analyze(recorder->records());
  }

  EXPECT_GT(a.n_chains, 10u);
  // The full loop closes: every stage from generated to actuated appears.
  EXPECT_GE(a.stages_present(), 5);
  EXPECT_EQ(a.unexplained_orphans(), 0u);
  EXPECT_TRUE(a.duplicates.empty());
  EXPECT_TRUE(a.ordering_violations.empty()) << a.ordering_violations[0];
  EXPECT_TRUE(check(a).ok);

  // Where-the-time-went accounting: on a fault-free run the summed leg
  // medians on the delivery path agree with the measured end-to-end
  // median within a small factor (medians are not strictly additive).
  ASSERT_FALSE(a.e2e_delivery.empty());
  std::int64_t sum_legs = 0;
  for (int i = 1; i <= static_cast<int>(Stage::kDelivered); ++i)
    sum_legs += a.leg[static_cast<std::size_t>(i)].percentile(0.5).us;
  std::int64_t e2e = a.e2e_delivery.percentile(0.5).us;
  EXPECT_GT(sum_legs, 0);
  EXPECT_GT(e2e, 0);
  EXPECT_LT(sum_legs, e2e * 3);
  EXPECT_LT(e2e, sum_legs * 3);
}

// The blessed chaos golden exercises crashes, partitions and fallback
// paths; the analyzer must still find a causally healthy trace there.
TEST(ProvenanceLive, ChaosGoldenPassesCheck) {
  trace::Recorder golden;
  std::string err;
  ASSERT_TRUE(trace::Recorder::load(
      std::string(RIV_TRACE_GOLDEN_DIR) + "/chaos_flight.rivtrace",
      &golden, &err))
      << err;
  Analysis a = analyze(golden.records());
  EXPECT_GE(a.stages_present(), 5);
  EXPECT_GT(a.n_chains, 0u);
  EXPECT_FALSE(a.faults.empty());
  CheckResult cr = check(a);
  EXPECT_TRUE(cr.ok) << (cr.problems.empty() ? "" : cr.problems[0]);
}

// The packed overload reads typed fields where the Record overload parses
// rendered text; on every trace the emit sites make, the two reports must
// be byte-identical. The fleet homes run under a WiFi outage and a power
// blip, so promote, crash, recover and fault records all occur.
TEST(Provenance, PackedAnalysisMatchesRecordAnalysis) {
  auto expect_same = [](const Recorder& rec, const std::string& what) {
    for (const AnalyzeOptions& opt :
         {AnalyzeOptions{}, AnalyzeOptions{seconds_f(0.5), 0.9, seconds(2)}}) {
      const Analysis packed = analyze(rec, opt);
      const Analysis rendered = analyze(rec.records(), opt);
      EXPECT_EQ(render(packed), render(rendered)) << what;
      EXPECT_EQ(render_json(packed), render_json(rendered)) << what;
    }
  };

  for (const char* golden :
       {"gapless_ring", "gap_chain", "failover", "chaos_flight"}) {
    Recorder rec;
    std::string err;
    ASSERT_TRUE(Recorder::load(std::string(RIV_TRACE_GOLDEN_DIR) + "/" +
                                   golden + ".rivtrace",
                               &rec, &err))
        << err;
    expect_same(rec, golden);
  }

  // A typed trace whose report depends on the app field: two apps are fed
  // the same event, and app 3 twice within one promotion epoch.
  Recorder typed;
  const ProvenanceId ev{1, 1};
  const EventId id{SensorId{1}, 1};
  typed.append(TimePoint{0}, ProcessId{1}, Component::kRuntime,
               Kind::kPromote, fu(Key::kApp, 3));
  typed.append(TimePoint{5}, ProcessId{0}, Component::kDevice, Kind::kEmit,
               ev, fe(Key::kEvent, id));
  for (std::uint64_t app : {3, 4, 3})
    typed.append(TimePoint{10}, ProcessId{1}, Component::kRuntime,
                 Kind::kDeliver, ev, fu(Key::kApp, app), fe(Key::kEvent, id));
  typed.append(TimePoint{20}, ProcessId{0}, Component::kChaos, Kind::kFault,
               fu(Key::kFaultId, 9), fs(Key::kText, "partition p1|p2"));
  expect_same(typed, "typed");
  const Analysis a = analyze(typed);
  ASSERT_EQ(a.duplicates.size(), 1u);
  EXPECT_EQ(a.duplicates[0].app, 3u);
  ASSERT_EQ(a.faults.size(), 1u);
  EXPECT_EQ(a.faults[0].what, "partition p1|p2");

  fleet::FleetOptions opt;
  opt.seed = 7;
  opt.population.sim_duration = seconds(8);
  fleet::CampaignEvent wifi;
  wifi.kind = fleet::CampaignFault::kWifiOutage;
  wifi.at = seconds(1);
  wifi.duration = seconds(2);
  wifi.fraction = 0.5;
  fleet::CampaignEvent power = wifi;
  power.kind = fleet::CampaignFault::kPowerBlip;
  power.at = seconds(4);
  opt.campaign.events = {wifi, power};

  std::array<std::size_t, kKindCount> kinds{};
  for (std::uint64_t index = 0; index < 64; ++index) {
    const fleet::HomeRun run = fleet::run_home(opt, index, /*traced=*/true);
    run.flight->scan([&](const RecordView& v) {
      ++kinds[static_cast<std::size_t>(v.kind)];
    });
    expect_same(*run.flight, "fleet home " + std::to_string(index));
  }
  for (Kind k : {Kind::kPromote, Kind::kDeliver, Kind::kCrash, Kind::kRecover,
                 Kind::kFault})
    EXPECT_GT(kinds[static_cast<std::size_t>(k)], 0u) << to_string(k);
}

}  // namespace
}  // namespace riv
