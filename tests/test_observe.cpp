// Fleet observatory: sampler purity, SLO health scoring, order-invariant
// top-K folding, observation determinism across --jobs, and triage's
// byte-identical drill-down replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "fleet/campaign.hpp"
#include "fleet/fleet.hpp"
#include "fleet/observe.hpp"

namespace riv::fleet {
namespace {

// --- the sampler ----------------------------------------------------------

TEST(Sampler, PureFunctionOfSeedAndIndex) {
  for (std::uint64_t i = 0; i < 256; ++i)
    EXPECT_EQ(home_sampled(7, i, 0.01), home_sampled(7, i, 0.01));
  // Edge fractions short-circuit exactly.
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_FALSE(home_sampled(7, i, 0.0));
    EXPECT_TRUE(home_sampled(7, i, 1.0));
  }
}

// A 5% hash-threshold draw over 20k homes concentrates tightly (sigma
// ~0.15%), same bound the campaign membership test pins.
TEST(Sampler, FractionConcentrates) {
  constexpr std::uint64_t kHomes = 20'000;
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < kHomes; ++i)
    if (home_sampled(1, i, 0.05)) ++hits;
  double frac = static_cast<double>(hits) / static_cast<double>(kHomes);
  EXPECT_GT(frac, 0.04);
  EXPECT_LT(frac, 0.06);
}

// The sampler must be salted independently of campaign membership: a home
// being flight-recorded cannot be correlated with it being fault-injected,
// or the sampled population would be a biased view of the fleet.
TEST(Sampler, IndependentOfCampaignMembership) {
  CampaignPlan plan;
  CampaignEvent ev;
  ev.fraction = 0.5;
  plan.events.push_back(ev);
  constexpr std::uint64_t kHomes = 20'000;
  std::uint64_t sampled_and_hit = 0, sampled = 0;
  for (std::uint64_t i = 0; i < kHomes; ++i) {
    if (!home_sampled(1, i, 0.5)) continue;
    ++sampled;
    if (event_hits_home(plan, 0, 1, i)) ++sampled_and_hit;
  }
  // Under independence ~50% of sampled homes are hit.
  double frac =
      static_cast<double>(sampled_and_hit) / static_cast<double>(sampled);
  EXPECT_GT(frac, 0.45);
  EXPECT_LT(frac, 0.55);
}

// --- health scoring -------------------------------------------------------

TEST(HealthScore, PenaltySchedule) {
  SloSpec slo;
  slo.delivery_p99 = milliseconds(1);  // 1000 us

  HomeOutcome ok;
  ok.delivered = 10;
  ok.emitted = 10;
  ok.survived = true;
  metrics::Registry fast;
  fast.latency("app1.delay").record(Duration{500});  // under SLO
  HomeHealth healthy = score_home(slo, 3, ok, fast);
  EXPECT_EQ(healthy.score, 0u);
  EXPECT_EQ(healthy.index, 3u);
  EXPECT_EQ(healthy.delay_p99_us, 500);

  // Over-SLO p99 accrues the exact microsecond overshoot (values below
  // 16 us over the target would be bucket-exact; here min==max pins it).
  metrics::Registry slow;
  slow.latency("app1.delay").record(Duration{5000});
  HomeHealth late = score_home(slo, 4, ok, slow);
  EXPECT_EQ(late.score, 4000u);

  // Emitted-but-delivered-nothing is the worst state a home can be in.
  HomeOutcome dead = ok;
  dead.delivered = 0;
  HomeHealth black_hole = score_home(slo, 5, dead, fast);
  EXPECT_EQ(black_hole.score, 50'000'000u);

  // Hit by a campaign and never recovered.
  HomeOutcome lost = ok;
  lost.hit = true;
  lost.survived = false;
  HomeHealth casualty = score_home(slo, 6, lost, fast);
  EXPECT_EQ(casualty.score, 10'000'000u);
}

TEST(HealthScore, ProvenancePenalties) {
  SloSpec slo;
  HomeOutcome out;
  out.delivered = 1;
  out.emitted = 1;
  out.survived = true;
  metrics::Registry reg;
  HomeHealth row = score_home(slo, 9, out, reg);
  EXPECT_EQ(row.score, 0u);
  EXPECT_FALSE(row.sampled);

  trace::Analysis an;
  an.ordering_violations.push_back("delivered before ingested");
  trace::Orphan orphan;
  orphan.reason = "unexplained";
  an.orphans.push_back(orphan);
  trace::Orphan benign;
  benign.reason = "in_flight_at_end";
  an.orphans.push_back(benign);  // explained: no penalty
  an.duplicates.push_back(trace::Duplicate{});
  apply_provenance(row, an);
  EXPECT_TRUE(row.sampled);
  EXPECT_EQ(row.ordering_violations, 1u);
  EXPECT_EQ(row.unexplained_orphans, 1u);
  EXPECT_EQ(row.duplicates, 1u);
  EXPECT_EQ(row.score, 500'000u + 2 * 200'000u);
}

TEST(HealthScore, WorseIsAStrictTotalOrder) {
  HomeHealth a;
  a.index = 1;
  a.score = 10;
  HomeHealth b;
  b.index = 2;
  b.score = 10;
  HomeHealth c;
  c.index = 3;
  c.score = 5;
  EXPECT_TRUE(worse(a, b));   // tie broken by index
  EXPECT_FALSE(worse(b, a));
  EXPECT_TRUE(worse(a, c));   // higher score is worse
  EXPECT_FALSE(worse(c, a));
  EXPECT_FALSE(worse(a, a));  // irreflexive
}

// --- top-K folding --------------------------------------------------------

// The top-K of a multiset under a strict total order is a pure function of
// the set: no matter how 1k rows are partitioned into shards, shuffled
// within shards, or merged in scrambled shard order, the worst-K list must
// come out identical. This is the property that lets run_fleet fold
// shard-local heaps without any cross-shard coordination.
TEST(TopKHealth, MergeIsOrderInvariant) {
  std::mt19937 rng(1234);
  std::vector<HomeHealth> rows(1000);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].index = i;
    // Coarse scores force plenty of exact ties to stress the tiebreak.
    rows[i].score = rng() % 50;
    rows[i].delivered = rng() % 100;
  }

  constexpr std::size_t kK = 10;
  std::vector<HomeHealth> expected = rows;
  std::sort(expected.begin(), expected.end(), worse);
  expected.resize(kK);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<HomeHealth> shuffled = rows;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);

    // Random partition into 1..32 shards.
    std::size_t n_shards = 1 + rng() % 32;
    std::vector<TopKHealth> shards(n_shards, TopKHealth{kK});
    for (std::size_t i = 0; i < shuffled.size(); ++i)
      shards[rng() % n_shards].add(shuffled[i]);

    std::shuffle(shards.begin(), shards.end(), rng);
    TopKHealth merged{kK};
    for (const TopKHealth& s : shards) merged.merge_from(s);
    EXPECT_EQ(merged.rows(), expected) << "trial " << trial;
  }
}

TEST(TopKHealth, ZeroKKeepsNothing) {
  TopKHealth top;
  HomeHealth row;
  row.score = 99;
  top.add(row);
  EXPECT_TRUE(top.rows().empty());
}

// --- observation determinism across jobs ----------------------------------

FleetOptions observed_fleet(int jobs) {
  FleetOptions opt;
  opt.seed = 1;
  opt.homes = 96;
  opt.jobs = jobs;
  opt.shard_size = 16;
  opt.population.sim_duration = seconds(5);
  CampaignEvent ev;
  ev.kind = CampaignFault::kWifiOutage;
  ev.at = seconds(1);
  ev.duration = seconds(2);
  ev.fraction = 0.2;
  opt.campaign.events.push_back(ev);
  opt.observe.sample = 0.1;
  opt.observe.top_k = 8;
  return opt;
}

void expect_same_observation(const Observation& a, const Observation& b) {
  EXPECT_EQ(a.samples, b.samples);  // index, seed, hash, records, bytes
  EXPECT_EQ(a.trace_digest(), b.trace_digest());
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.trace_bytes, b.trace_bytes);
  EXPECT_EQ(a.chains, b.chains);
  EXPECT_EQ(a.orphans, b.orphans);
  EXPECT_EQ(a.unexplained_orphans, b.unexplained_orphans);
  EXPECT_EQ(a.duplicates, b.duplicates);
  for (int s = 1; s < trace::kStageCount; ++s) {
    EXPECT_EQ(a.leg[s].buckets(), b.leg[s].buckets()) << "leg " << s;
    EXPECT_EQ(a.leg[s].sum_us(), b.leg[s].sum_us()) << "leg " << s;
  }
  EXPECT_EQ(a.e2e_delivery.buckets(), b.e2e_delivery.buckets());
  EXPECT_EQ(a.top.rows(), b.top.rows());
}

// The acceptance property in miniature: sampled-home set, per-home trace
// FNV hashes, leg histograms, and the top-K health list are bit-identical
// under --jobs 1 and --jobs 8 (the tier-2 gate runs this at 100k homes).
TEST(ObservedFleet, BitIdenticalAcrossJobs) {
  FleetResult serial = run_fleet(observed_fleet(1));
  FleetResult threaded = run_fleet(observed_fleet(8));

  ASSERT_FALSE(serial.observation.samples.empty());
  EXPECT_EQ(serial.fault_digest, threaded.fault_digest);
  expect_same_observation(serial.observation, threaded.observation);

  // The sampled set is exactly what the pure sampler predicts.
  std::vector<std::uint64_t> predicted;
  for (std::uint64_t i = 0; i < serial.homes; ++i)
    if (home_sampled(1, i, 0.1)) predicted.push_back(i);
  ASSERT_EQ(serial.observation.samples.size(), predicted.size());
  for (std::size_t i = 0; i < predicted.size(); ++i)
    EXPECT_EQ(serial.observation.samples[i].index, predicted[i]);

  // Health scoring saw every home: the worst offender of a fleet with a
  // campaign is a hit home with a non-zero score.
  ASSERT_EQ(serial.observation.top.rows().size(), 8u);
  EXPECT_GT(serial.observation.top.rows().front().score, 0u);
}

TEST(ObservedFleet, DisabledObservabilityStaysEmpty) {
  FleetOptions opt = observed_fleet(2);
  opt.observe = ObserveOptions{};
  FleetResult r = run_fleet(opt);
  EXPECT_TRUE(r.observation.samples.empty());
  EXPECT_TRUE(r.observation.top.rows().empty());
  EXPECT_EQ(r.observation.trace_records, 0u);
}

// --- drill-down replay ----------------------------------------------------

// triage_home must reproduce a sampled home's flight recording exactly:
// same FNV hash over the packed record bytes, same record count. This is
// what makes the drill-down trustworthy — it is the incident's recording,
// not a similar one.
TEST(Triage, ReplayReproducesSampledTraceByteIdentically) {
  FleetOptions opt = observed_fleet(2);
  FleetResult r = run_fleet(opt);
  ASSERT_FALSE(r.observation.samples.empty());

  for (std::size_t i = 0; i < 3 && i < r.observation.samples.size(); ++i) {
    const TraceSample& sample = r.observation.samples[i];
    TriageReport rep = triage_home(opt, sample.index);
    EXPECT_EQ(rep.trace_hash, sample.trace_hash)
        << "home " << sample.index << " replay diverged from its recording";
    EXPECT_EQ(rep.trace_records, sample.records);
    EXPECT_EQ(rep.health.seed, sample.seed);
    EXPECT_TRUE(rep.health.sampled);
  }
}

TEST(Triage, AttributesCampaignFaults) {
  FleetOptions opt = observed_fleet(2);
  FleetResult r = run_fleet(opt);
  ASSERT_FALSE(r.observation.top.rows().empty());
  const HomeHealth& worst = r.observation.top.rows().front();
  ASSERT_TRUE(worst.hit);  // with a 20% outage the worst home was hit

  TriageReport rep = triage_home(opt, worst.index);
  EXPECT_GT(rep.faults, 0u) << "triage must see the injected faults";
  EXPECT_FALSE(rep.fault.empty());
  EXPECT_FALSE(rep.first_divergence.empty())
      << "a fault-injected home has a first divergent record";
  EXPECT_GE(rep.first_divergence_us, 0);
  EXPECT_FALSE(rep.worst_leg.empty());
  // The replay is scored like the fleet scored it.
  EXPECT_EQ(rep.health.index, worst.index);
  EXPECT_EQ(rep.health.hit, worst.hit);
  EXPECT_EQ(rep.health.delay_p99_us, worst.delay_p99_us);
}

TEST(Triage, HealthyHomeComesBackClean) {
  FleetOptions opt = observed_fleet(1);
  opt.campaign = CampaignPlan{};  // no faults anywhere
  // Any home will do; 0 is as good as any.
  TriageReport rep = triage_home(opt, 0);
  EXPECT_TRUE(rep.check_ok);
  EXPECT_EQ(rep.faults, 0u);
  EXPECT_TRUE(rep.fault.empty());
  EXPECT_TRUE(rep.first_divergence.empty());
  EXPECT_FALSE(rep.health.hit);
}

// A control character in the saved trace's path (from --trace-dir) or in a
// trace's text comes out as \u00XX, so the report stays valid JSON.
TEST(Triage, JsonEscapesControlCharacters) {
  TriageReport rep;
  rep.trace_path = "traces\tdir/home-0.rivtrace";
  rep.first_divergence = "t=1us p1 \"fault\"\r";
  const std::string json = render_triage_json({rep});
  EXPECT_NE(json.find("\"trace_path\": \"traces\\u0009dir/home-0.rivtrace\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\\\"fault\\\"\\u000d"), std::string::npos) << json;
  EXPECT_EQ(json.find('\t'), std::string::npos);
  EXPECT_EQ(json.find('\r'), std::string::npos);
}

}  // namespace
}  // namespace riv::fleet
