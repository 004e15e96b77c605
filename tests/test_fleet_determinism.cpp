// Tier-2 gate for the fleet runner's headline guarantee: a 256-home fleet
// (campaign included) is bit-identical under --jobs 1 and --jobs 8 —
// merged metrics fingerprint, fleet fault digest, and every per-home
// outcome row, big enough that shards genuinely interleave across
// workers. The benchmark's 1-vs-N-worker digest check is its twin.
#include <gtest/gtest.h>

#include <cstdint>

#include "fleet/fleet.hpp"

namespace riv::fleet {
namespace {

FleetOptions fleet_256(int jobs) {
  FleetOptions opt;
  opt.seed = 42;
  opt.homes = 256;
  opt.jobs = jobs;
  opt.shard_size = 16;  // 16 shards: plenty of scheduling freedom
  opt.population.sim_duration = seconds(30);
  opt.keep_home_rows = true;

  CampaignEvent wifi;
  wifi.kind = CampaignFault::kWifiOutage;
  wifi.at = seconds(5);
  wifi.duration = seconds(10);
  wifi.fraction = 0.05;
  opt.campaign.events.push_back(wifi);
  CampaignEvent blip;
  blip.kind = CampaignFault::kPowerBlip;
  blip.at = seconds(12);
  blip.duration = seconds(3);
  blip.fraction = 0.1;
  blip.region = 2;
  opt.campaign.events.push_back(blip);
  return opt;
}

TEST(FleetDeterminism, Fleet256BitIdenticalJobs1Vs8) {
  FleetResult serial = run_fleet(fleet_256(1));
  FleetResult threaded = run_fleet(fleet_256(8));

  // The run did real work on both sides of the comparison.
  ASSERT_EQ(serial.homes, 256u);
  EXPECT_GT(serial.delivered, 0u);
  EXPECT_GT(serial.homes_hit, 0u);
  EXPECT_GT(serial.faults_injected, 0u);

  EXPECT_EQ(serial.fault_digest, threaded.fault_digest);
  EXPECT_EQ(registry_fingerprint(serial.merged),
            registry_fingerprint(threaded.merged));
  EXPECT_EQ(serial.sim_events, threaded.sim_events);
  EXPECT_EQ(serial.emitted, threaded.emitted);
  EXPECT_EQ(serial.delivered, threaded.delivered);
  EXPECT_EQ(serial.faults_injected, threaded.faults_injected);
  EXPECT_EQ(serial.homes_hit, threaded.homes_hit);
  EXPECT_EQ(serial.homes_hit_survived, threaded.homes_hit_survived);
  EXPECT_EQ(serial.homes_survived, threaded.homes_survived);

  ASSERT_EQ(serial.rows.size(), threaded.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i)
    EXPECT_EQ(serial.rows[i], threaded.rows[i]) << "home " << i;

  // And a third run at an awkward job count for good measure.
  FleetResult odd = run_fleet(fleet_256(3));
  EXPECT_EQ(odd.fault_digest, serial.fault_digest);
  EXPECT_EQ(registry_fingerprint(odd.merged),
            registry_fingerprint(serial.merged));
}

}  // namespace
}  // namespace riv::fleet
