// Parameterized protocol sweeps: the paper's core quantitative claims,
// asserted as invariants across a grid of home sizes, loss rates, and
// event sizes (gtest TEST_P, one ctest case per grid point).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "workload/apps.hpp"
#include "workload/deployment.hpp"

namespace riv {
namespace {

using workload::HomeDeployment;

constexpr AppId kApp{1};
constexpr SensorId kSensor{1};

appmodel::AppGraph sink(appmodel::Guarantee g) {
  appmodel::AppBuilder app(kApp, "sink");
  auto op = app.add_operator("Sink");
  op.add_sensor(kSensor, g, appmodel::WindowSpec::count_window(1));
  op.handle_triggered_window(
      [](const std::vector<appmodel::StreamWindow>&,
         appmodel::TriggerContext&) {});
  return app.build();
}

std::unique_ptr<HomeDeployment> scenario(int n, int receivers, double loss,
                                         std::uint32_t payload,
                                         appmodel::Guarantee g,
                                         std::uint64_t seed) {
  HomeDeployment::Options opt;
  opt.seed = seed;
  opt.n_processes = n;
  auto home = std::make_unique<HomeDeployment>(opt);
  devices::SensorSpec spec;
  spec.id = kSensor;
  spec.name = "s";
  spec.tech = devices::Technology::kIp;
  spec.payload_size = payload;
  spec.rate_hz = 10.0;
  std::vector<ProcessId> linked;
  for (int i = 0; i < receivers; ++i) linked.push_back(home->pid(i));
  devices::LinkParams link;
  link.loss_prob = loss;
  home->add_sensor(spec, linked, link);
  home->deploy(sink(g));
  return home;
}

// --- ring scales: n messages per event, full delivery, for any home size --

class RingSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(RingSizeSweep, NMessagesAndFullDeliveryAtAnyHomeSize) {
  const int n = GetParam();
  auto home = scenario(n, 1, 0.0, 4, appmodel::Guarantee::kGapless,
                       400 + static_cast<std::uint64_t>(n));
  home->start();
  home->run_for(seconds(30));
  std::uint64_t emitted = home->bus().sensor(kSensor).events_emitted();
  std::uint64_t delivered = home->metrics().counter_value("app1.delivered");
  EXPECT_GE(delivered + 2, emitted);
  if (n > 1) {
    double per_event =
        static_cast<double>(
            home->metrics().counter_value("net.msgs.ring_event")) /
        static_cast<double>(emitted);
    EXPECT_NEAR(per_event, static_cast<double>(n), 0.5 + n * 0.06);
  }
  EXPECT_EQ(home->metrics().counter_value("net.msgs.rb_event"), 0u);
}

INSTANTIATE_TEST_SUITE_P(HomeSizes, RingSizeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8));

// --- loss grid: Gapless tracks 1 - p^m, Gap tracks 1 - p -------------------

// gtest names each case of a value-parameterized suite after its
// parameter's bytes, so a parameter type has no padding: a padding byte
// is uninitialized and would name the same case differently in each
// build.
struct LossPoint {
  double loss;
  std::int64_t receivers;
};
static_assert(sizeof(LossPoint) == sizeof(double) + sizeof(std::int64_t));

class LossGridSweep : public ::testing::TestWithParam<LossPoint> {};

TEST_P(LossGridSweep, DeliveryMatchesAnalyticModel) {
  const auto [loss, m] = GetParam();
  const std::uint64_t seed =
      5000 + static_cast<std::uint64_t>(loss * 100) * 10 +
      static_cast<std::uint64_t>(m);

  auto gapless =
      scenario(5, m, loss, 4, appmodel::Guarantee::kGapless, seed);
  gapless->start();
  gapless->run_for(seconds(120));
  double emitted = static_cast<double>(
      gapless->bus().sensor(kSensor).events_emitted());
  double got = static_cast<double>(
                   gapless->metrics().counter_value("app1.delivered")) /
               emitted;
  EXPECT_NEAR(got, 1.0 - std::pow(loss, m), 0.05);

  auto gap = scenario(5, m, loss, 4, appmodel::Guarantee::kGap, seed + 7);
  gap->start();
  gap->run_for(seconds(120));
  emitted =
      static_cast<double>(gap->bus().sensor(kSensor).events_emitted());
  got = static_cast<double>(gap->metrics().counter_value("app1.delivered")) /
        emitted;
  EXPECT_NEAR(got, 1.0 - loss, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LossGridSweep,
    ::testing::Values(LossPoint{0.1, 2}, LossPoint{0.1, 4},
                      LossPoint{0.3, 2}, LossPoint{0.3, 4},
                      LossPoint{0.5, 2}, LossPoint{0.5, 4},
                      LossPoint{0.5, 5}));

// --- size sweep: wire bytes scale with the payload, delivery unaffected ---

class SizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SizeSweep, BytesTrackPayloadAndDeliveryIsComplete) {
  const std::uint32_t payload = GetParam();
  auto home = scenario(4, 1, 0.0, payload, appmodel::Guarantee::kGapless,
                       6000 + payload);
  home->start();
  home->run_for(seconds(20));
  std::uint64_t emitted = home->bus().sensor(kSensor).events_emitted();
  EXPECT_GE(home->metrics().counter_value("app1.delivered") + 2, emitted);
  // Ring traffic: 4 messages per event, each >= payload bytes (a couple
  // of events may still be mid-circuit at the horizon).
  std::uint64_t bytes =
      home->metrics().counter_value("net.bytes.ring_event");
  EXPECT_GE(bytes + 8ull * payload, emitted * 4 * payload);
  // ...and not wildly more (framing + S/V metadata is bounded).
  EXPECT_LE(bytes, emitted * 4 * (payload + 128));
}

INSTANTIATE_TEST_SUITE_P(Payloads, SizeSweep,
                         ::testing::Values(4u, 8u, 64u, 1024u, 8192u,
                                           20480u));

// --- failure-detection sweep: Gap's hole matches rate x timeout ------------

class DetectionSweep : public ::testing::TestWithParam<int> {};

TEST_P(DetectionSweep, GapFailoverHoleTracksTimeout) {
  const int timeout_ms = GetParam();
  HomeDeployment::Options opt;
  opt.seed = 7000 + static_cast<std::uint64_t>(timeout_ms);
  opt.n_processes = 3;
  opt.config.membership.period = milliseconds(timeout_ms / 4);
  opt.config.membership.timeout = milliseconds(timeout_ms);
  auto home = std::make_unique<HomeDeployment>(opt);
  devices::SensorSpec spec;
  spec.id = kSensor;
  spec.name = "s";
  spec.tech = devices::Technology::kIp;
  spec.rate_hz = 10.0;
  home->add_sensor(spec, home->processes());
  home->deploy(sink(appmodel::Guarantee::kGap));
  home->start();
  home->run_for(seconds(30));
  home->active_logic_process(kApp)->crash();
  home->run_for(seconds(30));
  std::uint64_t emitted = home->bus().sensor(kSensor).events_emitted();
  std::uint64_t delivered = home->metrics().counter_value("app1.delivered");
  double hole = static_cast<double>(emitted - delivered);
  double expected = 10.0 * timeout_ms / 1000.0;  // rate x detection time
  EXPECT_NEAR(hole, expected, expected * 0.6 + 4.0);
}

INSTANTIATE_TEST_SUITE_P(Timeouts, DetectionSweep,
                         ::testing::Values(500, 1000, 2000, 4000));

}  // namespace
}  // namespace riv
