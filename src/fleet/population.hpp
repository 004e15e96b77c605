// Population-scale workload generation: one fleet seed → a million homes.
//
// The paper evaluates Rivulet inside a single smart home; the fleet layer
// simulates entire populations of them. Every home is described by a
// HomeSpec — process count, device census, per-sensor technology, rate,
// payload and link quality — sampled from the configurable distributions
// of a PopulationModel. Sampling is a pure function of
// (model, fleet_seed, home_index): home 17 of fleet seed 9 is the same
// home on every machine, every run, any thread, which is what lets
// sharded fleet runs stay bit-deterministic (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "appmodel/graph.hpp"
#include "common/rng.hpp"
#include "devices/sensor.hpp"
#include "workload/deployment.hpp"

namespace riv::fleet {

// Inclusive integer range sampled uniformly.
struct IntRange {
  int lo{0};
  int hi{0};
  int sample(Rng& rng) const;
};

// Half-open double range sampled uniformly.
struct DoubleRange {
  double lo{0.0};
  double hi{0.0};
  double sample(Rng& rng) const;
};

// Relative weights over the radio technologies a sampled sensor uses.
struct TechMix {
  double ip{0.35};
  double zigbee{0.3};
  double zwave{0.2};
  double ble{0.15};
  devices::Technology sample(Rng& rng) const;
};

// The distributions a fleet draws each home from. Defaults describe a
// small steady-state home — 2-4 hosts, a handful of low-rate sensors —
// sized so a single core clears >1k homes/s (the benchmark's steady_fleet
// workload measures this).
struct PopulationModel {
  IntRange processes{2, 4};
  IntRange sensors{1, 3};
  IntRange receivers{1, 2};        // hosts linked per sensor (clamped)
  DoubleRange rate_hz{0.5, 4.0};   // push rate per sensor
  IntRange payload_bytes{4, 64};   // Table 3's small-event band
  DoubleRange link_loss{0.0, 0.05};
  TechMix tech{};
  double burst_fraction{0.15};     // sensors emitting Poisson bursts
  double gapless_fraction{0.5};    // subscriptions with the Gapless guarantee
  Duration sim_duration{seconds(10)};  // steady-state window per home
};

// A fully sampled home: everything build_home() needs, nothing else.
struct HomeSpec {
  std::uint64_t seed{0};   // per-home seed (derive_seed(fleet_seed, index))
  std::uint64_t index{0};  // position in the fleet
  int n_processes{0};
  Duration sim_duration{};
  struct SensorPlan {
    devices::SensorSpec spec;
    std::vector<int> receivers;  // 0-based process indices
    double link_loss{0.0};
    appmodel::Guarantee guarantee{appmodel::Guarantee::kGapless};
  };
  std::vector<SensorPlan> sensors;
};

// Pure function of its arguments; see file comment.
HomeSpec sample_home(const PopulationModel& model, std::uint64_t fleet_seed,
                     std::uint64_t index);

// Materialise the spec: a HomeDeployment with every sensor wired to its
// receivers and one sink app subscribing all of them under their sampled
// guarantees. Not yet started — the fleet runner arms fault plans first.
std::unique_ptr<workload::HomeDeployment> build_home(const HomeSpec& spec);

}  // namespace riv::fleet
