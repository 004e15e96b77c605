// Microbenchmarks (google-benchmark) of the hot wire-format paths: event
// encode/decode across Table 3 sizes, ring payload encode/decode with
// realistic S/V sets, and the full frame round-trip.
#include <benchmark/benchmark.h>

#include "core/wire.hpp"

namespace {

using namespace riv;

devices::SensorEvent make_event(std::uint32_t payload) {
  devices::SensorEvent e;
  e.id = {SensorId{3}, 12345};
  e.epoch = 17;
  e.emitted_at = TimePoint{987654321};
  e.value = 21.5;
  e.payload_size = payload;
  return e;
}

void BM_EventEncode(benchmark::State& state) {
  devices::SensorEvent e =
      make_event(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    BinaryWriter w;
    devices::encode(w, e);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(e.wire_size()));
}
BENCHMARK(BM_EventEncode)->Arg(4)->Arg(8)->Arg(1024)->Arg(20 * 1024);

void BM_EventDecode(benchmark::State& state) {
  devices::SensorEvent e =
      make_event(static_cast<std::uint32_t>(state.range(0)));
  BinaryWriter w;
  devices::encode(w, e);
  std::vector<std::byte> buf = w.take();
  for (auto _ : state) {
    BinaryReader r(buf);
    devices::SensorEvent d = devices::decode_event(r);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_EventDecode)->Arg(4)->Arg(8)->Arg(1024)->Arg(20 * 1024);

void BM_RingPayloadRoundTrip(benchmark::State& state) {
  core::wire::RingPayload p;
  p.app = AppId{1};
  p.sensor = SensorId{3};
  for (std::uint16_t i = 1; i <= state.range(0); ++i) {
    p.seen.insert(ProcessId{i});
    p.need.insert(ProcessId{i});
  }
  p.event = make_event(4);
  for (auto _ : state) {
    const FrameBuffer buf = core::wire::encode(p);
    core::wire::RingPayload d;
    benchmark::DoNotOptimize(core::wire::decode(buf.bytes(), d));
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_RingPayloadRoundTrip)->Arg(2)->Arg(5)->Arg(16);

void BM_CommandRoundTrip(benchmark::State& state) {
  devices::Command c;
  c.id = {ProcessId{2}, 99};
  c.actuator = ActuatorId{7};
  c.test_and_set = true;
  c.expected = 0.0;
  c.value = 1.0;
  c.issued_at = TimePoint{123};
  for (auto _ : state) {
    BinaryWriter w;
    devices::encode(w, c);
    BinaryReader r(w.data());
    devices::Command d = devices::decode_command(r);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_CommandRoundTrip);

}  // namespace

BENCHMARK_MAIN();
