// Integration tests: full runtime + real application graphs from the
// Table 1 catalog, under crashes, partitions, recoveries, and sensor
// failures — the scenarios §2 motivates.
#include <gtest/gtest.h>

#include "core/wire.hpp"
#include "membership/failure_detector.hpp"
#include "store/replicated_store.hpp"
#include "trace/trace.hpp"
#include "workload/apps.hpp"
#include "workload/deployment.hpp"

namespace riv {
namespace {

using workload::HomeDeployment;

devices::SensorSpec sensor_of(std::uint16_t id, devices::SensorKind kind,
                              double rate_hz, std::uint32_t payload = 4) {
  devices::SensorSpec spec;
  spec.id = SensorId{id};
  spec.name = devices::to_string(kind);
  spec.kind = kind;
  spec.tech = devices::Technology::kIp;
  spec.payload_size = payload;
  spec.rate_hz = rate_hz;
  return spec;
}

devices::ActuatorSpec actuator_of(std::uint16_t id) {
  devices::ActuatorSpec spec;
  spec.id = ActuatorId{id};
  spec.name = "actuator" + std::to_string(id);
  spec.tech = devices::Technology::kIp;
  return spec;
}

TEST(Integration, IntrusionDetectionSurvivesLossCrashAndSensorDeath) {
  HomeDeployment::Options opt;
  opt.seed = 51;
  opt.n_processes = 4;
  HomeDeployment home(opt);
  std::vector<SensorId> doors;
  for (std::uint16_t i = 1; i <= 3; ++i) {
    devices::LinkParams lossy;
    lossy.loss_prob = 0.25;
    home.add_sensor(sensor_of(i, devices::SensorKind::kDoor, 0.5),
                    {home.pid(i % 4), home.pid((i + 1) % 4)}, lossy);
    doors.push_back(SensorId{i});
  }
  // The siren is reachable from two hosts, so it stays actuatable when
  // the app-bearing process crashes.
  home.add_actuator(actuator_of(1), {home.pid(0), home.pid(1)});
  home.deploy(workload::apps::intrusion_detection(AppId{1}, doors,
                                                  ActuatorId{1}));
  home.start();
  home.run_for(seconds(30));
  const devices::Actuator& siren = home.bus().actuator(ActuatorId{1});
  std::uint64_t healthy = siren.actions();
  EXPECT_GT(healthy, 5u);

  home.active_logic_process(AppId{1})->crash();
  home.run_for(seconds(30));
  std::uint64_t after_crash = siren.actions();
  EXPECT_GT(after_crash, healthy + 5);  // alarms keep firing

  home.bus().sensor(SensorId{1}).crash();
  home.bus().sensor(SensorId{2}).crash();
  home.run_for(seconds(30));
  EXPECT_GT(siren.actions(), after_crash);  // one sensor still suffices
}

TEST(Integration, FallAlertNeverMissedUnderGapless) {
  HomeDeployment::Options opt;
  opt.seed = 52;
  opt.n_processes = 3;
  HomeDeployment home(opt);
  home.add_sensor(sensor_of(1, devices::SensorKind::kWearable, 0.5),
                  home.processes());
  home.add_actuator(actuator_of(1), home.processes());
  home.deploy(workload::apps::fall_alert(AppId{1}, SensorId{1},
                                         ActuatorId{1}));
  home.start();
  home.run_for(seconds(20));
  home.active_logic_process(AppId{1})->crash();
  home.run_for(seconds(20));
  std::uint64_t emitted = home.bus().sensor(SensorId{1}).events_emitted();
  std::uint64_t delivered = home.metrics().counter_value("app1.delivered");
  EXPECT_GE(delivered + 1, emitted);  // nothing missed across failover
  // Falls are value==1 events: half the emissions alert the caregiver.
  EXPECT_GE(home.bus().actuator(ActuatorId{1}).actions(), emitted / 2 - 1);
}

TEST(Integration, SurveillanceStreamsLargeCameraFrames) {
  HomeDeployment::Options opt;
  opt.seed = 53;
  opt.n_processes = 3;
  HomeDeployment home(opt);
  devices::SensorSpec cam =
      sensor_of(1, devices::SensorKind::kCamera, 10.0, 18 * 1024);
  cam.value_base = 0.9;  // always an "unknown object"
  cam.value_amplitude = 0.0;
  cam.value_noise = 0.0;
  home.add_sensor(cam, {home.pid(1)});
  home.add_actuator(actuator_of(1), {home.pid(0)});
  home.deploy(workload::apps::surveillance(AppId{1}, SensorId{1},
                                           ActuatorId{1}, 0.5));
  home.start();
  home.run_for(seconds(20));
  std::uint64_t emitted = home.bus().sensor(SensorId{1}).events_emitted();
  EXPECT_GE(home.metrics().counter_value("app1.delivered"), emitted - 3);
  EXPECT_GE(home.bus().actuator(ActuatorId{1}).actions(), emitted - 5);
  // 18 KB frames replicated across 3 processes: real bytes on the wire.
  EXPECT_GT(home.metrics().counter_value("net.bytes.ring_event"),
            emitted * 18 * 1024 * 2);
}

TEST(Integration, CrashRecoveryKeepsTheEventLog) {
  HomeDeployment::Options opt;
  opt.seed = 54;
  opt.n_processes = 3;
  HomeDeployment home(opt);
  home.add_sensor(sensor_of(1, devices::SensorKind::kDoor, 10.0),
                  {home.pid(1)});
  home.add_actuator(actuator_of(1), {home.pid(0)});
  home.deploy(workload::apps::turn_light_on_off(AppId{1}, SensorId{1},
                                                ActuatorId{1}));
  home.start();
  home.run_for(seconds(10));
  core::EventLog* log_before = home.process(2).event_log(AppId{1});
  std::size_t events_before = log_before->size(SensorId{1});
  EXPECT_GT(events_before, 50u);

  home.process(2).crash();
  home.run_for(seconds(5));
  home.process(2).recover();
  home.run_for(seconds(1));
  core::EventLog* log_after = home.process(2).event_log(AppId{1});
  // The recovered incarnation kept everything its log held.
  EXPECT_GE(log_after->size(SensorId{1}), events_before);
}

// A process's event logs are its durable record, one per deployed app:
// hidden while it is down, and after recovery each app finds exactly the
// events it held before the crash, none of the other app's.
TEST(Integration, DownProcessHidesItsLogsAndRecoversEachAppsOwn) {
  HomeDeployment::Options opt;
  opt.seed = 58;
  opt.n_processes = 3;
  HomeDeployment home(opt);
  home.add_sensor(sensor_of(1, devices::SensorKind::kDoor, 10.0),
                  {home.pid(1)});
  home.add_sensor(sensor_of(2, devices::SensorKind::kDoor, 5.0),
                  {home.pid(1)});
  home.add_actuator(actuator_of(1), {home.pid(0)});
  home.add_actuator(actuator_of(2), {home.pid(0)});
  home.deploy(workload::apps::turn_light_on_off(AppId{1}, SensorId{1},
                                                ActuatorId{1}));
  home.deploy(workload::apps::turn_light_on_off(AppId{2}, SensorId{2},
                                                ActuatorId{2}));
  home.start();
  home.run_for(seconds(10));

  core::RivuletProcess& p = home.process(2);
  auto held = [&p](AppId app) {
    std::vector<EventId> out;
    for (SensorId s : p.event_log(app)->sensors()) {
      for (const core::StoredEvent* se :
           p.event_log(app)->events_after(s, TimePoint{-1}))
        out.push_back(se->event.id);
    }
    return out;
  };
  const std::vector<EventId> app1 = held(AppId{1});
  const std::vector<EventId> app2 = held(AppId{2});
  EXPECT_GT(app1.size(), 50u);
  EXPECT_GT(app2.size(), 25u);
  EXPECT_EQ(p.event_log(AppId{1})->sensors(),
            std::vector<SensorId>{SensorId{1}});
  EXPECT_EQ(p.event_log(AppId{2})->sensors(),
            std::vector<SensorId>{SensorId{2}});

  p.crash();
  home.run_for(seconds(5));
  EXPECT_EQ(p.event_log(AppId{1}), nullptr);
  EXPECT_EQ(p.event_log(AppId{2}), nullptr);
  p.recover();
  // Checked before any frame or device event reaches the new incarnation.
  EXPECT_EQ(held(AppId{1}), app1);
  EXPECT_EQ(held(AppId{2}), app2);
}

TEST(Integration, RecoveredProcessCatchesUpViaSuccessorSync) {
  HomeDeployment::Options opt;
  opt.seed = 55;
  opt.n_processes = 3;
  HomeDeployment home(opt);
  home.add_sensor(sensor_of(1, devices::SensorKind::kDoor, 10.0),
                  {home.pid(1)});
  home.add_actuator(actuator_of(1), {home.pid(0)});
  home.deploy(workload::apps::turn_light_on_off(AppId{1}, SensorId{1},
                                                ActuatorId{1}));
  home.start();
  home.run_for(seconds(10));
  home.process(2).crash();
  home.run_for(seconds(20));  // 200 events happen while p3 is down
  home.process(2).recover();
  home.run_for(seconds(10));
  std::uint64_t emitted = home.bus().sensor(SensorId{1}).events_emitted();
  // §4.1 successor sync: p3's predecessor re-sends everything it missed.
  EXPECT_GE(home.process(2).event_log(AppId{1})->size(SensorId{1}),
            emitted - 5);
}

TEST(Integration, PartitionHealReplicatesEventsToBothSides) {
  HomeDeployment::Options opt;
  opt.seed = 56;
  opt.n_processes = 4;
  HomeDeployment home(opt);
  // Sensor reachable only from p2 (side A during the partition).
  home.add_sensor(sensor_of(1, devices::SensorKind::kDoor, 10.0),
                  {home.pid(1)});
  home.add_actuator(actuator_of(1), {home.pid(0)});
  home.deploy(workload::apps::turn_light_on_off(AppId{1}, SensorId{1},
                                                ActuatorId{1}));
  home.start();
  home.run_for(seconds(5));
  home.net().set_partition({{home.pid(0), home.pid(1)},
                            {home.pid(2), home.pid(3)}});
  home.run_for(seconds(20));
  // Side B heard nothing new from the sensor during the partition.
  std::size_t side_b_during =
      home.process(2).event_log(AppId{1})->size(SensorId{1});
  home.net().heal_partition();
  home.run_for(seconds(10));
  std::uint64_t emitted = home.bus().sensor(SensorId{1}).events_emitted();
  EXPECT_GT(emitted, side_b_during + 150);
  // After healing, the ring sync replicates the partition-era suffix.
  EXPECT_GE(home.process(2).event_log(AppId{1})->size(SensorId{1}),
            emitted - 5);
  EXPECT_GE(home.process(3).event_log(AppId{1})->size(SensorId{1}),
            emitted - 5);
}

TEST(Integration, TwoAppsShareOneSensorIndependently) {
  HomeDeployment::Options opt;
  opt.seed = 57;
  opt.n_processes = 3;
  HomeDeployment home(opt);
  home.add_sensor(sensor_of(1, devices::SensorKind::kDoor, 5.0),
                  {home.pid(1)});
  home.add_actuator(actuator_of(1), {home.pid(0)});
  home.add_actuator(actuator_of(2), {home.pid(2)});
  home.deploy(workload::apps::turn_light_on_off(AppId{1}, SensorId{1},
                                                ActuatorId{1}));
  home.deploy(workload::apps::turn_light_on_off(AppId{2}, SensorId{1},
                                                ActuatorId{2}));
  home.start();
  home.run_for(seconds(20));
  std::uint64_t emitted = home.bus().sensor(SensorId{1}).events_emitted();
  EXPECT_GE(home.metrics().counter_value("app1.delivered"), emitted - 2);
  EXPECT_GE(home.metrics().counter_value("app2.delivered"), emitted - 2);
  EXPECT_GT(home.bus().actuator(ActuatorId{1}).actions(), 0u);
  EXPECT_GT(home.bus().actuator(ActuatorId{2}).actions(), 0u);
}

TEST(Integration, EnergyBillingAccumulatesCostGapless) {
  HomeDeployment::Options opt;
  opt.seed = 58;
  opt.n_processes = 3;
  HomeDeployment home(opt);
  devices::SensorSpec power =
      sensor_of(1, devices::SensorKind::kEnergy, 1.0, 8);
  power.value_base = 1200.0;  // watts
  power.value_amplitude = 0.0;
  power.value_noise = 10.0;
  home.add_sensor(power, home.processes());
  home.add_actuator(actuator_of(1), {home.pid(0)});
  home.deploy(workload::apps::energy_billing(AppId{1}, SensorId{1},
                                             ActuatorId{1}, seconds(10),
                                             0.25));
  home.start();
  home.run_for(seconds(65));
  const devices::Actuator& display = home.bus().actuator(ActuatorId{1});
  EXPECT_GE(display.actions(), 5u);  // one cost update per 10 s window
  EXPECT_GT(display.state(), 0.0);
}

TEST(Integration, AutomatedLightingWorksWithTwoDeadModalities) {
  HomeDeployment::Options opt;
  opt.seed = 59;
  opt.n_processes = 3;
  HomeDeployment home(opt);
  devices::SensorSpec motion =
      sensor_of(1, devices::SensorKind::kMotion, 2.0);
  home.add_sensor(motion, {home.pid(0)});
  home.add_sensor(sensor_of(2, devices::SensorKind::kCamera, 2.0, 10240),
                  {home.pid(1)});
  home.add_sensor(sensor_of(3, devices::SensorKind::kMicrophone, 2.0, 1024),
                  {home.pid(2)});
  home.add_actuator(actuator_of(1), {home.pid(0)});
  home.deploy(workload::apps::automated_lighting(
      AppId{1}, SensorId{1}, SensorId{2}, SensorId{3}, ActuatorId{1}));
  home.start();
  home.bus().sensor(SensorId{2}).crash();
  home.bus().sensor(SensorId{3}).crash();
  home.run_for(seconds(30));
  // FTCombiner(2): motion alone keeps the app alive.
  EXPECT_GT(home.bus().actuator(ActuatorId{1}).actions(), 10u);
}

// One valid frame of each message type, as a peer would send it: the core
// frames first, then the keep-alive and the store's.
std::vector<std::pair<net::MsgType, std::vector<std::byte>>> one_of_each(
    ProcessId p1, ProcessId p2, ProcessId p3) {
  namespace wire = core::wire;
  devices::SensorEvent e;
  e.id = {SensorId{1}, 999};
  e.emitted_at = TimePoint{1000};
  wire::RingPayload ring{AppId{1}, SensorId{1}, {p2}, {p1, p2, p3}, e};
  wire::EventPayload event{AppId{1}, SensorId{1}, e};
  wire::SyncResponse sync{AppId{1}, {{SensorId{1}, 1, 5, {{2, 3}}}}};
  wire::CommandPayload command{AppId{1}, 1, {}};
  store::Batch batch{{{"k", store::Entry{1.0, TimePoint{5}, 1, p2}}}};
  membership::KeepAlive keepalive{TimePoint{5}, encode(wire::Watermarks{})};
  const std::vector<std::byte> app = encode(wire::AppFrame{AppId{1}});
  return {{net::MsgType::kRingEvent, encode(ring)},
          {net::MsgType::kRbEvent, encode(event)},
          {net::MsgType::kGapForward, encode(event)},
          {net::MsgType::kSyncRequest, app},
          {net::MsgType::kSyncResponse, encode(sync)},
          {net::MsgType::kCommand, encode(command)},
          {net::MsgType::kPromote, app},
          {net::MsgType::kDemote, app},
          {net::MsgType::kCommandAck, encode(wire::CommandAck{})},
          {net::MsgType::kKeepAlive, encode(keepalive)},
          {net::MsgType::kStorePut, encode(batch.updates[0])},
          {net::MsgType::kStoreSync, encode(batch)}};
}

// A malformed frame is dropped, not an abort: p2 sends p1 each frame type
// cut one byte short. p1 stays up, records one kTamper "bad_frame" per
// frame, and the home goes on delivering door events.
TEST(Integration, TruncatedFramesAreDroppedNotFatal) {
  HomeDeployment::Options opt;
  opt.seed = 60;
  opt.n_processes = 3;
  HomeDeployment home(opt);
  home.add_sensor(sensor_of(1, devices::SensorKind::kDoor, 2.0),
                  {home.pid(1), home.pid(2)});
  home.add_actuator(actuator_of(1), home.processes());
  home.deploy(workload::apps::intrusion_detection(AppId{1}, {SensorId{1}},
                                                  ActuatorId{1}));
  trace::Recorder rec;
  trace::Scope scope(rec);
  home.start();
  home.run_for(seconds(5));

  const ProcessId p1 = home.pid(0);
  const auto frames = one_of_each(p1, home.pid(1), home.pid(2));
  for (const auto& [type, bytes] : frames) {
    std::vector<std::byte> cut(bytes.begin(), bytes.end() - 1);
    home.net().endpoint(home.pid(1)).send(p1, type, std::move(cut));
  }
  const std::uint64_t delivered =
      home.metrics().counter_value("app1.delivered");
  home.run_for(seconds(10));

  EXPECT_TRUE(home.process(p1).up());
  std::size_t bad_frames = 0;
  rec.scan([&](const trace::RecordView& r) {
    if (r.kind == trace::Kind::kTamper && r.process == p1 &&
        r.detail().find("bad_frame") != std::string::npos)
      ++bad_frames;
  });
  EXPECT_EQ(bad_frames, frames.size());
  EXPECT_GT(home.metrics().counter_value("app1.delivered"), delivered + 10);
}

}  // namespace
}  // namespace riv
