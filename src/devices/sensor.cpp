#include "devices/sensor.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace riv::devices {

const char* to_string(SensorKind kind) {
  switch (kind) {
    case SensorKind::kTemperature: return "temperature";
    case SensorKind::kHumidity: return "humidity";
    case SensorKind::kLuminance: return "luminance";
    case SensorKind::kUv: return "uv";
    case SensorKind::kMotion: return "motion";
    case SensorKind::kDoor: return "door";
    case SensorKind::kMoisture: return "moisture";
    case SensorKind::kSmoke: return "smoke";
    case SensorKind::kCo2: return "co2";
    case SensorKind::kEnergy: return "energy";
    case SensorKind::kVibration: return "vibration";
    case SensorKind::kCamera: return "camera";
    case SensorKind::kMicrophone: return "microphone";
    case SensorKind::kWearable: return "wearable";
  }
  return "unknown";
}

bool is_binary_kind(SensorKind kind) {
  switch (kind) {
    case SensorKind::kMotion:
    case SensorKind::kDoor:
    case SensorKind::kMoisture:
    case SensorKind::kSmoke:
    case SensorKind::kVibration:
    case SensorKind::kWearable:
      return true;
    default:
      return false;
  }
}

Sensor::Sensor(sim::Simulation& sim, SensorSpec spec, Rng rng)
    : sim_(&sim), spec_(std::move(spec)), rng_(rng), timers_(sim, *this) {}

void Sensor::add_link(ProcessId process, LinkParams params) {
  links_[process] = Link{params};
}

void Sensor::remove_link(ProcessId process) { links_.erase(process); }

void Sensor::set_link_loss(ProcessId process, double loss_prob) {
  auto it = links_.find(process);
  RIV_ASSERT(it != links_.end(), "no such link");
  it->second.params.loss_prob = loss_prob;
}

double Sensor::link_loss(ProcessId process) const {
  auto it = links_.find(process);
  RIV_ASSERT(it != links_.end(), "no such link");
  return it->second.params.loss_prob;
}

std::vector<ProcessId> Sensor::linked_processes() const {
  std::vector<ProcessId> out;
  out.reserve(links_.size());
  for (const auto& [p, link] : links_) out.push_back(p);
  return out;
}

bool Sensor::linked_to(ProcessId process) const {
  return links_.count(process) != 0;
}

void Sensor::start() {
  if (!spec_.push || running_) return;
  running_ = true;
  schedule_next_emission();
}

void Sensor::stop() {
  running_ = false;
  timers_.cancel_all();
  deliveries_.clear();
}

void Sensor::crash() {
  crashed_ = true;
  busy_ = false;
  timers_.cancel_all();
  deliveries_.clear();
}

void Sensor::recover() {
  if (!crashed_) return;
  crashed_ = false;
  if (running_ && spec_.push) schedule_next_emission();
}

void Sensor::schedule_next_emission() {
  if (!running_ || crashed_ || !spec_.push) return;
  RIV_ASSERT(spec_.rate_hz > 0, "push sensor needs a positive rate");
  Duration gap{};
  const double mean_us = 1e6 / spec_.rate_hz;
  switch (spec_.pattern) {
    case EmitPattern::kPeriodic:
      gap = Duration{static_cast<std::int64_t>(mean_us)};
      break;
    case EmitPattern::kPoisson:
      gap = Duration{static_cast<std::int64_t>(rng_.exponential(mean_us))};
      break;
    case EmitPattern::kBurst:
      if (burst_remaining_ > 0) {
        --burst_remaining_;
        gap = milliseconds(30);  // back-to-back within a burst
      } else {
        burst_remaining_ = spec_.burst_size - 1;
        gap = Duration{static_cast<std::int64_t>(
            rng_.exponential(mean_us * spec_.burst_size))};
      }
      break;
  }
  timers_.schedule_after(gap, kEmitTimer);
}

void Sensor::on_timer(sim::TimerId id, std::uint16_t kind,
                      std::uint64_t arg) {
  switch (kind) {
    case kEmitTimer:
      emit(0, /*poll_based=*/false);
      schedule_next_emission();
      break;
    case kPollTimer:
      busy_ = false;
      ++polls_served_;
      emit(static_cast<std::uint32_t>(arg), /*poll_based=*/true,
           ProcessId{static_cast<std::uint16_t>(arg >> 32)});
      break;
    case kDeliveryTimer: {
      const Delivery d = deliveries_.take(id);
      if (deliver_) deliver_(d.process, d.event);
      break;
    }
  }
}

void Sensor::emit_now() {
  RIV_ASSERT(spec_.push, "emit_now is for push sensors");
  if (!crashed_) emit(0, /*poll_based=*/false);
}

void Sensor::enable_integrity(std::uint64_t key) {
  integrity_ = true;
  integrity_key_ = key;
}

double Sensor::sample_value() {
  if (is_binary_kind(spec_.kind)) {
    // Alternate open/close, motion/clear — apps only care about edges.
    return static_cast<double>(next_seq_ % 2);
  }
  const double t = static_cast<double>(sim_->now().us);
  const double period = static_cast<double>(spec_.value_period.us);
  double v = spec_.value_base +
             spec_.value_amplitude * std::sin(2.0 * M_PI * t / period);
  v += rng_.uniform(-spec_.value_noise, spec_.value_noise);
  return v;
}

Duration Sensor::link_latency(const Link& link) {
  const TechProfile& prof = profile(spec_.tech);
  Duration base =
      link.params.latency.us > 0 ? link.params.latency : prof.link_latency;
  double jitter =
      link.params.jitter_frac >= 0 ? link.params.jitter_frac : prof.link_jitter;
  double us = static_cast<double>(base.us) * (1.0 + rng_.uniform(0.0, jitter));
  // Transmission time for the payload plus technology framing.
  us += static_cast<double>(spec_.payload_size + prof.frame_overhead) /
        prof.bandwidth_bytes_per_us;
  return Duration{static_cast<std::int64_t>(us)};
}

void Sensor::transmit(ProcessId process, const Link& link,
                      const SensorEvent& e) {
  const TechProfile& prof = profile(spec_.tech);
  double loss = std::max(link.params.loss_prob, prof.loss_floor);
  if (rng_.bernoulli(loss)) return;  // lost on the air
  Duration lat = link_latency(link);
  deliveries_.put(timers_.schedule_after(lat, kDeliveryTimer),
                  Delivery{process, e});
}

void Sensor::emit(std::uint32_t epoch_tag, bool poll_based,
                  ProcessId poll_target) {
  SensorEvent e;
  e.id = EventId{spec_.id, next_seq_++};
  e.epoch = epoch_tag;
  e.emitted_at = sim_->now();
  e.poll_based = poll_based;
  e.value = sample_value();
  e.payload_size = spec_.payload_size;
  if (integrity_) {
    // Fold this emission into the per-origin hash chain; the digest
    // commits to the full (seq, epoch, value) history up to this event.
    chain_ = hash::fnv1a(chain_, &e.id.seq, sizeof e.id.seq);
    chain_ = hash::fnv1a(chain_, &e.epoch, sizeof e.epoch);
    chain_ = hash::fnv1a(chain_, &e.value, sizeof e.value);
    e.chain = chain_;
    e.mac = event_mac(integrity_key_, e);
    if (recent_.size() < kRecentWindow) {
      recent_.push_back(e);
    } else {
      recent_[recent_pos_] = e;
      recent_pos_ = (recent_pos_ + 1) % kRecentWindow;
    }
  }
  ++events_emitted_;
  if (trace::active(trace::Component::kDevice)) {
    if (integrity_) {
      trace::emit(sim_->now(), poll_based ? poll_target : ProcessId{0},
                  trace::Component::kDevice, trace::Kind::kEmit,
                  provenance_of(e.id), trace::fe(trace::Key::kEvent, e.id),
                  trace::fu(trace::Key::kEpoch, e.epoch),
                  trace::fu(trace::Key::kPoll, poll_based ? 1 : 0),
                  trace::fu(trace::Key::kChain, e.chain));
    } else {
      trace::emit(sim_->now(), poll_based ? poll_target : ProcessId{0},
                  trace::Component::kDevice, trace::Kind::kEmit,
                  provenance_of(e.id), trace::fe(trace::Key::kEvent, e.id),
                  trace::fu(trace::Key::kEpoch, e.epoch),
                  trace::fu(trace::Key::kPoll, poll_based ? 1 : 0));
    }
  }

  if (poll_based) {
    // A poll response travels only over the requesting process's link.
    auto it = links_.find(poll_target);
    if (it != links_.end()) transmit(poll_target, it->second, e);
    return;
  }
  const TechProfile& prof = profile(spec_.tech);
  if (prof.multicast) {
    for (const auto& [process, link] : links_) transmit(process, link, e);
  } else if (!links_.empty()) {
    // Non-multicast technology (BLE): only the bonded process — the first
    // attached link — receives emissions.
    const auto& [process, link] = *links_.begin();
    transmit(process, link, e);
  }
}

void Sensor::poll(ProcessId from, std::uint32_t epoch_tag) {
  if (crashed_) return;
  if (links_.find(from) == links_.end()) return;  // out of range
  ++polls_received_;
  if (busy_) {
    // §8.5: one outstanding request; the rest are dropped silently.
    ++polls_dropped_;
    return;
  }
  busy_ = true;
  double scale = 1.0 + rng_.uniform(-spec_.poll_jitter, spec_.poll_jitter);
  if (spec_.poll_tail_prob > 0.0 && rng_.bernoulli(spec_.poll_tail_prob))
    scale *= spec_.poll_tail_factor;  // stack-level retransmission
  auto latency = static_cast<std::int64_t>(
      static_cast<double>(spec_.poll_latency.us) * scale);
  timers_.schedule_after(Duration{latency}, kPollTimer,
                         std::uint64_t{from.value} << 32 | epoch_tag);
}

void Sensor::clone_state(BinaryWriter& w) const { io_state(w, *this); }

void Sensor::restore_clone(BinaryReader& r) { io_state(r, *this); }

template <class A, class Self>
void Sensor::io_state(A& a, Self& s) {
  expect(a, s.spec_.id, "clone restore: sensor identity mismatch");
  io(a, s.rng_);
  io(a, s.links_);
  io(a, s.running_);
  io(a, s.crashed_);
  io(a, s.busy_);
  io(a, s.next_seq_);
  io_as<std::uint32_t>(a, s.burst_remaining_);
  io(a, s.integrity_);
  io(a, s.integrity_key_);
  io(a, s.chain_);
  // The window's count comes before its write cursor.
  const std::uint64_t n_recent = io_count(a, s.recent_);
  io(a, s.recent_pos_);
  io_elements(a, s.recent_, n_recent);
  io(a, s.events_emitted_);
  io(a, s.polls_received_);
  io(a, s.polls_dropped_);
  io(a, s.polls_served_);
  io(a, s.deliveries_);
}

}  // namespace riv::devices
