#include "chaos/injector.hpp"

#include <algorithm>
#include <vector>

#include "common/codec.hpp"
#include "trace/trace.hpp"

namespace riv::chaos {

FaultInjector::FaultInjector(workload::HomeDeployment& home,
                             TraceRecorder& trace)
    : home_(&home), trace_(&trace), timers_(home.sim(), *this) {}

void FaultInjector::arm(const FaultPlan& plan, QuiesceHook on_quiesce_end,
                        Duration offset) {
  load(plan, std::move(on_quiesce_end), offset);
  for (std::size_t i = 0; i < plan_.actions.size(); ++i)
    timers_.schedule_at(plan_.actions[i].at, 0, i);
}

void FaultInjector::load(const FaultPlan& plan, QuiesceHook on_quiesce_end,
                         Duration offset) {
  plan_ = plan;
  // Warm-prefix sweeps arm a plan after a shared warm-up; `offset`
  // shifts the whole schedule so plan times stay relative to arming.
  for (FaultAction& action : plan_.actions) action.at = action.at + offset;
  on_quiesce_end_ = std::move(on_quiesce_end);
  // Attack-time randomness is independent of both the plan generator's
  // stream and the simulation's, but still a pure function of the seed.
  byz_rng_ = Rng(plan.seed * 0x2545f4914f6cdd1dULL ^ 0x9e3779b97f4a7c15ULL);
  const bool any_corrupt =
      std::any_of(plan.actions.begin(), plan.actions.end(),
                  [](const FaultAction& a) {
                    return a.kind == FaultKind::kCorruptBegin;
                  });
  if (any_corrupt) {
    home_->net().set_interposer(
        [this](net::Message& msg) { return interpose(msg); });
  }
}

void FaultInjector::on_timer(sim::TimerId /*id*/, std::uint16_t /*kind*/,
                             std::uint64_t arg) {
  apply(plan_.actions[arg]);
}

void FaultInjector::clone_state(BinaryWriter& w) const { io_state(w, *this); }

void FaultInjector::restore_clone(BinaryReader& r) { io_state(r, *this); }

template <class A, class Self>
void FaultInjector::io_state(A& a, Self& s) {
  io(a, s.seq_);
  io(a, s.injected_);
  io(a, s.noops_);
  io(a, s.attacks_);
  io(a, s.integrity_);
  io(a, s.byz_rng_);
  io(a, s.window_start_);
  io(a, s.corrupt_pid_);
  io(a, s.corrupt_fault_id_);
  io(a, s.base_link_loss_);
}

void FaultInjector::restore_device_links() {
  for (const auto& [link, base] : base_link_loss_)
    home_->bus().sensor(link.first).set_link_loss(link.second, base);
  base_link_loss_.clear();
}

void FaultInjector::mark_net_attack(const net::Message& msg,
                                    const char* what) {
  ++attacks_;
  if (trace::active(trace::Component::kChaos)) {
    trace::emit(home_->sim().now(), msg.src, trace::Component::kChaos,
                trace::Kind::kByzantine,
                trace::fu(trace::Key::kFaultId, corrupt_fault_id_),
                trace::fs(trace::Key::kText, what),
                trace::fs(trace::Key::kType, net::to_string(msg.type)),
                trace::fp(trace::Key::kSrc, msg.src),
                trace::fp(trace::Key::kDst, msg.dst));
  }
}

int FaultInjector::interpose(net::Message& msg) {
  if (!corrupt_pid_ || msg.src != *corrupt_pid_) return 1;
  switch (msg.type) {
    // Only the event/command plane is attacked: tampered keep-alives would
    // turn the run into a membership experiment instead of an integrity
    // one, and the MAC layer does not cover them (detector limit, §12).
    case net::MsgType::kRingEvent:
    case net::MsgType::kRbEvent:
    case net::MsgType::kGapForward:
    case net::MsgType::kCommand:
      break;
    default:
      return 1;
  }
  const double u = byz_rng_.uniform();
  if (integrity_ && u < 0.15) {
    std::vector<std::byte> bytes = msg.payload.bytes();
    if (!bytes.empty()) {
      const std::size_t idx = byz_rng_.uniform_int(bytes.size());
      const auto flip =
          static_cast<unsigned char>(1 + byz_rng_.uniform_int(255));
      bytes[idx] ^= std::byte{flip};
      msg.payload = std::move(bytes);
      mark_net_attack(msg, "mutate");
    }
    return 1;
  }
  if (u < 0.30) {
    mark_net_attack(msg, "dup");
    return 2;
  }
  if (u < 0.40) {
    mark_net_attack(msg, "drop");
    return 0;
  }
  return 1;
}

void FaultInjector::apply(const FaultAction& action) {
  const std::size_t fault_id = ++seq_;
  bool applied = true;
  switch (action.kind) {
    case FaultKind::kCrashProcess: {
      core::RivuletProcess& p = home_->process(action.a);
      // Generator invariant: never crashes the last live process. Guard
      // anyway so a hand-written plan cannot violate §3.1's model.
      int live = 0;
      for (ProcessId q : home_->processes())
        live += home_->process(q).up() ? 1 : 0;
      if (p.up() && live > 1)
        p.crash();
      else
        applied = false;
      break;
    }
    case FaultKind::kRecoverProcess: {
      core::RivuletProcess& p = home_->process(action.a);
      if (!p.up())
        p.recover();
      else
        applied = false;
      break;
    }
    case FaultKind::kPartition: {
      std::set<ProcessId> side_a(action.group.begin(), action.group.end());
      std::set<ProcessId> side_b;
      for (ProcessId p : home_->processes()) {
        if (side_a.count(p) == 0) side_b.insert(p);
      }
      home_->net().set_partition({side_a, side_b});
      break;
    }
    case FaultKind::kHealPartition:
      home_->net().heal_partition();
      break;
    case FaultKind::kEdgeDown:
      home_->net().set_reachable(action.a, action.b, false);
      break;
    case FaultKind::kEdgeUp:
      home_->net().set_reachable(action.a, action.b, true);
      break;
    case FaultKind::kEdgeDelay:
      home_->net().set_edge_delay(action.a, action.b, action.dur);
      break;
    case FaultKind::kEdgeDelayClear:
      home_->net().set_edge_delay(action.a, action.b, Duration{});
      break;
    case FaultKind::kEdgeLoss:
      home_->net().set_edge_loss(action.a, action.b, action.value);
      break;
    case FaultKind::kEdgeLossClear:
      home_->net().set_edge_loss(action.a, action.b, 0.0);
      break;
    case FaultKind::kDeviceLinkLoss: {
      devices::Sensor& s = home_->bus().sensor(action.sensor);
      auto key = std::make_pair(action.sensor, action.b);
      if (action.value < 0.0) {
        auto it = base_link_loss_.find(key);
        if (it != base_link_loss_.end()) {
          s.set_link_loss(action.b, it->second);
          base_link_loss_.erase(it);
        } else {
          applied = false;  // restore without a preceding override
        }
      } else {
        base_link_loss_.emplace(key, s.link_loss(action.b));
        s.set_link_loss(action.b, action.value);
      }
      break;
    }
    case FaultKind::kDeviceCrash: {
      devices::Sensor& s = home_->bus().sensor(action.sensor);
      if (!s.crashed())
        s.crash();
      else
        applied = false;
      break;
    }
    case FaultKind::kDeviceRecover: {
      devices::Sensor& s = home_->bus().sensor(action.sensor);
      if (s.crashed())
        s.recover();
      else
        applied = false;
      break;
    }
    case FaultKind::kQuiesceBegin:
      home_->heal_all();
      restore_device_links();
      corrupt_pid_.reset();  // a corrupt host behaves during the window
      window_start_ = home_->sim().now();
      break;
    case FaultKind::kQuiesceEnd:
      break;
    case FaultKind::kSpoofEvent: {
      // Forge an event "from" the sensor at the victim's adapter. The seq
      // is far above anything the device will genuinely emit and the MAC
      // is random garbage, so an armed receiver rejects it as a spoof; an
      // unarmed one ingests it like any fresh reading.
      if (!home_->process(action.b).up()) {
        applied = false;
        break;
      }
      const devices::Sensor& s = home_->bus().sensor(action.sensor);
      devices::SensorEvent e;
      e.id = EventId{action.sensor, action.seq};
      e.epoch = 0;
      e.emitted_at = home_->sim().now();
      e.poll_based = false;
      e.value = action.value;
      e.payload_size = s.spec().payload_size;
      e.chain = byz_rng_.next();
      e.mac = byz_rng_.next();
      ++attacks_;
      if (trace::active(trace::Component::kChaos)) {
        trace::emit(home_->sim().now(), action.b, trace::Component::kChaos,
                    trace::Kind::kByzantine, provenance_of(e.id),
                    trace::fu(trace::Key::kFaultId, fault_id),
                    trace::fs(trace::Key::kText, "spoof"),
                    trace::fe(trace::Key::kEvent, e.id),
                    trace::fp(trace::Key::kDst, action.b));
      }
      home_->bus().inject_event(action.b, e);
      break;
    }
    case FaultKind::kReplayEvent: {
      // Re-deliver a genuine past emission to the victim. Only events the
      // victim already ingested are eligible when verification is armed:
      // replaying a frame the victim never saw is indistinguishable from
      // first delivery and outside the detector's claims (DESIGN §12).
      if (!home_->process(action.b).up()) {
        applied = false;
        break;
      }
      const devices::Sensor& s = home_->bus().sensor(action.sensor);
      const core::RivuletProcess& tgt = home_->process(action.b);
      std::vector<const devices::SensorEvent*> eligible;
      for (const devices::SensorEvent& e : s.recent_events()) {
        if (!integrity_ || tgt.device_seq_seen(action.sensor, e.id.seq))
          eligible.push_back(&e);
      }
      if (eligible.empty()) {
        applied = false;
        break;
      }
      const devices::SensorEvent& e =
          *eligible[action.seq % eligible.size()];
      ++attacks_;
      if (trace::active(trace::Component::kChaos)) {
        trace::emit(home_->sim().now(), action.b, trace::Component::kChaos,
                    trace::Kind::kByzantine, provenance_of(e.id),
                    trace::fu(trace::Key::kFaultId, fault_id),
                    trace::fs(trace::Key::kText, "replay"),
                    trace::fe(trace::Key::kEvent, e.id),
                    trace::fp(trace::Key::kDst, action.b));
      }
      home_->bus().inject_event(action.b, e);
      break;
    }
    case FaultKind::kCorruptBegin:
      if (home_->process(action.a).up() && !corrupt_pid_) {
        corrupt_pid_ = action.a;
        corrupt_fault_id_ = fault_id;
      } else {
        applied = false;
      }
      break;
    case FaultKind::kCorruptEnd:
      if (corrupt_pid_ && *corrupt_pid_ == action.a)
        corrupt_pid_.reset();
      else
        applied = false;  // window already closed by a quiesce heal
      break;
  }

  if (applied)
    ++injected_;
  else
    ++noops_;
  std::string what = to_string(action);
  if (!applied) what += " (noop)";
  trace_->record(home_->sim().now(), what);
  if (trace::active(trace::Component::kChaos)) {
    // The leading fault id lets trace_analyze blame tail events on a
    // specific injected fault ("fault #7 partition ...").
    trace::emit(home_->sim().now(), ProcessId{0}, trace::Component::kChaos,
                trace::Kind::kFault, trace::fu(trace::Key::kFaultId, fault_id),
                trace::fs(trace::Key::kText, what));
  }

  if (action.kind == FaultKind::kQuiesceEnd && on_quiesce_end_)
    on_quiesce_end_(window_start_);
}

}  // namespace riv::chaos
