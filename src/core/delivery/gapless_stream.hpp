// Gapless delivery (§4.1): ring protocol with reliable-broadcast fallback
// and coordinated polling.
//
// Invariant provided (post-ingest): any event received from the sensor by
// at least one correct process is eventually replicated at every available
// process, and hence delivered to the active logic node wherever it ends
// up after failures.
//
// Protocol summary, exactly as in the paper:
//   * ingest: first receipt of event e at p_i sends (e : {p_i} : v_i) to
//     p_i's ring successor per its local view, and delivers e locally;
//   * forward: an unseen (e:S:V) is re-sent to the successor as
//     (e : S ∪ {p_i} : V ∪ v_i);
//   * a *seen* (e:S:V) with S ≠ V and p_i ∈ S means the ring stalled after
//     p_i already forwarded it — p_i falls back to reliable broadcast;
//   * on gaining a new ring successor, p_i synchronizes it Bayou-style
//     (handled app-wide by the runtime: the successor answers with the
//     event log's per-sensor sequence summary and the stream re-sends
//     exactly the stored events that summary lacks).
//
// Coordinated polling: the active sensor nodes in the local view pick
// disjoint slots i*e/n inside each epoch of length e without communicating
// (§4.1); a node skips its slot when an event for the epoch was already
// seen (own poll or ring forward).
#pragma once

#include <cstdint>
#include <optional>
#include <set>

#include "common/seq_set.hpp"
#include "core/delivery/stream_context.hpp"
#include "core/wire.hpp"

namespace riv::core {

class GaplessStream {
 public:
  // Timer kinds in the process's timer space; both carry
  // stream_timer_arg(app, sensor, epoch).
  static constexpr std::uint16_t kEpochTimer = 4;
  static constexpr std::uint16_t kSlotTimer = 5;

  explicit GaplessStream(StreamContext ctx);

  // Arm epoch timers for poll-based sensors; no-op for push sensors.
  void start();

  // Timer handlers: an epoch boundary assigns this process's poll slot,
  // checks the previous epoch for staleness and arms the next boundary
  // (kEpochTimer); a poll slot polls unless the epoch already has an
  // event (kSlotTimer).
  void on_epoch_boundary(std::uint32_t epoch);
  void on_poll_slot(std::uint32_t epoch);

  // An event arrived over the device link (push emission or poll reply).
  void on_device_event(const devices::SensorEvent& e);

  // Ring / reliable-broadcast messages routed here by the runtime.
  void on_ring(ProcessId from, const wire::RingPayload& p);
  void on_rb(ProcessId from, const wire::EventPayload& p);

  // The runtime resolved a sync response from the successor: re-send, in
  // sequence order, every stored event inside the summary's missing runs
  // or at/after its end.
  void sync_successor(ProcessId successor, const wire::SyncSummary& theirs);

  // Statistics.
  std::uint64_t ingested() const { return ingested_; }
  std::uint64_t ring_forwards() const { return ring_forwards_; }
  std::uint64_t rb_initiated() const { return rb_initiated_; }
  std::uint64_t polls_issued() const { return polls_issued_; }
  std::uint64_t staleness_reports() const { return staleness_reports_; }

  // --- snapshot support (DESIGN.md §16) ------------------------------
  // Protocol state (epoch tracking, broadcast dedup, counters; event
  // content lives in the EventLog).
  void clone_state(BinaryWriter& w) const;
  void restore_clone(BinaryReader& r);

 private:
  // The one field list behind clone_state and restore_clone.
  template <class A, class Self>
  static void io_state(A& a, Self& s);
  std::optional<ProcessId> ring_successor() const;
  void accept_new_event(const devices::SensorEvent& e, PidSet seen,
                        PidSet need, const char* src);
  void forward_to_successor(const devices::SensorEvent& e,
                            const PidSet& seen, const PidSet& need);
  void initiate_reliable_broadcast(EventId id);
  void reflood(ProcessId origin, const wire::EventPayload& p);
  void note_epoch(const devices::SensorEvent& e);
  bool epoch_seen(std::uint32_t epoch) const;
  void schedule_epoch(std::uint32_t epoch);
  std::uint32_t current_epoch() const;

  StreamContext ctx_;
  std::uint32_t first_epoch_{0};
  std::set<std::uint32_t> epochs_seen_;
  EventIdSet rb_done_;  // events already broadcast/re-flooded here

  std::uint64_t ingested_{0};
  std::uint64_t ring_forwards_{0};
  std::uint64_t rb_initiated_{0};
  std::uint64_t polls_issued_{0};
  std::uint64_t staleness_reports_{0};
};

}  // namespace riv::core
