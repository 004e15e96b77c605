// Discrete-event simulation kernel.
//
// This is the substitution for the paper's physical testbed (Raspberry Pi
// hosts on a home WiFi network): a single-threaded event loop over virtual
// time. Determinism rules:
//   * ties in firing time break by scheduling order (monotonic sequence
//     number), never by container iteration order;
//   * all randomness comes from the simulation's seeded Rng (or forks
//     of it);
//   * protocol code only sees the Clock/timer interfaces, so it cannot
//     accidentally depend on wall-clock time.
//
// Hot-path design (see DESIGN.md §9): pending timers live in a
// hierarchical timer wheel (4 levels × 64 slots, 1 µs ticks, ~16.7 s
// horizon) with per-level occupancy bitmaps so the kernel jumps straight
// to the next event instead of ticking; timers beyond the horizon wait in
// a small overflow heap and are promoted as virtual time approaches.
// Timer nodes come from a slab with a free list, cancellation marks a
// tombstone instead of erasing from a map, and TimerId -> node resolution
// is a dense ring keyed by the monotonically issued id — so steady-state
// schedule/fire/cancel does no heap allocation and no hashing. Event
// ordering is exactly (firing time, scheduling seq), bit-identical to the
// reference heap kernel (tests/test_sim_wheel.cpp proves it over 1e6
// random ops; the golden traces prove it end to end).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace riv {
class BinaryWriter;
class BinaryReader;
}

namespace riv::sim {

using TimerId = std::uint64_t;

class Simulation : public Clock {
 public:
  using Callback = std::function<void()>;

  explicit Simulation(std::uint64_t seed);

  TimePoint now() const override { return now_; }
  Rng& rng() { return rng_; }

  // Schedule `cb` at absolute time `t` (>= now). Returns an id usable with
  // cancel(); ids are never reused.
  TimerId schedule_at(TimePoint t, Callback cb);
  TimerId schedule_after(Duration d, Callback cb) {
    return schedule_at(now_ + d, std::move(cb));
  }

  // Cancel a pending timer. Cancelling an already-fired or already-cancelled
  // timer is a harmless no-op (protocols routinely cancel opportunistically).
  void cancel(TimerId id);
  bool is_pending(TimerId id) const;

  // Fire the next event. Returns false when the queue is empty.
  bool step();

  // Run events with firing time <= t, then set now to t.
  void run_until(TimePoint t);
  void run_for(Duration d) { run_until(now_ + d); }

  // Drain the queue completely (use in tests with finite workloads only).
  void run_all();

  // Live (scheduled, not yet fired or cancelled) timers.
  std::size_t pending_count() const { return live_count_; }

  // Total callbacks dispatched since construction (bench_kernel's
  // events/sec numerator).
  std::uint64_t events_fired() const { return events_fired_; }

  // --- snapshot support (DESIGN.md §16) --------------------------------
  //
  // Serialize the kernel's logical state: virtual time, counters, the RNG
  // stream, and every live timer as (id, t, seq) sorted by seq. Slab
  // layout, slot chains, free lists, the overflow/wheel split, and
  // tombstones are storage artifacts and deliberately excluded, so two
  // kernels that would fire the same timers in the same order always
  // serialize identically. Must be called at rest (between run_until
  // steps, never from inside a callback batch).
  //
  // Callbacks are closures, so the kernel cannot rebuild them: the timer
  // list attests every live timer (RIVC checks the ones the chaos layer
  // owns this way), and each owning component re-creates its own. Restore
  // is three-phase: begin_restore() wipes every existing timer and
  // restores the header, each owner re-creates its timers via
  // schedule_restored() with the exact original id/t/seq, and
  // finish_restore() asserts the restored count matches the list — a
  // timer owned by anything outside the restore set fails loudly instead
  // of silently vanishing.
  void clone_state(BinaryWriter& w) const;

  // Wipe all pending timers and restore the header (the live-timer count
  // is the list's length). Requires an empty kernel (a freshly built,
  // not-yet-started deployment): restored ids may collide with ids
  // already handed out otherwise.
  void begin_restore(BinaryReader& r);

  // Re-create one live timer with its original identity. Only valid
  // between begin_restore() and finish_restore(); id/seq must come from a
  // capture of this kernel's restored header (id < next_id, seq <
  // next_seq, t >= now).
  TimerId schedule_restored(TimerId id, TimePoint t, std::uint64_t seq,
                            Callback cb);

  // Assert every captured live timer was restored and close the restore.
  void finish_restore();

  // Look up a pending timer's firing time and sequence (false when the
  // timer already fired or was cancelled) — how owners capture the
  // (id, t, seq) triples of the timers they track by id.
  bool timer_info(TimerId id, TimePoint* t, std::uint64_t* seq) const;

 private:
  // --- wheel geometry ----------------------------------------------------
  static constexpr int kLevelBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kLevelBits;  // 64
  static constexpr int kLevels = 4;
  // Timers with t - cur_ beyond this go to the overflow heap.
  static constexpr std::int64_t kWheelHorizon = std::int64_t{1}
                                                << (kLevelBits * kLevels);
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    std::int64_t t{0};
    std::uint64_t seq{0};
    TimerId id{0};
    std::uint32_t next{kNil};  // slot chain / free list
    bool cancelled{false};
    Callback cb;
  };

  struct HeapEntry {
    std::int64_t t;
    std::uint64_t seq;
    std::uint32_t node;
    bool operator>(const HeapEntry& o) const {
      if (t != o.t) return t > o.t;
      return seq > o.seq;
    }
  };

  std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);

  // TimerId -> slab index ring (dense: ids are issued monotonically and
  // the live window [id_base_, next_id_) is kept within capacity).
  std::uint32_t id_lookup(TimerId id) const;
  void id_store(TimerId id, std::uint32_t node);
  void id_clear(TimerId id);
  void id_grow();

  // Place a node into the wheel or the overflow heap. Landing in the
  // cursor's own slot of a level while belonging to a *future* revolution
  // of that level is forbidden (it would make cascading that slot a
  // no-op); such nodes are bumped one level up, which is always a valid
  // (coarser) window for them.
  void place(std::uint32_t idx);
  void promote_overflow();

  // Advance cur_ to the next firing time <= cap, filling due_ with that
  // instant's nodes in seq order. Returns false when no event fires by
  // cap. Does not run callbacks and does not touch now_.
  bool advance(std::int64_t cap);
  // Fire exactly one event with t <= cap; false if none.
  bool fire_next(std::int64_t cap);

  TimePoint now_{};
  std::int64_t cur_{0};  // wheel cursor; invariant cur_ <= now_ between runs
  std::uint64_t next_seq_{0};
  std::uint64_t events_fired_{0};
  std::size_t live_count_{0};
  Rng rng_;

  // Slab.
  std::vector<Node> nodes_;
  std::uint32_t free_head_{kNil};

  // Wheel: per-level slot chains + occupancy bitmaps.
  std::uint32_t slot_head_[kLevels][kSlotsPerLevel];
  std::uint32_t slot_tail_[kLevels][kSlotsPerLevel];
  std::uint64_t bitmap_[kLevels];
  std::size_t wheel_count_{0};  // nodes in the wheel (incl. tombstones)

  // Overflow heap for timers beyond the wheel horizon.
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      overflow_;

  // The batch currently due: node indices at time due_time_, seq order.
  std::vector<std::uint32_t> due_;
  std::size_t due_head_{0};
  std::int64_t due_time_{0};

  // TimerId ring.
  TimerId next_id_{1};
  TimerId id_base_{1};
  std::vector<std::uint32_t> id_map_;

  // Restore bookkeeping (begin_restore .. finish_restore window).
  bool in_restore_{false};
  std::uint64_t expected_live_{0};
  std::uint64_t restored_count_{0};
};

// Timer façade owned by one simulated process. Crash semantics: when the
// process crashes, cancel_all() drops every outstanding timer so no stale
// callback from a previous incarnation can fire (the paper's crash-recovery
// model: a crashed process halts all activity).
class ProcessTimers {
 public:
  explicit ProcessTimers(Simulation& sim) : sim_(&sim) {}
  ~ProcessTimers() { cancel_all(); }

  ProcessTimers(const ProcessTimers&) = delete;
  ProcessTimers& operator=(const ProcessTimers&) = delete;

  TimerId schedule_after(Duration d, Simulation::Callback cb);
  TimerId schedule_at(TimePoint t, Simulation::Callback cb);
  // Snapshot-clone restore: re-create an owned timer with its original
  // identity (forwards to Simulation::schedule_restored and records
  // ownership so crash-time cancel_all still covers it).
  TimerId restore_at(TimerId id, TimePoint t, std::uint64_t seq,
                     Simulation::Callback cb);
  void cancel(TimerId id);
  void cancel_all();

  TimePoint now() const { return sim_->now(); }
  Simulation& sim() { return *sim_; }
  const Simulation& sim() const { return *sim_; }

 private:
  void garbage_collect();

  Simulation* sim_;
  std::vector<TimerId> owned_;
  // Adaptive GC trigger: collect dead ids only once owned_ doubles past
  // the last collection, so a stable working set is never rescanned on
  // every schedule (the old fixed threshold made schedule O(owned)).
  std::size_t gc_threshold_{64};
};

}  // namespace riv::sim
