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
//
// Every pending timer is data: a node holds {owner, kind, arg}, and firing
// calls the owner's on_timer(id, kind, arg). Owners are the components
// that live as long as the kernel; each registers once, and dispatches
// its kinds in a switch. Because the schedule is plain data, the kernel's
// clone blob carries all of it and restore_clone rebuilds it without the
// owners' help. Closures remain for timers nobody captures (tests,
// benches, probes): they belong to one built-in owner and live in a side
// slab, and a restore refuses them.
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
// An owner's registration index, which is its identity in a capture: a
// deployment built from the same spec registers in the same order.
using OwnerId = std::uint32_t;

// A component whose timers are data. The kernel calls on_timer when one
// of them fires; the owner switches on `kind`, and `arg` carries logical
// data (an epoch, a plan index, a stream key), never a slab or slot index,
// so two states that fire the same timers serialize to the same bytes.
class TimerOwner {
 public:
  virtual void on_timer(TimerId id, std::uint16_t kind,
                        std::uint64_t arg) = 0;

 protected:
  ~TimerOwner() = default;
};

class Simulation : public Clock {
 public:
  using Callback = std::function<void()>;

  explicit Simulation(std::uint64_t seed);

  TimePoint now() const override { return now_; }
  Rng& rng() { return rng_; }

  // Owners (see ProcessTimers, which does both): register once; retiring
  // cancels the owner's pending timers and leaves its slot empty.
  OwnerId register_owner(TimerOwner& owner);
  void retire_owner(OwnerId owner);

  // The kernel fires no further event: from here on, cancelling by owner
  // (a crash, an owner's destructor) is skipped. A deployment calls this
  // as its destructor begins, so tearing a home down scans no slab.
  void shut_down() { shut_down_ = true; }

  // Schedule a data timer at absolute time `t` (>= now): `owner` gets
  // on_timer(id, kind, arg). Returns an id usable with cancel(); ids are
  // never reused.
  TimerId schedule_at(TimePoint t, OwnerId owner, std::uint16_t kind,
                      std::uint64_t arg);
  // Schedule a closure (the built-in owner). A capture records it, but no
  // restore can rebuild it.
  TimerId schedule_at(TimePoint t, Callback cb);
  TimerId schedule_after(Duration d, Callback cb) {
    return schedule_at(now_ + d, std::move(cb));
  }

  // Cancel a pending timer. Cancelling an already-fired or already-cancelled
  // timer is a harmless no-op (protocols routinely cancel opportunistically).
  void cancel(TimerId id);
  // Cancel every pending timer of `owner` (a crash halts all activity).
  void cancel_owner(OwnerId owner);
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
  // stream, and the whole schedule — every live timer as (id, t, seq,
  // owner, kind, arg) sorted by seq (a closure's arg is 0).
  // Slab layout, slot chains, free lists, the overflow/wheel split, and
  // tombstones are storage artifacts and deliberately excluded, so two
  // kernels that would fire the same timers in the same order always
  // serialize identically. Must be called at rest (between run_until
  // steps, never from inside a callback batch).
  void clone_state(BinaryWriter& w) const;

  // Rebuild that state, schedule included, into a kernel with no pending
  // timer (a freshly built, not-yet-started deployment; restored ids would
  // collide otherwise). Owners restore their own data and the ids they
  // hold, nothing else. Aborts on a timer whose owner is not registered
  // here, and on a closure timer, naming its id. The target may hold
  // owners the capture never saw.
  void restore_clone(BinaryReader& r);

 private:
  // --- wheel geometry ----------------------------------------------------
  static constexpr int kLevelBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kLevelBits;  // 64
  static constexpr int kLevels = 4;
  // Timers with t - cur_ beyond this go to the overflow heap.
  static constexpr std::int64_t kWheelHorizon = std::int64_t{1}
                                                << (kLevelBits * kLevels);
  static constexpr std::uint32_t kNil = 0xffffffffu;
  // The built-in owner of closure timers (their arg is 0).
  static constexpr OwnerId kClosureOwner = 0;

  struct Node {
    std::int64_t t{0};
    std::uint64_t seq{0};
    TimerId id{0};  // 0 while the node is free
    std::uint64_t arg{0};
    std::uint32_t next{kNil};  // slot chain / free list
    OwnerId owner{kClosureOwner};
    std::uint16_t kind{0};
    bool cancelled{false};
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
  // Schedule a node (both schedule_at overloads); returns its slab index.
  std::uint32_t insert(TimePoint t, OwnerId owner, std::uint16_t kind,
                       std::uint64_t arg);
  // Cancel the live node `idx` (tombstone it; it is freed when drained).
  void cancel_node(std::uint32_t idx);

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
  bool shut_down_{false};
  Rng rng_;

  // Registered owners by OwnerId; slot 0 is the closure owner, and a
  // retired owner's slot is null.
  std::vector<TimerOwner*> owners_;
  // Closure side slab, indexed like nodes_ and grown on the first closure
  // that needs it: data-timer nodes carry no std::function.
  std::vector<Callback> closures_;

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
};

// An owner's handle on its kernel: it names the simulation and the
// owner. Constructing it registers the owner; destroying it retires the
// owner, so an owner's destructor cancels whatever it still has pending.
class ProcessTimers {
 public:
  ProcessTimers(Simulation& sim, TimerOwner& owner)
      : sim_(&sim), owner_(sim.register_owner(owner)) {}
  ~ProcessTimers() { sim_->retire_owner(owner_); }

  ProcessTimers(const ProcessTimers&) = delete;
  ProcessTimers& operator=(const ProcessTimers&) = delete;

  TimerId schedule_at(TimePoint t, std::uint16_t kind,
                      std::uint64_t arg = 0) {
    return sim_->schedule_at(t, owner_, kind, arg);
  }
  TimerId schedule_after(Duration d, std::uint16_t kind,
                         std::uint64_t arg = 0) {
    return schedule_at(sim_->now() + d, kind, arg);
  }
  void cancel(TimerId id) { sim_->cancel(id); }
  // Crash semantics: drop every outstanding timer of this owner, so no
  // stale timer from a previous incarnation can fire (the paper's
  // crash-recovery model: a crashed process halts all activity).
  void cancel_all() { sim_->cancel_owner(owner_); }

  TimePoint now() const { return sim_->now(); }
  Simulation& sim() { return *sim_; }
  const Simulation& sim() const { return *sim_; }

 private:
  Simulation* sim_;
  OwnerId owner_;
};

}  // namespace riv::sim
