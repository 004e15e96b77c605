#include "sim/simulation.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "common/assert.hpp"
#include "common/codec.hpp"
#include "trace/trace.hpp"

namespace riv::sim {

namespace {
constexpr std::int64_t kMaxTime = std::numeric_limits<std::int64_t>::max();
}  // namespace

Simulation::Simulation(std::uint64_t seed) : rng_(seed), id_map_(1024, kNil) {
  owners_.reserve(32);  // a home registers a dozen or two
  owners_.push_back(nullptr);  // kClosureOwner
  for (int l = 0; l < kLevels; ++l) {
    bitmap_[l] = 0;
    for (int s = 0; s < kSlotsPerLevel; ++s) {
      slot_head_[l][s] = kNil;
      slot_tail_[l][s] = kNil;
    }
  }
}

// --- slab ------------------------------------------------------------------

std::uint32_t Simulation::alloc_node() {
  if (free_head_ != kNil) {
    std::uint32_t idx = free_head_;
    free_head_ = nodes_[idx].next;
    return idx;
  }
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void Simulation::free_node(std::uint32_t idx) {
  Node& n = nodes_[idx];
  n.id = 0;
  n.next = free_head_;
  free_head_ = idx;
}

void Simulation::cancel_node(std::uint32_t idx) {
  Node& n = nodes_[idx];
  n.cancelled = true;
  // Release captured state now, not at slot drain.
  if (n.owner == kClosureOwner) closures_[idx] = nullptr;
  --live_count_;
  id_clear(n.id);
}

// --- TimerId ring ----------------------------------------------------------
//
// Ids are issued monotonically, so id -> node is a ring indexed by
// id & (capacity - 1) over the live window [id_base_, next_id_). Slots
// outside the window are kNil by construction, which is what lets the
// base chase forward past completed ids. Capacity is bounded by the id
// *span*, not the live count: one immortal timer under heavy churn keeps
// the window wide (4 bytes per id of span — fine for simulation-scale
// runs, noted here in case someone reuses this for a long-running server).

std::uint32_t Simulation::id_lookup(TimerId id) const {
  if (id < id_base_ || id >= next_id_) return kNil;
  return id_map_[id & (id_map_.size() - 1)];
}

void Simulation::id_store(TimerId id, std::uint32_t node) {
  if (id - id_base_ >= id_map_.size()) id_grow();
  id_map_[id & (id_map_.size() - 1)] = node;
}

void Simulation::id_clear(TimerId id) {
  id_map_[id & (id_map_.size() - 1)] = kNil;
  while (id_base_ < next_id_ &&
         id_map_[id_base_ & (id_map_.size() - 1)] == kNil)
    ++id_base_;
}

void Simulation::id_grow() {
  // Only called from id_store while storing id == next_id_ - 1, so every
  // id in [id_base_, next_id_ - 1) has a valid slot to carry over.
  std::size_t cap = id_map_.size() * 2;
  while (next_id_ - id_base_ >= cap) cap *= 2;
  std::vector<std::uint32_t> fresh(cap, kNil);
  for (TimerId i = id_base_; i + 1 < next_id_; ++i)
    fresh[i & (cap - 1)] = id_map_[i & (id_map_.size() - 1)];
  id_map_ = std::move(fresh);
}

// --- wheel -----------------------------------------------------------------

void Simulation::place(std::uint32_t idx) {
  Node& n = nodes_[idx];
  std::int64_t delta = n.t - cur_;
  RIV_ASSERT(delta >= 0, "timer wheel: placing a node behind the cursor");
  if (delta >= kWheelHorizon) {
    overflow_.push(HeapEntry{n.t, n.seq, idx});
    return;
  }
  int level = 0;
  while (delta >= (std::int64_t{1} << (kLevelBits * (level + 1)))) ++level;
  // Bump out of the cursor's slot unless the node lies in the cursor's
  // current window there (then it cascades down, never re-lands).
  for (; level < kLevels; ++level) {
    int shift = kLevelBits * level;
    if (((n.t ^ cur_) >> shift) & (kSlotsPerLevel - 1)) break;
    if ((n.t >> (shift + kLevelBits)) == (cur_ >> (shift + kLevelBits)))
      break;
  }
  if (level == kLevels) {
    // Cursor-slot collision at the top level: the node is in a future
    // top-level revolution, so the heap owns it until the cursor gets
    // there (promote_overflow's revolution test keeps it out until then).
    overflow_.push(HeapEntry{n.t, n.seq, idx});
    return;
  }
  int shift = kLevelBits * level;
  int slot = static_cast<int>((n.t >> shift) & (kSlotsPerLevel - 1));
  n.next = kNil;
  if (slot_head_[level][slot] == kNil)
    slot_head_[level][slot] = idx;
  else
    nodes_[slot_tail_[level][slot]].next = idx;
  slot_tail_[level][slot] = idx;
  bitmap_[level] |= std::uint64_t{1} << slot;
  ++wheel_count_;
}

void Simulation::promote_overflow() {
  // Pull in everything from the cursor's current top-level revolution.
  // (Not simply everything within the horizon: a node just past the
  // revolution boundary could land back in the cursor's top-level slot,
  // and place() would bounce it straight back here.)
  constexpr int kTopShift = kLevelBits * kLevels;
  while (!overflow_.empty() &&
         (overflow_.top().t >> kTopShift) == (cur_ >> kTopShift)) {
    std::uint32_t idx = overflow_.top().node;
    overflow_.pop();
    if (nodes_[idx].cancelled)
      free_node(idx);
    else
      place(idx);
  }
}

bool Simulation::advance(std::int64_t cap) {
  for (;;) {
    if (wheel_count_ == 0) {
      if (overflow_.empty()) return false;
      std::int64_t top = overflow_.top().t;
      if (top > cap) return false;
      cur_ = top;
      promote_overflow();
      continue;
    }
    promote_overflow();

    // Level-0 candidate: an exact firing time.
    std::int64_t t0 = -1;
    int p0 = 0;
    if (std::uint64_t bm = bitmap_[0]; bm != 0) {
      int c0 = static_cast<int>(cur_ & (kSlotsPerLevel - 1));
      std::int64_t base = cur_ & ~std::int64_t{kSlotsPerLevel - 1};
      if (std::uint64_t ahead = bm >> c0; ahead != 0) {
        p0 = c0 + std::countr_zero(ahead);
        t0 = base + p0;
      } else {
        p0 = std::countr_zero(bm);
        t0 = base + kSlotsPerLevel + p0;  // wrapped into the next lap
      }
    }

    // Higher levels: window-start lower bounds (candidates to cascade).
    std::int64_t best_w = kMaxTime;
    int best_l = -1;
    int best_q = 0;
    for (int l = 1; l < kLevels; ++l) {
      std::uint64_t bm = bitmap_[l];
      if (bm == 0) continue;
      int shift = kLevelBits * l;
      int cl = static_cast<int>((cur_ >> shift) & (kSlotsPerLevel - 1));
      int q;
      std::int64_t w;
      std::int64_t rev = std::int64_t{1} << (shift + kLevelBits);
      std::int64_t rev_base = cur_ & ~(rev - 1);
      if (std::uint64_t ahead = bm >> cl; ahead != 0) {
        q = cl + std::countr_zero(ahead);
        w = rev_base + (static_cast<std::int64_t>(q) << shift);
      } else {
        q = std::countr_zero(bm);
        w = rev_base + rev + (static_cast<std::int64_t>(q) << shift);
      }
      if (w < best_w) {
        best_w = w;
        best_l = l;
        best_q = q;
      }
    }

    // Nodes still in the heap can precede a next-revolution window start,
    // so the heap top competes as a third candidate.
    std::int64_t heap_t = overflow_.empty() ? kMaxTime : overflow_.top().t;

    if (t0 >= 0 && t0 < best_w && t0 < heap_t) {
      if (t0 > cap) return false;
      cur_ = t0;
      std::uint32_t idx = slot_head_[0][p0];
      slot_head_[0][p0] = kNil;
      slot_tail_[0][p0] = kNil;
      bitmap_[0] &= ~(std::uint64_t{1} << p0);
      due_.clear();
      due_head_ = 0;
      while (idx != kNil) {
        std::uint32_t nxt = nodes_[idx].next;
        --wheel_count_;
        if (nodes_[idx].cancelled) {
          free_node(idx);
        } else {
          RIV_ASSERT(nodes_[idx].t == t0, "timer wheel slot/time mismatch");
          due_.push_back(idx);
        }
        idx = nxt;
      }
      if (due_.empty()) continue;  // tombstone-only slot; keep looking
      std::sort(due_.begin(), due_.end(),
                [this](std::uint32_t a, std::uint32_t b) {
                  return nodes_[a].seq < nodes_[b].seq;
                });
      due_time_ = t0;
      return true;
    }

    if (heap_t <= best_w) {
      // Next event is still beyond the wheel: jump the cursor so
      // promotion can pull it in. Safe — every wheel candidate is later.
      if (heap_t > cap) return false;
      cur_ = heap_t;
      promote_overflow();
      continue;
    }

    RIV_ASSERT(best_l >= 0, "timer wheel: occupancy with no candidate");
    // Cascade the earliest higher-level slot. On a tie with t0 this runs
    // first so same-time nodes merge into one level-0 slot and fire in
    // seq order.
    if (best_w > cap) return false;
    if (best_w > cur_) cur_ = best_w;
    std::uint32_t idx = slot_head_[best_l][best_q];
    slot_head_[best_l][best_q] = kNil;
    slot_tail_[best_l][best_q] = kNil;
    bitmap_[best_l] &= ~(std::uint64_t{1} << best_q);
    while (idx != kNil) {
      std::uint32_t nxt = nodes_[idx].next;
      --wheel_count_;
      if (nodes_[idx].cancelled)
        free_node(idx);
      else
        place(idx);
      idx = nxt;
    }
  }
}

// --- public API ------------------------------------------------------------

OwnerId Simulation::register_owner(TimerOwner& owner) {
  owners_.push_back(&owner);
  return static_cast<OwnerId>(owners_.size() - 1);
}

void Simulation::retire_owner(OwnerId owner) {
  cancel_owner(owner);
  owners_[owner] = nullptr;
}

TimerId Simulation::schedule_at(TimePoint t, OwnerId owner,
                                std::uint16_t kind, std::uint64_t arg) {
  return nodes_[insert(t, owner, kind, arg)].id;
}

TimerId Simulation::schedule_at(TimePoint t, Callback cb) {
  const std::uint32_t idx = insert(t, kClosureOwner, 0, 0);
  if (closures_.size() <= idx) closures_.resize(nodes_.size());
  closures_[idx] = std::move(cb);
  return nodes_[idx].id;
}

std::uint32_t Simulation::insert(TimePoint t, OwnerId owner,
                                 std::uint16_t kind, std::uint64_t arg) {
  RIV_ASSERT(t >= now_, "cannot schedule in the past");
  TimerId id = next_id_++;
  std::uint32_t idx = alloc_node();
  Node& n = nodes_[idx];
  n.t = t.us;
  n.seq = next_seq_++;
  n.id = id;
  n.arg = arg;
  n.owner = owner;
  n.kind = kind;
  n.cancelled = false;
  id_store(id, idx);
  place(idx);
  ++live_count_;
  return idx;
}

void Simulation::cancel(TimerId id) {
  std::uint32_t idx = id_lookup(id);
  if (idx != kNil) cancel_node(idx);
}

void Simulation::cancel_owner(OwnerId owner) {
  if (shut_down_) return;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.owner == owner && n.id != 0 && !n.cancelled) cancel_node(i);
  }
}

bool Simulation::is_pending(TimerId id) const { return id_lookup(id) != kNil; }

bool Simulation::fire_next(std::int64_t cap) {
  for (;;) {
    while (due_head_ < due_.size()) {
      std::uint32_t idx = due_[due_head_];
      if (nodes_[idx].cancelled) {
        // Cancelled after the batch formed (e.g. by an earlier callback
        // of the same instant): drop without advancing time.
        ++due_head_;
        free_node(idx);
        continue;
      }
      if (due_time_ > cap) return false;
      ++due_head_;
      now_ = TimePoint{due_time_};
      ++events_fired_;
      --live_count_;
      const Node n = nodes_[idx];
      id_clear(n.id);
      free_node(idx);
      if (trace::active(trace::Component::kSim)) {
        trace::emit(now_, ProcessId{0}, trace::Component::kSim,
                    trace::Kind::kTimerFire,
                    trace::fu(trace::Key::kTimer, n.id));
      }
      if (n.owner == kClosureOwner) {
        Callback cb = std::move(closures_[idx]);
        cb();
      } else {
        owners_[n.owner]->on_timer(n.id, n.kind, n.arg);
      }
      return true;
    }
    due_.clear();
    due_head_ = 0;
    if (!advance(cap)) return false;
  }
}

bool Simulation::step() {
  RIV_ASSERT(!shut_down_, "the kernel was shut down");
  return fire_next(kMaxTime);
}

void Simulation::clone_state(BinaryWriter& w) const {
  RIV_ASSERT(due_head_ == due_.size(), "clone capture mid-batch");
  w.i64(now_.us);
  w.u64(next_seq_);
  w.u64(events_fired_);
  w.u64(next_id_);
  io(w, rng_);
  // A node is live iff it is in use (free nodes have id 0) and was not
  // cancelled (tombstones wait in the wheel until drained).
  std::vector<const Node*> live;
  live.reserve(live_count_);
  for (const Node& n : nodes_)
    if (n.id != 0 && !n.cancelled) live.push_back(&n);
  std::sort(live.begin(), live.end(),
            [](const Node* a, const Node* b) { return a->seq < b->seq; });
  w.u64(live.size());
  for (const Node* n : live) {
    w.u64(n->id);
    w.i64(n->t);
    w.u64(n->seq);
    w.u32(n->owner);
    w.u16(n->kind);
    w.u64(n->arg);
  }
}

void Simulation::restore_clone(BinaryReader& r) {
  RIV_ASSERT(live_count_ == 0,
             "kernel restore target must be a fresh, not-yet-started "
             "deployment (restored ids would collide otherwise)");
  now_ = TimePoint{r.i64()};
  cur_ = now_.us;
  next_seq_ = r.u64();
  events_fired_ = r.u64();
  next_id_ = r.u64();
  io(r, rng_);
  const std::uint64_t n_live = r.u64();
  constexpr std::uint64_t kTimerBytes = 8 + 8 + 8 + 4 + 2 + 8;
  RIV_ASSERT(n_live <= r.remaining() / kTimerBytes,
             "clone restore: kernel timer list truncated");

  // Wipe storage wholesale: tombstones and free lists are artifacts of
  // the target's (empty) history and must not leak into the clone.
  nodes_.clear();
  free_head_ = kNil;
  closures_.clear();
  for (int l = 0; l < kLevels; ++l) {
    bitmap_[l] = 0;
    for (int s = 0; s < kSlotsPerLevel; ++s) {
      slot_head_[l][s] = kNil;
      slot_tail_[l][s] = kNil;
    }
  }
  wheel_count_ = 0;
  overflow_ = {};
  due_.clear();
  due_head_ = 0;

  id_base_ = next_id_;
  nodes_.resize(n_live);
  for (Node& n : nodes_) {
    n.id = r.u64();
    n.t = r.i64();
    n.seq = r.u64();
    n.owner = r.u32();
    n.kind = r.u16();
    n.arg = r.u64();
    RIV_ASSERT(n.owner != kClosureOwner,
               ("clone restore: timer " + std::to_string(n.id) +
                " is a closure, which no restore can rebuild")
                   .c_str());
    RIV_ASSERT(n.owner < owners_.size() && owners_[n.owner] != nullptr,
               "clone restore: a timer's owner is not registered in the "
               "target");
    RIV_ASSERT(n.id >= 1 && n.id < next_id_ && n.seq < next_seq_ &&
                   n.t >= now_.us,
               "clone restore: timer outside the captured window");
    id_base_ = std::min(id_base_, n.id);
  }
  // The ring must span the oldest restored id (capacity is bounded by id
  // span; see the ring comment above).
  std::size_t cap = id_map_.size();
  while (cap < next_id_ - id_base_) cap *= 2;
  id_map_.assign(cap, kNil);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    RIV_ASSERT(id_lookup(nodes_[i].id) == kNil,
               "clone restore: duplicate timer id");
    id_map_[nodes_[i].id & (cap - 1)] = i;
    place(i);
  }
  live_count_ = nodes_.size();
}

void Simulation::run_until(TimePoint t) {
  RIV_ASSERT(!shut_down_, "the kernel was shut down");
  while (fire_next(t.us)) {
  }
  if (now_ < t) now_ = t;
}

void Simulation::run_all() {
  while (step()) {
  }
}

}  // namespace riv::sim
