// Timer-wheel kernel edge cases (DESIGN.md §9).
//
// The wheel replaced a binary-heap kernel whose semantics the whole stack
// depends on: fire order is exactly (time, scheduling seq), cancel is a
// no-op after firing, and far-future timers behave identically to near
// ones. These tests pin the tricky transitions — cancel-while-firing,
// same-instant ties, overflow promotion, slot wraparound — and close with
// a differential run against a straightforward heap reference over 1e6
// random operations, and a mid-run clone that must fire the rest of the
// same random schedule exactly as the uninterrupted kernel does.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/simulation.hpp"

namespace riv::sim {
namespace {

// Wheel geometry mirrored from simulation.hpp (private there): 4 levels of
// 64 slots at 1 µs ticks.
constexpr std::int64_t kSlot = 64;
constexpr std::int64_t kHorizon = std::int64_t{1} << 24;

TEST(SimWheel, CancelWhileFiringSameInstant) {
  Simulation sim(1);
  std::vector<int> fired;
  TimerId b = 0;
  // a and b are due at the same instant; a (earlier seq) fires first and
  // cancels b, which must then never run even though it was already due.
  sim.schedule_at(TimePoint{100}, [&] {
    fired.push_back(1);
    sim.cancel(b);
  });
  b = sim.schedule_at(TimePoint{100}, [&] { fired.push_back(2); });
  TimerId c = sim.schedule_at(TimePoint{100}, [&] { fired.push_back(3); });
  (void)c;
  sim.run_until(TimePoint{200});
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimWheel, CancelSelfWhileFiringIsANoOp) {
  Simulation sim(1);
  int fired = 0;
  TimerId a = 0;
  a = sim.schedule_at(TimePoint{5}, [&] {
    ++fired;
    sim.cancel(a);  // already firing: must not corrupt the slab
  });
  sim.schedule_at(TimePoint{6}, [&] { ++fired; });
  sim.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.is_pending(a));
}

TEST(SimWheel, ScheduleAtNowPreservesSeqOrder) {
  Simulation sim(1);
  std::vector<int> fired;
  sim.run_until(TimePoint{50});
  // Ties at the current instant — including one scheduled from inside a
  // callback — fire strictly in scheduling order.
  sim.schedule_at(TimePoint{50}, [&] {
    fired.push_back(1);
    sim.schedule_at(TimePoint{50}, [&] { fired.push_back(4); });
  });
  sim.schedule_at(TimePoint{50}, [&] { fired.push_back(2); });
  sim.schedule_at(TimePoint{50}, [&] { fired.push_back(3); });
  sim.run_until(TimePoint{50});
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SimWheel, FarFutureOverflowPromotion) {
  Simulation sim(1);
  std::vector<int> fired;
  // Far beyond the wheel horizon (overflow heap), near the boundary, and
  // well inside the wheel; they must fire in time order regardless of
  // which structure initially held them.
  sim.schedule_at(TimePoint{3 * kHorizon}, [&] { fired.push_back(3); });
  sim.schedule_at(TimePoint{kHorizon + 7}, [&] { fired.push_back(2); });
  sim.schedule_at(TimePoint{123}, [&] { fired.push_back(1); });
  EXPECT_EQ(sim.pending_count(), 3u);
  sim.run_until(TimePoint{kHorizon});
  EXPECT_EQ(fired, (std::vector<int>{1}));
  sim.run_until(TimePoint{4 * kHorizon});
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimWheel, CancelInsideOverflowNeverFires) {
  Simulation sim(1);
  int fired = 0;
  TimerId far = sim.schedule_at(TimePoint{2 * kHorizon}, [&] { ++fired; });
  sim.cancel(far);
  EXPECT_FALSE(sim.is_pending(far));
  sim.run_until(TimePoint{3 * kHorizon});
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimWheel, WraparoundAcrossLevelBoundaries) {
  Simulation sim(1);
  std::vector<std::int64_t> fired_at;
  // Hit every delicate offset around level-0 and level-1 revolutions,
  // scheduled from a non-zero cursor position so slots genuinely wrap.
  sim.run_until(TimePoint{37});
  const std::int64_t offsets[] = {0,
                                  1,
                                  kSlot - 1,
                                  kSlot,
                                  kSlot + 1,
                                  2 * kSlot,
                                  kSlot * kSlot - 1,
                                  kSlot * kSlot,
                                  kSlot * kSlot + 1,
                                  2 * kSlot * kSlot};
  for (std::int64_t off : offsets) {
    TimePoint t{37 + off};
    sim.schedule_at(t, [&fired_at, t] { fired_at.push_back(t.us); });
  }
  sim.run_until(TimePoint{37 + 3 * kSlot * kSlot});
  std::vector<std::int64_t> expected;
  for (std::int64_t off : offsets) expected.push_back(37 + off);
  EXPECT_EQ(fired_at, expected);
}

TEST(SimWheel, RepeatedRevolutionsKeepPeriodicTimersExact) {
  Simulation sim(1);
  // A keep-alive style periodic timer crossing many full level-0
  // revolutions must fire exactly on its grid.
  std::vector<std::int64_t> fired_at;
  const std::int64_t period = 17;  // coprime with the 64-slot level
  std::function<void()> tick = [&] {
    fired_at.push_back(sim.now().us);
    if (fired_at.size() < 1000)
      sim.schedule_after(Duration{period}, tick);
  };
  sim.schedule_after(Duration{period}, tick);
  sim.run_until(TimePoint{period * 2000});
  ASSERT_EQ(fired_at.size(), 1000u);
  for (std::size_t i = 0; i < fired_at.size(); ++i)
    EXPECT_EQ(fired_at[i], static_cast<std::int64_t>(i + 1) * period);
}

// --- differential test vs a reference heap kernel ------------------------

// The kernel the wheel replaced, reduced to its semantics: a (time, seq)
// min-heap plus an id map, ties broken by scheduling order.
class ReferenceKernel {
 public:
  TimerId schedule_at(std::int64_t t, std::function<void()> cb) {
    TimerId id = next_id_++;
    heap_.push({t, next_seq_++, id});
    cbs_.emplace(id, std::move(cb));
    return id;
  }
  void cancel(TimerId id) { cbs_.erase(id); }
  void run_until(std::int64_t t) {
    while (!heap_.empty() && heap_.top().t <= t) {
      Entry e = heap_.top();
      heap_.pop();
      auto it = cbs_.find(e.id);
      if (it == cbs_.end()) continue;  // cancelled
      std::function<void()> cb = std::move(it->second);
      cbs_.erase(it);
      now_ = e.t;
      cb();
    }
    now_ = t;
  }
  void run_all() {
    while (!heap_.empty()) run_until(heap_.top().t);
  }
  std::int64_t now() const { return now_; }
  std::size_t pending() const { return cbs_.size(); }

 private:
  struct Entry {
    std::int64_t t;
    std::uint64_t seq;
    TimerId id;
    bool operator>(const Entry& o) const {
      if (t != o.t) return t > o.t;
      return seq > o.seq;
    }
  };
  std::int64_t now_{0};
  TimerId next_id_{1};
  std::uint64_t next_seq_{0};
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::unordered_map<TimerId, std::function<void()>> cbs_;
};

struct Op {
  enum Kind { kSchedule, kCancel, kAdvance } kind;
  std::int64_t delay{0};   // kSchedule: offset from now; kAdvance: step
  std::uint64_t target{0};  // kCancel: id to cancel
};

// Pre-generate the op stream so both kernels see the exact same program.
std::vector<Op> make_ops(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(n);
  std::uint64_t issued = 0;
  std::size_t live_estimate = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double r = rng.uniform();
    // Bias toward draining when the pending set gets large so the test
    // exercises fire paths as hard as schedule paths.
    if (live_estimate > 20000) r = 0.95;
    if (r < 0.55 || issued == 0) {
      std::int64_t d;
      double shape = rng.uniform();
      if (shape < 0.70) {
        d = static_cast<std::int64_t>(rng.uniform_int(4096));  // near
      } else if (shape < 0.95) {
        d = static_cast<std::int64_t>(rng.uniform_int(1 << 20));  // mid
      } else {
        d = kHorizon +
            static_cast<std::int64_t>(rng.uniform_int(kHorizon));  // far
      }
      ops.push_back({Op::kSchedule, d, 0});
      ++issued;
      ++live_estimate;
    } else if (r < 0.75) {
      ops.push_back({Op::kCancel, 0, 1 + rng.uniform_int(issued)});
      if (live_estimate > 0) --live_estimate;
    } else {
      std::int64_t step =
          1 + static_cast<std::int64_t>(rng.uniform_int(50000));
      ops.push_back({Op::kAdvance, step, 0});
      live_estimate = live_estimate / 2;  // rough decay
    }
  }
  return ops;
}

TEST(SimWheelDifferential, MillionRandomOpsMatchReferenceHeap) {
  const std::size_t kOps = 1'000'000;
  const std::vector<Op> ops = make_ops(kOps, 42);
  // Fired labels in dispatch order — the complete observable behavior of
  // a timer kernel (both kernels run the same program, so a divergence in
  // firing *time* necessarily shows up as a divergence in *order*). The
  // k-th schedule op gets label k in both kernels, which also makes the
  // issued TimerIds line up, so kCancel targets mean the same timer.
  std::vector<std::uint64_t> wheel_log, ref_log;
  wheel_log.reserve(kOps);
  ref_log.reserve(kOps);

  {
    Simulation wheel(7);
    std::uint64_t label = 0;
    std::int64_t now = 0;
    for (const Op& op : ops) {
      switch (op.kind) {
        case Op::kSchedule: {
          const std::uint64_t l = ++label;
          wheel.schedule_at(TimePoint{now + op.delay},
                            [&wheel_log, l] { wheel_log.push_back(l); });
          break;
        }
        case Op::kCancel:
          wheel.cancel(op.target);
          break;
        case Op::kAdvance:
          now += op.delay;
          wheel.run_until(TimePoint{now});
          break;
      }
    }
    wheel.run_all();
    EXPECT_EQ(wheel.pending_count(), 0u);
  }
  {
    ReferenceKernel ref;
    std::uint64_t label = 0;
    std::int64_t now = 0;
    for (const Op& op : ops) {
      switch (op.kind) {
        case Op::kSchedule: {
          const std::uint64_t l = ++label;
          ref.schedule_at(now + op.delay,
                          [&ref_log, l] { ref_log.push_back(l); });
          break;
        }
        case Op::kCancel:
          ref.cancel(op.target);
          break;
        case Op::kAdvance:
          now += op.delay;
          ref.run_until(now);
          break;
      }
    }
    ref.run_all();
    EXPECT_EQ(ref.pending(), 0u);
  }

  ASSERT_EQ(wheel_log.size(), ref_log.size());
  // EXPECT_EQ on the whole vectors would dump a million elements on
  // failure; report the first divergence instead.
  for (std::size_t i = 0; i < wheel_log.size(); ++i) {
    ASSERT_EQ(wheel_log[i], ref_log[i]) << "first divergence at index " << i;
  }
}

// --- mid-run clone -------------------------------------------------------

struct Fired {
  TimerId id;
  std::int64_t t;
  std::uint32_t owner;
  std::uint16_t kind;
  std::uint64_t arg;
  bool operator==(const Fired&) const = default;
};

// Logs every firing, tagged with the owner's index among the three.
struct LoggingOwner : TimerOwner {
  LoggingOwner(Simulation& sim, std::uint32_t index, std::vector<Fired>* log)
      : sim(&sim), index(index), log(log), timers(sim, *this) {}
  void on_timer(TimerId id, std::uint16_t kind, std::uint64_t arg) override {
    log->push_back({id, sim->now().us, index, kind, arg});
  }
  Simulation* sim;
  std::uint32_t index;
  std::vector<Fired>* log;
  ProcessTimers timers;
};

std::vector<std::byte> capture(const Simulation& sim) {
  BinaryWriter w;
  sim.clone_state(w);
  return w.take();
}

// Run ops [from, to) against `owners`; schedule op k goes to owner k % 3
// with a kind and arg derived from k. Returns after the last op.
void run_ops(Simulation& sim,
             std::vector<std::unique_ptr<LoggingOwner>>& owners,
             const std::vector<Op>& ops, std::size_t from, std::size_t to,
             std::int64_t* now) {
  for (std::size_t k = from; k < to; ++k) {
    const Op& op = ops[k];
    switch (op.kind) {
      case Op::kSchedule:
        owners[k % 3]->timers.schedule_at(TimePoint{*now + op.delay},
                                          static_cast<std::uint16_t>(k % 5),
                                          k * 0x9e3779b97f4a7c15ULL);
        break;
      case Op::kCancel:
        sim.cancel(op.target);
        break;
      case Op::kAdvance:
        *now += op.delay;
        sim.run_until(TimePoint{*now});
        break;
    }
  }
}

// Capture mid-run with three registered owners, restore into a fresh
// kernel, and the clone must fire the remaining schedule exactly as the
// uninterrupted kernel: the same (id, t, owner, kind, arg) sequence, and
// byte-identical captures along the way, which pins every pending
// timer's seq too.
TEST(SimWheelDifferential, MidRunCloneFiresTheSameSchedule) {
  const std::size_t kOps = 200'000;
  const std::vector<Op> ops = make_ops(kOps, 43);
  std::size_t cut = kOps / 2;
  while (ops[cut - 1].kind != Op::kAdvance) ++cut;  // capture at rest

  std::vector<Fired> ref_log;
  std::vector<Fired> clone_log;
  std::vector<std::vector<std::byte>> ref_blobs;
  std::vector<std::vector<std::byte>> clone_blobs;
  auto owners_for = [](Simulation& sim, std::vector<Fired>* log) {
    std::vector<std::unique_ptr<LoggingOwner>> owners;
    for (std::uint32_t i = 0; i < 3; ++i)
      owners.push_back(std::make_unique<LoggingOwner>(sim, i, log));
    return owners;
  };
  // Compare captures at a few points of the tail.
  const std::size_t stride = (kOps - cut) / 8;

  {
    Simulation sim(7);
    auto owners = owners_for(sim, &ref_log);
    std::int64_t now = 0;
    run_ops(sim, owners, ops, 0, cut, &now);
    ref_blobs.push_back(capture(sim));
    for (std::size_t k = cut; k < kOps; k += stride) {
      run_ops(sim, owners, ops, k, std::min(k + stride, kOps), &now);
      sim.run_until(TimePoint{now});
      ref_blobs.push_back(capture(sim));
    }
    sim.run_all();
  }
  {
    std::vector<std::byte> image;
    std::int64_t now = 0;
    {
      Simulation source(7);
      auto owners = owners_for(source, &clone_log);
      run_ops(source, owners, ops, 0, cut, &now);
      image = capture(source);
    }
    Simulation sim(99);  // the seed is part of the image
    auto owners = owners_for(sim, &clone_log);
    // An owner the capture never saw may be registered too.
    LoggingOwner extra(sim, 3, &clone_log);
    BinaryReader r(image);
    sim.restore_clone(r);
    ASSERT_TRUE(r.ok() && r.remaining() == 0);
    clone_blobs.push_back(capture(sim));
    for (std::size_t k = cut; k < kOps; k += stride) {
      run_ops(sim, owners, ops, k, std::min(k + stride, kOps), &now);
      sim.run_until(TimePoint{now});
      clone_blobs.push_back(capture(sim));
    }
    sim.run_all();
  }

  ASSERT_EQ(clone_blobs.size(), ref_blobs.size());
  for (std::size_t i = 0; i < ref_blobs.size(); ++i)
    EXPECT_TRUE(clone_blobs[i] == ref_blobs[i]) << "capture " << i;
  ASSERT_EQ(clone_log.size(), ref_log.size());
  for (std::size_t i = 0; i < ref_log.size(); ++i)
    ASSERT_TRUE(clone_log[i] == ref_log[i]) << "first divergence at " << i;
}

// A closure cannot be rebuilt from bytes, so restoring a capture that
// holds a live one aborts and names it; so does a timer whose owner the
// target never registered.
TEST(SimWheelCloneDeathTest, RestoreRejectsClosuresAndUnknownOwners) {
  std::vector<Fired> log;
  std::vector<std::byte> with_closure;
  std::vector<std::byte> data_only;
  {
    Simulation sim(1);
    LoggingOwner owner(sim, 0, &log);
    owner.timers.schedule_after(milliseconds(1), 0, 0);
    data_only = capture(sim);
    sim.schedule_after(milliseconds(2), [] {});  // timer 2
    with_closure = capture(sim);
  }
  EXPECT_DEATH(
      {
        Simulation sim(1);
        LoggingOwner owner(sim, 0, &log);
        BinaryReader r(with_closure);
        sim.restore_clone(r);
      },
      "timer 2 is a closure");
  EXPECT_DEATH(
      {
        Simulation sim(1);
        BinaryReader r(data_only);
        sim.restore_clone(r);
      },
      "not registered");
}

}  // namespace
}  // namespace riv::sim
