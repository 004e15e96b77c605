// Payloads in flight, keyed by the timer that delivers them (DESIGN.md §9).
//
// A frame on the air, a radio delivery or an actuator command is data its
// owner's timer fires on. The owner keeps the one copy here, and takes it
// back when the timer fires; its snapshot state holds the table. Timer ids
// are issued in increasing order, so entries append in key order and
// take() finds its entry by binary search. The fired prefix is dropped as
// it forms and the vector keeps its capacity, so steady-state put/take
// allocate nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/assert.hpp"
#include "common/codec.hpp"
#include "sim/simulation.hpp"

namespace riv::sim {

template <typename T>
class TimerTable {
 public:
  // `id` must exceed every id put so far.
  void put(TimerId id, T value) {
    RIV_ASSERT(entries_.empty() || entries_.back().id < id,
               "timer table: ids out of order");
    entries_.push_back({id, true, std::move(value)});
    ++live_;
  }

  // Remove and return the payload of pending timer `id`.
  T take(TimerId id) {
    auto it = std::lower_bound(
        entries_.begin() + static_cast<std::ptrdiff_t>(head_), entries_.end(),
        id, [](const Entry& e, TimerId key) { return e.id < key; });
    RIV_ASSERT(it != entries_.end() && it->id == id && it->live,
               "timer table: no payload for the firing timer");
    it->live = false;
    --live_;
    T value = std::move(it->value);
    while (head_ < entries_.size() && !entries_[head_].live) ++head_;
    if (head_ == entries_.size()) {
      entries_.clear();
      head_ = 0;
    } else if (head_ >= 32 && head_ * 2 >= entries_.size()) {
      entries_.erase(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return value;
  }

  // Forget every payload (their timers were cancelled).
  void clear() {
    entries_.clear();
    head_ = 0;
    live_ = 0;
  }

  std::size_t size() const { return live_; }

  // Visit (id, payload) for every pending timer, in id order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = head_; i < entries_.size(); ++i)
      if (entries_[i].live) f(entries_[i].id, entries_[i].value);
  }

 private:
  struct Entry {
    TimerId id;
    bool live;
    T value;
  };
  std::vector<Entry> entries_;
  std::size_t head_{0};  // entries before it have all been taken
  std::size_t live_{0};
};

// Snapshot field I/O (common/codec.hpp): the pending count, then each
// timer id with its payload. The kernel's blob carries the timers.
template <typename T>
void io(BinaryWriter& w, const TimerTable<T>& table) {
  w.u64(table.size());
  table.for_each([&w](TimerId id, const T& value) {
    w.u64(id);
    io(w, value);
  });
}
template <typename T>
void io(BinaryReader& r, TimerTable<T>& table) {
  table.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    const TimerId id = r.u64();
    T value{};
    io(r, value);
    table.put(id, std::move(value));
  }
}

}  // namespace riv::sim
