// Sets of sequence numbers held as runs.
//
// Every process remembers which events it already handled: Gap's dedup
// window, the Gapless re-flood guard, the per-instance delivered set and
// the integrity layer's replay history. A sensor numbers its events 1, 2,
// 3, ... and they arrive almost in order, so such a set is a few runs of
// consecutive numbers, not one tree node per event. SeqSet keeps the runs
// sorted and disjoint; the next number after the last run extends it in
// place without allocating. EventIdSet is one SeqSet per sensor. Both
// iterate in ascending order — for EventIdSet, EventId order — so their
// snapshot form (codec.hpp) is the ordered set's they replace.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/types.hpp"

namespace riv {

class SeqSet {
 public:
  // The inclusive run [lo, hi].
  struct Run {
    std::uint32_t lo;
    std::uint32_t hi;
  };

  // Ascending over every member.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::uint32_t*;
    using reference = std::uint32_t;

    const_iterator() = default;
    std::uint32_t operator*() const { return seq_; }
    const_iterator& operator++() {
      if (seq_ != run_->hi) {
        ++seq_;
      } else if (++run_ != end_) {
        seq_ = run_->lo;
      } else {
        seq_ = 0;
      }
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.run_ == b.run_ && a.seq_ == b.seq_;
    }

   private:
    friend class SeqSet;
    const_iterator(const Run* run, const Run* end)
        : run_(run), end_(end), seq_(run != end ? run->lo : 0) {}

    const Run* run_{nullptr};
    const Run* end_{nullptr};
    std::uint32_t seq_{0};
  };

  // False when `seq` is already a member.
  bool insert(std::uint32_t seq) {
    if (runs_.empty() || runs_.back().hi < seq) {
      if (!runs_.empty() && runs_.back().hi + 1 == seq) {
        runs_.back().hi = seq;
      } else {
        runs_.push_back({seq, seq});
      }
      ++size_;
      return true;
    }
    auto next = after(runs_, seq);
    if (next != runs_.begin()) {
      auto prev = std::prev(next);
      if (seq <= prev->hi) return false;
      // prev->hi < seq <= UINT32_MAX, so prev->hi + 1 cannot wrap; nor
      // can next->lo - 1, as next->lo > seq.
      if (prev->hi + 1 == seq) {
        if (next != runs_.end() && next->lo - 1 == seq) {
          prev->hi = next->hi;
          runs_.erase(next);
        } else {
          prev->hi = seq;
        }
        ++size_;
        return true;
      }
    }
    if (next != runs_.end() && next->lo - 1 == seq) {
      next->lo = seq;
    } else {
      runs_.insert(next, {seq, seq});
    }
    ++size_;
    return true;
  }

  bool contains(std::uint32_t seq) const {
    auto next = after(runs_, seq);
    return next != runs_.begin() && seq <= std::prev(next)->hi;
  }

  // False when `seq` was not a member. Erasing inside a run splits it.
  bool erase(std::uint32_t seq) {
    auto next = after(runs_, seq);
    if (next == runs_.begin()) return false;
    auto run = std::prev(next);
    if (seq > run->hi) return false;
    if (run->lo == run->hi) {
      runs_.erase(run);
    } else if (seq == run->lo) {
      ++run->lo;
    } else if (seq == run->hi) {
      --run->hi;
    } else {
      const Run upper{seq + 1, run->hi};
      run->hi = seq - 1;
      runs_.insert(next, upper);
    }
    --size_;
    return true;
  }

  std::uint64_t size() const { return size_; }
  void clear() {
    runs_.clear();
    size_ = 0;
  }

  const std::vector<Run>& runs() const { return runs_; }
  const_iterator begin() const {
    return {runs_.data(), runs_.data() + runs_.size()};
  }
  const_iterator end() const {
    const Run* last = runs_.data() + runs_.size();
    return {last, last};
  }

 private:
  // The first run starting above `seq`; its predecessor, if any, is the
  // only run that can hold `seq`.
  template <class Runs>
  static auto after(Runs& runs, std::uint32_t seq) -> decltype(runs.begin()) {
    return std::upper_bound(
        runs.begin(), runs.end(), seq,
        [](std::uint32_t s, const Run& r) { return s < r.lo; });
  }

  std::vector<Run> runs_;  // ascending, disjoint, never adjacent
  std::uint64_t size_{0};  // up to 2^32 members
};

class EventIdSet {
 public:
  // One sensor's members. A stream stays after its last member is erased.
  struct Stream {
    SensorId sensor;
    SeqSet seqs;
  };

  bool insert(EventId id) {
    auto it = lower(streams_, id.sensor);
    if (it == streams_.end() || it->sensor != id.sensor)
      it = streams_.insert(it, Stream{id.sensor, {}});
    if (!it->seqs.insert(id.seq)) return false;
    ++size_;
    return true;
  }
  bool contains(EventId id) const {
    auto it = lower(streams_, id.sensor);
    return it != streams_.end() && it->sensor == id.sensor &&
           it->seqs.contains(id.seq);
  }
  bool erase(EventId id) {
    auto it = lower(streams_, id.sensor);
    if (it == streams_.end() || it->sensor != id.sensor ||
        !it->seqs.erase(id.seq))
      return false;
    --size_;
    return true;
  }

  std::uint64_t size() const { return size_; }
  void clear() {
    streams_.clear();
    size_ = 0;
  }

  // Ascending by sensor: iterating each stream's seqs in turn lists the
  // members in EventId order.
  const std::vector<Stream>& streams() const { return streams_; }

 private:
  template <class Streams>
  static auto lower(Streams& streams, SensorId sensor)
      -> decltype(streams.begin()) {
    return std::lower_bound(
        streams.begin(), streams.end(), sensor,
        [](const Stream& s, SensorId id) { return s.sensor < id; });
  }

  std::vector<Stream> streams_;  // ascending by sensor; a home has a few
  std::uint64_t size_{0};
};

}  // namespace riv
