// Small sorted set of process ids.
//
// The ring protocol's S (seen) and V (must-see) sets ride on every Gapless
// message and every stored log entry, so they are copied, merged, and
// compared on the simulation hot path. A home has a handful of processes,
// so the ids live inline: up to kInline of them sit in the object itself
// and a copy allocates nothing. A larger set spills to one heap array
// (any u16 id, up to the wire's 255 members and beyond). Either way the ids
// are kept sorted and unique: membership is a binary search, and iteration
// order — and hence the wire encoding — is identical to the ordered set it
// replaces.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <set>

#include "common/types.hpp"

namespace riv {

class PidSet {
 public:
  // Ids held without a heap allocation. Every deployment in the repo has at
  // most 5 processes.
  static constexpr std::size_t kInline = 8;

  using const_iterator = const ProcessId*;

  PidSet() = default;
  PidSet(std::initializer_list<ProcessId> init) {
    insert(init.begin(), init.end());
  }
  template <typename It>
  PidSet(It first, It last) {
    insert(first, last);
  }
  // Ordered sets convert freely (tests, local-view snapshots); both
  // containers iterate in the same ascending order.
  PidSet(const std::set<ProcessId>& s)  // NOLINT(google-explicit-constructor)
      : PidSet(s.begin(), s.end()) {}

  // A move is a copy: an inline set is cheaper to copy than to hand over,
  // and no deployment here spills.
  PidSet(const PidSet& o) { assign(o); }
  PidSet& operator=(const PidSet& o) {
    if (this != &o) assign(o);
    return *this;
  }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  bool insert(ProcessId p) {
    ProcessId* first = data();
    ProcessId* last = first + size_;
    ProcessId* it = std::lower_bound(first, last, p);
    if (it != last && *it == p) return false;
    if (size_ == cap_) {
      const std::ptrdiff_t at = it - first;
      grow(2 * cap_);
      first = data();
      last = first + size_;
      it = first + at;
    }
    std::copy_backward(it, last, last + 1);
    *it = p;
    ++size_;
    return true;
  }
  template <typename It>
  void insert(It first, It last) {
    for (; first != last; ++first) insert(*first);
  }

  std::size_t count(ProcessId p) const {
    return std::binary_search(begin(), end(), p) ? 1 : 0;
  }
  bool contains(ProcessId p) const { return count(p) != 0; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  void clear() { size_ = 0; }

  friend bool operator==(const PidSet& a, const PidSet& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator!=(const PidSet& a, const PidSet& b) {
    return !(a == b);
  }

 private:
  ProcessId* data() { return heap_ ? heap_.get() : inline_; }
  const ProcessId* data() const { return heap_ ? heap_.get() : inline_; }

  // Move the ids into a heap array of `cap` (> kInline) slots.
  void grow(std::size_t cap) {
    auto bigger = std::make_unique<ProcessId[]>(cap);
    std::copy_n(data(), size_, bigger.get());
    heap_ = std::move(bigger);
    cap_ = static_cast<std::uint32_t>(cap);
  }
  // Become a copy of `o`, keeping this set's own storage when it fits.
  // Every array holds at least kInline ids, so an inline target copies a
  // fixed kInline-id block.
  void assign(const PidSet& o) {
    if (o.size_ > cap_) {
      size_ = 0;  // replaced below: nothing to carry into the new array
      grow(o.size_);
    }
    if (heap_) {
      std::copy_n(o.data(), o.size_, heap_.get());
    } else {
      std::copy_n(o.data(), kInline, inline_);
    }
    size_ = o.size_;
  }

  std::uint32_t size_{0};
  std::uint32_t cap_{kInline};
  std::unique_ptr<ProcessId[]> heap_;  // null while the ids are inline
  ProcessId inline_[kInline];
};

}  // namespace riv
