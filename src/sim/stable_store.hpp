// Simulated stable storage.
//
// StableStore models a tiny persistent key-value area (flash on a hub,
// disk on a TV): writes are atomic per key and survive crash/recover;
// volatile process state does not. ReplicatedStore persists its entries
// here. The per-app event logs, which a recovering process needs for the
// Bayou-style successor sync (§4.1), are their own durable record and do
// not pass through this store (core/event_log.hpp).
//
// The index is a hash map (O(1) amortized put/get) and put() moves both
// key and value. keys_with_prefix() sorts its (small, recovery-time-only)
// result so scan order stays lexicographic and deterministic like an
// ordered map.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/codec.hpp"

namespace riv::sim {

class StableStore {
 public:
  void put(std::string key, std::vector<std::byte> value) {
    data_.insert_or_assign(std::move(key), std::move(value));
  }
  std::optional<std::vector<std::byte>> get(const std::string& key) const {
    auto it = data_.find(key);
    if (it == data_.end()) return std::nullopt;
    return it->second;
  }
  void erase(const std::string& key) { data_.erase(key); }
  bool contains(const std::string& key) const { return data_.count(key) != 0; }
  std::size_t size() const { return data_.size(); }

  // Snapshot support (DESIGN.md §16): both run io_state.
  void clone_state(BinaryWriter& w) const { io_state(w, *this); }
  void restore_clone(BinaryReader& r) { io_state(r, *this); }

  // Keys with the given prefix, in lexicographic order (deterministic).
  std::vector<std::string> keys_with_prefix(const std::string& prefix) const {
    std::vector<std::string> out;
    for (const auto& [key, value] : data_) {
      if (key.rfind(prefix, 0) == 0) out.push_back(key);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  // Every (key, value) pair, in key order however the hash map got there
  // (pinned by CheckpointDeterminismPins.StableStoreOrder).
  template <class A, class Self>
  static void io_state(A& a, Self& s) {
    io(a, s.data_);
  }

  std::unordered_map<std::string, std::vector<std::byte>> data_;
};

}  // namespace riv::sim
