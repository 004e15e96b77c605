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

  // Serialize every (key, value) pair in lexicographic key order. The
  // index is a hash map whose iteration order depends on insertion and
  // rehash history, so the sort here is load-bearing: two stores holding
  // the same pairs must snapshot byte-identically no matter how they
  // got there (pinned by CheckpointDeterminismPins.StableStoreOrder).
  void clone_state(BinaryWriter& w) const {
    std::vector<const std::string*> keys;
    keys.reserve(data_.size());
    for (const auto& [key, value] : data_) keys.push_back(&key);
    std::sort(keys.begin(), keys.end(),
              [](const std::string* a, const std::string* b) { return *a < *b; });
    w.u64(keys.size());
    for (const std::string* key : keys) {
      w.str(*key);
      w.bytes(data_.find(*key)->second);
    }
  }

  // Snapshot restore (DESIGN.md §16): the exact inverse of clone_state.
  void restore_clone(BinaryReader& r) {
    data_.clear();
    const std::uint64_t n = r.u64();
    data_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string key = r.str();
      data_.insert_or_assign(std::move(key), r.bytes());
    }
  }

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
  std::unordered_map<std::string, std::vector<std::byte>> data_;
};

}  // namespace riv::sim
