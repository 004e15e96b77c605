// Replicated application state (extension).
//
// The paper keeps Rivulet's core stateless (§3.2): "applications are free
// to use existing distributed storage systems to replicate state." This
// module supplies that missing piece natively so stateful apps (running
// totals for energy billing, hysteresis for HVAC, ...) survive logic-node
// failover: a last-writer-wins replicated key-value register set,
// replicated with the same machinery Rivulet already relies on —
// best-effort push on write plus periodic ring-successor anti-entropy,
// persisted to the process's stable store across crashes.
//
// Consistency: eventual, LWW per key ordered by (timestamp, writer id).
// That matches the home setting (no quorums, any number of processes) and
// the kinds of state Table 1 apps keep.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "net/payload.hpp"
#include "sim/simulation.hpp"
#include "sim/stable_store.hpp"

namespace riv::store {

struct Entry {
  double value{0.0};
  TimePoint written_at{};
  std::uint32_t seq{0};  // per-writer write counter
  ProcessId writer{};

  // LWW dominance: later timestamp wins; among writes with the same
  // timestamp a writer's later write beats its earlier one (seq), and the
  // writer id breaks the remaining cross-writer ties deterministically.
  bool dominates(const Entry& other) const {
    if (written_at != other.written_at)
      return written_at > other.written_at;
    if (writer == other.writer) return seq > other.seq;
    return writer > other.writer;
  }

  // Wire and snapshot layout, after the key.
  static constexpr std::size_t kWireSize = 22;
  template <class A, class Self>
  static void io_state(A& a, Self& e) {
    io(a, e.value);
    io(a, e.written_at);
    io(a, e.seq);
    io(a, e.writer);
  }
};

// kStorePut, and a persisted register: key (4 + |key|) | entry (22).
struct Update {
  std::string key;
  Entry entry;

  std::size_t encoded_size() const { return 4 + key.size() + Entry::kWireSize; }
  template <class A, class Self>
  static void io_state(A& a, Self& u) {
    io(a, u.key);
    io(a, u.entry);
  }
};

// kStoreSync: count (4) | updates.
struct Batch {
  std::vector<Update> updates;

  std::size_t encoded_size() const {
    std::size_t size = 4;
    for (const Update& u : updates) size += u.encoded_size();
    return size;
  }
  template <class A, class Self>
  static void io_state(A& a, Self& b) {
    io_seq<std::uint32_t>(a, b.updates);
  }
};

class ReplicatedStore {
 public:
  // The anti-entropy timer's kind in its process's timer space (the store
  // is rebuilt on recovery, so the process owns the timer and routes it
  // back to anti_entropy()).
  static constexpr std::uint16_t kSyncTimer = 2;

  struct Hooks {
    ProcessId self{};
    // Push an encoded update/sync payload to a peer; the runtime binds
    // this to its transport (kStorePut / kStoreSync messages). Fan-out
    // paths reuse one Payload for every peer.
    std::function<void(ProcessId, bool is_sync, net::Payload)> send;
    std::function<const std::set<ProcessId>&()> view;
    sim::ProcessTimers* timers{nullptr};
    sim::StableStore* stable{nullptr};  // may be null (volatile store)
  };
  // Period of the anti-entropy push to the ring successor.
  static constexpr Duration kSyncPeriod = seconds(5);

  explicit ReplicatedStore(Hooks hooks);

  // Arm periodic anti-entropy and reload persisted state.
  void start();

  // --- application API -------------------------------------------------
  void put(const std::string& key, double value);
  std::optional<double> get(const std::string& key) const;
  std::size_t size() const { return entries_.size(); }
  std::vector<std::string> keys() const;

  // --- replication plumbing (called by the runtime) ---------------------
  // Each merges a whole frame, or nothing and returns false when the
  // frame does not decode.
  bool on_update(const std::vector<std::byte>& payload);  // Update
  bool on_sync(const std::vector<std::byte>& payload);    // Batch

  std::uint64_t writes() const { return writes_; }
  std::uint64_t merges_applied() const { return merges_applied_; }
  std::uint64_t merges_ignored() const { return merges_ignored_; }

  // Push the whole state to the ring successor and re-arm: the
  // kSyncTimer handler.
  void anti_entropy();

  // --- snapshot support (DESIGN.md §16) ------------------------------
  // Every replicated register and the write counters (entries_ is
  // ordered, so this is content-deterministic). Restore requires a
  // constructed-but-not-started store whose hooks are already wired (the
  // runtime installs the closures first).
  void clone_state(BinaryWriter& w) const;
  void restore_clone(BinaryReader& r);

 private:
  // The one field list behind clone_state and restore_clone.
  template <class A, class Self>
  static void io_state(A& a, Self& s);

  bool merge(const std::string& key, const Entry& incoming);
  void persist(const std::string& key, const Entry& e);
  void recover();

  Hooks hooks_;
  std::map<std::string, Entry> entries_;
  std::uint32_t write_seq_{0};
  std::uint64_t writes_{0};
  std::uint64_t merges_applied_{0};
  std::uint64_t merges_ignored_{0};
};

}  // namespace riv::store
