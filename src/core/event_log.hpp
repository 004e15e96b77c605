// Per-application replicated event log (Gapless delivery state).
//
// Each process keeps, per Gapless stream, every event it has seen together
// with the protocol's S (seen) and V (must-see) sets, so that:
//   * dedup is exact (an event is delivered to the local logic node at
//     most once per process),
//   * a ring successor can be synchronized Bayou-style (§4.1): it reports
//     a per-sensor sequence summary (contiguous prefix, end, and the
//     missing runs between them) and the predecessor re-sends exactly the
//     stored events the successor lacks,
//   * a newly promoted logic node can replay the backlog past the gossiped
//     processed watermark (§5, Fig 7's post-failover spike).
//
// The log is the process's durable record (§3.1's crash-recovery model):
// the owning RivuletProcess keeps it across crash/recover, and recover()
// reduces it to what a crash preserves. The missing-run index behind the
// summaries is derived state: never snapshotted, rebuilt from the events by
// recover() and restore_clone().
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/pid_set.hpp"
#include "core/wire.hpp"
#include "devices/event.hpp"

namespace riv::core {

struct StoredEvent {
  devices::SensorEvent event;
  PidSet seen;  // S
  PidSet need;  // V
};

// A process's bound on each stream of its logs (oldest entries evicted
// beyond it); generous relative to the 200 s experiment runs.
inline constexpr std::size_t kEventLogCap = 100'000;

class EventLog {
 public:
  // `cap` bounds the number of retained events per stream.
  explicit EventLog(std::size_t cap = kEventLogCap);

  bool seen(EventId id) const;

  // Insert if new; returns false (and leaves the log unchanged) for
  // duplicates.
  bool append(const devices::SensorEvent& e, PidSet s, PidSet v);

  // Merge updated S/V knowledge about an already-stored event.
  void merge_sets(EventId id, const PidSet& s, const PidSet& v);

  // find, missing_from and events_after point into the log's storage: a
  // pointer stays valid until the log is next mutated (append, merge_sets,
  // recover, restore_clone), so consume the results before any of those.
  const StoredEvent* find(EventId id) const;

  // Sync summary of `sensor`'s stream: every seq in [first_retained,
  // prefix) is held, nothing at or past `end` is, and `missing` lists the
  // holes in between. Crash-recovery, a missed stream head and emissions
  // no receiver heard all punch holes; listing them lets the predecessor
  // fill each one without re-sending the suffix behind it. O(holes).
  wire::SyncSummary summary(SensorId sensor) const;

  // Stored events that a log summarized by `theirs` lacks — those inside
  // its missing runs or at/after its end — in sequence order.
  // O(runs · log n + matches).
  std::vector<const StoredEvent*> missing_from(
      const wire::SyncSummary& theirs) const;

  // Events of `sensor` with emitted_at strictly greater than `after`, in
  // emission order.
  std::vector<const StoredEvent*> events_after(SensorId sensor,
                                               TimePoint after) const;

  // --- processed watermark (gossiped via keep-alives) -----------------
  TimePoint processed_watermark(SensorId sensor) const;
  void advance_processed_watermark(SensorId sensor, TimePoint t);

  std::size_t size(SensorId sensor) const;
  std::vector<SensorId> sensors() const;

  // Crash recovery: keep of each event only its wire form (devices::encode)
  // — narrow payloads come back quantized to milli-units, the in-memory
  // integrity fields (chain, mac) zeroed. S/V sets, retention floors and
  // watermarks survive as they are; the hole index and the ordering flag
  // are rebuilt from the events.
  void recover();

  // --- snapshot support (DESIGN.md §16) ------------------------------
  // The full log — per-stream retention bounds, every stored event with
  // every in-memory field (payload size, integrity trailer, so re-sends
  // from a restored log are byte-for-byte what the source would have
  // sent) and its S/V sets, and the processed watermarks. All containers
  // here are ordered, so this is a pure function of log content. The
  // owner records which app the log belongs to. No timers here.
  void clone_state(BinaryWriter& w) const;
  void restore_clone(BinaryReader& r);

 private:
  // One per-sensor stream plus the bookkeeping that keeps the sync path
  // (summary, missing_from) and dedup off O(n) scans: syncs run every
  // anti-entropy period on every process, so they sit on the simulation
  // hot path (DESIGN.md §9).
  struct Stream {
    // Every retained event, sorted by sequence number (== emission order
    // per sensor). The live entries are [head, events.size()): eviction
    // advances head and the dead prefix is compacted away once it is half
    // the vector, so eviction is amortized O(1). An in-order append is a
    // push_back; a hole fill or a stray inserts in place. Lookups try the
    // slot a dense run would put the sequence in, then binary-search.
    std::vector<StoredEvent> events;
    std::size_t head{0};
    // Lowest sequence this log is still expected to hold (raised only by
    // capacity eviction). The prefix and holes are measured from here, so
    // a node that missed a stream's beginning reports that head as a hole
    // and gets it re-sent, instead of hiding the gap.
    std::uint32_t first_retained{1};
    // One past the contiguous run [first_retained, prefix_next): every
    // sequence in that range is present. Kept in step with `holes`.
    std::uint32_t prefix_next{1};
    // The missing runs [lo, hi) (lo -> hi) between first_retained and the
    // highest held sequence; the first starts at prefix_next. append
    // splits or opens a run, eviction drops runs below the new floor.
    std::map<std::uint32_t, std::uint32_t> holes;
    // emitted_at is nondecreasing in seq for real sensors (both advance
    // together at emission; anti-entropy re-sends carry the original
    // stamps). events_after relies on this; a fabricated out-of-order
    // append flips the flag and it falls back to a full scan.
    bool monotone{true};

    std::size_t size() const { return events.size() - head; }
    // Index of the first live entry whose sequence is >= seq.
    std::size_t lower_bound(std::uint32_t seq) const;
    // Index of seq's entry; events.size() when it is not held.
    std::size_t index_of(std::uint32_t seq) const;
  };

  // The one field list behind clone_state and restore_clone.
  template <class A, class Self>
  static void io_state(A& a, Self& s);

  void evict(Stream& stream);
  // One past the highest held sequence (first_retained when none is held).
  static std::uint32_t end_of(const Stream& stream);
  // prefix_next from the hole index: the first hole, else the end.
  static void set_prefix(Stream& stream);
  // Recompute `holes` and `prefix_next` from the events (recovery, clone).
  static void rebuild_index(Stream& stream);

  std::size_t cap_;
  std::map<SensorId, Stream> streams_;
  std::map<SensorId, TimePoint> processed_hw_;
};

}  // namespace riv::core
