// Keep-alive failure detection and local views (§4.1).
//
// Every process broadcasts a keep-alive every `period` to all other
// configured processes and maintains a *local* view v_i: itself plus every
// process heard from within `timeout`. The paper is explicit that
// majority-based membership cannot be used in a home (there may be only
// one or two processes), so views are purely local and may disagree across
// processes — the delivery protocols are designed to tolerate that.
//
// Keep-alives also piggyback a small application payload (Rivulet uses it
// to gossip per-app processed watermarks, which bounds the backlog a newly
// promoted logic node replays — the ~20-event spike of Fig 7). The payload
// provider/handler hooks keep this module independent of the runtime.
// A keep-alive counts only if it decodes whole, piggyback included: one
// that does not changes nothing here and is reported to the caller.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/codec.hpp"
#include "net/transport.hpp"
#include "sim/simulation.hpp"

namespace riv::membership {

// kKeepAlive: sent_at (8) | piggyback length (4) | piggyback.
struct KeepAlive {
  TimePoint sent_at{};  // unused on receipt: clocks are synced
  std::vector<std::byte> piggyback;

  std::size_t encoded_size() const { return 12 + piggyback.size(); }
  template <class A, class Self>
  static void io_state(A& a, Self& k) {
    io(a, k.sent_at);
    io(a, k.piggyback);
  }
};

struct Config {
  Duration period{milliseconds(500)};
  Duration timeout{seconds(2)};  // §8.4: failure-detection threshold 2 s
};

class FailureDetector {
 public:
  // The keep-alive timer's kind in its process's timer space: the
  // detector is rebuilt on recovery, so the process owns the timer and
  // routes it back to tick().
  static constexpr std::uint16_t kTickTimer = 1;

  using ViewChangeFn = std::function<void(const std::set<ProcessId>& view)>;
  // Writes the piggyback into `out` (empty on entry), reusing its
  // capacity.
  using PayloadProvider = std::function<void(std::vector<std::byte>& out)>;
  // Applies a non-empty piggyback; false when it does not decode.
  using PayloadHandler = std::function<bool(
      ProcessId from, const std::vector<std::byte>& piggyback)>;

  FailureDetector(sim::ProcessTimers& timers, net::Transport& transport,
                  std::vector<ProcessId> all_processes, Config config);

  void set_on_view_change(ViewChangeFn fn) { on_view_change_ = std::move(fn); }
  void set_payload_provider(PayloadProvider fn) { provider_ = std::move(fn); }
  void set_payload_handler(PayloadHandler fn) { handler_ = std::move(fn); }

  // Begin heartbeating. Initial view is optimistic (everyone alive), per
  // the prototype: a fresh process assumes peers are up until proven dead.
  void start();

  // Feed an incoming keep-alive (the runtime demultiplexes messages).
  // False, with nothing applied, when the frame or its piggyback does not
  // decode.
  bool on_keepalive(const net::Message& msg);

  // Send keep-alives, recompute the view and re-arm: the kTickTimer
  // handler.
  void tick();

  const std::set<ProcessId>& view() const { return view_; }
  bool alive(ProcessId p) const { return view_.count(p) != 0; }
  ProcessId self() const { return self_; }
  const std::vector<ProcessId>& all_processes() const { return all_; }

  // --- snapshot support (DESIGN.md §16) ------------------------------
  // Membership state: the local view and the last-heard table behind it.
  // Restore requires a constructed-but-not-started detector with its
  // hooks already installed (the runtime re-wires closures first).
  void clone_state(BinaryWriter& w) const;
  void restore_clone(BinaryReader& r);

 private:
  void recompute_view();
  // The one field list behind clone_state and restore_clone.
  template <class A, class Self>
  static void io_state(A& a, Self& s);

  sim::ProcessTimers* timers_;
  net::Transport* transport_;
  ProcessId self_;
  std::vector<ProcessId> all_;
  Config config_;

  std::map<ProcessId, TimePoint> last_heard_;
  std::set<ProcessId> view_;
  // Sorted mirror of view_ plus a scratch buffer: recompute_view() runs on
  // every received keep-alive, and the common "nothing changed" case must
  // not rebuild a std::set just to compare and discard it.
  std::vector<ProcessId> view_flat_;
  std::vector<ProcessId> scratch_;
  ViewChangeFn on_view_change_;
  PayloadProvider provider_;
  PayloadHandler handler_;
  // Send and decode scratch: their piggyback buffers are reused, so a
  // steady tick allocates nothing.
  KeepAlive sending_;
  KeepAlive received_;
  bool started_{false};
};

}  // namespace riv::membership
