// Simulated home WiFi network.
//
// Models the testbed of §8.1: all hosts share one 802.11 access point.
// A frame from process A to process B therefore crosses the shared medium
// and pays:
//   * a base per-hop latency (AP relay, MAC contention floor),
//   * transmission time = bytes / effective bandwidth,
//   * CPU serialization/deserialization cost proportional to bytes
//     (wimpy 1.2 GHz ARM hosts, §8.1),
//   * a congestion term growing with the number of live processes
//     (keep-alive chatter; the paper attributes Gap's delay growth with
//     process count to this, Fig 4a),
//   * bounded random jitter.
//
// Reliability model: in-order reliable delivery per (src,dst) while both
// processes are up and mutually reachable; a crash or partition at send
// or delivery time loses the frame (TCP reset). Partitions are arbitrary
// groupings of processes (§3.1 allows arbitrary partitions). Layered under
// the group partitions, the chaos engine can force individual *directed*
// edges down (asymmetric reachability: A hears B but not vice versa) and
// override per-edge delay/loss — see set_reachable / set_edge_*.
//
// Byte accounting: every frame put on the wire increments
//   net.msgs.<type> and net.bytes.<type>
// in the experiment's metrics Registry; Fig 5 reads these.
//
// Hot-path layout (DESIGN.md §9): every process gets a small dense index
// at registration, and all per-process / per-directed-edge fault state
// (liveness, partition group, edge-down, edge delay/loss, FIFO clamp)
// lives in flat n- or n×n-arrays indexed by it — the per-frame path does
// no tree or hash lookups. Per-MsgType metrics counters are resolved once
// and cached, and the live-process count is maintained incrementally.
// A frame on the air is a data timer of the network's (DESIGN.md §9); its
// Message lives only in the network's table of frames in flight.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "metrics/metrics.hpp"
#include "net/transport.hpp"
#include "sim/simulation.hpp"
#include "sim/timer_table.hpp"

namespace riv::net {

struct WifiModel {
  Duration base_latency{1200};           // 1.2 ms per process->process hop
  double bandwidth_bytes_per_us{6.25};   // ~50 Mb/s effective
  double cpu_us_per_byte{0.04};          // serialize+deserialize, both ends
  Duration congestion_per_process{300};  // extra delay per live process > 2
  double jitter_frac{0.15};              // uniform [0, frac] of the total
};

class SimNetwork : public sim::TimerOwner {
 public:
  SimNetwork(sim::Simulation& sim, metrics::Registry& metrics,
             WifiModel model = {});
  ~SimNetwork();

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  // Get (creating on first use) the transport endpoint of a process.
  Transport& endpoint(ProcessId p);

  // Process liveness: a down process neither sends nor receives. (Crash of
  // the Rivulet runtime; the paper's crash-recovery model §3.1.)
  void set_process_up(ProcessId p, bool up);
  bool process_up(ProcessId p) const;

  // Install a partition: processes in different groups cannot communicate;
  // processes in the same group can. Any process not mentioned forms its
  // own singleton group.
  void set_partition(const std::vector<std::set<ProcessId>>& groups);
  // Remove any partition: full connectivity.
  void heal_partition();
  bool connected(ProcessId a, ProcessId b) const;

  // --- Directed-edge fault hooks (chaos engine) ----------------------
  // Asymmetric reachability: mark the directed link src->dst down (frames
  // that way are lost) while dst->src stays untouched. Layered UNDER group
  // partitions: a frame crosses iff the partition allows it AND no edge
  // override blocks it. heal_partition() does not clear edge overrides.
  void set_reachable(ProcessId src, ProcessId dst, bool up);
  void clear_reachable_overrides();
  // Directed deliverability: partition check plus edge override.
  bool reachable(ProcessId src, ProcessId dst) const;

  // Per-directed-edge quality overrides: extra one-way delay (spike on a
  // congested path) and Bernoulli frame loss (lossy WiFi path). A zero
  // delay / zero loss value removes the override.
  void set_edge_delay(ProcessId src, ProcessId dst, Duration extra);
  void set_edge_loss(ProcessId src, ProcessId dst, double loss_prob);
  void clear_edge_overrides();

  // --- Byzantine interposer (chaos engine) ---------------------------
  // Consulted once per frame, after the source-liveness check and before
  // the frame touches the air. The hook may rewrite the message in place
  // (payload mutation at a compromised host) and returns how many copies
  // to transmit: 0 eats the frame (traced as a "byzantine" drop), 1
  // passes it through, 2 forwards a duplicate. The chaos injector is the
  // only installer, so fault injection stays in one place.
  using Interposer = std::function<int(Message&)>;
  void set_interposer(Interposer fn) { interposer_ = std::move(fn); }

  // Number of processes currently up (drives the congestion term).
  int up_count() const { return up_count_; }

  const WifiModel& model() const { return model_; }
  metrics::Registry& metrics() { return *metrics_; }

  // Total frames currently in flight (for tests).
  std::size_t in_flight() const { return frames_.size(); }

  // --- snapshot support (DESIGN.md §16) ------------------------------
  // Full-state serialization: the registered processes (registration
  // order == dense index order, which is deterministic), liveness, the up
  // count, partition groups, every directed-edge override matrix, the
  // per-pair FIFO clamps, and every in-flight frame with its timer id.
  void clone_state(BinaryWriter& w) const;
  // Restore into a freshly built network whose processes were registered
  // in the same deterministic order (asserted). The kernel restores the
  // frames' timers; this restores the frames they deliver.
  void restore_clone(BinaryReader& r);

 private:
  class Endpoint;

  struct Proc {
    ProcessId pid{};
    std::unique_ptr<Endpoint> ep;
    bool up{false};
    // Matches the old map semantics: process_up() is false until either
    // endpoint() registers the process (initially up) or set_process_up()
    // states it explicitly.
    bool up_set{false};
    int group{0};  // 0 = unmentioned by the current partition
  };

  struct TypeCounters {
    metrics::Counter* msgs{nullptr};
    metrics::Counter* bytes{nullptr};
  };

  // Dense index of p, registering it on first sight (matrices grow).
  int ensure_index(ProcessId p);
  // Dense index of p, or -1 if p was never seen.
  int index_of(ProcessId p) const {
    return p.value < pid_to_idx_.size() ? pid_to_idx_[p.value] : -1;
  }
  std::size_t edge(int s, int d) const {
    return static_cast<std::size_t>(s) * procs_.size() +
           static_cast<std::size_t>(d);
  }

  // The one field list behind clone_state and restore_clone.
  template <class A, class Self>
  static void io_state(A& a, Self& s);

  void send_frame(Message msg);
  void transmit(Message msg);
  // A frame's delivery timer fired: liveness/reachability re-check plus
  // endpoint dispatch.
  void on_timer(sim::TimerId id, std::uint16_t kind,
                std::uint64_t arg) override;
  Duration frame_delay(std::size_t bytes);

  sim::Simulation* sim_;
  metrics::Registry* metrics_;
  WifiModel model_;

  std::vector<std::int16_t> pid_to_idx_;  // ProcessId.value -> dense index
  std::vector<Proc> procs_;
  int up_count_{0};
  bool partitioned_{false};

  // n×n matrices indexed by edge(src_idx, dst_idx); absent override = 0.
  std::vector<std::uint8_t> edge_down_;
  std::vector<std::int64_t> edge_delay_us_;
  std::vector<double> edge_loss_;
  std::vector<std::int64_t> last_delivery_us_;  // per-pair FIFO clamp

  TypeCounters type_counters_[16];
  Interposer interposer_;

  // The network's one timer kind: a frame's delivery.
  static constexpr std::uint16_t kFrameTimer = 0;
  sim::ProcessTimers timers_;
  // Frames on the air, keyed by their delivery timer.
  sim::TimerTable<Message> frames_;
};

}  // namespace riv::net
