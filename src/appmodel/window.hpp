// Windows over event streams (§6.1).
//
// A Window is a contiguous, finite portion of one input stream with three
// orthogonal pieces of configuration, exactly as the paper defines them:
//   1. a bounded event buffer — bound expressed as an event count or as a
//      time span;
//   2. a trigger policy — when the buffered events are presented to the
//      operator (every event, when N events are available, or every T);
//   3. an evictor policy — how events leave the buffer (clear on trigger
//      for disjoint batches, keep-last-N / max-age for sliding windows).
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "common/time.hpp"
#include "devices/event.hpp"

namespace riv::appmodel {

struct TriggerPolicy {
  enum class Kind { kEveryEvent, kCount, kPeriodic };
  Kind kind{Kind::kEveryEvent};
  std::size_t count{1};
  Duration period{};

  static TriggerPolicy every_event() { return {Kind::kEveryEvent, 1, {}}; }
  static TriggerPolicy count_reached(std::size_t n) {
    return {Kind::kCount, n, {}};
  }
  static TriggerPolicy periodic(Duration t) {
    return {Kind::kPeriodic, 0, t};
  }
};

struct EvictorPolicy {
  bool clear_on_trigger{true};       // false => sliding window
  std::size_t keep_last{0};          // 0 = no count cap beyond the bound
  Duration max_age{};                // zero = no age cap beyond the bound

  static EvictorPolicy clear() { return {true, 0, {}}; }
  static EvictorPolicy sliding_keep_last(std::size_t n) {
    return {false, n, {}};
  }
  static EvictorPolicy sliding_max_age(Duration age) {
    return {false, 0, age};
  }
};

// Declarative description (used in app graphs; instantiated per process).
struct WindowSpec {
  enum class Bound { kCount, kTime };
  Bound bound{Bound::kCount};
  std::size_t count{1};
  Duration span{};
  TriggerPolicy trigger{};
  EvictorPolicy evictor{EvictorPolicy::clear()};

  // TimeWindow(span[, trigger[, evictor]]) — Table 2. Default trigger is
  // periodic with the window's own span.
  static WindowSpec time_window(Duration span);
  static WindowSpec time_window(Duration span, TriggerPolicy trigger);
  static WindowSpec time_window(Duration span, TriggerPolicy trigger,
                                EvictorPolicy evictor);

  // CountWindow(count[, trigger[, evictor]]) — Table 2. Default trigger
  // fires when `count` events are available.
  static WindowSpec count_window(std::size_t count);
  static WindowSpec count_window(std::size_t count, TriggerPolicy trigger);
  static WindowSpec count_window(std::size_t count, TriggerPolicy trigger,
                                 EvictorPolicy evictor);
};

// A live window instance over one stream.
class Window {
 public:
  explicit Window(WindowSpec spec) : spec_(spec) {}

  const WindowSpec& spec() const { return spec_; }

  // Buffer an event (applies the buffer bound).
  void add(const devices::SensorEvent& e, TimePoint now);

  // Would the trigger fire right now? (Periodic triggers are timer-driven
  // by the logic engine; this answers event-driven kinds.)
  bool event_trigger_ready() const;

  // Copy the current contents (bound + age constraints applied) into
  // `out`, reusing its capacity; false, with `out` untouched, when the
  // window is empty.
  bool snapshot(TimePoint now, std::vector<devices::SensorEvent>& out);

  // Apply the evictor after a successful trigger.
  void after_trigger(TimePoint now);

  bool empty() const { return buffer_.empty(); }
  std::size_t size() const { return buffer_.size(); }

  // Snapshot state (DESIGN.md §16): the live window contents, exactly.
  template <class A, class Self>
  static void io_state(A& a, Self& w) {
    io(a, w.buffer_);
  }

 private:
  void enforce_bounds(TimePoint now);

  WindowSpec spec_;
  std::deque<devices::SensorEvent> buffer_;
};

}  // namespace riv::appmodel
