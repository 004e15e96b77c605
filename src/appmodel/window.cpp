#include "appmodel/window.hpp"

#include "common/assert.hpp"

namespace riv::appmodel {

WindowSpec WindowSpec::time_window(Duration span) {
  return time_window(span, TriggerPolicy::periodic(span));
}
WindowSpec WindowSpec::time_window(Duration span, TriggerPolicy trigger) {
  return time_window(span, trigger, EvictorPolicy::clear());
}
WindowSpec WindowSpec::time_window(Duration span, TriggerPolicy trigger,
                                   EvictorPolicy evictor) {
  WindowSpec w;
  w.bound = Bound::kTime;
  w.span = span;
  w.trigger = trigger;
  w.evictor = evictor;
  return w;
}

WindowSpec WindowSpec::count_window(std::size_t count) {
  return count_window(count, TriggerPolicy::count_reached(count));
}
WindowSpec WindowSpec::count_window(std::size_t count, TriggerPolicy trigger) {
  return count_window(count, trigger, EvictorPolicy::clear());
}
WindowSpec WindowSpec::count_window(std::size_t count, TriggerPolicy trigger,
                                    EvictorPolicy evictor) {
  RIV_ASSERT(count >= 1, "count window needs a positive bound");
  WindowSpec w;
  w.bound = Bound::kCount;
  w.count = count;
  w.trigger = trigger;
  w.evictor = evictor;
  return w;
}

void Window::add(const devices::SensorEvent& e, TimePoint now) {
  buffer_.push_back(e);
  enforce_bounds(now);
}

void Window::enforce_bounds(TimePoint now) {
  if (spec_.bound == WindowSpec::Bound::kCount) {
    while (buffer_.size() > spec_.count) buffer_.pop_front();
  } else {
    while (!buffer_.empty() &&
           now - buffer_.front().emitted_at > spec_.span)
      buffer_.pop_front();
  }
  // Evictor caps apply continuously for sliding windows.
  if (spec_.evictor.keep_last > 0) {
    while (buffer_.size() > spec_.evictor.keep_last) buffer_.pop_front();
  }
  if (spec_.evictor.max_age.us > 0) {
    while (!buffer_.empty() &&
           now - buffer_.front().emitted_at > spec_.evictor.max_age)
      buffer_.pop_front();
  }
}

bool Window::event_trigger_ready() const {
  switch (spec_.trigger.kind) {
    case TriggerPolicy::Kind::kEveryEvent:
      return !buffer_.empty();
    case TriggerPolicy::Kind::kCount:
      return buffer_.size() >= spec_.trigger.count;
    case TriggerPolicy::Kind::kPeriodic:
      return false;  // timer-driven
  }
  return false;
}

bool Window::snapshot(TimePoint now, std::vector<devices::SensorEvent>& out) {
  enforce_bounds(now);
  if (buffer_.empty()) return false;
  out.assign(buffer_.begin(), buffer_.end());
  return true;
}

void Window::after_trigger(TimePoint now) {
  if (spec_.evictor.clear_on_trigger) {
    buffer_.clear();
    return;
  }
  enforce_bounds(now);
}

}  // namespace riv::appmodel
