#include "metrics/metrics.hpp"

namespace riv::metrics {

std::uint64_t Registry::counter_sum(const std::string& prefix) const {
  std::uint64_t total = 0;
  for (const auto& [name, counter] : counters_) {
    if (name.rfind(prefix, 0) == 0) total += counter.value();
  }
  return total;
}

void Registry::merge_scalars_from(const Registry& other) {
  for (const auto& [name, counter] : other.counters_)
    counters_[name].add(counter.value());
  for (const auto& [name, lat] : other.latencies_)
    latencies_[name].merge(lat);
}

void Registry::reset() {
  counters_.clear();
  latencies_.clear();
}

void SnapshotTimeline::capture(TimePoint at, ProcessId process,
                               const Registry& reg) {
  for (const auto& [name, counter] : reg.counters())
    rows_.push_back(Row{at, process, name, counter.value()});
}

std::string SnapshotTimeline::to_csv() const {
  std::string out = "time_us,process,counter,value\n";
  for (const Row& r : rows_) {
    out += std::to_string(r.at.us);
    out += ',';
    out += std::to_string(r.process.value);
    out += ',';
    out += r.name;
    out += ',';
    out += std::to_string(r.value);
    out += '\n';
  }
  return out;
}

}  // namespace riv::metrics
