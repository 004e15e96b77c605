// Fault-trace recording for the deterministic chaos engine.
//
// Every fault the injector applies is appended here with its virtual
// timestamp; at the end of a run the engine appends a summary line with
// the observable end-state (delivered/emitted counts, log sizes). The
// FNV-1a hash over the whole trace is the run's determinism fingerprint:
// two runs of the same seed must produce byte-identical traces, so a
// hash mismatch proves nondeterminism somewhere in the stack (a container
// iterated in address order, an unseeded random source, ...).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/time.hpp"

namespace riv::chaos {

class TraceRecorder {
 public:
  // Append one line, prefixed with the virtual timestamp.
  void record(TimePoint at, const std::string& line);
  // Append a raw line (headers, summaries).
  void record(const std::string& line);

  const std::vector<std::string>& lines() const { return lines_; }

  // FNV-1a over every line (with a separator), order-sensitive.
  std::uint64_t hash() const;
  // hash() rendered as fixed-width hex, for display and comparison.
  std::string digest() const;

  // Snapshot state (DESIGN.md §16): the lines so far.
  template <class A, class Self>
  static void io_state(A& a, Self& t) {
    io(a, t.lines_);
  }

 private:
  std::vector<std::string> lines_;
};

}  // namespace riv::chaos
