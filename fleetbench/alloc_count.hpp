// Allocation counting for the traced run. fleetbench_traced links
// alloc_hook.cpp, whose global operator new bumps a thread-local counter;
// the timed binary links alloc_off.cpp and has no hook at all, so timed
// runs pay nothing and share no counter between workers.
#pragma once

#include <cstdint>

namespace fleetbench {

// Allocations made so far by the calling thread (0 without the hook).
std::uint64_t thread_allocs();
// True when this binary carries the counting hook.
bool alloc_counting();

}  // namespace fleetbench
