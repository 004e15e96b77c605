#include "alloc_count.hpp"

namespace fleetbench {

std::uint64_t thread_allocs() { return 0; }
bool alloc_counting() { return false; }

}  // namespace fleetbench
