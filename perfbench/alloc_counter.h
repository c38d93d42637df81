// Process-wide allocation counters fed by the counting global
// operator new/delete in alloc_counter.cc. Only this benchmark binary
// replaces the allocator; the library under test is unchanged.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Allocations (and requested bytes) since process start.
AllocCounts alloc_counts();

inline AllocCounts operator-(AllocCounts a, AllocCounts b) {
  return {a.allocs - b.allocs, a.bytes - b.bytes};
}

}  // namespace perfbench
