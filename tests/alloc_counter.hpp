#pragma once
// A heap-allocation counter for the test binaries that check a zero-
// allocation contract (test_obs, test_dist, test_blocks). Linking
// alloc_counter.cpp replaces the global operator new and delete of the
// binary with malloc/free versions that count each allocation.

#include <cstdint>

namespace tp::test {

/// Number of operator-new calls in this process so far.
[[nodiscard]] std::uint64_t heap_allocations();

}  // namespace tp::test
