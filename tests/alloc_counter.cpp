#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

// The replacements live in their own translation unit: inlined into a
// test, GCC pairs the malloc behind a new-expression with the free behind
// the matching delete and reports -Wmismatched-new-delete.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t size) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tp::test {

std::uint64_t heap_allocations() {
    return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace tp::test
