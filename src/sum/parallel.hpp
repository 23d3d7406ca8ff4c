#pragma once
// Thread-parallel sum with a thread-count-invariant result.
//
// The paper's §III.C lesson is that global reductions are where parallel
// decomposition leaks into the physics; threading the hot loops must not
// reintroduce that leak. Min and max cannot leak it: for non-NaN values
// they are exact, so the solvers fold them with an OpenMP reduction
// clause and get the same bits at any team size. A sum is not
// associative, so it needs an exact accumulator:
//
//   parallel_sum_exact: each thread folds a contiguous chunk into its own
//   sum::ExpansionAccumulator — an exact representation of the chunk
//   total — and the per-thread partials are combined in thread-index
//   order. Because every partial is exact, the combined expansion
//   represents the exact multiset sum no matter how the chunks were cut,
//   and the final correctly-rounded double is identical for 1, 2, or N
//   threads.

#include <span>

namespace tp::sum {

/// Exact (hence order- and thread-count-independent) parallel sum,
/// correctly rounded to double.
[[nodiscard]] double parallel_sum_exact(std::span<const double> x);

}  // namespace tp::sum
