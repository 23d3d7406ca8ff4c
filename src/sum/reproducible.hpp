#pragma once
// Reproducible K-fold extraction summation, after Demmel & Nguyen (2013/15)
// and Rump's AccSum extraction idea — the "global sums accurate to 15
// digits" technique the paper's §III.C highlights as the enabler for
// lowering precision everywhere else.
//
// Each fold quantizes every addend to a common grid (via the (M + x) - M
// trick) whose spacing is coarse enough that accumulating the quantized
// parts is *exact*, hence independent of summation order. The residuals
// feed the next, finer fold. The returned value depends only on the input
// multiset — never on ordering, chunking, or thread count.

#include <concepts>
#include <cstddef>
#include <span>
#include <vector>

namespace tp::sum {

/// Result of a reproducible sum: the reproducible value plus diagnostics.
template <std::floating_point T>
struct ReproducibleResult {
    T value = T(0);       ///< order-independent sum
    T max_abs = T(0);     ///< max |x_i| used to set the extraction grid
    int folds_used = 0;   ///< number of extraction folds applied
};

/// Sum `x` reproducibly with `folds` extraction levels (default 3 gives
/// roughly eps^3-level relative error w.r.t. max|x|·n — far beyond double
/// rounding noise for physical data).
template <std::floating_point T>
[[nodiscard]] ReproducibleResult<T> sum_reproducible(std::span<const T> x,
                                                     int folds = 3);

extern template ReproducibleResult<float> sum_reproducible<float>(
    std::span<const float>, int);
extern template ReproducibleResult<double> sum_reproducible<double>(
    std::span<const double>, int);

}  // namespace tp::sum
