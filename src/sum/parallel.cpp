#include "sum/parallel.hpp"

#include <cstdint>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "sum/expansion.hpp"

namespace tp::sum {

double parallel_sum_exact(std::span<const double> x) {
    const std::size_t n = x.size();
    if (n == 0) return 0.0;
#if defined(_OPENMP)
    const int nteam = omp_get_max_threads();
#else
    const int nteam = 1;
#endif
    const auto t = static_cast<std::size_t>(nteam > 0 ? nteam : 1);
    std::vector<ExpansionAccumulator> partial(t);
    const auto ti = static_cast<std::int64_t>(t);
#pragma omp parallel for schedule(static)
    for (std::int64_t k = 0; k < ti; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        const std::size_t lo = n * kk / t;
        const std::size_t hi = n * (kk + 1) / t;
        partial[kk].add(x.subspan(lo, hi - lo));
    }
    // Combine in thread-index order. Each partial is exact, so the combined
    // value is the exact multiset sum whatever the chunking was.
    ExpansionAccumulator total;
    for (const auto& p : partial) total.add(p);
    return total.round();
}

}  // namespace tp::sum
