#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "sum/basic.hpp"
#include "sum/expansion.hpp"
#include "sum/reproducible.hpp"
#include "fp/ulp.hpp"
#include "sum/twosum.hpp"
#include "util/rng.hpp"

namespace ts = tp::sum;

namespace {

/// Ill-conditioned test data: values spanning many magnitudes with heavy
/// cancellation, plus the exact sum computed by construction.
struct Workload {
    std::vector<double> values;
    double exact;
};

Workload make_workload(std::uint64_t seed, std::size_t n, double spread) {
    tp::util::Rng rng(seed);
    Workload w;
    w.values.reserve(2 * n + 1);
    ts::ExpansionAccumulator acc;
    for (std::size_t i = 0; i < n; ++i) {
        const double mag = std::exp(rng.uniform(0.0, spread));
        const double v = rng.uniform(-1.0, 1.0) * mag;
        // Insert v and -v plus a small unique epsilon so cancellation is
        // severe but the exact total is nontrivial.
        const double eps = rng.uniform(-1e-9, 1e-9);
        w.values.push_back(v);
        w.values.push_back(-v + eps);
        acc.add(v);
        acc.add(-v + eps);
    }
    w.values.push_back(1.0);
    acc.add(1.0);
    w.exact = acc.round();
    return w;
}

double rel_err(double got, double want) {
    return std::fabs(got - want) / std::max(std::fabs(want), 1e-300);
}

}  // namespace

// ----------------------------------------------------------------- two_sum
TEST(TwoSum, ErrorTermIsExact) {
    const auto [s, e] = ts::two_sum(1.0, 1e-20);
    EXPECT_DOUBLE_EQ(s, 1.0);
    EXPECT_DOUBLE_EQ(e, 1e-20);  // the lost low part is recovered exactly
}

TEST(TwoSum, FastTwoSumRecoversDroppedLowPart) {
    // 1.25e-7 is far below ulp(1e10)/2, so the rounded sum is exactly 1e10
    // and the error term carries the entire small addend.
    const auto [s, e] = ts::fast_two_sum(1e10, 1.25e-7);
    EXPECT_DOUBLE_EQ(s, 1e10);
    EXPECT_DOUBLE_EQ(e, 1.25e-7);
}

TEST(TwoSum, TwoProductRecoversError) {
    const double a = 1.0 + 0x1.0p-30;
    const double b = 1.0 - 0x1.0p-30;
    const auto [p, e] = ts::two_product(a, b);
    // a*b = 1 - 2^-60 exactly; p rounds to 1, e = -2^-60.
    EXPECT_DOUBLE_EQ(p, 1.0);
    EXPECT_DOUBLE_EQ(e, -0x1.0p-60);
}

// --------------------------------------------------------- accuracy ladder
class SumAccuracy : public ::testing::TestWithParam<std::tuple<int, double>> {
};

TEST_P(SumAccuracy, LadderOrdering) {
    const auto [seed, spread] = GetParam();
    const auto w = make_workload(static_cast<std::uint64_t>(seed), 5000,
                                 spread);
    const std::span<const double> xs(w.values);

    const double naive = ts::sum_naive(xs);
    const double pairwise = ts::sum_pairwise(xs);
    const double kahan = ts::sum_kahan(xs);
    const double neumaier = ts::sum_neumaier(xs);
    const double exact = ts::sum_exact(xs);

    // Exact summation is exact.
    EXPECT_EQ(exact, w.exact);
    // Neumaier is within a few ulps of exact even under cancellation.
    EXPECT_LE(rel_err(neumaier, w.exact), 1e-12);
    // Naive and pairwise stay within loose conditioning-driven bounds.
    // (This workload interleaves +-v pairs, which happens to favor naive's
    // running cancellation, so no per-instance ordering is asserted here;
    // see PairwiseBeatsNaiveOnUniformData for the ordering property.)
    EXPECT_LE(rel_err(pairwise, w.exact), 1e-3);
    EXPECT_LE(rel_err(kahan, w.exact), 1e-3);
    EXPECT_LE(rel_err(naive, w.exact), 1e-1);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSpreads, SumAccuracy,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(5.0, 15.0, 25.0)));

TEST(SumBasic, EmptyAndSingle) {
    const std::vector<double> empty;
    const std::vector<double> one{3.5};
    EXPECT_EQ(ts::sum_naive<double>(empty), 0.0);
    EXPECT_EQ(ts::sum_kahan<double>(empty), 0.0);
    EXPECT_EQ(ts::sum_neumaier<double>(empty), 0.0);
    EXPECT_EQ(ts::sum_pairwise<double>(empty), 0.0);
    EXPECT_EQ(ts::sum_pairwise<double>(one), 3.5);
    EXPECT_EQ(ts::sum_exact(one), 3.5);
}

TEST(SumBasic, PairwiseBeatsNaiveOnUniformData) {
    // Summing n copies of an inexact constant: naive error grows ~n, the
    // fixed pairwise tree only ~log n.
    const std::vector<double> xs(1 << 20, 0.1);
    const double exact = ts::sum_exact(xs);
    const double e_naive = std::fabs(ts::sum_naive<double>(xs) - exact);
    const double e_pair = std::fabs(ts::sum_pairwise<double>(xs) - exact);
    EXPECT_LT(e_pair, e_naive / 10.0);
}

TEST(SumBasic, KahanBeatsNaiveOnClassicCase) {
    // 1 followed by many tiny values naive summation drops entirely.
    std::vector<double> xs{1.0};
    xs.insert(xs.end(), 1000000, 1e-17);
    const double want = 1.0 + 1e-11;
    EXPECT_EQ(ts::sum_naive<double>(xs), 1.0);  // all tinies lost
    EXPECT_NEAR(ts::sum_kahan<double>(xs), want, 1e-24);
    EXPECT_NEAR(ts::sum_neumaier<double>(xs), want, 1e-24);
}

TEST(SumBasic, NeumaierHandlesLargeAddendAfterSmall) {
    // Kahan's weakness: compensation lost when the addend dwarfs the sum.
    const std::vector<double> xs{1.0, 1e100, 1.0, -1e100};
    EXPECT_EQ(ts::sum_neumaier<double>(xs), 2.0);
    EXPECT_EQ(ts::sum_exact(xs), 2.0);
}

TEST(SumBasic, CompensatedDot) {
    std::vector<double> a{1e8, 1.0, -1e8};
    std::vector<double> b{1e8, 1.0, 1e8};
    // a.b = 1e16 + 1 - 1e16 = 1.
    EXPECT_DOUBLE_EQ(ts::dot_compensated<double>(a, b), 1.0);
}

// --------------------------------------------------------------- expansion
TEST(Expansion, ExactUnderPermutation) {
    const auto w = make_workload(7, 2000, 20.0);
    ts::ExpansionAccumulator fwd, rev, shuffled;
    fwd.add(std::span<const double>(w.values));

    std::vector<double> r(w.values.rbegin(), w.values.rend());
    rev.add(std::span<const double>(r));

    std::vector<double> s = w.values;
    tp::util::Rng rng(99);
    for (std::size_t i = s.size(); i > 1; --i)
        std::swap(s[i - 1], s[rng.next_below(i)]);
    shuffled.add(std::span<const double>(s));

    EXPECT_TRUE(fwd.exactly_equals(rev));
    EXPECT_TRUE(fwd.exactly_equals(shuffled));
    EXPECT_EQ(fwd.round(), rev.round());
    EXPECT_EQ(fwd.round(), shuffled.round());
}

TEST(Expansion, MergeEqualsFlat) {
    const auto w = make_workload(13, 1000, 10.0);
    ts::ExpansionAccumulator flat, a, b;
    flat.add(std::span<const double>(w.values));
    const std::size_t half = w.values.size() / 2;
    a.add(std::span<const double>(w.values.data(), half));
    b.add(std::span<const double>(w.values.data() + half,
                                  w.values.size() - half));
    a.add(b);
    EXPECT_TRUE(flat.exactly_equals(a));
}

TEST(Expansion, CancellationToExactZero) {
    ts::ExpansionAccumulator acc;
    tp::util::Rng rng(3);
    std::vector<double> vals;
    for (int i = 0; i < 500; ++i)
        vals.push_back(rng.uniform(-1e10, 1e10));
    for (const double v : vals) acc.add(v);
    for (const double v : vals) acc.add(-v);
    EXPECT_EQ(acc.round(), 0.0);
    ts::ExpansionAccumulator zero;
    EXPECT_TRUE(acc.exactly_equals(zero));
}

TEST(Expansion, HoldsMoreThanDoublePrecision) {
    ts::ExpansionAccumulator acc;
    acc.add(1.0);
    acc.add(1e-30);
    acc.add(-1.0);
    EXPECT_EQ(acc.round(), 1e-30);  // survives the cancellation exactly
}

TEST(Expansion, ClearResets) {
    ts::ExpansionAccumulator acc;
    acc.add(5.0);
    acc.clear();
    EXPECT_EQ(acc.round(), 0.0);
    EXPECT_TRUE(acc.components().empty());
}

// ------------------------------------------------------------ reproducible
class Reproducible : public ::testing::TestWithParam<int> {};

TEST_P(Reproducible, OrderIndependentToTheBit) {
    const auto w = make_workload(static_cast<std::uint64_t>(GetParam()),
                                 4000, 18.0);
    const double a =
        ts::sum_reproducible<double>(w.values).value;

    std::vector<double> perm = w.values;
    tp::util::Rng rng(1234);
    for (std::size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.next_below(i)]);
    const double b = ts::sum_reproducible<double>(perm).value;
    EXPECT_EQ(a, b);  // bitwise

    std::sort(perm.begin(), perm.end());
    const double c = ts::sum_reproducible<double>(perm).value;
    EXPECT_EQ(a, c);
}

TEST_P(Reproducible, AccurateVsExact) {
    const auto w = make_workload(static_cast<std::uint64_t>(GetParam()) + 50,
                                 4000, 12.0);
    const auto r = ts::sum_reproducible<double>(w.values);
    // 3-fold extraction: error far below naive; compare against max|x|*n
    // scaled conditioning.
    double maxabs = 0;
    for (double v : w.values) maxabs = std::max(maxabs, std::fabs(v));
    const double bound = maxabs * static_cast<double>(w.values.size()) *
                         1e-24;  // comfortably below eps of the scale
    EXPECT_LE(std::fabs(r.value - w.exact), std::max(bound, 1e-300))
        << "value=" << r.value << " exact=" << w.exact;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Reproducible,
                         ::testing::Values(11, 12, 13, 14, 15));

TEST(Reproducible, NaiveIsNotOrderIndependent) {
    // Motivation check: the same data summed in two orders differs for
    // naive summation — the problem §III.C's techniques remove.
    const auto w = make_workload(21, 4000, 18.0);
    std::vector<double> sorted = w.values;
    std::sort(sorted.begin(), sorted.end());
    const double a = ts::sum_naive<double>(w.values);
    const double b = ts::sum_naive<double>(sorted);
    EXPECT_NE(a, b);
}

TEST(Reproducible, EdgeCases) {
    const std::vector<double> empty;
    EXPECT_EQ(ts::sum_reproducible<double>(empty).value, 0.0);
    const std::vector<double> zeros(100, 0.0);
    EXPECT_EQ(ts::sum_reproducible<double>(zeros).value, 0.0);
    const std::vector<double> one{42.0};
    EXPECT_EQ(ts::sum_reproducible<double>(one).value, 42.0);
}

TEST(Reproducible, WorksInSinglePrecision) {
    std::vector<float> xs;
    tp::util::Rng rng(17);
    for (int i = 0; i < 10000; ++i)
        xs.push_back(static_cast<float>(rng.uniform(-100.0, 100.0)));
    const float a = ts::sum_reproducible<float>(xs).value;
    std::vector<float> rev(xs.rbegin(), xs.rend());
    const float b = ts::sum_reproducible<float>(rev).value;
    EXPECT_EQ(a, b);
    // Accuracy: compare against double reference.
    double ref = 0;
    for (float v : xs) ref += static_cast<double>(v);
    EXPECT_NEAR(static_cast<double>(a), ref, 1e-2);
}

// ------------------------------------------------------- float instances
TEST(SumBasic, FloatInstantiations) {
    std::vector<float> xs;
    tp::util::Rng rng(8);
    double ref = 0.0;
    for (int i = 0; i < 50000; ++i) {
        const float v = static_cast<float>(rng.uniform(-10.0, 10.0));
        xs.push_back(v);
        ref += static_cast<double>(v);
    }
    EXPECT_NEAR(ts::sum_kahan<float>(xs), static_cast<float>(ref),
                std::fabs(ref) * 1e-5 + 1e-3);
    EXPECT_NEAR(ts::sum_neumaier<float>(xs), static_cast<float>(ref),
                std::fabs(ref) * 1e-5 + 1e-3);
    // Compensated float beats naive float against the double reference.
    const double e_naive =
        std::fabs(static_cast<double>(ts::sum_naive<float>(xs)) - ref);
    const double e_kahan =
        std::fabs(static_cast<double>(ts::sum_kahan<float>(xs)) - ref);
    EXPECT_LE(e_kahan, e_naive + 1e-6);
}

TEST(Expansion, ComponentsAscendAndHeadIsFaithful) {
    // Structural properties of the (compressed) expansion: components are
    // nonzero with strictly increasing magnitude, and summing everything
    // below the largest component perturbs it by at most one ulp — the
    // consequence of Shewchuk non-overlap that round() relies on.
    ts::ExpansionAccumulator acc;
    tp::util::Rng rng(21);
    for (int i = 0; i < 3000; ++i)
        acc.add(rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(0, 12)));
    const double rounded = acc.round();
    const auto& comps = acc.components();
    ASSERT_FALSE(comps.empty());
    for (std::size_t k = 1; k < comps.size(); ++k) {
        ASSERT_NE(comps[k], 0.0);
        EXPECT_LT(std::fabs(comps[k - 1]), std::fabs(comps[k]));
    }
    const double head = comps.back();
    EXPECT_LE(tp::fp::ulp_distance(rounded, head), 1u);
}

TEST(Reproducible, ReportsDiagnostics) {
    std::vector<double> xs{3.0, -1.0, 4.0, -1.5};
    const auto r = ts::sum_reproducible<double>(xs);
    EXPECT_EQ(r.max_abs, 4.0);
    EXPECT_GE(r.folds_used, 1);
    EXPECT_NEAR(r.value, 4.5, 1e-12);
}
