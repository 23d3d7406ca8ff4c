// Tests for the shadow-divergence profiler (obs/numerics.hpp): the
// DivergenceStats accumulator, the relative-error histogram bucketing,
// the kernel filter / stride knobs, the registry merge semantics, the
// {"type":"numerics"} record schema, and the end-to-end invariant the
// whole design hangs on: a full-precision solver whose shadow reference
// replicates the production operation order reports ZERO drift on every
// instrumented kernel.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "fp/half.hpp"
#include "fp/ulp.hpp"
#include "obs/json.hpp"
#include "obs/numerics.hpp"
#include "obs/schema.hpp"
#include "sem/dgsem.hpp"
#include "shallow/solver.hpp"

namespace obs = tp::obs;
namespace fp = tp::fp;
namespace json = tp::obs::json;

namespace {

// RAII: every test leaves the process-global profiler state as it found
// it (off, stride 16, empty filter, empty registry).
struct ShadowSandbox {
    ShadowSandbox() { reset(); }
    ~ShadowSandbox() { reset(); }
    static void reset() {
        obs::set_shadow_profile(false);
        obs::set_shadow_sample_stride(16);
        obs::set_shadow_kernel_filter("");
        obs::shadow_reset();
    }
};

// ------------------------------------------------------------ fp helpers

TEST(UlpRef, ReferenceIsRoundedToTestPrecisionFirst) {
    // 1 + 2^-30 is not representable in float; it rounds to 1.0f, so a
    // float result of exactly 1.0f has zero drift against it.
    EXPECT_EQ(fp::ulp_distance_vs_ref(1.0f, 1.0 + std::ldexp(1.0, -30)),
              0u);
    // One float ULP off the rounded reference is one ULP of drift.
    EXPECT_EQ(fp::ulp_distance_vs_ref(std::nextafterf(1.0f, 2.0f), 1.0),
              1u);
    // In double the same perturbation is far from 1.0.
    EXPECT_GT(fp::ulp_distance_vs_ref(1.0 + std::ldexp(1.0, -30), 1.0),
              1000u);
}

TEST(RelativeError, ScalesByReferenceMagnitude) {
    EXPECT_NEAR(fp::relative_error(1.1, 1.0), 0.1, 1e-15);
    EXPECT_DOUBLE_EQ(fp::relative_error(0.0, 0.0), 0.0);
    EXPECT_TRUE(std::isinf(fp::relative_error(1.0, 0.0)));
    EXPECT_TRUE(std::isinf(
        fp::relative_error(std::nan(""), 1.0)));
}

TEST(RelHist, BucketsByDecadeWithSaturation) {
    EXPECT_EQ(fp::rel_error_bucket(0.0), 0);
    EXPECT_EQ(fp::rel_error_bucket(1e-17), 0);  // below the low edge
    EXPECT_EQ(fp::rel_error_bucket(5e-16), 1);  // [1e-16, 1e-15)
    EXPECT_EQ(fp::rel_error_bucket(5e-8), 9);   // [1e-8, 1e-7)
    EXPECT_EQ(fp::rel_error_bucket(1.0), fp::kRelHistBuckets - 1);
    EXPECT_EQ(fp::rel_error_bucket(std::numeric_limits<double>::infinity()),
              fp::kRelHistBuckets - 1);
    EXPECT_EQ(fp::rel_error_bucket(std::nan("")), fp::kRelHistBuckets - 1);
}

// ------------------------------------------------------ DivergenceStats

TEST(DivergenceStats, ExactSampleLeavesNoError) {
    obs::DivergenceStats s;
    s.observe(2.0f, 2.0);
    EXPECT_EQ(s.samples, 1u);
    EXPECT_EQ(s.exact, 1u);
    EXPECT_EQ(s.max_ulp, 0u);
    EXPECT_EQ(s.max_rel, 0.0);
    EXPECT_EQ(s.sum_abs_err, 0.0);
    EXPECT_EQ(s.rel_hist[0], 1u);
}

TEST(DivergenceStats, DriftedSampleIsMeasuredInOutputPrecision) {
    obs::DivergenceStats s;
    const float test = std::nextafterf(1.0f, 2.0f);
    s.observe(test, 1.0);
    EXPECT_EQ(s.exact, 0u);
    EXPECT_EQ(s.max_ulp, 1u);
    EXPECT_NEAR(s.max_rel, static_cast<double>(test) - 1.0, 1e-12);
    EXPECT_GT(s.sum_abs_err, 0.0);
    EXPECT_EQ(s.max_abs_ref, 1.0);
}

TEST(DivergenceStats, ZeroReferenceCountsAsInfiniteRelative) {
    obs::DivergenceStats s;
    s.observe(1.0f, 0.0);
    EXPECT_TRUE(std::isinf(s.max_rel));
    EXPECT_EQ(s.sum_rel, 0.0);  // non-finite rel excluded from the mean
    EXPECT_EQ(s.rel_hist[fp::kRelHistBuckets - 1], 1u);
}

TEST(DivergenceStats, MergeAccumulatesEveryField) {
    obs::DivergenceStats a, b;
    a.observe(1.0f, 1.0);
    b.observe(std::nextafterf(1.0f, 2.0f), 1.0);
    b.observe(4.0f, 4.0);
    a.merge(b);
    EXPECT_EQ(a.samples, 3u);
    EXPECT_EQ(a.exact, 2u);
    EXPECT_EQ(a.max_ulp, 1u);
    EXPECT_EQ(a.max_abs_ref, 4.0);
    EXPECT_EQ(a.rel_hist[0], 2u);  // the two exact samples
    std::uint64_t total = 0;
    for (const auto count : a.rel_hist) total += count;
    EXPECT_EQ(total, 3u);
}

TEST(DivergenceStats, HalfValuesMeasureOnFloatLattice) {
    obs::DivergenceStats s;
    // Half(0.1) and the reference rounded to Half agree exactly.
    s.observe(fp::Half(0.1), 0.1);
    EXPECT_EQ(s.exact, 1u);
    // A genuinely different half drifts.
    s.observe(fp::Half(0.125), 0.1);
    EXPECT_EQ(s.exact, 1u);
    EXPECT_GT(s.max_ulp, 0u);
}

// ------------------------------------------------------- profiler knobs

TEST(ShadowKnobs, StrideClampsToOne) {
    ShadowSandbox sandbox;
    obs::set_shadow_sample_stride(0);
    EXPECT_EQ(obs::shadow_sample_stride(), 1u);
    obs::set_shadow_sample_stride(64);
    EXPECT_EQ(obs::shadow_sample_stride(), 64u);
}

TEST(ShadowKnobs, KernelFilterSelectsAndTrims) {
    ShadowSandbox sandbox;
    obs::set_shadow_kernel_filter(" clamr.cfl , sem.rhs ");
    EXPECT_TRUE(obs::shadow_kernel_enabled("clamr.cfl"));
    EXPECT_TRUE(obs::shadow_kernel_enabled("sem.rhs"));
    EXPECT_FALSE(obs::shadow_kernel_enabled("clamr.flux_sweep"));
    obs::set_shadow_kernel_filter("");
    EXPECT_TRUE(obs::shadow_kernel_enabled("clamr.flux_sweep"));
}

TEST(ShadowKnobs, ActiveNeedsBothEnableAndFilter) {
    ShadowSandbox sandbox;
    EXPECT_FALSE(obs::shadow_kernel_active("clamr.cfl"));
    obs::set_shadow_profile(true);
    EXPECT_TRUE(obs::shadow_kernel_active("clamr.cfl"));
    obs::set_shadow_kernel_filter("sem.rhs");
    EXPECT_FALSE(obs::shadow_kernel_active("clamr.cfl"));
}

TEST(ShadowRegistry, MergesUnderKernelAndArray) {
    ShadowSandbox sandbox;
    obs::DivergenceStats s;
    s.observe(1.0f, 1.0);
    obs::shadow_merge("k1", "a", s);
    obs::shadow_merge("k1", "a", s);
    obs::shadow_merge("k1", "b", s);
    obs::shadow_merge("k2", "a", s);
    const auto report = obs::shadow_report();
    ASSERT_EQ(report.size(), 2u);
    EXPECT_EQ(report.at("k1").at("a").samples, 2u);
    EXPECT_EQ(report.at("k1").at("b").samples, 1u);
    EXPECT_EQ(report.at("k2").at("a").samples, 1u);
    obs::shadow_reset();
    EXPECT_TRUE(obs::shadow_report().empty());
}

TEST(ShadowRegistry, EmptyAccumulatorIsNotRecorded) {
    ShadowSandbox sandbox;
    obs::shadow_merge("k", "a", obs::DivergenceStats{});
    EXPECT_TRUE(obs::shadow_report().empty());
}

// ------------------------------------------------------- record schema

TEST(NumericsRecord, RoundTripsThroughTheDomParser) {
    obs::DivergenceStats s;
    s.observe(std::nextafterf(1.0f, 2.0f), 1.0);
    s.observe(2.0f, 2.0);
    const std::string rec =
        obs::numerics_record_json("clamr.flux_sweep", "dh", s);
    const auto v = json::parse(rec);
    ASSERT_TRUE(v.has_value()) << rec;
    EXPECT_EQ(obs::schema::check_record(*v), std::vector<std::string>{});
    EXPECT_EQ(v->string_or("type", ""), "numerics");
    EXPECT_EQ(v->string_or("kernel", ""), "clamr.flux_sweep");
    EXPECT_EQ(v->string_or("array", ""), "dh");
    EXPECT_EQ(v->number_or("samples", -1), 2.0);
    EXPECT_EQ(v->number_or("exact", -1), 1.0);
    EXPECT_EQ(v->number_or("max_ulp", -1), 1.0);
    const json::Value* hist = v->find("rel_hist");
    ASSERT_NE(hist, nullptr);
    ASSERT_TRUE(hist->is_array());
    ASSERT_EQ(hist->items().size(),
              static_cast<std::size_t>(fp::kRelHistBuckets));
    double total = 0.0;
    for (const auto& bucket : hist->items()) total += bucket.as_number();
    EXPECT_EQ(total, 2.0);
}

TEST(NumericsRecord, InfiniteMaxRelBecomesNull) {
    obs::DivergenceStats s;
    s.observe(1.0f, 0.0);  // rel = inf
    const std::string rec = obs::numerics_record_json("k", "a", s);
    const auto v = json::parse(rec);
    ASSERT_TRUE(v.has_value()) << rec;
    EXPECT_EQ(obs::schema::check_record(*v), std::vector<std::string>{});
    EXPECT_NE(rec.find("\"max_rel\":null"), std::string::npos) << rec;
}

// ------------------------------------- end-to-end: solver zero-drift law

TEST(ShadowSolver, FullPrecisionShallowRunIsBitExact) {
    ShadowSandbox sandbox;
    obs::set_shadow_profile(true);
    obs::set_shadow_sample_stride(4);
    tp::shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 16, 16, 2};
    tp::shallow::ShallowWaterSolver<tp::fp::FullPrecision> solver(cfg);
    solver.initialize_dam_break({});
    solver.run(8);
    const auto report = obs::shadow_report();
    for (const char* kernel :
         {"clamr.cfl", "clamr.flux_sweep", "clamr.apply_update"})
        ASSERT_EQ(report.count(kernel), 1u) << kernel;
    for (const auto& [kernel, arrays] : report)
        for (const auto& [array, s] : arrays) {
            EXPECT_GT(s.samples, 0u) << kernel << "/" << array;
            EXPECT_EQ(s.exact, s.samples) << kernel << "/" << array;
            EXPECT_EQ(s.max_ulp, 0u) << kernel << "/" << array;
        }
}

TEST(ShadowSolver, FullPrecisionSemRunIsBitExact) {
    ShadowSandbox sandbox;
    obs::set_shadow_profile(true);
    obs::set_shadow_sample_stride(4);
    tp::sem::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 2;
    cfg.order = 3;
    tp::sem::SpectralEulerSolver<tp::fp::FullPrecision> solver(cfg);
    solver.initialize_thermal_bubble({});
    solver.run(3);
    const auto report = obs::shadow_report();
    for (const char* kernel : {"sem.rhs", "sem.rk_stage", "sem.filter"})
        ASSERT_EQ(report.count(kernel), 1u) << kernel;
    // The stable-dt rate is double arithmetic in every policy: no shadow.
    EXPECT_EQ(report.count("sem.cfl"), 0u);
    for (const auto& [kernel, arrays] : report)
        for (const auto& [array, s] : arrays) {
            EXPECT_GT(s.samples, 0u) << kernel << "/" << array;
            EXPECT_EQ(s.exact, s.samples) << kernel << "/" << array;
            EXPECT_EQ(s.max_ulp, 0u) << kernel << "/" << array;
        }
}

TEST(ShadowSolver, ReducedPrecisionShallowRunShowsDrift) {
    ShadowSandbox sandbox;
    obs::set_shadow_profile(true);
    obs::set_shadow_sample_stride(2);
    tp::shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 16, 16, 1};
    tp::shallow::ShallowWaterSolver<tp::fp::MinimumPrecision> solver(cfg);
    solver.initialize_dam_break({});
    solver.run(8);
    const auto report = obs::shadow_report();
    // Single-precision flux sums against a double reference must drift
    // somewhere — if they never do, the shadow is comparing a value to
    // itself and the telemetry is vacuous.
    std::uint64_t total_inexact = 0;
    for (const auto& [kernel, arrays] : report)
        for (const auto& [array, s] : arrays)
            total_inexact += s.samples - s.exact;
    EXPECT_GT(total_inexact, 0u);
}

TEST(ShadowSolver, KernelFilterLimitsInstrumentation) {
    ShadowSandbox sandbox;
    obs::set_shadow_profile(true);
    obs::set_shadow_sample_stride(4);
    obs::set_shadow_kernel_filter("clamr.cfl");
    tp::shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 16, 16, 1};
    tp::shallow::ShallowWaterSolver<tp::fp::FullPrecision> solver(cfg);
    solver.initialize_dam_break({});
    solver.run(3);
    const auto report = obs::shadow_report();
    ASSERT_EQ(report.size(), 1u);
    EXPECT_EQ(report.count("clamr.cfl"), 1u);
}

}  // namespace
