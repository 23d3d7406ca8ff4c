#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "par/comm.hpp"
#include "par/dist_shallow.hpp"
#include "par/reduce.hpp"
#include "util/rng.hpp"

namespace tpar = tp::par;

// ------------------------------------------------------------------- comm
namespace {
std::vector<std::byte> bytes_of(std::initializer_list<unsigned char> v) {
    std::vector<std::byte> out;
    for (unsigned char c : v) out.push_back(std::byte{c});
    return out;
}
}  // namespace

// A posted message is claimable at once (no phase barrier) and arrives
// with its source, tag and bytes intact.
TEST(VirtualComm, DeliversAfterExchange) {
    tpar::VirtualComm comm(3);
    EXPECT_THROW((void)comm.complete(2, 0, 7), std::runtime_error);
    comm.post_bytes(0, 2, 7, bytes_of({1, 2}));
    EXPECT_FALSE(comm.drained());
    const auto m = comm.complete(2, 0, 7);
    EXPECT_EQ(m.source, 0);
    EXPECT_EQ(m.tag, 7);
    EXPECT_EQ(m.bytes, bytes_of({1, 2}));
    EXPECT_TRUE(comm.drained());
}

// Claims match by (source, tag), never by posting order.
TEST(VirtualComm, MatchesSourceAndTag) {
    tpar::VirtualComm comm(3);
    comm.post_bytes(0, 1, 1, bytes_of({1}));
    comm.post_bytes(0, 1, 2, bytes_of({2}));
    comm.post_bytes(2, 1, 1, bytes_of({3}));
    EXPECT_EQ(comm.complete(1, 0, 2).bytes, bytes_of({2}));
    EXPECT_EQ(comm.complete(1, 2, 1).bytes, bytes_of({3}));
    EXPECT_EQ(comm.complete(1, 0, 1).bytes, bytes_of({1}));
    EXPECT_TRUE(comm.drained());
}

TEST(VirtualComm, ValidatesRanks) {
    tpar::VirtualComm comm(2);
    EXPECT_THROW(comm.post_bytes(0, 5, 0, {}), std::out_of_range);
    EXPECT_THROW(comm.post_bytes(-1, 1, 0, {}), std::out_of_range);
    EXPECT_THROW((void)comm.complete(-1, 0, 0), std::out_of_range);
    EXPECT_THROW((void)comm.bytes_sent(2), std::out_of_range);
    EXPECT_TRUE(comm.drained());
    EXPECT_THROW(tpar::VirtualComm{0}, std::invalid_argument);
}

// ----------------------------------------------------------------- reduce
namespace {

std::vector<double> reduction_workload(std::size_t n) {
    tp::util::Rng rng(2017);
    std::vector<double> xs(n);
    for (auto& v : xs)
        v = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(0.0, 8.0));
    return xs;
}

/// Slice a flat array into `ranks` contiguous pieces (block rule).
std::vector<std::span<const double>> slice(const std::vector<double>& xs,
                                           int ranks) {
    std::vector<std::span<const double>> out;
    const std::size_t base = xs.size() / static_cast<std::size_t>(ranks);
    const std::size_t extra = xs.size() % static_cast<std::size_t>(ranks);
    std::size_t pos = 0;
    for (int r = 0; r < ranks; ++r) {
        const std::size_t len =
            base + (static_cast<std::size_t>(r) < extra ? 1 : 0);
        out.emplace_back(xs.data() + pos, len);
        pos += len;
    }
    return out;
}

}  // namespace

TEST(Allreduce, NaiveDependsOnRankCount) {
    const auto xs = reduction_workload(40000);
    const double s1 =
        tpar::allreduce_sum(slice(xs, 1), tpar::ReduceAlgorithm::Naive);
    bool any_different = false;
    for (const int r : {2, 3, 5, 8, 13}) {
        const double sr =
            tpar::allreduce_sum(slice(xs, r), tpar::ReduceAlgorithm::Naive);
        if (sr != s1) any_different = true;
    }
    EXPECT_TRUE(any_different)
        << "naive global sums should depend on the decomposition";
}

TEST(Allreduce, ReproducibleAndExactAreRankCountInvariant) {
    const auto xs = reduction_workload(40000);
    for (const auto algo : {tpar::ReduceAlgorithm::Reproducible,
                            tpar::ReduceAlgorithm::Exact}) {
        const double s1 = tpar::allreduce_sum(slice(xs, 1), algo);
        for (const int r : {2, 3, 5, 8, 13})
            EXPECT_EQ(tpar::allreduce_sum(slice(xs, r), algo), s1)
                << to_string(algo) << " ranks=" << r;
    }
}

TEST(Allreduce, ExactMatchesExpansionGroundTruth) {
    const auto xs = reduction_workload(10000);
    const double want = tp::sum::sum_exact(xs);
    EXPECT_EQ(tpar::allreduce_sum(slice(xs, 7),
                                  tpar::ReduceAlgorithm::Exact),
              want);
    // Kahan is accurate but, across ranks, not necessarily bitwise equal.
    EXPECT_NEAR(tpar::allreduce_sum(slice(xs, 7),
                                    tpar::ReduceAlgorithm::Kahan),
                want, std::fabs(want) * 1e-12);
}

TEST(Allreduce, MinIsExact) {
    const auto xs = reduction_workload(5000);
    double want = xs[0];
    for (const double v : xs) want = std::min(want, v);
    EXPECT_EQ(tpar::allreduce_min(slice(xs, 6)), want);
}

// ---------------------------------------------------------- dist solver
namespace {

tpar::DistConfig dist_cfg(int ranks, int n = 48) {
    tpar::DistConfig c;
    c.nx = c.ny = n;
    c.ranks = ranks;
    return c;
}

}  // namespace

TEST(DistShallow, StateBitwiseInvariantAcrossRankCounts) {
    // The headline property: with deterministic per-cell updates and
    // exact halo exchange, the evolved field does not depend on the
    // decomposition at all.
    tpar::DistFullSolver ref(dist_cfg(1));
    ref.initialize_dam_break();
    ref.run(50);
    const auto want = ref.gather_height();
    for (const int ranks : {2, 3, 4, 7}) {
        tpar::DistFullSolver s(dist_cfg(ranks));
        s.initialize_dam_break();
        s.run(50);
        const auto got = s.gather_height();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t k = 0; k < want.size(); ++k)
            ASSERT_EQ(got[k], want[k]) << "ranks=" << ranks << " k=" << k;
    }
}

TEST(DistShallow, MassDiagnosticReproducibilityByAlgorithm) {
    // Section III.C on live solver data: the exact reduction reports the
    // same mass bit-for-bit on every decomposition; naive generally not.
    std::vector<double> naive, exact;
    for (const int ranks : {1, 2, 3, 5, 8}) {
        tpar::DistFullSolver s(dist_cfg(ranks, 64));
        s.initialize_dam_break();
        s.run(40);
        naive.push_back(s.total_mass(tpar::ReduceAlgorithm::Naive));
        exact.push_back(s.total_mass(tpar::ReduceAlgorithm::Exact));
    }
    for (std::size_t k = 1; k < exact.size(); ++k)
        EXPECT_EQ(exact[k], exact[0]);
    bool naive_varies = false;
    for (std::size_t k = 1; k < naive.size(); ++k)
        if (naive[k] != naive[0]) naive_varies = true;
    EXPECT_TRUE(naive_varies);
    // Both agree to high accuracy even when not bitwise.
    for (std::size_t k = 0; k < naive.size(); ++k)
        EXPECT_NEAR(naive[k] / exact[k], 1.0, 1e-12);
}

TEST(DistShallow, MassConserved) {
    tpar::DistFullSolver s(dist_cfg(4));
    s.initialize_dam_break();
    const double m0 = s.total_mass(tpar::ReduceAlgorithm::Exact);
    s.run(60);
    EXPECT_NEAR(s.total_mass(tpar::ReduceAlgorithm::Exact) / m0, 1.0,
                1e-12);
}

TEST(DistShallow, SinglePrecisionTracksDouble) {
    tpar::DistFullSolver sd(dist_cfg(3));
    tpar::DistMinimumSolver ss(dist_cfg(3));
    sd.initialize_dam_break();
    ss.initialize_dam_break();
    sd.run(40);
    ss.run(40);
    const auto a = sd.gather_height();
    const auto b = ss.gather_height();
    double linf = 0.0, scale = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k) {
        linf = std::max(linf, std::fabs(a[k] - b[k]));
        scale = std::max(scale, std::fabs(a[k]));
    }
    EXPECT_LT(linf / scale, 1e-4);  // several digits, per the paper
}

TEST(DistShallow, SymmetryPreserved) {
    tpar::DistFullSolver s(dist_cfg(4, 64));
    s.initialize_dam_break();
    s.run(60);
    const auto h = s.gather_height();
    const int n = 64;
    double asym = 0.0;
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
            asym = std::max(asym,
                            std::fabs(h[static_cast<std::size_t>(j) * n + i] -
                                      h[static_cast<std::size_t>(n - 1 - j) * n + i]));
    EXPECT_LT(asym, 1e-10);
}

TEST(VirtualComm, ByteMessagesAndPooledBuffers) {
    tpar::VirtualComm comm(2);
    auto buf = comm.acquire(3);
    ASSERT_EQ(buf.size(), 3u);
    buf[0] = std::byte{0xAB};
    comm.post_bytes(0, 1, 4, std::move(buf));
    auto m = comm.complete(1, 0, 4);
    ASSERT_EQ(m.bytes.size(), 3u);
    EXPECT_EQ(m.bytes[0], std::byte{0xAB});
    EXPECT_EQ(comm.bytes_sent(), 3u);
    EXPECT_EQ(comm.bytes_sent(0), 3u);
    EXPECT_EQ(comm.bytes_sent(1), 0u);
    // Returning the buffer lets the next acquire reuse it: steady-state
    // halo exchange allocates nothing.
    const std::byte* storage = m.bytes.data();
    comm.release(std::move(m.bytes));
    const auto reused = comm.acquire(2);
    EXPECT_EQ(reused.size(), 2u);
    EXPECT_EQ(reused.data(), storage);
}

TEST(DistShallow, HaloTrafficScalesWithStorageWidth) {
    // The halo fix packs ghost rows in storage precision: a float solver
    // moves exactly half the bytes of a double solver on the same mesh
    // and step count. (Before the fix both shipped doubles, silently
    // promoting the minimum-precision halos.)
    const auto cfg = dist_cfg(4);
    tpar::DistMinimumSolver smin(cfg);
    tpar::DistFullSolver sful(cfg);
    smin.initialize_dam_break();
    sful.initialize_dam_break();
    smin.run(10);
    sful.run(10);
    EXPECT_GT(smin.halo_bytes_sent(), 0u);
    EXPECT_EQ(smin.halo_bytes_sent() * 2, sful.halo_bytes_sent());
}

TEST(DistShallow, RejectsBadConfig) {
    auto c = dist_cfg(8, 4);  // more ranks than rows
    EXPECT_THROW(tpar::DistFullSolver{c}, std::invalid_argument);
    c = dist_cfg(0);
    EXPECT_THROW(tpar::DistFullSolver{c}, std::invalid_argument);
}

// ----------------------------------------- cross-implementation validation
#include "analysis/linecut.hpp"
#include "shallow/solver.hpp"

TEST(DistShallow, MatchesSerialAmrSolverOnUniformGrid) {
    // Two independent implementations of the same discretization — the
    // AMR solver pinned to level 0 and the distributed uniform solver —
    // must agree to rounding on the same workload.
    const int n = 48, steps = 30;

    tp::shallow::Config scfg;
    scfg.geom = {0.0, 0.0, 100.0, 100.0, n, n, 0};
    scfg.rezone_interval = 0;  // fixed mesh
    tp::shallow::FullShallowSolver serial(scfg);
    serial.initialize_dam_break({});

    tpar::DistConfig dcfg;
    dcfg.nx = dcfg.ny = n;
    dcfg.ranks = 3;
    tpar::DistFullSolver dist(dcfg);
    dist.initialize_dam_break();

    // March both with the same dt (the serial solver's CFL choice).
    for (int k = 0; k < steps; ++k) {
        serial.step();
        dist.step();
    }
    // Times track each other (same CFL logic on the same fields).
    EXPECT_NEAR(dist.time() / serial.time(), 1.0, 1e-6);

    const auto h = dist.gather_height();
    double linf = 0.0, scale = 0.0;
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i) {
            const double x = (i + 0.5) * 100.0 / n;
            const double y = (j + 0.5) * 100.0 / n;
            const double a = serial.height_at(x, y);
            const double b = h[static_cast<std::size_t>(j) * n + i];
            linf = std::max(linf, std::fabs(a - b));
            scale = std::max(scale, std::fabs(a));
        }
    EXPECT_LT(linf / scale, 1e-10)
        << "independent implementations disagree";
}
