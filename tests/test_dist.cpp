// Distributed-solver contracts: the zero-steady-state-allocation
// guarantee of step() and total_mass(), checked with the global
// operator-new counter of alloc_counter.cpp (as test_obs.cpp's
// zero-cost-when-off test is), plus the decomposition-invariance matrix,
// the communicator drain/deadlock contracts, the load balancer's exact
// state carryover, and the halo byte ledgers.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "par/comm.hpp"
#include "par/dist_shallow.hpp"

using namespace tp;

namespace {

template <typename P>
par::DistributedShallowSolver<P> make_solver(int grid, int ranks,
                                             simd::Mode mode,
                                             int lb_interval = 0) {
    par::DistConfig cfg;
    cfg.nx = cfg.ny = grid;
    cfg.ranks = ranks;
    cfg.simd = mode;
    cfg.lb_interval = lb_interval;
    return par::DistributedShallowSolver<P>(cfg);
}

template <typename P>
std::vector<double> height_after(int grid, int steps, int ranks,
                                 simd::Mode mode, int lb_interval = 0) {
    auto s = make_solver<P>(grid, ranks, mode, lb_interval);
    s.initialize_dam_break();
    s.run(steps);
    EXPECT_TRUE(s.comm_drained());
    return s.gather_height();
}

// The halo exchange's buffer pool, the swap buffers, and every scratch
// vector are sized by the first steps; after that the steady state of
// step() — and of the total_mass() diagnostic — must perform zero heap
// allocations.
TEST(DistAllocations, SteadyStateStepIsAllocationFree) {
    auto s = make_solver<fp::MixedPrecision>(32, 3, simd::Mode::Native);
    s.initialize_dam_break();
    s.run(3);  // warm the comm pool and every lazy scratch buffer
    (void)s.total_mass();
    const std::uint64_t before = tp::test::heap_allocations();
    s.run(5);
    (void)s.total_mass();
    EXPECT_EQ(tp::test::heap_allocations(), before)
        << "allocated in steady state";
    EXPECT_TRUE(s.comm_drained());
}

// The rebalance path reuses persistent carry buffers too: a re-split may
// reallocate rank stripes (allowed — the partition changed), but a
// uniform-cost evaluation that moves nothing must stay allocation-free.
TEST(DistAllocations, UniformRebalanceIsAllocationFree) {
    auto s = make_solver<fp::FullPrecision>(32, 4, simd::Mode::Native);
    s.initialize_dam_break();
    s.run(2);
    const std::vector<double> uniform(32, 1.0);
    s.rebalance(uniform);  // warm: the evaluation itself moves no rows
    const std::uint64_t before = tp::test::heap_allocations();
    s.rebalance(uniform);
    EXPECT_EQ(tp::test::heap_allocations(), before);
    EXPECT_EQ(s.lb_stats().resplits, 0u);
}

// Decomposition-invariance matrix: the height field must repeat to the
// last bit across rank counts (1, R, one-row-per-rank) and both SIMD
// shapes, for every precision policy — the contract the pipeline, the
// kernel dispatch, and the halo path all hang off. The reference is the
// 1-rank scalar run, which posts no message at all. (bench/
// table_dist_scaling gates the same property at larger sizes; this is
// the fast in-suite version.)
template <typename P>
void invariance_matrix() {
    const int grid = 24, steps = 12;
    const auto ref = height_after<P>(grid, steps, 1, simd::Mode::Scalar);
    for (const int ranks : {1, 2, 3, grid})
        for (const auto mode : {simd::Mode::Scalar, simd::Mode::Native}) {
            if (ranks == 1 && mode == simd::Mode::Scalar) continue;
            EXPECT_EQ(height_after<P>(grid, steps, ranks, mode), ref)
                << ranks << " ranks, native="
                << (mode == simd::Mode::Native);
        }
}

TEST(DistInvariance, MinimumPrecision) {
    invariance_matrix<fp::MinimumPrecision>();
}
TEST(DistInvariance, MixedPrecision) {
    invariance_matrix<fp::MixedPrecision>();
}
TEST(DistInvariance, FullPrecision) {
    invariance_matrix<fp::FullPrecision>();
}

// Periodic measured-cost rebalancing is bitwise invisible as well — the
// re-split carries every row over exactly.
TEST(DistInvariance, PeriodicLoadBalancingDoesNotChangeState) {
    const auto ref = height_after<fp::MixedPrecision>(
        24, 12, 3, simd::Mode::Native, /*lb_interval=*/0);
    EXPECT_EQ(height_after<fp::MixedPrecision>(24, 12, 3, simd::Mode::Native,
                                               /*lb_interval=*/4),
              ref);
}

// Forced skewed re-split mid-run: rows change owners, the solution does
// not change bits relative to an undisturbed run.
TEST(DistLoadBalance, SkewedResplitCarriesStateExactly) {
    const int grid = 24;
    auto undisturbed =
        make_solver<fp::FullPrecision>(grid, 3, simd::Mode::Native);
    undisturbed.initialize_dam_break();
    undisturbed.run(10);

    auto resplit = make_solver<fp::FullPrecision>(grid, 3, simd::Mode::Native);
    resplit.initialize_dam_break();
    resplit.run(4);
    std::vector<double> skew(grid, 1.0);
    for (int j = 0; j < grid / 3; ++j) skew[static_cast<std::size_t>(j)] = 9.0;
    resplit.rebalance(skew);
    EXPECT_GE(resplit.lb_stats().resplits, 1u);
    EXPECT_GT(resplit.lb_stats().rows_moved, 0u);
    resplit.run(6);

    EXPECT_EQ(resplit.gather_height(), undisturbed.gather_height());
    EXPECT_TRUE(resplit.comm_drained());
}

// A uniform-cost re-split reproduces the constructor's partition — the
// balancer is a fixed point at balance, so a healthy run never churns.
TEST(DistLoadBalance, UniformCostIsANoOp) {
    auto s = make_solver<fp::FullPrecision>(30, 4, simd::Mode::Native);
    s.initialize_dam_break();
    const auto before = s.row_partition();
    const std::vector<double> uniform(30, 1.0);
    s.rebalance(uniform);
    EXPECT_EQ(s.row_partition(), before);
    EXPECT_EQ(s.lb_stats().evaluations, 1u);
    EXPECT_EQ(s.lb_stats().resplits, 0u);
}

// ---------------------------------------------- cross-rank message edges

// Sum the per-edge byte counts of a flushed Chrome trace by source rank.
// Each message edge is an s/f flow pair sharing one args block; counting
// only the "s" start events counts every edge exactly once.
std::map<int, std::uint64_t> edge_bytes_by_src(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    const auto doc = obs::json::parse(buf.str());
    std::map<int, std::uint64_t> by_src;
    if (!doc || !doc->is_object()) return by_src;
    const obs::json::Value* events = doc->find("traceEvents");
    if (events == nullptr || !events->is_array()) return by_src;
    for (const obs::json::Value& e : events->items()) {
        if (e.string_or("ph", "") != "s") continue;
        const obs::json::Value* args = e.find("args");
        if (args == nullptr) {
            ADD_FAILURE() << "flow start without args in " << path;
            continue;
        }
        by_src[static_cast<int>(args->number_or("src", -1.0))] +=
            static_cast<std::uint64_t>(args->number_or("bytes", 0.0));
    }
    return by_src;
}

// Message-edge conservation: summed over the trace, the per-edge byte
// counts must reproduce the comm layer's sent-byte counters — per source
// rank and in total — and that total must equal the work ledger's
// dist_halo_post + dist_halo_wait split. Checked across rank counts and
// both SIMD shapes; comm_drained() guarantees every posted byte was
// delivered, so posting-side and delivery-side accounting must agree
// exactly.
TEST(DistTracing, EdgeBytesMatchCommAndWorkLedgers) {
    for (const int ranks : {2, 4}) {
        for (const auto mode : {simd::Mode::Scalar, simd::Mode::Native}) {
            const std::string path =
                ::testing::TempDir() + "dist_edges.trace.json";
            obs::trace_start(path);
            auto s = make_solver<fp::MixedPrecision>(24, ranks, mode);
            s.initialize_dam_break();
            s.run(6);
            EXPECT_TRUE(s.comm_drained());
            const std::uint64_t total = s.halo_bytes_sent();
            std::vector<std::uint64_t> per_rank;
            for (int r = 0; r < ranks; ++r)
                per_rank.push_back(s.halo_bytes_sent(r));
            EXPECT_GT(obs::trace_stop(), 0u);

            std::map<int, std::uint64_t> by_src = edge_bytes_by_src(path);
            std::uint64_t edge_total = 0;
            for (const auto& [src, bytes] : by_src) edge_total += bytes;
            EXPECT_EQ(edge_total, total) << ranks << " ranks";
            for (int r = 0; r < ranks; ++r)
                EXPECT_EQ(by_src[r], per_rank[static_cast<std::size_t>(r)])
                    << "rank " << r << " of " << ranks;

            const auto* post = s.ledger().find("dist_halo_post");
            const auto* wait = s.ledger().find("dist_halo_wait");
            ASSERT_NE(post, nullptr);
            ASSERT_NE(wait, nullptr);
            EXPECT_EQ(post->bytes + wait->bytes, total);
        }
    }
}

// The dist_halo_post + dist_halo_wait ledger phases account for every
// byte the communicator sent, and that total is the analytic traffic of
// the row-stripe decomposition: each of the ranks - 1 internal
// boundaries ships one row each way per step, and a row is the nx
// interior cells of h, hu and hv in storage precision.
TEST(HaloLedger, PerPhaseBytesSumToTotalAndMatchBsp) {
    using Solver = par::DistributedShallowSolver<fp::MixedPrecision>;
    const int grid = 24, ranks = 3, steps = 10;
    auto s = make_solver<fp::MixedPrecision>(grid, ranks, simd::Mode::Native);
    s.initialize_dam_break();
    s.run(steps);
    const auto* post = s.ledger().find("dist_halo_post");
    const auto* wait = s.ledger().find("dist_halo_wait");
    ASSERT_NE(post, nullptr);
    ASSERT_NE(wait, nullptr);
    const std::uint64_t expected = std::uint64_t{steps} * 2 * (ranks - 1) *
                                   grid * 3 * sizeof(Solver::storage_t);
    EXPECT_EQ(s.halo_bytes_sent(), expected);
    EXPECT_EQ(post->bytes + wait->bytes, expected);
}

// Every boundary row is posted before the wait, so the post phase must
// carry all of the traffic.
TEST(HaloLedger, OverlapPostsAllBytesBeforeTheWait) {
    auto s = make_solver<fp::FullPrecision>(24, 3, simd::Mode::Native);
    s.initialize_dam_break();
    s.run(5);
    const auto* post = s.ledger().find("dist_halo_post");
    const auto* wait = s.ledger().find("dist_halo_wait");
    ASSERT_NE(post, nullptr);
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(post->bytes, s.halo_bytes_sent());
    EXPECT_EQ(wait->bytes, 0u);
}

// Tracing must observe, never perturb: a traced run's height field is
// bitwise identical to an untraced one, load balancing included.
TEST(DistTracing, TracedRunIsBitwiseIdenticalToUntraced) {
    ASSERT_FALSE(obs::trace_enabled());
    const auto ref = height_after<fp::MixedPrecision>(
        24, 12, 3, simd::Mode::Native, /*lb_interval=*/4);
    obs::trace_start(::testing::TempDir() + "dist_invisible.trace.json");
    const auto traced = height_after<fp::MixedPrecision>(
        24, 12, 3, simd::Mode::Native, /*lb_interval=*/4);
    EXPECT_GT(obs::trace_stop(), 0u);
    EXPECT_EQ(traced, ref);
}

// ------------------------------------------------- communicator contracts

// Claiming a message that was never posted is a deadlock in the simulated
// schedule — complete() must throw, not hang or fabricate data, and a
// message that does not match (wrong source, tag or destination) is no
// substitute.
TEST(DistComm, MissingMessageThrows) {
    par::VirtualComm comm(3);
    EXPECT_THROW((void)comm.complete(1, 0, 7), std::runtime_error);
    comm.post_bytes(0, 1, 7, comm.acquire(8));
    EXPECT_THROW((void)comm.complete(1, 0, 8), std::runtime_error);
    EXPECT_THROW((void)comm.complete(1, 2, 7), std::runtime_error);
    EXPECT_THROW((void)comm.complete(2, 0, 7), std::runtime_error);
    comm.release(comm.complete(1, 0, 7).bytes);
    EXPECT_THROW((void)comm.complete(1, 0, 7), std::runtime_error);
    EXPECT_TRUE(comm.drained());
}

// drained() counts every posted-but-unclaimed message as leaked traffic,
// however many are in flight, until the last one is claimed.
TEST(DistComm, DrainedTracksBothDeliveryPaths) {
    par::VirtualComm comm(2);
    EXPECT_TRUE(comm.drained());
    comm.post_bytes(0, 1, 1, comm.acquire(8));
    EXPECT_FALSE(comm.drained());
    comm.post_bytes(1, 0, 2, comm.acquire(8));
    comm.release(comm.complete(1, 0, 1).bytes);
    EXPECT_FALSE(comm.drained());
    comm.release(comm.complete(0, 1, 2).bytes);
    EXPECT_TRUE(comm.drained());
}

}  // namespace
