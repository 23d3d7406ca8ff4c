// Block-structured-AMR contracts (DESIGN.md §13) that need their own
// binary: the zero-steady-state-allocation guarantee of the blocked flux
// sweep and of the block-distributed solver is checked with a global
// operator-new counter (counters can't share a process with test_dist's),
// plus the frozen checkpoint digests the flux sweep must reproduce, the
// BlockIndex lifecycle across rezones, the fill-mask/fallback partition
// invariant, the distributed block solver's decomposition-invariance
// matrix against the row-stripe solver, the per-phase halo byte
// accounting, and whole-block load balancing.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "fp/half_policy.hpp"
#include "mesh/block_tree.hpp"
#include "obs/trace.hpp"
#include "par/dist_blocks.hpp"
#include "par/dist_shallow.hpp"
#include "shallow/solver.hpp"
#include "util/threads.hpp"

using namespace tp;
namespace tsh = tp::shallow;

// ------------------------------------------------- allocation bookkeeping

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

namespace {

tsh::Config amr_config(int n, int levels, simd::Mode mode,
                       int rezone_interval = 4) {
    tsh::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, n, n, levels};
    cfg.simd = mode;
    cfg.rezone_interval = rezone_interval;
    return cfg;
}

// Runs a test body on one thread: the results are thread-count
// invariant, and under a parallel ctest a full OpenMP team per test only
// oversubscribes the host.
struct SingleThread {
    int previous = util::max_threads();
    SingleThread() { util::set_threads(1); }
    ~SingleThread() { util::set_threads(previous); }
};

template <typename Policy>
std::string checkpoint_after(const tsh::Config& cfg, int steps) {
    tsh::ShallowWaterSolver<Policy> s(cfg);
    s.initialize_dam_break({});
    s.run(steps);
    std::ostringstream os(std::ios::binary);
    s.write_checkpoint(os);
    return std::move(os).str();
}

// ------------------------------------------- frozen cell-path digests

// tools/baselines/cell_path_digests.txt freezes the checkpoints of the
// retired per-cell flux sweep — the bit-identical oracle the tile sweep
// was checked against while both existed — for every policy, SIMD shape
// and grid those gates compared (rezone every 4, 30 steps; rezone every
// 2, 30 steps; 16 steps on the small grids). The flux sweep must still
// reproduce every one, rezoning throughout. A missing or different entry
// is reported as the line the run produced.

std::uint64_t fnv1a64(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/// "<policy> <simd> <grid> <levels> <steps> <rezone_interval>" ->
/// "<checkpoint bytes> <fnv1a64 hex>", one line each, '#' comments.
std::map<std::string, std::string> read_frozen_digests() {
    std::map<std::string, std::string> frozen;
    std::ifstream in(TP_BASELINES_DIR "/cell_path_digests.txt");
    EXPECT_TRUE(in) << "cannot open " TP_BASELINES_DIR
                       "/cell_path_digests.txt";
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::string field[8];
        for (auto& f : field) ls >> f;
        frozen[field[0] + ' ' + field[1] + ' ' + field[2] + ' ' + field[3] +
               ' ' + field[4] + ' ' + field[5]] = field[6] + ' ' + field[7];
    }
    return frozen;
}

template <typename Policy>
void reproduces_frozen_digests() {
    const SingleThread one;
    const auto frozen = read_frozen_digests();
    struct Run {
        int rezone_interval, steps;
        bool quick_grids_only;
    };
    for (const auto mode : {simd::Mode::Scalar, simd::Mode::Native}) {
        for (const int grid : {12, 16, 24}) {
            for (const Run run : {Run{4, 30, false}, Run{2, 30, false},
                                  Run{2, 16, true}}) {
                if (run.quick_grids_only && grid > 16) continue;
                const int levels = grid <= 16 ? 3 : 2;
                std::ostringstream key;
                key << Policy::name << ' '
                    << (mode == simd::Mode::Native ? "native" : "scalar")
                    << ' ' << grid << ' ' << levels << ' ' << run.steps
                    << ' ' << run.rezone_interval;
                const auto it = frozen.find(key.str());
                const std::string want =
                    it == frozen.end() ? "(missing)" : it->second;
                const auto ckpt = checkpoint_after<Policy>(
                    amr_config(grid, levels, mode, run.rezone_interval),
                    run.steps);
                std::ostringstream got;
                got << ckpt.size() << ' ' << std::hex << std::setw(16)
                    << std::setfill('0') << fnv1a64(ckpt);
                EXPECT_EQ(got.str(), want)
                    << "produced: " << key.str() << ' ' << got.str();
            }
        }
    }
}

TEST(CellPathDigests, MinimumPrecision) {
    reproduces_frozen_digests<fp::MinimumPrecision>();
}
TEST(CellPathDigests, MixedPrecision) {
    reproduces_frozen_digests<fp::MixedPrecision>();
}
TEST(CellPathDigests, FullPrecision) {
    reproduces_frozen_digests<fp::FullPrecision>();
}
TEST(CellPathDigests, HalfStoragePrecision) {
    reproduces_frozen_digests<fp::HalfStoragePrecision>();
}

// ------------------------------------------------- block index lifecycle

// The index is rebuilt from the solver's slot tables after every
// topology refresh. After the first step and after every single rezone
// it must match an oracle derived from the mesh alone (consistent_with:
// exact masks, every position a regular member reads, -1 everywhere
// else) — for float and double slot areas, and behind both the
// incremental slot update and the face-scan rebuild.
template <typename Policy>
void index_matches_oracle_every_rezone(tsh::RezoneMode mode) {
    const SingleThread one;
    auto cfg = amr_config(24, 3, simd::Mode::Native, /*rezone_interval=*/1);
    cfg.rezone_mode = mode;
    tsh::ShallowWaterSolver<Policy> s(cfg);
    s.initialize_dam_break({});
    std::string why;
    std::size_t topology_changes = 0;
    for (int k = 0; k < 40; ++k) {
        const std::size_t before = s.mesh().num_cells();
        s.step();
        topology_changes += s.mesh().num_cells() != before;
        ASSERT_TRUE(s.block_index().consistent_with(s.mesh(), &why))
            << "after rezone " << s.rezone_stats().rezones << ": " << why;
    }
    EXPECT_EQ(s.rezone_stats().rezones, 39u);
    EXPECT_GT(topology_changes, 10u);  // the oracle saw a moving mesh
    const auto& st = s.block_index().stats();
    // One build for the first step, one per rezone.
    EXPECT_EQ(st.rebuilds, 1 + s.rezone_stats().rezones);
    EXPECT_EQ(st.blocks_translated, 0u);
}

TEST(BlockIndex, MatchesMeshOracleAfterEveryRezone) {
    index_matches_oracle_every_rezone<fp::MixedPrecision>(
        tsh::RezoneMode::Incremental);
    index_matches_oracle_every_rezone<fp::MinimumPrecision>(
        tsh::RezoneMode::Incremental);
    index_matches_oracle_every_rezone<fp::MinimumPrecision>(
        tsh::RezoneMode::Full);
}

// Fill-mask correctness after rezones: member bits name exactly the
// leaves at the block's level, regular bits are members whose four side
// neighbors are in-domain and same-or-coarser, and the solver-side tile
// list plus fallback cells partition the mesh (every cell computed
// exactly once per sweep).
TEST(BlockIndex, MasksAndFallbackPartitionTheMesh) {
    auto cfg = amr_config(16, 3, simd::Mode::Native, /*rezone_interval=*/3);
    tsh::ShallowWaterSolver<fp::FullPrecision> s(cfg);
    s.initialize_dam_break({});
    s.run(25);

    const auto& mesh = s.mesh();
    const auto& index = s.block_index();
    for (const auto& b : index.blocks()) {
        const auto src = index.src(b);
        EXPECT_EQ(std::popcount(b.member_mask), b.members);
        EXPECT_EQ(b.regular_mask & ~b.member_mask, 0u);
        for (int jj = 0; jj < mesh::kBlockSize; ++jj) {
            for (int ii = 0; ii < mesh::kBlockSize; ++ii) {
                const std::int32_t i = b.bi * mesh::kBlockSize + ii;
                const std::int32_t j = b.bj * mesh::kBlockSize + jj;
                const auto leaf = mesh.leaf_index(b.level, i, j);
                const bool member =
                    (b.member_mask >> mesh::block_bit(ii, jj)) & 1u;
                EXPECT_EQ(member, leaf >= 0)
                    << "level " << b.level << " (" << i << ", " << j << ")";
                if (member) {
                    EXPECT_EQ(src[static_cast<std::size_t>(
                                  mesh::block_padded(ii, jj))],
                              leaf);
                }
                if ((b.regular_mask >> mesh::block_bit(ii, jj)) & 1u) {
                    // Four side neighbors covered by same-or-coarser
                    // in-domain leaves, per the padded source map.
                    const int p = mesh::block_padded(ii, jj);
                    for (const int off : {-1, +1, -mesh::kBlockPad,
                                          +mesh::kBlockPad}) {
                        const auto n = src[static_cast<std::size_t>(p + off)];
                        ASSERT_GE(n, 0);
                        EXPECT_LE(mesh.cells()[static_cast<std::size_t>(n)]
                                      .level,
                                  b.level);
                    }
                }
            }
        }
    }

    // Partition: dense-tile regular members plus fallback cells cover
    // every cell exactly once.
    std::vector<int> covered(mesh.num_cells(), 0);
    std::size_t tile = 0;
    for (const auto& b : index.blocks()) {
        const bool dense =
            std::popcount(b.regular_mask) >=
            tsh::ShallowWaterSolver<fp::FullPrecision>::kMinTileRegular;
        if (!dense) continue;
        ASSERT_LT(tile, s.tile_blocks().size());
        const auto& t = s.tile_blocks()[tile++];
        EXPECT_EQ(t.regular, b.regular_mask);
        for (int jj = 0; jj < mesh::kBlockSize; ++jj)
            for (int ii = 0; ii < mesh::kBlockSize; ++ii)
                if ((t.regular >> mesh::block_bit(ii, jj)) & 1u)
                    ++covered[static_cast<std::size_t>(
                        t.src[mesh::block_padded(ii, jj)])];
    }
    EXPECT_EQ(tile, s.tile_blocks().size());
    for (const auto c : s.fallback_cells())
        ++covered[static_cast<std::size_t>(c)];
    for (std::size_t c = 0; c < covered.size(); ++c)
        EXPECT_EQ(covered[c], 1) << "cell " << c;
}

// --------------------------------------------- zero steady-state allocs

// With rezoning disabled the blocked sweep's steady state — gather,
// tile kernels, fallback packs, scatter — must perform zero heap
// allocations.
TEST(BlockedAllocations, SteadyStateStepIsAllocationFree) {
    auto cfg = amr_config(24, 2, simd::Mode::Native, /*rezone_interval=*/0);
    tsh::ShallowWaterSolver<fp::MixedPrecision> s(cfg);
    s.initialize_dam_break({});
    s.run(3);  // warm every lazy scratch buffer
    const std::uint64_t before = g_allocs.load();
    s.run(5);
    EXPECT_EQ(g_allocs.load(), before) << "blocked sweep allocated in "
                                          "steady state";
}

// Rezoning steps: once a warm-up has seen every mesh the measured steps
// will see, rebuilding the block index, the dense-tile list and the
// fallback list runs on reused capacity. The meshes come from a rezoning
// run, captured as checkpoints; a second solver that never rezones
// restores them in turn, and the step after each restore rebuilds every
// block structure for that mesh and then sweeps it (the sweep itself is
// allocation-free, per the test above). The first pass over the window
// warms the buffers; the replayed pass must not allocate at all.
TEST(BlockedAllocations, SteadyStateRezoneAddsNoAllocations) {
    const SingleThread one;
    using Solver = tsh::ShallowWaterSolver<fp::MixedPrecision>;
    std::vector<tsh::CheckpointData> window;
    {
        Solver s(amr_config(24, 3, simd::Mode::Native, /*rezone_interval=*/1));
        s.initialize_dam_break({});
        s.run(10);
        for (int k = 0; k < 10; ++k) {
            s.step();
            std::stringstream ckpt(std::ios::in | std::ios::out |
                                   std::ios::binary);
            s.write_checkpoint(ckpt);
            window.push_back(Solver::read_checkpoint(ckpt));
        }
        EXPECT_EQ(s.rezone_stats().rezones, 19u);
    }
    std::size_t topology_changes = 0;
    for (std::size_t k = 1; k < window.size(); ++k)
        topology_changes +=
            window[k].cells.size() != window[k - 1].cells.size();
    EXPECT_GT(topology_changes, 3u);  // the replay sees a moving mesh

    Solver s(amr_config(24, 3, simd::Mode::Native, /*rezone_interval=*/0));
    s.initialize_dam_break({});
    std::uint64_t replayed = 0;
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto& d : window) {
            s.restore_checkpoint(d);
            const std::uint64_t rebuilds = s.block_index().stats().rebuilds;
            const std::uint64_t before = g_allocs.load();
            s.step();
            if (pass == 1) replayed += g_allocs.load() - before;
            ASSERT_EQ(s.block_index().stats().rebuilds, rebuilds + 1);
        }
    }
    EXPECT_EQ(replayed, 0u)
        << "rebuilding the block structures allocated on a replayed mesh";
}

// ------------------------------------------- distributed block solver

template <typename P>
par::DistConfig dist_config(int grid, int ranks, bool overlap,
                            simd::Mode mode, int block = 0,
                            int lb_interval = 0) {
    par::DistConfig cfg;
    cfg.nx = cfg.ny = grid;
    cfg.ranks = ranks;
    cfg.overlap = overlap;
    cfg.simd = mode;
    cfg.block = block;
    cfg.lb_interval = lb_interval;
    return cfg;
}

template <typename P>
std::vector<double> block_height_after(int grid, int steps, int ranks,
                                       bool overlap, simd::Mode mode,
                                       int block = 0, int lb_interval = 0) {
    par::BlockDistributedShallowSolver<P> s(
        dist_config<P>(grid, ranks, overlap, mode, block, lb_interval));
    s.initialize_dam_break();
    s.run(steps);
    EXPECT_TRUE(s.comm_drained());
    return s.gather_height();
}

// Decomposition-invariance matrix for the blocked solver, referenced
// against the row-stripe solver's 1-rank BSP scalar run: the height field
// must repeat to the last bit across rank counts, schedules, SIMD shapes,
// and block edges — including against the entirely different row
// decomposition, since every cell update reads only exact neighbor
// values and the wavespeed max is order-free.
template <typename P>
void block_invariance_matrix() {
    const int grid = 24, steps = 12;
    par::DistributedShallowSolver<P> rows(
        dist_config<P>(grid, 1, false, simd::Mode::Scalar));
    rows.initialize_dam_break();
    rows.run(steps);
    const auto ref = rows.gather_height();
    for (const int ranks : {1, 3, 9})
        for (const bool overlap : {false, true})
            for (const auto mode : {simd::Mode::Scalar, simd::Mode::Native})
                for (const int edge : {4, 8})
                    EXPECT_EQ(block_height_after<P>(grid, steps, ranks,
                                                    overlap, mode, edge),
                              ref)
                        << ranks << " ranks, overlap=" << overlap
                        << ", native=" << (mode == simd::Mode::Native)
                        << ", block edge " << edge;
}

TEST(BlockDistInvariance, MinimumPrecision) {
    block_invariance_matrix<fp::MinimumPrecision>();
}
TEST(BlockDistInvariance, MixedPrecision) {
    block_invariance_matrix<fp::MixedPrecision>();
}
TEST(BlockDistInvariance, FullPrecision) {
    block_invariance_matrix<fp::FullPrecision>();
}

// auto_block_edge picks the largest divisor that still gives every rank
// a block; cfg.block = 0 routes through it.
TEST(BlockDist, AutoBlockEdge) {
    EXPECT_EQ(par::auto_block_edge(48, 48, 3), 24);   // 4 blocks >= 3
    EXPECT_EQ(par::auto_block_edge(48, 48, 5), 16);   // 9 blocks >= 5
    EXPECT_EQ(par::auto_block_edge(64, 64, 4), 32);   // max_edge cap
    EXPECT_EQ(par::auto_block_edge(6, 6, 9), 2);      // 9 blocks exactly
    EXPECT_THROW((void)par::auto_block_edge(2, 2, 5), std::invalid_argument);
    EXPECT_EQ(block_height_after<fp::MixedPrecision>(24, 8, 3, true,
                                                     simd::Mode::Native, 0),
              block_height_after<fp::MixedPrecision>(24, 8, 3, true,
                                                     simd::Mode::Native, 8));
}

// ------------------------------------------------- per-phase halo bytes

// The ledger reports halo traffic per phase: "dist_halo_post" carries
// the posted payloads, "dist_halo_wait" any stragglers, and their sum
// must equal halo_bytes_sent() exactly — in both solvers and both
// schedules — with the overlap/BSP totals agreeing (same traffic, only
// the wait point moves).
template <typename Solver>
std::uint64_t ledger_halo_bytes(const Solver& s) {
    const auto* post = s.ledger().find("dist_halo_post");
    const auto* wait = s.ledger().find("dist_halo_wait");
    EXPECT_NE(post, nullptr);
    EXPECT_NE(wait, nullptr);
    std::uint64_t total = 0;
    if (post) total += post->bytes;
    if (wait) total += wait->bytes;
    return total;
}

TEST(HaloLedger, PerPhaseBytesSumToTotalAndMatchBsp) {
    std::uint64_t totals[2][2] = {};
    for (const bool blocks : {false, true}) {
        for (const bool overlap : {false, true}) {
            const auto cfg = dist_config<fp::MixedPrecision>(
                24, 3, overlap, simd::Mode::Native);
            std::uint64_t sent = 0, ledgered = 0;
            if (blocks) {
                par::BlockDistributedShallowSolver<fp::MixedPrecision> s(
                    cfg);
                s.initialize_dam_break();
                s.run(10);
                sent = s.halo_bytes_sent();
                ledgered = ledger_halo_bytes(s);
            } else {
                par::DistributedShallowSolver<fp::MixedPrecision> s(cfg);
                s.initialize_dam_break();
                s.run(10);
                sent = s.halo_bytes_sent();
                ledgered = ledger_halo_bytes(s);
            }
            EXPECT_GT(sent, 0u);
            EXPECT_EQ(ledgered, sent)
                << (blocks ? "blocks" : "rows") << ", overlap=" << overlap;
            totals[blocks][overlap] = sent;
        }
        // Overlap only moves the wait point; the traffic is identical.
        EXPECT_EQ(totals[blocks][0], totals[blocks][1]);
    }
}

// In the overlapped schedule every face payload is posted before the
// wait, so the post phase must carry all of the traffic.
TEST(HaloLedger, OverlapPostsAllBytesBeforeTheWait) {
    par::DistributedShallowSolver<fp::FullPrecision> s(
        dist_config<fp::FullPrecision>(24, 3, true, simd::Mode::Native));
    s.initialize_dam_break();
    s.run(5);
    const auto* post = s.ledger().find("dist_halo_post");
    const auto* wait = s.ledger().find("dist_halo_wait");
    ASSERT_NE(post, nullptr);
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(post->bytes, s.halo_bytes_sent());
    EXPECT_EQ(wait->bytes, 0u);
}

// The per-source-rank byte counters (the {"type":"dist"} record's
// halo_bytes array) partition the total exactly, and tracing the block
// solver perturbs nothing: the traced height field matches the untraced
// one bit for bit.
TEST(HaloLedger, PerRankBytesPartitionTotalAndTracingIsInvisible) {
    ASSERT_FALSE(obs::trace_enabled());
    const auto ref = block_height_after<fp::MixedPrecision>(
        24, 12, 3, true, simd::Mode::Native, 4, /*lb_interval=*/4);
    obs::trace_start(::testing::TempDir() + "blocks.trace.json");
    par::BlockDistributedShallowSolver<fp::MixedPrecision> s(
        dist_config<fp::MixedPrecision>(24, 3, true, simd::Mode::Native, 4,
                                        /*lb_interval=*/4));
    s.initialize_dam_break();
    s.run(12);
    EXPECT_GT(obs::trace_stop(), 0u);
    EXPECT_TRUE(s.comm_drained());
    EXPECT_EQ(s.gather_height(), ref);
    std::uint64_t per_rank_total = 0;
    for (int r = 0; r < 3; ++r) per_rank_total += s.halo_bytes_sent(r);
    EXPECT_GT(per_rank_total, 0u);
    EXPECT_EQ(per_rank_total, s.halo_bytes_sent());
}

// --------------------------------------------------- block load balance

// A skewed re-split moves whole blocks between ranks with zero state
// copies — the solution must match an undisturbed run bit-for-bit.
TEST(BlockLoadBalance, SkewedResplitCarriesStateExactly) {
    const int grid = 24, edge = 4;  // 36 blocks on 3 ranks
    auto cfg = dist_config<fp::FullPrecision>(grid, 3, true,
                                              simd::Mode::Native, edge);
    par::BlockDistributedShallowSolver<fp::FullPrecision> undisturbed(cfg);
    undisturbed.initialize_dam_break();
    undisturbed.run(10);

    par::BlockDistributedShallowSolver<fp::FullPrecision> resplit(cfg);
    resplit.initialize_dam_break();
    resplit.run(4);
    std::vector<double> skew(resplit.num_blocks(), 1.0);
    for (std::size_t b = 0; b < skew.size() / 3; ++b) skew[b] = 9.0;
    resplit.rebalance(skew);
    EXPECT_GE(resplit.lb_stats().resplits, 1u);
    EXPECT_GT(resplit.lb_stats().blocks_moved, 0u);
    resplit.run(6);

    EXPECT_EQ(resplit.gather_height(), undisturbed.gather_height());
    EXPECT_TRUE(resplit.comm_drained());
}

// Periodic measured-cost rebalancing is bitwise invisible too.
TEST(BlockLoadBalance, PeriodicLoadBalancingDoesNotChangeState) {
    const auto ref = block_height_after<fp::MixedPrecision>(
        24, 12, 3, true, simd::Mode::Native, 4, /*lb_interval=*/0);
    EXPECT_EQ(block_height_after<fp::MixedPrecision>(24, 12, 3, true,
                                                     simd::Mode::Native, 4,
                                                     /*lb_interval=*/4),
              ref);
}

// Uniform cost reproduces the static partition — no churn at balance.
TEST(BlockLoadBalance, UniformCostIsANoOp) {
    par::BlockDistributedShallowSolver<fp::FullPrecision> s(
        dist_config<fp::FullPrecision>(24, 4, true, simd::Mode::Native, 4));
    s.initialize_dam_break();
    const auto before = s.block_partition();
    const std::vector<double> uniform(s.num_blocks(), 1.0);
    s.rebalance(uniform);
    EXPECT_EQ(s.block_partition(), before);
    EXPECT_EQ(s.lb_stats().evaluations, 1u);
    EXPECT_EQ(s.lb_stats().resplits, 0u);
}

// Steady-state step() and total_mass() of the block solver allocate
// nothing, in either schedule — and because ownership is a pure range
// boundary, even a re-split that moves blocks stays allocation-free.
TEST(BlockDistAllocations, SteadyStateAndResplitAreAllocationFree) {
    for (const bool overlap : {false, true}) {
        par::BlockDistributedShallowSolver<fp::MixedPrecision> s(
            dist_config<fp::MixedPrecision>(24, 3, overlap,
                                            simd::Mode::Native, 4));
        s.initialize_dam_break();
        s.run(3);  // warm the comm pool and every lazy scratch buffer
        (void)s.total_mass();
        std::vector<double> skew(s.num_blocks(), 1.0);
        for (std::size_t b = 0; b < skew.size() / 2; ++b) skew[b] = 5.0;
        const std::uint64_t before = g_allocs.load();
        s.run(5);
        (void)s.total_mass();
        s.rebalance(skew);
        EXPECT_EQ(g_allocs.load(), before)
            << (overlap ? "overlap" : "BSP") << " schedule allocated in "
            << "steady state";
        EXPECT_TRUE(s.comm_drained());
    }
}

}  // namespace
