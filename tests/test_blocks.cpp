// Block-structured-AMR contracts (DESIGN.md §13): the zero-steady-state-
// allocation guarantee of the blocked flux sweep, checked with the
// global operator-new counter of alloc_counter.cpp, plus the frozen
// checkpoint digests the flux sweep and the SEM step must reproduce, the
// scope of the SEM step's subnormal flush, the BlockIndex lifecycle
// across rezones, and the fill-mask/fallback partition invariant.

#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "fp/flush_subnormals.hpp"
#include "fp/half_policy.hpp"
#include "mesh/block_tree.hpp"
#include "obs/probe.hpp"
#include "sem/dgsem.hpp"
#include "shallow/solver.hpp"
#include "util/threads.hpp"

using namespace tp;
namespace tsh = tp::shallow;

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
struct TeamSize {
    int previous = util::max_threads();
    explicit TeamSize(int threads) { util::set_threads(threads); }
    ~TeamSize() { util::set_threads(previous); }
};
struct SingleThread : TeamSize {
    SingleThread() : TeamSize(1) {}
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

// tools/baselines/cell_path_digests.txt freezes the checkpoints of four
// retired paths, each recorded while it was still the bit-identical
// oracle of the path that replaced it. The per-cell flux sweep froze
// every policy, SIMD shape and grid the blocked-sweep gates compared
// (rezone every 4, 30 steps; rezone every 2, 30 steps; 16 steps on the
// small grids). The face-scan rezone (flags and topology caches rebuilt
// from the mesh face lists) froze the rezone-heavy shape of
// SimdEquivalence.ClamrRezoneHeavyBitIdentical: 24^2, 4 levels, rezone
// every 2, 25 steps. The SEM rows (the per-node CFL scan and the
// unflushed step) are described at SemCflDigests below.
// The solvers must still reproduce every one, rezoning throughout. A
// missing or different entry is reported as the line the run produced.

std::uint64_t fnv1a64(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/// "<checkpoint bytes> <fnv1a64 hex>", the value column of the file.
std::string digest_of(const std::string& ckpt) {
    std::ostringstream got;
    got << ckpt.size() << ' ' << std::hex << std::setw(16)
        << std::setfill('0') << fnv1a64(ckpt);
    return got.str();
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
        int grid, levels, steps, rezone_interval;
    };
    constexpr Run kRuns[] = {
        {12, 3, 30, 4}, {12, 3, 30, 2}, {12, 3, 16, 2},
        {16, 3, 30, 4}, {16, 3, 30, 2}, {16, 3, 16, 2},
        {24, 2, 30, 4}, {24, 2, 30, 2},
        {24, 4, 25, 2},  // frozen from the face-scan rezone
    };
    for (const auto mode : {simd::Mode::Scalar, simd::Mode::Native}) {
        for (const Run run : kRuns) {
            std::ostringstream key;
            key << Policy::name << ' '
                << (mode == simd::Mode::Native ? "native" : "scalar") << ' '
                << run.grid << ' ' << run.levels << ' ' << run.steps << ' '
                << run.rezone_interval;
            const auto it = frozen.find(key.str());
            const std::string want =
                it == frozen.end() ? "(missing)" : it->second;
            const std::string got = digest_of(checkpoint_after<Policy>(
                amr_config(run.grid, run.levels, mode, run.rezone_interval),
                run.steps));
            EXPECT_EQ(got, want) << "produced: " << key.str() << ' ' << got;
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

// The last section of cell_path_digests.txt freezes SEM thermal-bubble
// checkpoints, keyed "sem-<policy> <simd> <elements> <order> <steps>
// <variant>". Each shape freezes every policy x simd pair plus the
// promote_each_op kernel:
// - 3^3 elements, order 4, 5 steps, recorded while the stable dt still
//   came from a per-node rate buffer and a blocked max reducer, plus the
//   viscous path (whose dt also takes the diffusive limit);
// - 3^3 elements, order 7, 20 steps, recorded before the SEM step
//   flushed subnormals (DESIGN.md §16). Unlike the small shape,
//   this one computes subnormal intermediates: unflushed, its single-
//   precision volume kernel takes about twice as long as flushed.

struct SemShape {
    int elements, order, steps;
};
constexpr SemShape kCflShape{3, 4, 5};
constexpr SemShape kSubnormalShape{3, 7, 20};

template <typename Policy>
std::string sem_digest(SemShape shape, simd::Mode mode,
                       const std::string& variant) {
    sem::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = shape.elements;
    cfg.order = shape.order;
    cfg.simd = mode;
    cfg.promote_each_op = variant == "promote";
    cfg.viscosity = variant == "viscous" ? 1.0 : 0.0;
    sem::SpectralEulerSolver<Policy> s(cfg);
    s.initialize_thermal_bubble({});
    s.run(shape.steps);
    std::ostringstream os(std::ios::binary);
    s.write_checkpoint(os);
    return digest_of(std::move(os).str());
}

template <typename Policy>
void expect_sem_row(const std::map<std::string, std::string>& frozen,
                    SemShape shape, simd::Mode mode,
                    const std::string& variant) {
    std::ostringstream key;
    key << "sem-" << Policy::name << ' '
        << (mode == simd::Mode::Native ? "native" : "scalar") << ' '
        << shape.elements << ' ' << shape.order << ' ' << shape.steps << ' '
        << variant;
    const auto it = frozen.find(key.str());
    const std::string want = it == frozen.end() ? "(missing)" : it->second;
    const std::string got = sem_digest<Policy>(shape, mode, variant);
    EXPECT_EQ(got, want) << "produced: " << key.str() << ' ' << got;
}

/// The rows every SEM shape freezes: policy x simd, plus promote_each_op.
void expect_sem_rows(const std::map<std::string, std::string>& frozen,
                     SemShape shape) {
    for (const auto mode : {simd::Mode::Scalar, simd::Mode::Native}) {
        expect_sem_row<fp::MinimumPrecision>(frozen, shape, mode, "inviscid");
        expect_sem_row<fp::MixedPrecision>(frozen, shape, mode, "inviscid");
        expect_sem_row<fp::FullPrecision>(frozen, shape, mode, "inviscid");
    }
    expect_sem_row<fp::MinimumPrecision>(frozen, shape, simd::Mode::Native,
                                         "promote");
}

TEST(SemCflDigests, EveryPolicySimdAndVariant) {
    const SingleThread one;
    const auto frozen = read_frozen_digests();
    expect_sem_rows(frozen, kCflShape);
    expect_sem_row<fp::FullPrecision>(frozen, kCflShape, simd::Mode::Native,
                                      "viscous");
}

TEST(SemCflDigests, SubnormalShapeAtOneAndFourThreads) {
    const auto frozen = read_frozen_digests();
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const TeamSize team(threads);
        expect_sem_rows(frozen, kSubnormalShape);
    }
}

// ------------------------------------------------- subnormal flush scope

// Every OpenMP region of the SEM step flushes subnormals on its own
// threads and restores their MXCSR when it ends; nothing else may keep a
// changed MXCSR. The CLAMR solver is not flushed: a flushed minimum-
// precision run of the frozen "24 4 25 2" shape gives different bits.
// The step runs first in these tests, before any other parallel region,
// so the OpenMP runtime creates its threads inside it: a guard held by
// the caller across a fork would hand the flush to them for good.
#if defined(__SSE__)

/// MXCSR without its six sticky exception flags, which any arithmetic
/// may raise: the control bits (flush, rounding, masks).
unsigned mxcsr_mode() { return _mm_getcsr() & ~0x3Fu; }

/// The MXCSR mode of every thread of a fresh parallel region.
std::vector<unsigned> team_mxcsr() {
    std::vector<unsigned> seen;
#pragma omp parallel
    {
        const unsigned csr = mxcsr_mode();
#pragma omp critical
        seen.push_back(csr);
    }
    return seen;
}

void expect_team_unchanged(unsigned caller) {
    EXPECT_EQ(mxcsr_mode(), caller) << "caller";
    const auto team = team_mxcsr();
    EXPECT_EQ(team.size(), static_cast<std::size_t>(util::max_threads()));
    for (const unsigned csr : team) EXPECT_EQ(csr, caller) << "team thread";
}

sem::SemConfig subnormal_shape_config() {
    sem::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = kSubnormalShape.elements;
    cfg.order = kSubnormalShape.order;
    return cfg;
}

TEST(FlushScope, SemStepLeavesEveryThreadsMxcsrAsItFoundIt) {
    const TeamSize team(4);
    const unsigned caller = mxcsr_mode();
    ASSERT_EQ(caller & fp::FlushSubnormals::kFtzDaz, 0u);
    sem::SpectralEulerSolver<fp::MinimumPrecision> s(
        subnormal_shape_config());
    s.initialize_thermal_bubble({});
    s.run(3);
    expect_team_unchanged(caller);
}

TEST(FlushScope, FaultingSemStepLeavesEveryThreadsMxcsrAsItFoundIt) {
    const TeamSize team(4);
    const unsigned caller = mxcsr_mode();
    // The all-NaN viscous state of Probe.SemDtGuardCatchesNanStateWithProbeOff:
    // the step runs its CFL region, then throws.
    sem::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 2;
    cfg.order = 3;
    cfg.viscosity = 1.0;
    sem::SpectralEulerSolver<fp::MixedPrecision> s(cfg);
    s.initialize_custom([](double, double, double, double* q) {
        for (int v = 0; v < sem::kVars; ++v)
            q[v] = std::numeric_limits<double>::quiet_NaN();
    });
    EXPECT_THROW(s.step(), obs::NumericalFault);
    expect_team_unchanged(caller);
}

TEST(FlushScope, ClamrAfterSemReproducesItsFrozenDigest) {
    const TeamSize team(4);
    sem::SpectralEulerSolver<fp::MinimumPrecision> s(
        subnormal_shape_config());
    s.initialize_thermal_bubble({});
    s.run(3);
    const auto frozen = read_frozen_digests();
    const std::string got =
        digest_of(checkpoint_after<fp::MinimumPrecision>(
            amr_config(24, 4, simd::Mode::Native, 2), 25));
    EXPECT_EQ(got, frozen.at("minimum native 24 4 25 2"));
}

#else
TEST(FlushScope, SemStepLeavesEveryThreadsMxcsrAsItFoundIt) {
    GTEST_SKIP() << "built without SSE: there is no MXCSR to check";
}
#endif

// ------------------------------------------------- block index lifecycle

// The index is rebuilt from the solver's slot tables after every
// topology refresh. After the first step and after every single rezone
// it must match an oracle derived from the mesh alone (consistent_with:
// exact masks, every position a regular member reads, -1 everywhere
// else) — for float and double slot areas.
template <typename Policy>
void index_matches_oracle_every_rezone() {
    const SingleThread one;
    const auto cfg =
        amr_config(24, 3, simd::Mode::Native, /*rezone_interval=*/1);
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
    index_matches_oracle_every_rezone<fp::MixedPrecision>();
    index_matches_oracle_every_rezone<fp::MinimumPrecision>();
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
    const std::uint64_t before = tp::test::heap_allocations();
    s.run(5);
    EXPECT_EQ(tp::test::heap_allocations(), before)
        << "blocked sweep allocated in steady state";
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
            const std::uint64_t before = tp::test::heap_allocations();
            s.step();
            if (pass == 1) replayed += tp::test::heap_allocations() - before;
            ASSERT_EQ(s.block_index().stats().rebuilds, rebuilds + 1);
        }
    }
    EXPECT_EQ(replayed, 0u)
        << "rebuilding the block structures allocated on a replayed mesh";
}

}  // namespace
