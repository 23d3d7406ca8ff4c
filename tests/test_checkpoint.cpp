// Checkpoint subsystem tests: the v2 error-bounded compressed format,
// the size accounting contract (checkpoint_bytes == bytes on disk), the
// restore paths (shallow, SEM, and the sharded distributed restart), and
// the asynchronous double-buffered writer. DESIGN.md §14.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "compress/fixedrate.hpp"
#include "io/async_checkpoint.hpp"
#include "io/async_writer.hpp"
#include "io/checkpoint.hpp"
#include "obs/schema.hpp"
#include "par/dist_shallow.hpp"
#include "sem/dgsem.hpp"
#include "shallow/solver.hpp"

using namespace tp;

namespace {

/// An ostream whose sink refuses every byte — models a full disk / closed
/// pipe so the write-failure contract can be asserted directly.
struct FailBuf : std::streambuf {
    int_type overflow(int_type) override { return traits_type::eof(); }
};

template <typename P>
shallow::ShallowWaterSolver<P> make_shallow(int grid, int levels,
                                            int steps) {
    shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, grid, grid, levels};
    shallow::ShallowWaterSolver<P> s(cfg);
    s.initialize_dam_break({});
    s.run(steps);
    return s;
}

template <typename P>
sem::SpectralEulerSolver<P> make_sem(int steps) {
    sem::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 2;
    cfg.order = 3;
    sem::SpectralEulerSolver<P> s(cfg);
    s.initialize_thermal_bubble({});
    s.run(steps);
    return s;
}

template <typename S>
std::string checkpoint_string(const S& s,
                              const io::CheckpointOptions& opt) {
    std::stringstream os;
    s.write_checkpoint(os, opt);
    return std::move(os).str();
}

/// Per-block L-inf error of `back` vs `ref`, asserted against the
/// compressor's advertised bound at the block's own peak.
void expect_within_block_bounds(const std::vector<double>& ref,
                                const std::vector<double>& back, int bits,
                                const std::string& label) {
    ASSERT_EQ(ref.size(), back.size()) << label;
    for (std::size_t start = 0; start < ref.size();
         start += compress::kBlockSize) {
        const std::size_t len =
            std::min(compress::kBlockSize, ref.size() - start);
        double peak = 0.0;
        for (std::size_t i = 0; i < len; ++i)
            peak = std::max(peak, std::fabs(ref[start + i]));
        if (peak == 0.0) {
            for (std::size_t i = 0; i < len; ++i)
                EXPECT_EQ(back[start + i], 0.0) << label;
            continue;
        }
        const double bound = compress::error_bound(
            std::max(peak, std::ldexp(1.0, -1022)), bits);
        for (std::size_t i = 0; i < len; ++i)
            EXPECT_LE(std::fabs(back[start + i] - ref[start + i]), bound)
                << label << " block@" << start << " i=" << start + i;
    }
}

std::string temp_path(const std::string& stem) {
    return (std::filesystem::temp_directory_path() / stem).string();
}

}  // namespace

// ------------------------------------------------------- size contract
// checkpoint_bytes(opt) must equal the bytes write_checkpoint emits, for
// every policy, mesh depth, and compression mode — the cost model bills
// by this number, so it cannot drift from the truth.

template <typename P>
class ShallowCheckpoint : public ::testing::Test {};
using Policies =
    ::testing::Types<fp::MinimumPrecision, fp::MixedPrecision,
                     fp::FullPrecision>;
TYPED_TEST_SUITE(ShallowCheckpoint, Policies);

TYPED_TEST(ShallowCheckpoint, BytesMatchStreamAcrossModesAndLevels) {
    for (const int levels : {0, 2}) {
        const auto s = make_shallow<TypeParam>(16, levels, 12);
        // v1 (both spellings), drift, and two explicit rates.
        std::stringstream v1;
        s.write_checkpoint(v1);
        EXPECT_EQ(s.checkpoint_bytes(), v1.str().size());
        for (const auto& opt :
             {io::CheckpointOptions{},
              io::parse_checkpoint_compress("drift"),
              io::parse_checkpoint_compress("16"),
              io::parse_checkpoint_compress("5")}) {
            const std::string bytes = checkpoint_string(s, opt);
            EXPECT_EQ(s.checkpoint_bytes(opt), bytes.size())
                << "levels=" << levels
                << " mode=" << static_cast<int>(opt.mode)
                << " bits=" << opt.bits;
        }
    }
}

TYPED_TEST(ShallowCheckpoint, OffModeIsByteIdenticalToV1) {
    for (const int grid : {12, 20}) {
        for (const auto mode : {simd::Mode::Scalar, simd::Mode::Auto}) {
            shallow::Config cfg;
            cfg.geom = {0.0, 0.0, 100.0, 100.0, grid, grid, 1};
            cfg.simd = mode;
            shallow::ShallowWaterSolver<TypeParam> s(cfg);
            s.initialize_dam_break({});
            s.run(8);
            std::stringstream v1;
            s.write_checkpoint(v1);
            EXPECT_EQ(v1.str(),
                      checkpoint_string(s, io::CheckpointOptions{}))
                << "grid=" << grid;
        }
    }
}

TYPED_TEST(ShallowCheckpoint, CompressedRoundTripWithinBlockBounds) {
    const auto s = make_shallow<TypeParam>(16, 2, 15);
    std::stringstream raw;
    s.write_checkpoint(raw);
    const auto ref =
        shallow::ShallowWaterSolver<TypeParam>::read_checkpoint(raw);
    for (const int bits : {8, 16, 24}) {
        const auto opt = io::parse_checkpoint_compress(
            std::to_string(bits));
        std::stringstream os;
        s.write_checkpoint(os, opt);
        const auto back =
            shallow::ShallowWaterSolver<TypeParam>::read_checkpoint(os);
        expect_within_block_bounds(ref.h, back.h, bits, "h");
        expect_within_block_bounds(ref.hu, back.hu, bits, "hu");
        expect_within_block_bounds(ref.hv, back.hv, bits, "hv");
    }
}

TYPED_TEST(ShallowCheckpoint, DriftModeStaysUnderTheUlpBudget) {
    using Solver = shallow::ShallowWaterSolver<TypeParam>;
    const auto s = make_shallow<TypeParam>(16, 1, 10);
    std::stringstream raw;
    s.write_checkpoint(raw);
    const auto ref = Solver::read_checkpoint(raw);
    const std::uint64_t budget = 256;
    const auto opt = io::parse_checkpoint_compress("drift", budget);
    std::stringstream os;
    const io::CheckpointWriteInfo info = s.write_checkpoint(os, opt);
    ASSERT_EQ(info.bits.size(), 3u);
    const auto back = Solver::read_checkpoint(os);
    const int digits =
        io::storage_digits_v<typename Solver::storage_t>;
    const std::vector<double>* refs[] = {&ref.h, &ref.hu, &ref.hv};
    const std::vector<double>* backs[] = {&back.h, &back.hu, &back.hv};
    for (int a = 0; a < 3; ++a) {
        const double peak = io::peak_abs(*refs[a]);
        if (peak == 0.0) continue;
        // The drift tolerance, or the 32-bit floor when the budget is
        // tighter than the maximum rate can deliver (double storage).
        const double tol = static_cast<double>(budget) *
                           std::ldexp(1.0, std::ilogb(peak) + 1 - digits);
        const double floor32 = compress::error_bound(peak, 32);
        for (std::size_t i = 0; i < refs[a]->size(); ++i)
            ASSERT_LE(std::fabs((*backs[a])[i] - (*refs[a])[i]),
                      std::max(tol, floor32))
                << "array=" << a << " i=" << i;
    }
}

TYPED_TEST(ShallowCheckpoint, V1RestartContinuesBitIdentically) {
    using Solver = shallow::ShallowWaterSolver<TypeParam>;
    auto a = make_shallow<TypeParam>(16, 2, 15);
    std::stringstream os;
    a.write_checkpoint(os);

    shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 16, 16, 2};
    Solver b(cfg);
    b.restore_checkpoint(Solver::read_checkpoint(os));
    EXPECT_EQ(b.step_count(), a.step_count());
    EXPECT_EQ(b.time(), a.time());

    a.run(10);
    b.run(10);
    std::stringstream sa, sb;
    a.write_checkpoint(sa);
    b.write_checkpoint(sb);
    EXPECT_EQ(sa.str(), sb.str());  // v1 bytes are the exact state
}

TYPED_TEST(ShallowCheckpoint, CompressedRestartStaysNearTheTruth) {
    using Solver = shallow::ShallowWaterSolver<TypeParam>;
    auto a = make_shallow<TypeParam>(16, 1, 12);
    std::stringstream os;
    a.write_checkpoint(os, io::parse_checkpoint_compress("drift"));

    shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, 16, 16, 1};
    Solver b(cfg);
    b.restore_checkpoint(Solver::read_checkpoint(os));
    EXPECT_EQ(b.step_count(), a.step_count());

    // The restored state differs from the truth by at most the drift
    // tolerance; mass (a linear functional of h) moves by no more.
    const double rel = std::fabs(b.total_mass() - a.total_mass()) /
                       std::fabs(a.total_mass());
    EXPECT_LE(rel, 1e-4);
    // And the restored solver must still step (topology was rebuilt).
    b.run(3);
    EXPECT_EQ(b.step_count(), a.step_count() + 3);
}

TYPED_TEST(ShallowCheckpoint, WriteFailureThrows) {
    const auto s = make_shallow<TypeParam>(12, 1, 5);
    FailBuf buf;
    std::ostream os(&buf);
    EXPECT_THROW(s.write_checkpoint(os), std::runtime_error);
    std::ostream os2(&buf);
    EXPECT_THROW(
        s.write_checkpoint(os2, io::parse_checkpoint_compress("16")),
        std::runtime_error);
}

TEST(ShallowCheckpointValidation, RejectsCorruptV2Streams) {
    using Solver = shallow::FullShallowSolver;
    const auto s = make_shallow<fp::FullPrecision>(12, 1, 5);
    const std::string good =
        checkpoint_string(s, io::parse_checkpoint_compress("12"));

    // Truncation anywhere in the array section must throw, not crash.
    for (const std::size_t keep :
         {good.size() - 1, good.size() / 2, std::size_t{90}}) {
        std::stringstream is(good.substr(0, keep));
        EXPECT_THROW((void)Solver::read_checkpoint(is),
                     std::runtime_error)
            << "keep=" << keep;
    }
    // A tampered per-array rate is caught by the record validation.
    std::string bad = good;
    const std::size_t cells_off = 84 + 12 * (s.mesh().num_cells());
    bad[cells_off] = 77;  // bits field of the first array record
    std::stringstream is(bad);
    EXPECT_THROW((void)Solver::read_checkpoint(is), std::runtime_error);
}

TEST(ShallowCheckpointValidation, RestoreRejectsMismatchedGeometry) {
    using Solver = shallow::FullShallowSolver;
    const auto s = make_shallow<fp::FullPrecision>(16, 1, 5);
    std::stringstream os;
    s.write_checkpoint(os);
    const auto d = Solver::read_checkpoint(os);

    shallow::Config other;
    other.geom = {0.0, 0.0, 100.0, 100.0, 24, 24, 1};
    Solver b(other);
    EXPECT_THROW(b.restore_checkpoint(d), std::invalid_argument);
}

TEST(AmrMeshRestore, RejectsInvalidCellLists) {
    const auto s = make_shallow<fp::FullPrecision>(12, 1, 8);
    const mesh::MeshGeometry geom = s.mesh().geometry();
    std::vector<mesh::Cell> cells(s.mesh().cells().begin(),
                                  s.mesh().cells().end());
    // The restore constructor re-sorts, so order is forgiven — but a
    // missing cell leaves a coverage hole and must be rejected.
    std::vector<mesh::Cell> holey = cells;
    holey.pop_back();
    EXPECT_THROW(mesh::AmrMesh(geom, holey), std::invalid_argument);
    // A duplicated cell double-covers its tile.
    std::vector<mesh::Cell> doubled = cells;
    doubled.push_back(doubled.front());
    EXPECT_THROW(mesh::AmrMesh(geom, doubled), std::invalid_argument);
    // The untouched list reconstructs fine.
    EXPECT_NO_THROW(mesh::AmrMesh(geom, cells));
}

// ------------------------------------------------------------------ SEM
template <typename P>
class SemCheckpoint : public ::testing::Test {};
TYPED_TEST_SUITE(SemCheckpoint, Policies);

TYPED_TEST(SemCheckpoint, BytesMatchStreamAcrossModes) {
    const auto s = make_sem<TypeParam>(2);
    std::stringstream v1;
    s.write_checkpoint(v1);
    EXPECT_EQ(s.checkpoint_bytes(), v1.str().size());
    for (const auto& opt :
         {io::CheckpointOptions{}, io::parse_checkpoint_compress("drift"),
          io::parse_checkpoint_compress("11")}) {
        EXPECT_EQ(s.checkpoint_bytes(opt),
                  checkpoint_string(s, opt).size());
    }
    EXPECT_EQ(v1.str(), checkpoint_string(s, io::CheckpointOptions{}));
}

TYPED_TEST(SemCheckpoint, V1RestartContinuesBitIdentically) {
    using Solver = sem::SpectralEulerSolver<TypeParam>;
    auto a = make_sem<TypeParam>(3);
    std::stringstream os;
    a.write_checkpoint(os);

    sem::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 2;
    cfg.order = 3;
    Solver b(cfg);
    // The checkpoint stores the perturbation state; the hydrostatic base
    // state comes from initialization (the drivers' restart order too).
    b.initialize_thermal_bubble({});
    b.restore_checkpoint(Solver::read_checkpoint(os));
    EXPECT_EQ(b.state_fingerprint(), a.state_fingerprint());
    a.run(2);
    b.run(2);
    EXPECT_EQ(b.state_fingerprint(), a.state_fingerprint());
}

TYPED_TEST(SemCheckpoint, CompressedRoundTripWithinBlockBounds) {
    using Solver = sem::SpectralEulerSolver<TypeParam>;
    const auto s = make_sem<TypeParam>(2);
    std::stringstream raw;
    s.write_checkpoint(raw);
    const auto ref = Solver::read_checkpoint(raw);
    const int bits = 14;
    std::stringstream os;
    s.write_checkpoint(os, io::parse_checkpoint_compress("14"));
    const auto back = Solver::read_checkpoint(os);
    for (int v = 0; v < sem::kVars; ++v) {
        std::string label = "q";
        label += std::to_string(v);
        expect_within_block_bounds(ref.q[v], back.q[v], bits, label);
    }
}

TYPED_TEST(SemCheckpoint, WriteFailureThrows) {
    const auto s = make_sem<TypeParam>(1);
    FailBuf buf;
    std::ostream os(&buf);
    EXPECT_THROW(s.write_checkpoint(os), std::runtime_error);
}

TEST(SemCheckpointValidation, RejectsCorruptHeaders) {
    using Solver = sem::DoubleSemSolver;
    const auto s = make_sem<fp::FullPrecision>(1);
    std::stringstream os;
    s.write_checkpoint(os);
    const std::string good = std::move(os).str();

    {  // bad magic
        std::string bad = good;
        bad[0] = 'X';
        std::stringstream is(bad);
        EXPECT_THROW((void)Solver::read_checkpoint(is),
                     std::runtime_error);
    }
    {  // truncated mid-arrays
        std::stringstream is(good.substr(0, good.size() - 7));
        EXPECT_THROW((void)Solver::read_checkpoint(is),
                     std::runtime_error);
    }
}

// ------------------------------------------------------- async writer
TEST(AsyncWriter, ExecutesInOrderAndWaits) {
    io::AsyncWriter w;
    std::vector<int> order;
    const auto t1 = w.submit([&] { order.push_back(1); });
    const auto t2 = w.submit([&] { order.push_back(2); });
    w.wait(t2);
    EXPECT_GE(t2, t1);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    w.wait_all();
}

TEST(AsyncWriter, PropagatesTheFirstError) {
    io::AsyncWriter w;
    w.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(w.wait_all(), std::runtime_error);
    // The error is consumed; the writer remains usable.
    bool ran = false;
    w.submit([&] { ran = true; });
    w.wait_all();
    EXPECT_TRUE(ran);
}

TEST(AsyncCheckpoint, BytesIdenticalToSyncPath) {
    using Solver = shallow::FullShallowSolver;
    const auto s = make_shallow<fp::FullPrecision>(16, 2, 12);
    const auto opt = io::parse_checkpoint_compress("drift");
    const std::string sync_bytes = checkpoint_string(s, opt);

    const std::string path = temp_path("tp_ckpt_async_test.bin");
    {
        io::AsyncCheckpointer<Solver> ac(opt);
        ac.checkpoint(s, path);
        ac.finish();
        EXPECT_EQ(ac.stall_seconds(), 0.0);  // <= 2 slots, no contention
    }
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.good());
    std::stringstream disk;
    disk << is.rdbuf();
    EXPECT_EQ(disk.str(), sync_bytes);
    std::remove(path.c_str());
}

TEST(AsyncCheckpoint, SolverMayAdvanceWhileTheWriteIsInFlight) {
    using Solver = shallow::FullShallowSolver;
    auto s = make_shallow<fp::FullPrecision>(16, 1, 5);
    const std::string path = temp_path("tp_ckpt_overlap_test.bin");
    const std::string expected = checkpoint_string(s, {});

    io::AsyncCheckpointer<Solver> ac;
    ac.checkpoint(s, path);
    s.run(5);  // mutate the live state after the snapshot was taken
    ac.finish();

    std::ifstream is(path, std::ios::binary);
    std::stringstream disk;
    disk << is.rdbuf();
    // The file holds the state at snapshot time, not the mutated state.
    EXPECT_EQ(disk.str(), expected);
    std::remove(path.c_str());
}

TEST(AsyncCheckpoint, ErrorsSurfaceAtFinish) {
    using Solver = shallow::FullShallowSolver;
    const auto s = make_shallow<fp::FullPrecision>(12, 1, 3);
    io::AsyncCheckpointer<Solver> ac;
    ac.checkpoint(s, "/nonexistent-dir/nope/ckpt.bin");
    EXPECT_THROW(ac.finish(), std::runtime_error);
}

// ------------------------------------------------- distributed restart
namespace {

template <typename P>
par::DistributedShallowSolver<P> make_dist(int grid, int ranks) {
    par::DistConfig cfg;
    cfg.nx = cfg.ny = grid;
    cfg.ranks = ranks;
    return par::DistributedShallowSolver<P>(cfg);
}

}  // namespace

TEST(DistRestart, RestoresAtADifferentRankCountBitwise) {
    const std::string base = temp_path("tp_dist_restart_v1");
    auto writer = make_dist<fp::MixedPrecision>(32, 4);
    writer.initialize_dam_break();
    writer.run(20);
    writer.write_restart(base);
    const auto truth = writer.gather_height();

    for (const int ranks : {1, 3, 4, 7}) {
        auto reader = make_dist<fp::MixedPrecision>(32, ranks);
        reader.initialize_dam_break();
        reader.restore_restart(base);
        EXPECT_EQ(reader.step_count(), writer.step_count());
        EXPECT_EQ(reader.time(), writer.time());
        EXPECT_EQ(reader.gather_height(), truth) << "ranks=" << ranks;
    }

    // Continuation is bitwise rank-count invariant from the restored
    // state, exactly as from the initial condition.
    auto r3 = make_dist<fp::MixedPrecision>(32, 3);
    r3.initialize_dam_break();
    r3.restore_restart(base);
    r3.run(10);
    writer.run(10);
    EXPECT_EQ(r3.gather_height(), writer.gather_height());

    for (int k = 0; k < 4; ++k)
        std::remove((base + ".shard" + std::to_string(k)).c_str());
    std::remove((base + ".manifest").c_str());
}

TEST(DistRestart, CompressedShardsRestoreIdenticallyAcrossReaders) {
    const std::string base = temp_path("tp_dist_restart_v2");
    auto writer = make_dist<fp::FullPrecision>(32, 4);
    writer.initialize_dam_break();
    writer.run(15);
    const auto info =
        writer.write_restart(base, io::parse_checkpoint_compress("drift"));
    EXPECT_EQ(info.version, 2u);
    EXPECT_LT(info.written_bytes, info.raw_bytes);
    EXPECT_EQ(info.bits.size(), 3u * 4u);  // 3 arrays x 4 shards

    auto r2 = make_dist<fp::FullPrecision>(32, 2);
    r2.initialize_dam_break();
    r2.restore_restart(base);
    auto r5 = make_dist<fp::FullPrecision>(32, 5);
    r5.initialize_dam_break();
    r5.restore_restart(base);
    // Decompression is deterministic, so every reader adopts the same
    // state regardless of its decomposition...
    EXPECT_EQ(r2.gather_height(), r5.gather_height());
    // ...and that state sits within the drift tolerance of the truth.
    const auto truth = writer.gather_height();
    const auto got = r2.gather_height();
    double peak = 0.0;
    for (const double v : truth) peak = std::max(peak, std::fabs(v));
    const double tol =
        256.0 * std::ldexp(1.0, std::ilogb(peak) + 1 - 53);
    const double floor32 = compress::error_bound(peak, 32);
    for (std::size_t i = 0; i < truth.size(); ++i)
        ASSERT_LE(std::fabs(got[i] - truth[i]),
                  std::max(tol, floor32));

    for (int k = 0; k < 4; ++k)
        std::remove((base + ".shard" + std::to_string(k)).c_str());
    std::remove((base + ".manifest").c_str());
}

TEST(DistRestart, RejectsCorruptManifestsAndShards) {
    const std::string base = temp_path("tp_dist_restart_bad");
    auto writer = make_dist<fp::FullPrecision>(16, 2);
    writer.initialize_dam_break();
    writer.run(5);
    writer.write_restart(base);

    auto reader = make_dist<fp::FullPrecision>(16, 2);
    reader.initialize_dam_break();

    const std::string manifest = base + ".manifest";
    std::ifstream mf(manifest, std::ios::binary);
    std::stringstream copy;
    copy << mf.rdbuf();
    const std::string good = copy.str();
    mf.close();

    auto rewrite = [&](const std::string& bytes) {
        std::ofstream os(manifest, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    };

    {  // bad magic
        std::string bad = good;
        bad[0] = 'X';
        rewrite(bad);
        EXPECT_THROW(reader.restore_restart(base), std::runtime_error);
    }
    {  // truncated
        rewrite(good.substr(0, good.size() / 2));
        EXPECT_THROW(reader.restore_restart(base), std::runtime_error);
    }
    {  // grid mismatch
        rewrite(good);
        auto other = make_dist<fp::FullPrecision>(24, 2);
        other.initialize_dam_break();
        EXPECT_THROW(other.restore_restart(base), std::runtime_error);
    }
    {  // missing shard file
        rewrite(good);
        std::remove((base + ".shard1").c_str());
        EXPECT_THROW(reader.restore_restart(base), std::runtime_error);
    }
    std::remove((base + ".shard0").c_str());
    std::remove(manifest.c_str());
}

// ------------------------------------------------------------ options
TEST(CheckpointOptions, ParsesAndRejectsSpecs) {
    EXPECT_EQ(io::parse_checkpoint_compress("off").mode,
              io::CheckpointCompress::Off);
    EXPECT_EQ(io::parse_checkpoint_compress("drift").mode,
              io::CheckpointCompress::Drift);
    const auto fixed = io::parse_checkpoint_compress("12");
    EXPECT_EQ(fixed.mode, io::CheckpointCompress::Fixed);
    EXPECT_EQ(fixed.bits, 12);
    for (const char* bad : {"", "1", "33", "12x", "driftt", "on"})
        EXPECT_THROW((void)io::parse_checkpoint_compress(bad),
                     std::invalid_argument)
            << bad;
}

TEST(CheckpointOptions, DriftBitsTrackTheBudgetAndStorage) {
    // Tighter budgets and wider storage types demand higher rates.
    const double peak = 123.0;
    EXPECT_GE(io::drift_bits(peak, 16, 24), io::drift_bits(peak, 256, 24));
    EXPECT_GE(io::drift_bits(peak, 256, 53),
              io::drift_bits(peak, 256, 24));
    EXPECT_EQ(io::drift_bits(0.0, 256, 53), 2);  // all-zero array
    // Half storage at a loose budget compresses hard but stays >= 2.
    EXPECT_GE(io::drift_bits(peak, 1024, 11), 2);
}

// ------------------------------------------------------ metrics record

TEST(CheckpointRecord, BothVersionsMatchTheRecordSchema) {
    const auto s = make_shallow<fp::MixedPrecision>(16, 1, 4);
    for (const auto& opt : {io::CheckpointOptions{},
                            io::parse_checkpoint_compress("drift")}) {
        std::stringstream os;
        const io::CheckpointWriteInfo info = s.write_checkpoint(os, opt);
        const std::string line =
            io::checkpoint_record("c.bin", 4, info, 0.0, 0.01, 0.0);
        const auto rec = obs::json::parse(line);
        ASSERT_TRUE(rec.has_value()) << line;
        EXPECT_EQ(obs::schema::check_record(*rec),
                  std::vector<std::string>{})
            << line;
    }
}
