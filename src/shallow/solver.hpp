#pragma once
// Shallow-water finite-volume solver on the cell-based AMR mesh — the
// CLAMR-analogue mini-app (DESIGN.md §2).
//
// The solver is a template over a fp::PrecisionPolicy:
//   * the persistent state arrays (height h, momenta hu/hv) are stored in
//     Policy::storage_t — this is what "minimum" vs "mixed" vs "full"
//     changes about memory footprint and checkpoint size;
//   * every kernel-local temporary, flux, and accumulator uses
//     Policy::compute_t — "mixed" promotes these to double, exactly the
//     CRAFT-derived CLAMR configuration the paper describes.
//
// The hot loop is `finite_diff` (named after CLAMR's kernel): a
// cell-centric Rusanov flux computation — each cell gathers its (2:1
// balanced) face neighbors, computes all face fluxes, and updates only
// itself — followed by the conservative cell update. Both adjacent cells
// evaluate the identical flux expression for a shared face, so the scheme
// stays exactly conservative while the loop carries no scatter
// dependencies. The sweep is one width-templated pack kernel
// (flux_kernel.hpp): the W == 1 instantiation, driven from a translation
// unit with the auto-vectorizer disabled, is the paper's scalar baseline;
// the W == native_lanes instantiation is the vector path. The two are
// bit-identical per cell, selected at runtime by Config::simd
// (Table III's vectorization study from one binary).

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "fp/precision.hpp"
#include "io/checkpoint.hpp"
#include "mesh/amr_mesh.hpp"
#include "mesh/block_tree.hpp"
#include "perf/counters.hpp"
#include "shallow/config.hpp"
#include "shallow/flux_kernel.hpp"
#include "simd/dispatch.hpp"
#include "sum/expansion.hpp"
#include "sum/reproducible.hpp"
#include "util/timing.hpp"

namespace tp::fp {
class PrecisionGovernor;  // fp/governor.hpp
}  // namespace tp::fp

namespace tp::shallow {

/// Raw contents of a checkpoint file, for inspection and round-trip tests.
struct CheckpointData {
    mesh::MeshGeometry geom;
    double time = 0.0;
    std::int64_t step = 0;
    std::vector<mesh::Cell> cells;
    std::vector<double> h, hu, hv;  // widened to double on read
};

/// Reusable state snapshot for the asynchronous checkpoint writer:
/// everything a checkpoint write needs, copied off the solver in one
/// cheap pass so serialization and compression can run on another thread.
/// State is held as raw storage-precision bytes; the slots in
/// io::AsyncCheckpointer reuse their capacity across checkpoints.
struct CheckpointSnapshot {
    std::uint32_t elem = 0;      ///< sizeof(storage_t)
    int storage_digits = 0;      ///< significand bits of storage_t
    double time = 0.0;
    std::int64_t step = 0;
    mesh::MeshGeometry geom;
    std::vector<mesh::Cell> cells;
    std::vector<std::uint8_t> h, hu, hv;
};

template <fp::PrecisionPolicy Policy>
class ShallowWaterSolver {
public:
    using storage_t = typename Policy::storage_t;
    using compute_t = typename Policy::compute_t;

    /// Deepest AMR level the solver supports. compute_dt keeps a
    /// per-level spacing lookup of this size in L1, so the limit is
    /// enforced against the configured geometry at construction time.
    static constexpr std::int32_t kMaxSupportedLevel = 15;

    /// Pack width of the native flux-sweep path for this policy's compute
    /// type. float-compute policies get twice the lanes of double-compute
    /// ones — the Table III "minimum precision doubles SIMD width" lever.
    static constexpr int kNativeLanes = simd::native_lanes<compute_t>;

    /// The *other* compute precision, for the runtime governor: a
    /// float-compute policy can be promoted to a double flux sweep mid-run
    /// and a double-compute policy can be demoted to float. Storage
    /// precision never changes — only the kernel-local arithmetic does, so
    /// switching is just dispatching the other flux_block instantiation.
    using alt_compute_t =
        std::conditional_t<std::is_same_v<compute_t, float>, double, float>;
    static constexpr int kAltLanes = simd::native_lanes<alt_compute_t>;

    /// Throws std::invalid_argument when the geometry is unusable
    /// (non-positive coarse grid or max_level outside
    /// [0, kMaxSupportedLevel]).
    explicit ShallowWaterSolver(const Config& config);

    /// Set the cylindrical dam-break state and pre-refine the mesh around
    /// the initial discontinuity (one adapt pass per allowed level, with
    /// the analytic state re-evaluated on the refined mesh each pass).
    void initialize_dam_break(const DamBreak& ic);

    /// Advance one time step (CFL-limited). Returns the dt taken.
    double step();

    /// Advance `n` steps.
    void run(int n);

    // --- Observables -------------------------------------------------------
    [[nodiscard]] double time() const { return time_; }
    [[nodiscard]] std::int64_t step_count() const { return step_count_; }
    [[nodiscard]] const mesh::AmrMesh& mesh() const { return mesh_; }
    [[nodiscard]] const Config& config() const { return config_; }

    /// Height at the cell containing (x, y); throws outside the domain.
    [[nodiscard]] double height_at(double x, double y) const;

    /// Sample height along the vertical line x = x0 at n equally spaced
    /// points — the paper's Figure 1/2 line-cut.
    [[nodiscard]] std::vector<double> sample_height_vertical(double x0,
                                                             int n) const;
    /// y coordinates matching sample_height_vertical.
    [[nodiscard]] std::vector<double> sample_positions_vertical(int n) const;

    /// Total water volume, via the exact (order-independent) expansion sum.
    [[nodiscard]] double total_mass() const;

    /// Resident bytes of the three state arrays (current + update buffers).
    [[nodiscard]] std::uint64_t state_bytes() const;

    /// Size in bytes a checkpoint of the current state occupies (v1).
    [[nodiscard]] std::uint64_t checkpoint_bytes() const;

    /// Exact on-disk size of a checkpoint written under `opt`, including
    /// per-array rate resolution for v2 — what the S3 cost model and
    /// Table III reproduction must report. Matches the stream byte for
    /// byte (tested against the actual write across policies and levels).
    [[nodiscard]] std::uint64_t checkpoint_bytes(
        const io::CheckpointOptions& opt) const;

    /// Write/read a binary checkpoint. v1 (the default) stores cells +
    /// state in raw storage precision; under a compressed `opt` the v2
    /// layout replaces each state array with a fixed-rate stream
    /// ([u32 rate][u64 payload bytes][payload]) whose rate comes from the
    /// options (fixed, or derived from the ULP-drift budget). Throws
    /// std::runtime_error if the stream fails at any point.
    void write_checkpoint(std::ostream& os) const;
    io::CheckpointWriteInfo write_checkpoint(
        std::ostream& os, const io::CheckpointOptions& opt) const;
    static CheckpointData read_checkpoint(std::istream& is);

    /// Async-writer hooks (io::AsyncCheckpointer): snapshot on the solver
    /// thread, serialize/compress/write anywhere. write_checkpoint is
    /// exactly snapshot_checkpoint + write_snapshot, so asynchronous
    /// files are byte-identical to synchronous ones by construction.
    using Snapshot = CheckpointSnapshot;
    void snapshot_checkpoint(Snapshot& snap) const;
    static io::CheckpointWriteInfo write_snapshot(
        const Snapshot& snap, std::ostream& os,
        const io::CheckpointOptions& opt = {});

    /// Adopt a checkpoint's topology and state: the solver must have been
    /// constructed with the identical mesh geometry; the cell list is
    /// validated structurally (exact tiling, 2:1 balance) and state is
    /// narrowed back to storage precision. Throws std::invalid_argument
    /// on any mismatch.
    void restore_checkpoint(const CheckpointData& d);

    // --- Instrumentation ---------------------------------------------------
    [[nodiscard]] const perf::WorkLedger& ledger() const { return ledger_; }
    [[nodiscard]] const util::StopwatchRegistry& timers() const {
        return timers_;
    }

    /// Same-level Morton runs the level-bucketed sweeps iterate (rebuilt on
    /// every topology change; exposed for the SIMD binning tests).
    [[nodiscard]] const std::vector<detail::LevelRun>& level_runs() const {
        return level_runs_;
    }

    /// Block index driving the --blocks=on tile sweep (empty while blocks
    /// are off). Current as of the last step: built by every rezone and
    /// by the first step after construction or a restart. Exposed for the
    /// block-lifecycle tests.
    [[nodiscard]] const mesh::BlockIndex& block_index() const {
        return block_index_;
    }
    /// Dense tiles the blocked sweep computes, plus the fallback cell
    /// list covering every cell the tiles leave irregular. Exposed for
    /// tests.
    [[nodiscard]] const std::vector<detail::TileBlock<compute_t>>&
    tile_blocks() const {
        return tile_blocks_;
    }
    [[nodiscard]] const std::vector<std::int32_t>& fallback_cells() const {
        return fallback_cells_;
    }
    /// A tile with fewer than this many regular cells is not worth
    /// gathering; its members join the fallback list instead (a
    /// topology-only threshold, so every simd/alt variant sees the same
    /// iteration space). Public so tests can mirror the partition.
    static constexpr int kMinTileRegular = 16;

    /// Rezone bookkeeping accumulated across the run. Phase wall times
    /// live under timers() ("rezone_flags" / "rezone_adapt" /
    /// "rezone_remap" / "rezone_cache" plus the "rezone" aggregate) and in
    /// the ledger under the same phase names.
    struct RezoneStats {
        std::uint64_t rezones = 0;
        std::uint64_t cells_touched = 0;     ///< old + new cells, summed
        std::uint64_t translated_cells = 0;  ///< slots index-shifted
        std::uint64_t resolved_cells = 0;    ///< slots recomputed from mesh
        std::uint64_t copy_spans = 0;        ///< clean spans seen
    };
    [[nodiscard]] const RezoneStats& rezone_stats() const {
        return rezone_stats_;
    }

    /// Slot-major neighbor tables (kSlots x ncells), exposed so tests can
    /// compare incremental and full rebuilds element-wise.
    [[nodiscard]] const std::vector<std::int32_t>& neighbor_indices() const {
        return nbr_idx_;
    }
    [[nodiscard]] const std::vector<compute_t>& neighbor_areas() const {
        return nbr_area_;
    }

    /// Recompute every topology cache from scratch via the historic
    /// face-scan path into scratch buffers and compare bit-for-bit with
    /// the live caches. Test/bench hook for the incremental update.
    [[nodiscard]] bool topology_caches_consistent() const;

    /// Attach (or detach, with nullptr) a runtime precision governor
    /// (fp/governor.hpp). While attached and enabled, the flux sweep is
    /// governed: it runs in the reduced lattice (float) while the
    /// per-step divergence monitor stays under budget and in the promoted
    /// lattice (double) otherwise. A disabled or detached governor leaves
    /// every code path — and every bit of output — identical to an
    /// ungoverned build. The caller owns the governor and must call
    /// fp::PrecisionGovernor::end_step() once per solver step.
    void set_governor(fp::PrecisionGovernor* governor);
    [[nodiscard]] fp::PrecisionGovernor* governor() const {
        return governor_;
    }

private:
    /// A W-wide (or tail) slice of one level run — the unit the native
    /// sweep parallelizes over. Blocks never straddle a run boundary.
    struct FluxBlock {
        std::int32_t begin;
        std::int32_t len;  // 1 <= len <= kNativeLanes
    };

    void apply_ic(const DamBreak& ic);
    /// Scatter-free threaded flags: each cell takes the max relative
    /// height jump over its own neighbor slots (every interior face
    /// appears in both endpoint cells' slots and the jump measure is
    /// symmetric, so this equals the historic face-scan bit-for-bit).
    void compute_refinement_flags(std::vector<std::int8_t>& flags) const;
    /// Historic serial face-scan flags (RezoneMode::Full baseline; also
    /// used during initialization, when the slot tables are stale).
    void compute_refinement_flags_facescan(
        std::vector<std::int8_t>& flags) const;
    void rezone();
    void remap_state(const mesh::RemapPlan& plan);
    /// Resolve all kSlots neighbor slots of one cell directly from the
    /// sorted mesh, reproducing the face-scan slot order and area bits.
    void resolve_cell_slots(std::int32_t c, std::int32_t* idx,
                            compute_t* area) const;
    /// Resolve one side (slot pair base/base+1, base in {0,2,4,6}) of one
    /// cell; `idx`/`area` receive exactly the two slots of that side.
    void resolve_cell_side(std::int32_t c, int base, std::int32_t* idx,
                           compute_t* area) const;
    /// From-scratch threaded per-cell rebuild (constructor / init).
    void rebuild_topology_caches();
    /// Historic serial face-scan rebuild (RezoneMode::Full baseline).
    void rebuild_topology_caches_facescan();
    /// Dirty-span incremental update: translate surviving cells' slots
    /// through the copy-span prefix-offset map, resolve only cells whose
    /// neighborhood changed. Returns the number of cells resolved.
    std::size_t update_topology_caches(const mesh::RemapPlan& plan);
    /// Rebuild level_runs_/flux_blocks_/inv_area_ and size the increment
    /// buffers for the current mesh (shared tail of every cache builder).
    void rebuild_iteration_space();
    [[nodiscard]] double compute_dt();
    void finite_diff(double dt);
    [[nodiscard]] detail::FluxArgs<storage_t, compute_t> flux_args();
    void flux_sweep_native();
    // Defined in flux_scalar.cpp, a TU compiled with the auto-vectorizer
    // off, so the W == 1 path measures true scalar issue.
    void flux_sweep_scalar();
    /// Rebuild block_index_ from the slot tables, then tile_blocks_ and
    /// fallback_cells_ from it — the tail of every topology-cache refresh
    /// while blocks are on.
    void rebuild_blocks();
    [[nodiscard]] detail::TileSweepArgs<storage_t, compute_t> tile_args();
    [[nodiscard]] detail::TileSweepArgs<storage_t, alt_compute_t>
    tile_args_alt();
    // Blocked (--blocks=on) sweeps: dense tiles + flux_block_gather over
    // the fallback cells; bit-identical to the cell sweeps per policy.
    // Scalar variants live in flux_scalar.cpp (no-autovec TU).
    void flux_sweep_blocked_native();
    void flux_sweep_blocked_scalar();
    void flux_sweep_blocked_alt_native();
    void flux_sweep_blocked_alt_scalar();
    // Governed flux path: the same sweep with kernel-local arithmetic in
    // alt_compute_t. Increments land in the _alt buffers and are folded
    // back into dh_/dhu_/dhv_ (one cast per cell), so boundary_fluxes and
    // apply_update stay untouched.
    [[nodiscard]] detail::FluxArgs<storage_t, alt_compute_t> flux_args_alt();
    void flux_sweep_alt_native();
    void flux_sweep_alt_scalar();  // flux_scalar.cpp (no-autovec TU)
    /// Lazily (re)build the alt-precision tables — neighbor areas cast to
    /// alt_compute_t and kAltLanes-wide blocks — after a topology change.
    void prepare_alt_tables();
    void fold_alt_increments();
    /// Governor telemetry: observe a strided sample of flux increments on
    /// the float lattice against an in-order double reference and feed the
    /// stats to the attached governor.
    void governed_monitor_flux();
    void boundary_fluxes();
    void apply_update(double dt);
    void account_finite_diff(double seconds, int lanes);
    // --shadow-profile hooks (obs/numerics.hpp): re-execute a strided
    // sample of the kernel's work in double precision and record the
    // production result's divergence. All are cold paths, entered only
    // when the relaxed-load gate at the call site fires.
    void shadow_profile_cfl() const;
    void shadow_profile_flux_sweep();
    void shadow_capture_apply_update();
    void shadow_observe_apply_update(double dt) const;
    void shadow_profile_remap(const mesh::RemapPlan& plan,
                              const storage_t* nh, const storage_t* nhu,
                              const storage_t* nhv) const;

    Config config_;
    mesh::AmrMesh mesh_;
    std::vector<storage_t> h_, hu_, hv_;      // persistent state (storage_t)
    // Remap double buffers: rezone writes the post-adapt state here and
    // swaps, so steady-state refinement churns no allocations.
    std::vector<storage_t> h_back_, hu_back_, hv_back_;
    std::vector<compute_t> dh_, dhu_, dhv_;   // per-step increments
    std::vector<compute_t> inv_area_;         // 1/area per cell
    // Cell-centric neighbor tables (CLAMR's finite_diff shape): for each
    // cell, up to two sub-face neighbors per side in fixed slots
    // (W0,W1,E0,E1,S0,S1,N0,N1), slot-major SoA. Empty slots point at the
    // cell itself with zero area, keeping the SIMD loop branch-free. Each
    // cell recomputes its face fluxes and writes only its own increments —
    // redundant arithmetic that vectorizes cleanly, the same trade CLAMR
    // makes.
    static constexpr int kSlots = 8;
    std::vector<std::int32_t> nbr_idx_;    // kSlots * ncells
    std::vector<compute_t> nbr_area_;      // kSlots * ncells
    // Double buffers + prefix-offset map for the incremental cache
    // update; kept as members so steady-state rezones allocate nothing.
    std::vector<std::int32_t> nbr_idx_back_;
    std::vector<compute_t> nbr_area_back_;
    std::vector<std::int32_t> old_to_new_;
    std::vector<std::uint8_t> slot_dirty_;  // per-cell "needs resolve" flag
    // Level-bucketed iteration space (rebuilt with the neighbor tables).
    std::vector<detail::LevelRun> level_runs_;
    std::vector<FluxBlock> flux_blocks_;
    // Blocked-sweep state (--blocks=on; all empty otherwise): the mesh
    // block index, the dense tiles the sweep computes (compute_t and
    // governed-alt area variants), and the sorted list of cells the
    // tiles leave to the flux_block_gather fallback (packed W to a
    // gather, so scattered singletons cost ~1/W of a pack each instead
    // of a whole masked pack per run). A tile with fewer than
    // kMinTileRegular dense cells is not worth gathering, so all its
    // members join the fallback instead — a topology-only decision, so
    // every simd/alt variant sees the same iteration space
    // (kMinTileRegular, declared with the accessors above).
    mesh::BlockIndex block_index_;
    std::vector<detail::TileBlock<compute_t>> tile_blocks_;
    std::vector<detail::TileBlock<alt_compute_t>> tile_blocks_alt_;
    std::vector<std::int32_t> fallback_cells_;
    std::vector<std::uint8_t> fallback_flag_;
    bool blocks_stale_ = false;  // block state lags the topology tables
    // Governed-path state: alt-precision increment buffers, neighbor areas
    // and pack blocks, built lazily on the first governed step after a
    // topology change. Empty whenever no enabled governor is attached.
    fp::PrecisionGovernor* governor_ = nullptr;
    int gov_flux_id_ = -1;
    std::vector<alt_compute_t> dh_alt_, dhu_alt_, dhv_alt_;
    std::vector<alt_compute_t> nbr_area_alt_;
    std::vector<FluxBlock> flux_blocks_alt_;
    bool alt_tables_stale_ = true;
    std::vector<compute_t> cfl_buf_;       // per-cell dt candidates
    std::vector<std::int8_t> flags_scratch_;  // refinement flags, reused
    // Shadow-profile capture scratch (cell indices + pre-update state),
    // reused across steps so profiling allocates nothing after warmup.
    std::vector<std::int32_t> shadow_idx_;
    std::vector<double> shadow_vals_;
    double time_ = 0.0;
    std::int64_t step_count_ = 0;
    RezoneStats rezone_stats_;
    perf::WorkLedger ledger_;
    util::StopwatchRegistry timers_;
};

using MinimumShallowSolver = ShallowWaterSolver<fp::MinimumPrecision>;
using MixedShallowSolver = ShallowWaterSolver<fp::MixedPrecision>;
using FullShallowSolver = ShallowWaterSolver<fp::FullPrecision>;

extern template class ShallowWaterSolver<fp::MinimumPrecision>;
extern template class ShallowWaterSolver<fp::MixedPrecision>;
extern template class ShallowWaterSolver<fp::FullPrecision>;
// Extension: 16-bit storage (fp/half_policy.hpp), instantiated for the
// storage-width ablation.

}  // namespace tp::shallow
