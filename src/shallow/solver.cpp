#include "shallow/solver.hpp"

#include "fp/governor.hpp"
#include "fp/half_policy.hpp"
#include "obs/numerics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "sum/parallel.hpp"
#include "util/arena.hpp"
#include "util/threads.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>

namespace tp::shallow {

namespace {

// Analytic operation counts per unit of work, used for roofline projection.
// Derived by reading the kernels below (divisions and sqrt counted as one
// op each, matching how vendor peak numbers are quoted for simple pipes).
constexpr std::uint64_t kSlotFlops = 46;        // Rusanov flux, one sub-face
constexpr std::uint64_t kBoundaryFaceFlops = 20;
constexpr std::uint64_t kCellUpdateFlops = 9;   // 3 x (mul + mul + add)
constexpr std::uint64_t kCflFlopsPerCell = 12;
// Rezone phases are integer/streaming work: each ledger entry below
// carries measured wall time and estimated data volume with zero flops,
// so the roofline projects them as pure memory time instead of the old
// hard-coded per-cell op proxies.

// Double-precision shadow reference for one cell of the Rusanov sweep:
// the same operation sequence as flux_kernel.hpp's flux_block (slot
// order, the lone fma, the hfloor clamps), but every intermediate in
// double and the gravity constant unrounded. Against this, the
// production increments' divergence is exactly the rounding the policy's
// compute_t introduced (obs/numerics.hpp records it in compute_t ULPs).
template <typename S, typename C>
void shadow_flux_cell(const detail::FluxArgs<S, C>& A, std::size_t c,
                      double g, double& rdh, double& rdhu, double& rdhv) {
    constexpr double hfloor = 1e-8;
    const double half = 0.5;
    const double half_g = 0.5 * g;
    const double hC = std::max(static_cast<double>(A.h[c]), hfloor);
    const double huC = static_cast<double>(A.hu[c]);
    const double hvC = static_cast<double>(A.hv[c]);
    const double invC = 1.0 / hC;
    double ddh = 0.0;
    double ddhu = 0.0;
    double ddhv = 0.0;
    for (int slot = 0; slot < 8; ++slot) {
        const bool xd = slot < 4;
        const bool pos = (slot & 2) != 0;
        const std::size_t off = static_cast<std::size_t>(slot) * A.n + c;
        const auto nidx = static_cast<std::size_t>(A.nbr[off]);
        const double a = static_cast<double>(A.areas[off]);
        const double hN = std::max(static_cast<double>(A.h[nidx]), hfloor);
        const double huN = static_cast<double>(A.hu[nidx]);
        const double hvN = static_cast<double>(A.hv[nidx]);
        const double invN = 1.0 / hN;
        const double qnC = xd ? huC : hvC;
        const double qtC = xd ? hvC : huC;
        const double qnN = xd ? huN : hvN;
        const double qtN = xd ? hvN : huN;
        const double hL = pos ? hC : hN;
        const double hR = pos ? hN : hC;
        const double qnL = pos ? qnC : qnN;
        const double qnR = pos ? qnN : qnC;
        const double qtL = pos ? qtC : qtN;
        const double qtR = pos ? qtN : qtC;
        const double invL = pos ? invC : invN;
        const double invR = pos ? invN : invC;
        const double unL = qnL * invL;
        const double unR = qnR * invR;
        const double utL = qtL * invL;
        const double utR = qtR * invR;
        const double cL = std::sqrt(g * hL);
        const double cR = std::sqrt(g * hR);
        const double smax =
            std::max(std::fabs(unL) + cL, std::fabs(unR) + cR);
        const double f1 = half * (qnL + qnR) - half * smax * (hR - hL);
        const double pL = std::fma(half_g * hL, hL, qnL * unL);
        const double pR = std::fma(half_g * hR, hR, qnR * unR);
        const double f2 = half * (pL + pR) - half * smax * (qnR - qnL);
        const double f3 =
            half * (qnL * utL + qnR * utR) - half * smax * (qtR - qtL);
        const double sa = pos ? a : -a;
        ddh -= sa * f1;
        ddhu -= sa * (xd ? f2 : f3);
        ddhv -= sa * (xd ? f3 : f2);
    }
    rdh = ddh;
    rdhu = ddhu;
    rdhv = ddhv;
}

}  // namespace

template <fp::PrecisionPolicy Policy>
ShallowWaterSolver<Policy>::ShallowWaterSolver(const Config& config)
    : config_(config), mesh_(config.geom) {
    // Validate the geometry up front: compute_dt's per-level spacing
    // lookup is sized kMaxSupportedLevel + 1, so an out-of-range
    // max_level would read (and a refined mesh would write) past it.
    if (config.geom.coarse_nx < 1 || config.geom.coarse_ny < 1)
        throw std::invalid_argument(
            "ShallowWaterSolver: coarse grid must be at least 1x1");
    if (config.geom.max_level < 0 ||
        config.geom.max_level > kMaxSupportedLevel)
        throw std::invalid_argument(
            "ShallowWaterSolver: max_level must be in [0, " +
            std::to_string(kMaxSupportedLevel) + "], got " +
            std::to_string(config.geom.max_level));
    const std::size_t n = mesh_.num_cells();
    h_.assign(n, storage_t(0));
    hu_.assign(n, storage_t(0));
    hv_.assign(n, storage_t(0));
    rebuild_topology_caches();
}

// Resolve one cell's neighbor slots straight off the Morton-sorted leaf
// list. Slot layout and sub-face order reproduce the historic face-scan
// bit-for-bit: 0/1 = west sub-faces, 2/3 = east, 4/5 = south, 6/7 = north,
// with the lower-coordinate sub-face first (that is the Morton order the
// face lists pushed them in). Areas are the fine side's cell width, cast
// from the same double the face builder produced, so the tables built here
// are element-wise identical to a face-scan rebuild.
template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::resolve_cell_slots(std::int32_t c,
                                                    std::int32_t* idx,
                                                    compute_t* area) const {
    for (int base = 0; base < kSlots; base += 2)
        resolve_cell_side(c, base, idx + base, area + base);
}

// One covering lookup per side. Under 2:1 balance the covering leaf is at
// level l (same), l-1 (coarser: one sub-face, area = our width), or l+1
// (finer: two sub-faces, both leaves by balance). The widths are the same
// double expressions the face builder evaluated, so the slots produced
// here are bit-identical to a face-scan rebuild.
template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::resolve_cell_side(std::int32_t c, int base,
                                                   std::int32_t* idx,
                                                   compute_t* area) const {
    const auto& cells = mesh_.cells();
    const mesh::Cell& cell = cells[static_cast<std::size_t>(c)];
    const std::int32_t l = cell.level;
    const auto& g = mesh_.geometry();
    idx[0] = c;
    idx[1] = c;
    area[0] = compute_t(0);
    area[1] = compute_t(0);
    std::int32_t ni, nj, fa_i, fa_j, fb_i, fb_j;
    double w_same, w_fine;
    switch (base) {
    case 0:  // west
        if (cell.i == 0) return;
        ni = cell.i - 1, nj = cell.j;
        fa_i = 2 * cell.i - 1, fa_j = 2 * cell.j;
        fb_i = 2 * cell.i - 1, fb_j = 2 * cell.j + 1;
        w_same = mesh_.cell_dy(l), w_fine = mesh_.cell_dy(l + 1);
        break;
    case 2:  // east
        if (cell.i + 1 >= (g.coarse_nx << l)) return;
        ni = cell.i + 1, nj = cell.j;
        fa_i = 2 * cell.i + 2, fa_j = 2 * cell.j;
        fb_i = 2 * cell.i + 2, fb_j = 2 * cell.j + 1;
        w_same = mesh_.cell_dy(l), w_fine = mesh_.cell_dy(l + 1);
        break;
    case 4:  // south
        if (cell.j == 0) return;
        ni = cell.i, nj = cell.j - 1;
        fa_i = 2 * cell.i, fa_j = 2 * cell.j - 1;
        fb_i = 2 * cell.i + 1, fb_j = 2 * cell.j - 1;
        w_same = mesh_.cell_dx(l), w_fine = mesh_.cell_dx(l + 1);
        break;
    default:  // 6, north
        if (cell.j + 1 >= (g.coarse_ny << l)) return;
        ni = cell.i, nj = cell.j + 1;
        fa_i = 2 * cell.i, fa_j = 2 * cell.j + 2;
        fb_i = 2 * cell.i + 1, fb_j = 2 * cell.j + 2;
        w_same = mesh_.cell_dx(l), w_fine = mesh_.cell_dx(l + 1);
        break;
    }
    const std::int32_t q = mesh_.covering_leaf_near(c, l, ni, nj);
    if (cells[static_cast<std::size_t>(q)].level <= l) {
        idx[0] = q;
        area[0] = static_cast<compute_t>(w_same);
    } else {
        idx[0] = mesh_.leaf_index_near(q, l + 1, fa_i, fa_j);
        idx[1] = mesh_.leaf_index_near(q, l + 1, fb_i, fb_j);
        area[0] = static_cast<compute_t>(w_fine);
        area[1] = static_cast<compute_t>(w_fine);
    }
}

// Shared tail of every cache builder: per-level inverse areas, increment
// buffer sizing, and the level-bucketed iteration space.
template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::rebuild_iteration_space() {
    const std::size_t n = mesh_.num_cells();
    // The increment buffers are all-zero outside finite_diff (apply_update
    // re-zeroes them every step), so resize() — which zero-fills only
    // growth — preserves the invariant without streaming the whole array.
    dh_.resize(n);
    dhu_.resize(n);
    dhv_.resize(n);
    cfl_buf_.resize(n);

    // cell_area depends only on the level, so 1/area is a tiny per-level
    // table; the per-cell fill is a gather from L1 instead of a divide.
    // The table entries are the same double expression the per-cell divide
    // evaluated, so the cached values are bit-identical.
    std::array<compute_t, kMaxSupportedLevel + 1> inv_by_level{};
    for (std::int32_t l = 0; l <= config_.geom.max_level; ++l)
        inv_by_level[static_cast<std::size_t>(l)] = static_cast<compute_t>(
            1.0 / (mesh_.cell_dx(l) * mesh_.cell_dy(l)));
    inv_area_.resize(n);
    const auto& cells = mesh_.cells();
    const auto ni = static_cast<std::int64_t>(n);
    compute_t* inv = inv_area_.data();
    const mesh::Cell* cell = cells.data();
#pragma omp parallel for schedule(static)
    for (std::int64_t c = 0; c < ni; ++c)
        inv[c] = inv_by_level[static_cast<std::size_t>(cell[c].level)];

    // Level-bucketed iteration space: maximal runs of consecutive
    // same-level cells (the Morton order keeps same-level cells contiguous,
    // so runs are long), then pack-wide blocks that never straddle a run
    // boundary. The native sweep parallelizes over blocks; compute_dt
    // broadcasts the per-level spacing per run, keeping its inner loop
    // gather-free. clear() + push_back reuses capacity across rezones.
    level_runs_.clear();
    for (std::size_t c = 0; c < n;) {
        std::size_t e = c + 1;
        while (e < n && cells[e].level == cells[c].level) ++e;
        level_runs_.push_back({static_cast<std::int32_t>(c),
                               static_cast<std::int32_t>(e),
                               cells[c].level});
        c = e;
    }
    flux_blocks_.clear();
    for (const detail::LevelRun& run : level_runs_)
        for (std::int32_t b = run.begin; b < run.end; b += kNativeLanes)
            flux_blocks_.push_back(
                {b, std::min<std::int32_t>(kNativeLanes, run.end - b)});
    // The block index and the alt-precision tables mirror the tables
    // rebuilt above. A rezone rebuilds the blocks right away; after
    // construction or a restart they wait for the first step, so a solver
    // that is only restored never builds them. The alt tables are
    // refreshed on the next governed sweep that needs them.
    blocks_stale_ = config_.blocks;
    alt_tables_stale_ = true;
}

// Rebuild block_index_ from the refreshed slot tables, then the dense-tile
// and fallback-cell lists from it. Dense tiles carry the regular members
// of blocks worth gathering; every other cell — irregular members plus
// all members of skipped sparse blocks — lands in the sorted fallback
// list that flux_block_gather walks W cells per pack. Which cells go
// where is decided purely by topology, so scalar, native, and
// governed-alt sweeps share one iteration space. Timed as "block_index"
// (inside "rezone_cache" when a rezone triggers it, so deliberately not a
// "rezone_" name).
template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::rebuild_blocks() {
    static_assert(detail::kTileSize == mesh::kBlockSize &&
                  detail::kTilePad == mesh::kBlockPad);
    util::WallTimer t;
    block_index_.rebuild(mesh_, std::span<const std::int32_t>(nbr_idx_),
                         std::span<const compute_t>(nbr_area_));
    const std::size_t n = mesh_.num_cells();
    tile_blocks_.clear();
    // resize + fill rather than assign: assign reallocates to exactly n on
    // every growth, resize grows geometrically.
    fallback_flag_.resize(n);
    std::fill(fallback_flag_.begin(), fallback_flag_.end(), std::uint8_t(0));
    for (const mesh::MeshBlock& b : block_index_.blocks()) {
        const bool dense = std::popcount(b.regular_mask) >= kMinTileRegular;
        const std::int32_t* src = block_index_.src(b).data();
        if (dense) {
            // The full same-level face widths, cast exactly as the slot
            // tables cast them.
            tile_blocks_.push_back(
                {src, b.regular_mask,
                 static_cast<compute_t>(mesh_.cell_dy(b.level)),
                 static_cast<compute_t>(mesh_.cell_dx(b.level))});
        }
        std::uint64_t rest =
            dense ? (b.member_mask & ~b.regular_mask) : b.member_mask;
        while (rest != 0) {
            const int k = std::countr_zero(rest);
            rest &= rest - 1;
            const int p = mesh::block_padded(k % mesh::kBlockSize,
                                             k / mesh::kBlockSize);
            fallback_flag_[static_cast<std::size_t>(src[p])] = 1;
        }
    }
    fallback_cells_.clear();
    for (std::size_t c = 0; c < n; ++c)
        if (fallback_flag_[c] != 0)
            fallback_cells_.push_back(static_cast<std::int32_t>(c));
    blocks_stale_ = false;
    timers_.add("block_index", t.elapsed_seconds());
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::rebuild_topology_caches() {
    const std::size_t n = mesh_.num_cells();
    nbr_idx_.resize(static_cast<std::size_t>(kSlots) * n);
    nbr_area_.resize(static_cast<std::size_t>(kSlots) * n);
    std::int32_t* nidx = nbr_idx_.data();
    compute_t* narea = nbr_area_.data();
    const auto ni = static_cast<std::int64_t>(n);
    // Every cell resolves and writes only its own slots: threads cleanly,
    // and the result does not depend on the team size.
#pragma omp parallel for schedule(static)
    for (std::int64_t c = 0; c < ni; ++c) {
        std::int32_t idx[kSlots];
        compute_t area[kSlots];
        resolve_cell_slots(static_cast<std::int32_t>(c), idx, area);
        for (int s = 0; s < kSlots; ++s) {
            nidx[static_cast<std::size_t>(s) * n +
                 static_cast<std::size_t>(c)] = idx[s];
            narea[static_cast<std::size_t>(s) * n +
                  static_cast<std::size_t>(c)] = area[s];
        }
    }
    rebuild_iteration_space();
}

// The historic rebuild: zero-fill the full slot tables, then scatter the
// mesh face lists into them (which also pays for rebuilding those lists).
// Kept verbatim as RezoneMode::Full — the measured pre-incremental
// baseline and the bit-match reference for the tests.
template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::rebuild_topology_caches_facescan() {
    const std::size_t n = mesh_.num_cells();
    dh_.assign(n, compute_t(0));
    dhu_.assign(n, compute_t(0));
    dhv_.assign(n, compute_t(0));
    cfl_buf_.assign(n, compute_t(0));
    inv_area_.resize(n);
    const auto& cells = mesh_.cells();
    for (std::size_t c = 0; c < n; ++c)
        inv_area_[c] =
            static_cast<compute_t>(1.0 / mesh_.cell_area(cells[c]));

    nbr_idx_.assign(static_cast<std::size_t>(kSlots) * n, 0);
    nbr_area_.assign(static_cast<std::size_t>(kSlots) * n, compute_t(0));
    for (std::size_t c = 0; c < n; ++c)
        for (int slot = 0; slot < kSlots; ++slot)
            nbr_idx_[static_cast<std::size_t>(slot) * n + c] =
                static_cast<std::int32_t>(c);
    auto assign_slot = [&](std::int32_t cell, int base, std::int32_t nbr,
                           double area) {
        const auto c = static_cast<std::size_t>(cell);
        const int slot =
            nbr_area_[static_cast<std::size_t>(base) * n + c] == compute_t(0)
                ? base
                : base + 1;
        nbr_idx_[static_cast<std::size_t>(slot) * n + c] = nbr;
        nbr_area_[static_cast<std::size_t>(slot) * n + c] =
            static_cast<compute_t>(area);
    };
    for (const mesh::Face& f : mesh_.x_faces()) {
        assign_slot(f.lo, 2, f.hi, f.area);  // east side of lo
        assign_slot(f.hi, 0, f.lo, f.area);  // west side of hi
    }
    for (const mesh::Face& f : mesh_.y_faces()) {
        assign_slot(f.lo, 6, f.hi, f.area);  // north side of lo
        assign_slot(f.hi, 4, f.lo, f.area);  // south side of hi
    }
    rebuild_iteration_space();
}

template <fp::PrecisionPolicy Policy>
std::size_t ShallowWaterSolver<Policy>::update_topology_caches(
    const mesh::RemapPlan& plan) {
    const std::size_t n = plan.size();
    const std::size_t old_n = nbr_idx_.size() / kSlots;

    // Prefix-offset map old index -> new index (-1 = did not survive),
    // filled from the copy spans. Copy sources ascend with the new index,
    // so the spans' old ranges are disjoint and increasing: each span
    // fills its own range with new indices and the gap before it with -1,
    // and a serial tail covers old cells past the last span.
    old_to_new_.resize(old_n);
    std::int32_t* o2n = old_to_new_.data();
    const auto old_ni = static_cast<std::int64_t>(old_n);
    const auto nspans = static_cast<std::int64_t>(plan.copy_spans.size());
#pragma omp parallel for schedule(static)
    for (std::int64_t sp = 0; sp < nspans; ++sp) {
        const mesh::CopySpan s = plan.copy_spans[sp];
        const std::int32_t ob = s.begin - s.shift;
        const std::int32_t gap =
            sp == 0 ? 0
                    : plan.copy_spans[static_cast<std::size_t>(sp - 1)].end -
                          plan.copy_spans[static_cast<std::size_t>(sp - 1)]
                              .shift;
        for (std::int32_t k = gap; k < ob; ++k) o2n[k] = -1;
        for (std::int32_t k = s.begin; k < s.end; ++k)
            o2n[k - s.shift] = k;
    }
    const std::int64_t tail =
        nspans == 0
            ? 0
            : plan.copy_spans[static_cast<std::size_t>(nspans - 1)].end -
                  plan.copy_spans[static_cast<std::size_t>(nspans - 1)].shift;
    for (std::int64_t k = tail; k < old_ni; ++k) o2n[k] = -1;

    nbr_idx_back_.resize(static_cast<std::size_t>(kSlots) * n);
    nbr_area_back_.resize(static_cast<std::size_t>(kSlots) * n);
    const std::int32_t* oidx = nbr_idx_.data();
    const compute_t* oarea = nbr_area_.data();
    std::int32_t* nidx = nbr_idx_back_.data();
    compute_t* narea = nbr_area_back_.data();
    const mesh::RemapEntry* entries = plan.entries.data();
    const auto ni = static_cast<std::int64_t>(n);
    std::int64_t resolved = 0;
    // A surviving (Copy) cell keeps its exact neighborhood unless one of
    // its old neighbors refined or coarsened away — a face cannot change
    // without a level change on one side, and our side is unchanged. So:
    // translate every old slot through the offset map (self-slots land on
    // ourselves since o2n[src] is this cell) and fall back to a full
    // resolve only when a dead neighbor (-1) shows the span is dirty.
    // Copying the old area bits is exact: same face, same level, same
    // double.
    //
    // The translate streams one slot plane at a time so both tables move
    // at memcpy-like sequential speed (the slot-major layout would make a
    // per-cell loop take 16 strided touches); a dead translated neighbor
    // sets the cell's dirty byte, and a second per-cell pass resolves the
    // dirty remainder (plus everything outside the spans) from the mesh.
    slot_dirty_.assign(n, 0);
    std::uint8_t* dirty = slot_dirty_.data();
    for (int s = 0; s < kSlots; ++s) {
        const std::int32_t* op = oidx + static_cast<std::size_t>(s) * old_n;
        const compute_t* oa = oarea + static_cast<std::size_t>(s) * old_n;
        std::int32_t* np = nidx + static_cast<std::size_t>(s) * n;
        compute_t* na = narea + static_cast<std::size_t>(s) * n;
#pragma omp parallel for schedule(static)
        for (std::int64_t sp = 0; sp < nspans; ++sp) {
            const mesh::CopySpan span = plan.copy_spans[sp];
            const std::size_t len =
                static_cast<std::size_t>(span.end - span.begin);
            std::memcpy(na + span.begin, oa + (span.begin - span.shift),
                        len * sizeof(compute_t));
            for (std::int32_t c = span.begin; c < span.end; ++c) {
                const std::int32_t m = o2n[op[c - span.shift]];
                np[c] = m;
                dirty[c] |= static_cast<std::uint8_t>(m < 0);
            }
        }
    }
#pragma omp parallel for schedule(static) reduction(+ : resolved)
    for (std::int64_t c = 0; c < ni; ++c) {
        const bool copy = entries[c].kind == mesh::RemapKind::Copy;
        if (copy && dirty[c] == 0) continue;
        ++resolved;
        if (!copy) {
            std::int32_t idx[kSlots];
            compute_t area[kSlots];
            resolve_cell_slots(static_cast<std::int32_t>(c), idx, area);
            for (int s = 0; s < kSlots; ++s) {
                nidx[static_cast<std::size_t>(s) * n +
                     static_cast<std::size_t>(c)] = idx[s];
                narea[static_cast<std::size_t>(s) * n +
                      static_cast<std::size_t>(c)] = area[s];
            }
            continue;
        }
        // Dirty Copy cell: a side's structure can only have changed if an
        // old neighbor on it died (level changes kill the old cell), and
        // exactly those sides carry a -1 translated slot. Re-resolve only
        // them; the clean sides' translated slots are already exact.
        for (int base = 0; base < kSlots; base += 2) {
            const std::size_t s0 =
                static_cast<std::size_t>(base) * n + static_cast<std::size_t>(c);
            const std::size_t s1 = s0 + n;
            if (nidx[s0] >= 0 && nidx[s1] >= 0) continue;
            std::int32_t idx2[2];
            compute_t area2[2];
            resolve_cell_side(static_cast<std::int32_t>(c), base, idx2, area2);
            nidx[s0] = idx2[0];
            narea[s0] = area2[0];
            nidx[s1] = idx2[1];
            narea[s1] = area2[1];
        }
    }
    nbr_idx_.swap(nbr_idx_back_);
    nbr_area_.swap(nbr_area_back_);
    rebuild_iteration_space();
    return static_cast<std::size_t>(resolved);
}

template <fp::PrecisionPolicy Policy>
bool ShallowWaterSolver<Policy>::topology_caches_consistent() const {
    const std::size_t n = mesh_.num_cells();
    if (nbr_idx_.size() != static_cast<std::size_t>(kSlots) * n ||
        nbr_area_.size() != nbr_idx_.size() || inv_area_.size() != n)
        return false;
    // Reference tables via the historic face-scan into scratch storage.
    std::vector<std::int32_t> ridx(nbr_idx_.size());
    std::vector<compute_t> rarea(nbr_area_.size(), compute_t(0));
    for (std::size_t c = 0; c < n; ++c)
        for (int slot = 0; slot < kSlots; ++slot)
            ridx[static_cast<std::size_t>(slot) * n + c] =
                static_cast<std::int32_t>(c);
    auto assign_slot = [&](std::int32_t cell, int base, std::int32_t nbr,
                           double area) {
        const auto c = static_cast<std::size_t>(cell);
        const int slot =
            rarea[static_cast<std::size_t>(base) * n + c] == compute_t(0)
                ? base
                : base + 1;
        ridx[static_cast<std::size_t>(slot) * n + c] = nbr;
        rarea[static_cast<std::size_t>(slot) * n + c] =
            static_cast<compute_t>(area);
    };
    for (const mesh::Face& f : mesh_.x_faces()) {
        assign_slot(f.lo, 2, f.hi, f.area);
        assign_slot(f.hi, 0, f.lo, f.area);
    }
    for (const mesh::Face& f : mesh_.y_faces()) {
        assign_slot(f.lo, 6, f.hi, f.area);
        assign_slot(f.hi, 4, f.lo, f.area);
    }
    if (ridx != nbr_idx_ || rarea != nbr_area_) return false;
    const auto& cells = mesh_.cells();
    for (std::size_t c = 0; c < n; ++c)
        if (inv_area_[c] !=
            static_cast<compute_t>(1.0 / mesh_.cell_area(cells[c])))
            return false;
    // Level runs must exactly tile [0, n) into maximal same-level runs.
    std::size_t at = 0;
    for (const detail::LevelRun& run : level_runs_) {
        if (static_cast<std::size_t>(run.begin) != at || run.end <= run.begin)
            return false;
        for (std::int32_t c = run.begin; c < run.end; ++c)
            if (cells[static_cast<std::size_t>(c)].level != run.level)
                return false;
        if (static_cast<std::size_t>(run.end) < n &&
            cells[static_cast<std::size_t>(run.end)].level == run.level)
            return false;  // not maximal
        at = static_cast<std::size_t>(run.end);
    }
    return at == n;
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::apply_ic(const DamBreak& ic) {
    const auto& g = config_.geom;
    const double cx = g.xmin + 0.5 * g.width;
    const double cy = g.ymin + 0.5 * g.height;
    const double r0 = ic.radius_fraction * std::min(g.width, g.height);
    const auto& cells = mesh_.cells();
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const double x = mesh_.cell_center_x(cells[c]) - cx;
        const double y = mesh_.cell_center_y(cells[c]) - cy;
        const double r = std::sqrt(x * x + y * y);
        h_[c] = static_cast<storage_t>(r < r0 ? ic.h_inside : ic.h_outside);
        hu_[c] = storage_t(0);
        hv_[c] = storage_t(0);
    }
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::initialize_dam_break(const DamBreak& ic) {
    apply_ic(ic);
    // Pre-refine around the initial discontinuity: one pass per allowed
    // level, re-evaluating the analytic state on the refined mesh so the
    // initial column edge is resolved at the finest level (CLAMR's initial
    // rezone does the same).
    for (std::int32_t pass = 0; pass < config_.geom.max_level; ++pass) {
        // Face-scan flags here: the neighbor-slot tables are rebuilt only
        // once after the whole pre-refine loop, so they are stale inside
        // it, while the (lazily rebuilt) face lists are always current.
        compute_refinement_flags_facescan(flags_scratch_);
        // Never coarsen during initialization.
        for (auto& f : flags_scratch_)
            if (f == mesh::kCoarsenFlag) f = mesh::kKeepFlag;
        mesh_.adapt(flags_scratch_);
        // resize, not assign: apply_ic overwrites every cell, so zero-fill
        // would be pure churn, and the vectors keep their capacity across
        // the warm-up passes instead of reallocating on each one.
        h_.resize(mesh_.num_cells());
        hu_.resize(mesh_.num_cells());
        hv_.resize(mesh_.num_cells());
        apply_ic(ic);
    }
    rebuild_topology_caches();
    time_ = 0.0;
    step_count_ = 0;
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::compute_refinement_flags(
    std::vector<std::int8_t>& flags) const {
    const std::size_t n = mesh_.num_cells();
    flags.resize(n);
    const storage_t* h = h_.data();
    const std::int32_t* nbr = nbr_idx_.data();
    const compute_t* narea = nbr_area_.data();
    std::int8_t* out = flags.data();
    const double refine_t = config_.refine_threshold;
    const double coarsen_t = config_.coarsen_threshold;
    const auto ni = static_cast<std::int64_t>(n);
    // Every interior face appears in both endpoint cells' slots and the
    // relative-jump measure is symmetric and order-independent under max,
    // so the per-cell max over own slots equals the face-scan's scattered
    // max bit-for-bit — with no scatter, this loop threads freely.
#pragma omp parallel for schedule(static)
    for (std::int64_t c = 0; c < ni; ++c) {
        const double hc = static_cast<double>(h[c]);
        const double ahc = std::fabs(hc);
        double jump = 0.0;
        for (int s = 0; s < kSlots; ++s) {
            const std::size_t o = static_cast<std::size_t>(s) * n +
                                  static_cast<std::size_t>(c);
            if (narea[o] == compute_t(0)) continue;  // empty slot
            const double hn = static_cast<double>(h[nbr[o]]);
            const double ref = std::max({ahc, std::fabs(hn), 1e-12});
            jump = std::max(jump, std::fabs(hc - hn) / ref);
        }
        if (jump > refine_t)
            out[c] = mesh::kRefineFlag;
        else if (jump < coarsen_t)
            out[c] = mesh::kCoarsenFlag;
        else
            out[c] = mesh::kKeepFlag;
    }
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::compute_refinement_flags_facescan(
    std::vector<std::int8_t>& flags) const {
    const std::size_t n = mesh_.num_cells();
    // Arena scratch: this runs every rezone_interval steps, so the jump
    // buffer must not hit the heap at steady state.
    util::ScratchArena& arena = util::tls_arena();
    util::ArenaScope scope(arena);
    double* jump = arena.alloc<double>(n);
    std::fill_n(jump, n, 0.0);
    auto scan = [&](const std::vector<mesh::Face>& faces) {
        for (const mesh::Face& f : faces) {
            const double hl = static_cast<double>(h_[f.lo]);
            const double hr = static_cast<double>(h_[f.hi]);
            const double ref =
                std::max({std::fabs(hl), std::fabs(hr), 1e-12});
            const double rel = std::fabs(hl - hr) / ref;
            jump[static_cast<std::size_t>(f.lo)] =
                std::max(jump[static_cast<std::size_t>(f.lo)], rel);
            jump[static_cast<std::size_t>(f.hi)] =
                std::max(jump[static_cast<std::size_t>(f.hi)], rel);
        }
    };
    scan(mesh_.x_faces());
    scan(mesh_.y_faces());

    flags.assign(n, mesh::kKeepFlag);
    for (std::size_t c = 0; c < n; ++c) {
        if (jump[c] > config_.refine_threshold)
            flags[c] = mesh::kRefineFlag;
        else if (jump[c] < config_.coarsen_threshold)
            flags[c] = mesh::kCoarsenFlag;
    }
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::remap_state(const mesh::RemapPlan& plan) {
    // Double-buffer: write into the back arrays and swap. The backs keep
    // their capacity across rezones, so steady-state remapping allocates
    // nothing.
    const std::size_t nplan = plan.size();
    h_back_.resize(nplan);
    hu_back_.resize(nplan);
    hv_back_.resize(nplan);
    storage_t* nh = h_back_.data();
    storage_t* nhu = hu_back_.data();
    storage_t* nhv = hv_back_.data();
    // Surviving cells move in whole copy spans — three memcpys per span
    // instead of an entry-wise gather. Span targets are disjoint, so the
    // span loop threads; the entry loop below skips Copy entries and
    // writes only refine/coarsen targets, which are disjoint from the
    // spans, so the two loops compose without conflicts.
    const auto nspans = static_cast<std::int64_t>(plan.copy_spans.size());
#pragma omp parallel for schedule(static)
    for (std::int64_t sp = 0; sp < nspans; ++sp) {
        const mesh::CopySpan s = plan.copy_spans[sp];
        const auto len = static_cast<std::size_t>(s.end - s.begin);
        const auto src = static_cast<std::size_t>(s.begin - s.shift);
        const auto dst = static_cast<std::size_t>(s.begin);
        std::memcpy(nh + dst, h_.data() + src, len * sizeof(storage_t));
        std::memcpy(nhu + dst, hu_.data() + src, len * sizeof(storage_t));
        std::memcpy(nhv + dst, hv_.data() + src, len * sizeof(storage_t));
    }
    const auto ni = static_cast<std::int64_t>(nplan);
    const mesh::RemapEntry* entries = plan.entries.data();
#pragma omp parallel for schedule(static)
    for (std::int64_t c = 0; c < ni; ++c) {
        const mesh::RemapEntry& e = entries[c];
        switch (e.kind) {
            case mesh::RemapKind::Copy:
                break;  // handled span-wise above
            case mesh::RemapKind::Refine:
                // Height and momenta are intensive (per-area) quantities, so
                // piecewise-constant prolongation conserves mass exactly.
                nh[c] = h_[e.src[0]];
                nhu[c] = hu_[e.src[0]];
                nhv[c] = hv_[e.src[0]];
                break;
            case mesh::RemapKind::Coarsen: {
                compute_t ah = 0, au = 0, av = 0;
                for (int s = 0; s < 4; ++s) {
                    ah += static_cast<compute_t>(h_[e.src[s]]);
                    au += static_cast<compute_t>(hu_[e.src[s]]);
                    av += static_cast<compute_t>(hv_[e.src[s]]);
                }
                nh[c] = static_cast<storage_t>(compute_t(0.25) * ah);
                nhu[c] = static_cast<storage_t>(compute_t(0.25) * au);
                nhv[c] = static_cast<storage_t>(compute_t(0.25) * av);
                break;
            }
        }
    }
    if (obs::shadow_kernel_active("clamr.rezone_remap"))
        shadow_profile_remap(plan, nh, nhu, nhv);
    h_.swap(h_back_);
    hu_.swap(hu_back_);
    hv_.swap(hv_back_);
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::rezone() {
    TP_OBS_SPAN("clamr.rezone");
    const bool incremental =
        config_.rezone_mode == RezoneMode::Incremental;
    const std::uint64_t old_cells = mesh_.num_cells();
    const auto threads = static_cast<std::uint32_t>(util::max_threads());
    constexpr std::uint64_t ss = sizeof(storage_t);
    constexpr std::uint64_t sc = sizeof(compute_t);
    // Per-slot table traffic: index + area entry.
    constexpr std::uint64_t slot_bytes =
        kSlots * (sizeof(std::int32_t) + sc);
    util::WallTimer t_all;
    util::WallTimer t;

    // Phase 1: refinement flags. Incremental mode reads the slot tables
    // per cell; the Full baseline scans the (lazily rebuilt) face lists.
    {
        TP_OBS_SPAN("clamr.rezone_flags");
        if (incremental)
            compute_refinement_flags(flags_scratch_);
        else
            compute_refinement_flags_facescan(flags_scratch_);
    }
    const double s_flags = t.elapsed_seconds();
    const std::uint64_t flags_bytes =
        incremental
            ? old_cells * (9 * ss + slot_bytes + 1)
            : old_cells * (2 * 24 + 4 * ss + 4 * sizeof(double) + 1);
    ledger_.record("rezone_flags", s_flags, 0, 0, flags_bytes, 0, 0,
                   incremental ? threads : 1);
    timers_.add("rezone_flags", s_flags);

    // Phase 2: mesh adapt (coarsen-group approval, emit, 2:1 balance, all
    // over the sorted Morton keys — no hashing, no post-sort).
    t.restart();
    const auto plan = [&] {
        TP_OBS_SPAN("clamr.rezone_adapt");
        return mesh_.adapt(flags_scratch_);
    }();
    const double s_adapt = t.elapsed_seconds();
    const std::uint64_t new_cells = mesh_.num_cells();
    const std::uint64_t adapt_bytes =
        (old_cells + new_cells) * (sizeof(mesh::Cell) + 8) + old_cells +
        new_cells * sizeof(mesh::RemapEntry);
    ledger_.record("rezone_adapt", s_adapt, 0, 0, adapt_bytes, 0, 0,
                   threads);
    timers_.add("rezone_adapt", s_adapt);

    // Phase 3: state carry-over (span memcpy + refine/coarsen gather).
    t.restart();
    {
        TP_OBS_SPAN("clamr.rezone_remap");
        remap_state(plan);
    }
    const double s_remap = t.elapsed_seconds();
    ledger_.record("rezone_remap", s_remap, 0, 0,
                   (old_cells + new_cells) * 3 * ss, 0, 0, threads);
    timers_.add("rezone_remap", s_remap);

    // Phase 4: topology caches — incremental translate of surviving
    // cells' slots vs. the Full face-scan rebuild — then the block index
    // derived from them, so its cost is part of the rezone.
    t.restart();
    std::size_t resolved;
    {
        TP_OBS_SPAN("clamr.rezone_cache");
        if (incremental) {
            resolved = update_topology_caches(plan);
        } else {
            rebuild_topology_caches_facescan();
            resolved = new_cells;
        }
        if (blocks_stale_) rebuild_blocks();
    }
    const double s_cache = t.elapsed_seconds();
    const std::uint64_t cache_bytes =
        incremental
            ? (old_cells + new_cells) * slot_bytes + old_cells * 4 +
                  new_cells * (sc + 4)
            : new_cells * (2 * slot_bytes + 7 * sc + 2 * 24);
    ledger_.record("rezone_cache", s_cache, 0, 0, cache_bytes, 0, 0,
                   incremental ? threads : 1);
    timers_.add("rezone_cache", s_cache);

    // Aggregate timer kept for whole-rezone reporting (examples, tests).
    timers_.add("rezone", t_all.elapsed_seconds());
    rezone_stats_.rezones += 1;
    rezone_stats_.cells_touched += old_cells + new_cells;
    rezone_stats_.translated_cells += new_cells - resolved;
    rezone_stats_.resolved_cells += resolved;
    rezone_stats_.copy_spans += plan.copy_spans.size();
}

// Failure path of the compute_dt guard: the cheap always-on check only
// sees the reduced dt, so when it trips, scan the state to say *where*
// the garbage is — the diagnostic names the first offending cell and
// array, which is what makes a reduced-precision blow-up debuggable.
template <fp::PrecisionPolicy Policy>
[[noreturn]] void describe_dt_fault(
    const ShallowWaterSolver<Policy>& solver,
    const std::vector<typename Policy::storage_t>& h,
    const std::vector<typename Policy::storage_t>& hu,
    const std::vector<typename Policy::storage_t>& hv, double bad_dt) {
    std::string detail = "non-finite or non-positive dt " +
                         std::to_string(bad_dt) + " over " +
                         std::to_string(h.size()) + " cells";
    const auto scan = [&](const char* name, const auto& a) {
        const obs::ProbeStats s =
            obs::probe_array(std::string("clamr.") + name, a.data(),
                             a.size());
        if (!s.healthy())
            detail += "; " + std::string(name) + " has " +
                      std::to_string(s.nan_count) + " NaN / " +
                      std::to_string(s.inf_count) +
                      " Inf values (first at cell " +
                      std::to_string(s.first_bad_index) + ")";
    };
    scan("h", h);
    scan("hu", hu);
    scan("hv", hv);
    obs::probe_flush_to_metrics();
    obs::raise_numerical_fault("cfl", solver.step_count(), detail);
}

template <fp::PrecisionPolicy Policy>
double ShallowWaterSolver<Policy>::compute_dt() {
    TP_OBS_SPAN("clamr.cfl");
    util::WallTimer t;
    const std::size_t n = mesh_.num_cells();
    const compute_t g = static_cast<compute_t>(config_.gravity);
    const compute_t hfloor = static_cast<compute_t>(1e-8);
    // Per-level minimum spacing lookup (tiny, stays in L1). The
    // constructor guarantees max_level <= kMaxSupportedLevel, so the
    // run-level index below can never leave the array.
    std::array<compute_t, kMaxSupportedLevel + 1> min_dx{};
    for (std::int32_t l = 0; l <= config_.geom.max_level; ++l)
        min_dx[static_cast<std::size_t>(l)] = static_cast<compute_t>(
            std::min(mesh_.cell_dx(l), mesh_.cell_dy(l)));

    const storage_t* h = h_.data();
    const storage_t* hu = hu_.data();
    const storage_t* hv = hv_.data();
    compute_t* cfl = cfl_buf_.data();
    const detail::LevelRun* runs = level_runs_.data();
    const auto nruns = static_cast<std::int64_t>(level_runs_.size());
    // Level-bucketed: the spacing is a run constant, so the inner loop has
    // no per-cell level lookup and every candidate is computed in the
    // policy's compute precision (the dt itself is part of what "minimum
    // precision" changes about the run).
#pragma omp parallel for schedule(static)
    for (std::int64_t r = 0; r < nruns; ++r) {
        const detail::LevelRun run = runs[r];
        const compute_t dx = min_dx[static_cast<std::size_t>(run.level)];
#pragma omp simd
        for (std::int32_t c = run.begin; c < run.end; ++c) {
            const compute_t hh =
                std::max(static_cast<compute_t>(h[c]), hfloor);
            const compute_t inv = compute_t(1) / hh;
            const compute_t u =
                std::fabs(static_cast<compute_t>(hu[c])) * inv;
            const compute_t v =
                std::fabs(static_cast<compute_t>(hv[c])) * inv;
            const compute_t wave = std::max(u, v) + std::sqrt(g * hh);
            cfl[c] = dx / wave;
        }
    }
    if (obs::shadow_kernel_active("clamr.cfl")) shadow_profile_cfl();
    // Reproducible global minimum: the blocked parallel reduction has a
    // fixed shape that depends only on n, so the result is bit-identical
    // at any thread count (paper §III.C, order-independent reductions).
    const compute_t dt_min = sum::parallel_min(
        std::span<const compute_t>(cfl_buf_),
        std::numeric_limits<compute_t>::infinity());

    constexpr bool sp = std::is_same_v<compute_t, float>;
    ledger_.record("cfl", t.elapsed_seconds(),
                   sp ? n * kCflFlopsPerCell : 0,
                   sp ? 0 : n * kCflFlopsPerCell,
                   n * 3 * sizeof(storage_t),
                   (sizeof(storage_t) != sizeof(compute_t) &&
                    std::is_same_v<compute_t, double>)
                       ? 3 * n
                       : 0,
                   n * sizeof(compute_t),
                   static_cast<std::uint32_t>(util::max_threads()));
    timers_.add("cfl", t.elapsed_seconds());
    const double dt = config_.courant * static_cast<double>(dt_min);
    // Finite-dt guard: a NaN/Inf anywhere in the state poisons the CFL
    // reduction, and without this check the run would keep stepping on
    // garbage (time_ += NaN) with no error until someone inspects the
    // output. An Inf wave speed shows up here as dt == 0. The check is
    // one comparison per step; the diagnostic scan runs only on failure.
    if (!std::isfinite(dt) || dt <= 0.0)
        describe_dt_fault(*this, h_, hu_, hv_, dt);
    return dt;
}

template <fp::PrecisionPolicy Policy>
detail::FluxArgs<typename Policy::storage_t, typename Policy::compute_t>
ShallowWaterSolver<Policy>::flux_args() {
    return {h_.data(),       hu_.data(),       hv_.data(),
            dh_.data(),      dhu_.data(),      dhv_.data(),
            nbr_idx_.data(), nbr_area_.data(), mesh_.num_cells(),
            static_cast<compute_t>(config_.gravity)};
}

// Each block writes only its own cells' increments, so the sweep threads
// with no synchronization, and the per-cell arithmetic is independent of
// which thread runs the block — the result is identical at any team size.
// The scalar twin (flux_sweep_scalar) lives in flux_scalar.cpp, compiled
// with the auto-vectorizer off; it instantiates the same flux_block<> at
// W = 1, so the two paths differ only in instruction shape.
template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::flux_sweep_native() {
    const auto args = flux_args();
    const FluxBlock* blocks = flux_blocks_.data();
    const auto nb = static_cast<std::int64_t>(flux_blocks_.size());
#pragma omp parallel for schedule(static)
    for (std::int64_t b = 0; b < nb; ++b)
        detail::flux_block<storage_t, compute_t, kNativeLanes>(
            args, static_cast<std::size_t>(blocks[b].begin), blocks[b].len);
}

template <fp::PrecisionPolicy Policy>
auto ShallowWaterSolver<Policy>::tile_args()
    -> detail::TileSweepArgs<storage_t, compute_t> {
    return {h_.data(),           hu_.data(),          hv_.data(),
            dh_.data(),          dhu_.data(),         dhv_.data(),
            tile_blocks_.data(), tile_blocks_.size(),
            static_cast<compute_t>(config_.gravity)};
}

// Blocked sweep (--blocks=on): dense unit-stride tiles for the regular
// cells, flux_block over the fallback runs for the rest — together they
// cover every cell exactly once, with the same store-only increment
// writes as the cell sweeps, so the boundary closure, cell update, shadow
// hooks, and governor monitor are shared untouched. The scalar twin
// (flux_sweep_blocked_scalar) lives in flux_scalar.cpp.
template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::flux_sweep_blocked_native() {
    const auto targs = tile_args();
    const auto nt = static_cast<std::int64_t>(targs.nblocks);
#pragma omp parallel for schedule(static)
    for (std::int64_t b = 0; b < nt; ++b)
        detail::tile_block<storage_t, compute_t, kNativeLanes>(
            targs, targs.blocks[b]);
    const auto fargs = flux_args();
    const std::int32_t* fb = fallback_cells_.data();
    const auto nf = static_cast<std::int64_t>(fallback_cells_.size());
#pragma omp parallel for schedule(static)
    for (std::int64_t c = 0; c < nf; c += kNativeLanes)
        detail::flux_block_gather<storage_t, compute_t, kNativeLanes>(
            fargs, fb + c,
            static_cast<int>(std::min<std::int64_t>(kNativeLanes, nf - c)));
}

// --- governed flux path (fp/governor.hpp) ---------------------------------
// The same width-templated flux_block, instantiated at the *other* compute
// precision. Increments land in the _alt buffers and are folded back into
// dh_/dhu_/dhv_ with one cast per cell, so the boundary closure and the
// cell update are shared with the static path. A detached or disabled
// governor never reaches any of this code.

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::set_governor(
    fp::PrecisionGovernor* governor) {
    governor_ = governor;
    gov_flux_id_ = -1;
    alt_tables_stale_ = true;
    if (governor_ != nullptr && governor_->enabled())
        gov_flux_id_ = governor_->register_kernel("clamr.flux_sweep");
}

template <fp::PrecisionPolicy Policy>
auto ShallowWaterSolver<Policy>::flux_args_alt()
    -> detail::FluxArgs<storage_t, alt_compute_t> {
    return {h_.data(),       hu_.data(),           hv_.data(),
            dh_alt_.data(),  dhu_alt_.data(),      dhv_alt_.data(),
            nbr_idx_.data(), nbr_area_alt_.data(), mesh_.num_cells(),
            static_cast<alt_compute_t>(config_.gravity)};
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::prepare_alt_tables() {
    if (!alt_tables_stale_) return;
    const std::size_t n = mesh_.num_cells();
    // flux_block stores (not accumulates) each cell's increments, so the
    // buffers need sizing only — every entry is overwritten by the sweep.
    dh_alt_.resize(n);
    dhu_alt_.resize(n);
    dhv_alt_.resize(n);
    // Neighbor areas on the alt lattice. Promoting a float table to
    // double is exact; demoting a double table rounds each entry to the
    // same float a static float-compute build computes (the cache fill
    // evaluates the area expression in double and casts once).
    nbr_area_alt_.resize(nbr_area_.size());
    const compute_t* src = nbr_area_.data();
    alt_compute_t* dst = nbr_area_alt_.data();
    const auto na = static_cast<std::int64_t>(nbr_area_.size());
#pragma omp parallel for simd schedule(static)
    for (std::int64_t i = 0; i < na; ++i)
        dst[i] = static_cast<alt_compute_t>(src[i]);
    // The blocked sweep reuses the tiles, face widths double-cast through
    // compute_t exactly like the alt slot areas above. The cell sweep
    // packs at the alt lattice's native width (float sweeps get twice the
    // lanes of double sweeps, same as the static paths).
    tile_blocks_alt_.clear();
    flux_blocks_alt_.clear();
    if (config_.blocks) {
        for (const auto& t : tile_blocks_)
            tile_blocks_alt_.push_back({t.src, t.regular,
                                        static_cast<alt_compute_t>(t.wx),
                                        static_cast<alt_compute_t>(t.wy)});
    } else {
        for (const detail::LevelRun& run : level_runs_)
            for (std::int32_t b = run.begin; b < run.end; b += kAltLanes)
                flux_blocks_alt_.push_back(
                    {b, std::min<std::int32_t>(kAltLanes, run.end - b)});
    }
    alt_tables_stale_ = false;
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::fold_alt_increments() {
    const std::size_t n = mesh_.num_cells();
    compute_t* dh = dh_.data();
    compute_t* dhu = dhu_.data();
    compute_t* dhv = dhv_.data();
    const alt_compute_t* adh = dh_alt_.data();
    const alt_compute_t* adhu = dhu_alt_.data();
    const alt_compute_t* adhv = dhv_alt_.data();
#pragma omp parallel for simd schedule(static)
    for (std::size_t c = 0; c < n; ++c) {
        dh[c] = static_cast<compute_t>(adh[c]);
        dhu[c] = static_cast<compute_t>(adhu[c]);
        dhv[c] = static_cast<compute_t>(adhv[c]);
    }
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::flux_sweep_alt_native() {
    const auto args = flux_args_alt();
    const FluxBlock* blocks = flux_blocks_alt_.data();
    const auto nb = static_cast<std::int64_t>(flux_blocks_alt_.size());
#pragma omp parallel for schedule(static)
    for (std::int64_t b = 0; b < nb; ++b)
        detail::flux_block<storage_t, alt_compute_t, kAltLanes>(
            args, static_cast<std::size_t>(blocks[b].begin), blocks[b].len);
}

template <fp::PrecisionPolicy Policy>
auto ShallowWaterSolver<Policy>::tile_args_alt()
    -> detail::TileSweepArgs<storage_t, alt_compute_t> {
    return {h_.data(),      hu_.data(),      hv_.data(),
            dh_alt_.data(), dhu_alt_.data(), dhv_alt_.data(),
            tile_blocks_alt_.data(), tile_blocks_alt_.size(),
            static_cast<alt_compute_t>(config_.gravity)};
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::flux_sweep_blocked_alt_native() {
    const auto targs = tile_args_alt();
    const auto nt = static_cast<std::int64_t>(targs.nblocks);
#pragma omp parallel for schedule(static)
    for (std::int64_t b = 0; b < nt; ++b)
        detail::tile_block<storage_t, alt_compute_t, kAltLanes>(
            targs, targs.blocks[b]);
    const auto fargs = flux_args_alt();
    const std::int32_t* fb = fallback_cells_.data();
    const auto nf = static_cast<std::int64_t>(fallback_cells_.size());
#pragma omp parallel for schedule(static)
    for (std::int64_t c = 0; c < nf; c += kAltLanes)
        detail::flux_block_gather<storage_t, alt_compute_t, kAltLanes>(
            fargs, fb + c,
            static_cast<int>(std::min<std::int64_t>(kAltLanes, nf - c)));
}

// Governor telemetry: a strided sample of post-sweep increments, observed
// on the float lattice against the in-order double shadow reference. The
// float lattice makes the two regimes comparable: a reduced sweep shows
// exactly the drift its float arithmetic introduced, while a promoted
// sweep reproduces the reference bit-for-bit (same op order in double)
// and scores zero — so promoted steps are "clean" iff a reduced sweep
// would have been, which is what the hysteresis counter needs.
template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::governed_monitor_flux() {
    const auto args = flux_args();
    const auto stride =
        static_cast<std::size_t>(obs::shadow_sample_stride());
    const double g = config_.gravity;
    obs::DivergenceStats s;
    for (std::size_t c = 0; c < args.n; c += stride) {
        double rdh;
        double rdhu;
        double rdhv;
        shadow_flux_cell(args, c, g, rdh, rdhu, rdhv);
        s.observe(static_cast<float>(static_cast<double>(dh_[c])), rdh);
        s.observe(static_cast<float>(static_cast<double>(dhu_[c])), rdhu);
        s.observe(static_cast<float>(static_cast<double>(dhv_[c])), rdhv);
    }
    governor_->observe(gov_flux_id_, s);
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::boundary_fluxes() {
    // Reflective walls via a mirrored ghost state fed through the same
    // Rusanov flux. Mass flux through the wall is exactly zero, so total
    // water volume is conserved to rounding.
    const compute_t g = static_cast<compute_t>(config_.gravity);
    const compute_t half = compute_t(0.5);
    const compute_t half_g = half * g;
    const compute_t hfloor = static_cast<compute_t>(1e-8);
    for (const mesh::BoundaryFace& b : mesh_.boundary_faces()) {
        const auto c = static_cast<std::size_t>(b.cell);
        const bool x_dir = b.side == 0 || b.side == 1;
        const bool outward_positive = b.side == 1 || b.side == 3;
        const compute_t hh =
            std::max(static_cast<compute_t>(h_[c]), hfloor);
        const compute_t qnc =
            static_cast<compute_t>(x_dir ? hu_[c] : hv_[c]);
        const compute_t un = qnc / hh;
        const compute_t smax = std::fabs(un) + std::sqrt(g * hh);
        const compute_t a = static_cast<compute_t>(b.area);
        compute_t* dqn = x_dir ? dhu_.data() : dhv_.data();
        if (outward_positive) {
            // Cell on lo side, ghost (h, -qn, qt) on hi side.
            const compute_t f2 =
                a * (qnc * un + half_g * hh * hh + smax * qnc);
            dqn[c] -= f2;
        } else {
            // Ghost on lo side, cell on hi side.
            const compute_t f2 =
                a * (qnc * un + half_g * hh * hh - smax * qnc);
            dqn[c] += f2;
        }
    }
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::apply_update(double dt) {
    const std::size_t n = mesh_.num_cells();
    storage_t* h = h_.data();
    storage_t* hu = hu_.data();
    storage_t* hv = hv_.data();
    compute_t* dh = dh_.data();
    compute_t* dhu = dhu_.data();
    compute_t* dhv = dhv_.data();
    const compute_t* inv_area = inv_area_.data();
    const compute_t dtc = static_cast<compute_t>(dt);
    const compute_t hfloor = static_cast<compute_t>(1e-8);

#pragma omp parallel for simd schedule(static)
    for (std::size_t c = 0; c < n; ++c) {
        const compute_t s = dtc * inv_area[c];
        h[c] = static_cast<storage_t>(
            std::max(static_cast<compute_t>(h[c]) + s * dh[c], hfloor));
        hu[c] = static_cast<storage_t>(static_cast<compute_t>(hu[c]) +
                                       s * dhu[c]);
        hv[c] = static_cast<storage_t>(static_cast<compute_t>(hv[c]) +
                                       s * dhv[c]);
        dh[c] = compute_t(0);
        dhu[c] = compute_t(0);
        dhv[c] = compute_t(0);
    }
}

// --- shadow-divergence hooks (--shadow-profile) ---------------------------
// Each hook re-executes a strided sample of its kernel's work in double,
// then merges the observed divergence under (kernel, array) in the
// numerics registry. Stack-local accumulators + member scratch keep the
// hooks alloc-free after warmup; none of this code runs unless the
// relaxed-load gate at the call site fired.

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::shadow_profile_cfl() const {
    const auto stride =
        static_cast<std::int32_t>(obs::shadow_sample_stride());
    const double g = config_.gravity;
    obs::DivergenceStats s;
    for (const detail::LevelRun& run : level_runs_) {
        const double dx =
            std::min(mesh_.cell_dx(run.level), mesh_.cell_dy(run.level));
        std::int32_t c = run.begin + (stride - run.begin % stride) % stride;
        for (; c < run.end; c += stride) {
            const auto i = static_cast<std::size_t>(c);
            const double hh =
                std::max(static_cast<double>(h_[i]), 1e-8);
            const double inv = 1.0 / hh;
            const double u = std::fabs(static_cast<double>(hu_[i])) * inv;
            const double v = std::fabs(static_cast<double>(hv_[i])) * inv;
            const double wave = std::max(u, v) + std::sqrt(g * hh);
            s.observe(cfl_buf_[i], dx / wave);
        }
    }
    obs::shadow_merge("clamr.cfl", "cfl", s);
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::shadow_profile_flux_sweep() {
    const auto args = flux_args();
    const auto stride =
        static_cast<std::size_t>(obs::shadow_sample_stride());
    const double g = config_.gravity;
    obs::DivergenceStats sdh;
    obs::DivergenceStats sdhu;
    obs::DivergenceStats sdhv;
    for (std::size_t c = 0; c < args.n; c += stride) {
        double rdh;
        double rdhu;
        double rdhv;
        shadow_flux_cell(args, c, g, rdh, rdhu, rdhv);
        sdh.observe(dh_[c], rdh);
        sdhu.observe(dhu_[c], rdhu);
        sdhv.observe(dhv_[c], rdhv);
    }
    obs::shadow_merge("clamr.flux_sweep", "dh", sdh);
    obs::shadow_merge("clamr.flux_sweep", "dhu", sdhu);
    obs::shadow_merge("clamr.flux_sweep", "dhv", sdhv);
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::shadow_capture_apply_update() {
    const auto stride =
        static_cast<std::size_t>(obs::shadow_sample_stride());
    const std::size_t n = mesh_.num_cells();
    shadow_idx_.clear();
    shadow_vals_.clear();
    for (std::size_t c = 0; c < n; c += stride) {
        shadow_idx_.push_back(static_cast<std::int32_t>(c));
        shadow_vals_.push_back(static_cast<double>(h_[c]));
        shadow_vals_.push_back(static_cast<double>(hu_[c]));
        shadow_vals_.push_back(static_cast<double>(hv_[c]));
        shadow_vals_.push_back(static_cast<double>(dh_[c]));
        shadow_vals_.push_back(static_cast<double>(dhu_[c]));
        shadow_vals_.push_back(static_cast<double>(dhv_[c]));
        shadow_vals_.push_back(static_cast<double>(inv_area_[c]));
    }
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::shadow_observe_apply_update(
    double dt) const {
    obs::DivergenceStats sh;
    obs::DivergenceStats shu;
    obs::DivergenceStats shv;
    for (std::size_t k = 0; k < shadow_idx_.size(); ++k) {
        const auto c = static_cast<std::size_t>(shadow_idx_[k]);
        const double* v = shadow_vals_.data() + 7 * k;
        const double s = dt * v[6];
        sh.observe(h_[c], std::max(v[0] + s * v[3], 1e-8));
        shu.observe(hu_[c], v[1] + s * v[4]);
        shv.observe(hv_[c], v[2] + s * v[5]);
    }
    obs::shadow_merge("clamr.apply_update", "h", sh);
    obs::shadow_merge("clamr.apply_update", "hu", shu);
    obs::shadow_merge("clamr.apply_update", "hv", shv);
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::shadow_profile_remap(
    const mesh::RemapPlan& plan, const storage_t* nh, const storage_t* nhu,
    const storage_t* nhv) const {
    const auto stride =
        static_cast<std::size_t>(obs::shadow_sample_stride());
    obs::DivergenceStats sh;
    obs::DivergenceStats shu;
    obs::DivergenceStats shv;
    const std::size_t n = plan.size();
    for (std::size_t c = 0; c < n; c += stride) {
        const mesh::RemapEntry& e = plan.entries[c];
        // Copy spans are memcpys — bit-exact by construction, and they
        // would drown the interesting refine/coarsen samples.
        if (e.kind == mesh::RemapKind::Copy) continue;
        double rh;
        double rhu;
        double rhv;
        if (e.kind == mesh::RemapKind::Refine) {
            const auto s0 = static_cast<std::size_t>(e.src[0]);
            rh = static_cast<double>(h_[s0]);
            rhu = static_cast<double>(hu_[s0]);
            rhv = static_cast<double>(hv_[s0]);
        } else {
            double ah = 0.0;
            double au = 0.0;
            double av = 0.0;
            for (int s = 0; s < 4; ++s) {
                const auto src = static_cast<std::size_t>(e.src[s]);
                ah += static_cast<double>(h_[src]);
                au += static_cast<double>(hu_[src]);
                av += static_cast<double>(hv_[src]);
            }
            rh = 0.25 * ah;
            rhu = 0.25 * au;
            rhv = 0.25 * av;
        }
        sh.observe(nh[c], rh);
        shu.observe(nhu[c], rhu);
        shv.observe(nhv[c], rhv);
    }
    obs::shadow_merge("clamr.rezone_remap", "h", sh);
    obs::shadow_merge("clamr.rezone_remap", "hu", shu);
    obs::shadow_merge("clamr.rezone_remap", "hv", shv);
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::account_finite_diff(double seconds,
                                                     int lanes) {
    const std::uint64_t bfaces = mesh_.boundary_faces().size();
    const std::uint64_t cells = mesh_.num_cells();
    constexpr std::uint64_t ss = sizeof(storage_t);
    constexpr std::uint64_t sc = sizeof(compute_t);
    // Cell-centric kernel: every cell evaluates up to kSlots sub-face
    // fluxes (shared faces are computed on both sides — CLAMR's trade of
    // redundant flops for a scatter-free, vectorizable loop).
    const std::uint64_t flops = cells * kSlots * kSlotFlops +
                                bfaces * kBoundaryFaceFlops +
                                cells * kCellUpdateFlops;
    // Storage traffic: compulsory read+write of the three state arrays
    // plus gather spill on the neighbor loads (mostly cache-resident in
    // Z-order). Compute-precision traffic: the increment buffers, streamed
    // twice (flux write + update read).
    const std::uint64_t bytes = cells * 6 * ss + cells * 4 * ss;
    const std::uint64_t bytes_compute = cells * 6 * sc;
    constexpr bool sp = std::is_same_v<compute_t, float>;
    // Only float<->double staging rides the GPU DP pipe; half<->float
    // conversions are cheap (F16C-class) and are not charged.
    const std::uint64_t converts =
        (ss != sc && std::is_same_v<compute_t, double>)
            ? cells * (3 + kSlots * 3 + 6)
            : 0;
    ledger_.record("finite_diff", seconds, sp ? flops : 0, sp ? 0 : flops,
                   bytes, converts, bytes_compute,
                   static_cast<std::uint32_t>(util::max_threads()),
                   static_cast<std::uint32_t>(lanes));
    timers_.add("finite_diff", seconds);
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::finite_diff(double dt) {
    util::WallTimer t;
    const bool native = simd::use_native(config_.simd);
    const bool governed =
        governor_ != nullptr && governor_->enabled() && gov_flux_id_ >= 0;
    // "Reduced" means the float lattice; for a float-compute policy that
    // is the policy's own path, so the alt sweep runs exactly when the
    // governor's regime differs from what the policy computes natively.
    const bool use_alt =
        governed && (governor_->reduced(gov_flux_id_) !=
                     std::is_same_v<compute_t, float>);
    {
        TP_OBS_SPAN("clamr.flux_sweep");
        // The sweep alone gets its own timer ("flux_sweep") so the
        // blocked-vs-cell speedup is measurable without the boundary
        // closure, shadow hooks, and update diluting it.
        util::WallTimer t_sweep;
        const bool blocked = config_.blocks;
        if (use_alt) {
            prepare_alt_tables();
            if (blocked) {
                if (native) {
                    flux_sweep_blocked_alt_native();
                } else {
                    flux_sweep_blocked_alt_scalar();
                }
            } else if (native) {
                flux_sweep_alt_native();
            } else {
                flux_sweep_alt_scalar();
            }
            fold_alt_increments();
        } else if (blocked) {
            if (native) {
                flux_sweep_blocked_native();
            } else {
                flux_sweep_blocked_scalar();
            }
        } else if (native) {
            flux_sweep_native();
        } else {
            flux_sweep_scalar();
        }
        timers_.add("flux_sweep", t_sweep.elapsed_seconds());
        // Shadow the pure sweep increments before the boundary closure
        // touches them — every sampled cell's dh/dhu/dhv is then exactly
        // one flux_block evaluation, which is what the double reference
        // replicates.
        if (obs::shadow_kernel_active("clamr.flux_sweep"))
            shadow_profile_flux_sweep();
        if (governed) governed_monitor_flux();
        boundary_fluxes();
    }
    {
        TP_OBS_SPAN("clamr.apply_update");
        const bool shadow = obs::shadow_kernel_active("clamr.apply_update");
        if (shadow) shadow_capture_apply_update();
        apply_update(dt);
        if (shadow) shadow_observe_apply_update(dt);
    }
    const int lanes = !native ? 1 : use_alt ? kAltLanes : kNativeLanes;
    account_finite_diff(t.elapsed_seconds(), lanes);
}

template <fp::PrecisionPolicy Policy>
double ShallowWaterSolver<Policy>::step() {
    TP_OBS_SPAN("clamr.step");
    if (config_.rezone_interval > 0 &&
        step_count_ % config_.rezone_interval == 0 && step_count_ > 0)
        rezone();
    if (blocks_stale_) rebuild_blocks();  // after construction or restart
    const double dt = compute_dt();
    finite_diff(dt);
    // Sampled health check: with --probe on, scan the freshly updated
    // state so a NaN is attributed to the step (and kernel) that produced
    // it rather than to the next CFL reduction that trips over it. The
    // fault must come from here: min/max reductions drop NaN operands
    // (comparisons are false), so the dt guard alone cannot see a state
    // that has already gone bad.
    if (obs::probe_enabled()) {
        const auto check = [&](const char* name, const auto& a) {
            const std::string kernel = std::string("clamr.") + name;
            const obs::ProbeStats s =
                obs::probe_array(kernel, a.data(), a.size());
            if (!s.healthy()) {
                obs::probe_flush_to_metrics();
                obs::raise_numerical_fault(
                    kernel, step_count_,
                    std::to_string(s.nan_count) + " NaN / " +
                        std::to_string(s.inf_count) + " Inf values over " +
                        std::to_string(s.samples) +
                        " cells (first at cell " +
                        std::to_string(s.first_bad_index) + ")");
            }
        };
        check("h", h_);
        check("hu", hu_);
        check("hv", hv_);
    }
    time_ += dt;
    ++step_count_;
    return dt;
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::run(int n) {
    for (int s = 0; s < n; ++s) step();
}

template <fp::PrecisionPolicy Policy>
double ShallowWaterSolver<Policy>::height_at(double x, double y) const {
    const std::int32_t c = mesh_.find_cell(x, y);
    if (c < 0) throw std::out_of_range("height_at: point outside domain");
    return static_cast<double>(h_[static_cast<std::size_t>(c)]);
}

template <fp::PrecisionPolicy Policy>
std::vector<double> ShallowWaterSolver<Policy>::sample_positions_vertical(
    int n) const {
    std::vector<double> ys(static_cast<std::size_t>(n));
    const auto& g = config_.geom;
    for (int k = 0; k < n; ++k)
        ys[static_cast<std::size_t>(k)] =
            g.ymin + (k + 0.5) * g.height / n;
    return ys;
}

template <fp::PrecisionPolicy Policy>
std::vector<double> ShallowWaterSolver<Policy>::sample_height_vertical(
    double x0, int n) const {
    std::vector<double> out(static_cast<std::size_t>(n));
    const auto ys = sample_positions_vertical(n);
    for (int k = 0; k < n; ++k)
        out[static_cast<std::size_t>(k)] = height_at(x0, ys[k]);
    return out;
}

template <fp::PrecisionPolicy Policy>
double ShallowWaterSolver<Policy>::total_mass() const {
    // Per-cell contributions are computed in parallel; the sum itself is
    // exact (expansion arithmetic), so chunking across threads cannot
    // change the rounded result.
    const auto& cells = mesh_.cells();
    const std::size_t n = cells.size();
    std::vector<double> contrib(n);
    const mesh::Cell* cell = cells.data();
    const storage_t* h = h_.data();
    double* out = contrib.data();
#pragma omp parallel for schedule(static)
    for (std::size_t c = 0; c < n; ++c)
        out[c] = static_cast<double>(h[c]) * mesh_.cell_area(cell[c]);
    return sum::parallel_sum_exact(contrib);
}

template <fp::PrecisionPolicy Policy>
std::uint64_t ShallowWaterSolver<Policy>::state_bytes() const {
    // Three state arrays plus the three increment buffers.
    return mesh_.num_cells() *
           (3 * sizeof(storage_t) + 3 * sizeof(compute_t));
}

template <fp::PrecisionPolicy Policy>
std::uint64_t ShallowWaterSolver<Policy>::checkpoint_bytes() const {
    // Header (84 bytes) + 12 bytes/cell mesh metadata + 3 state arrays in
    // storage precision — CLAMR's layout, which is what makes min/mixed
    // checkpoints 2/3 the size of full ones (86M vs 128M in Table III).
    return 84 + mesh_.metadata_bytes() +
           mesh_.num_cells() * 3 * sizeof(storage_t);
}

namespace {
constexpr std::uint32_t kCheckpointMagic = 0x54505357;  // "TPSW"
constexpr std::uint32_t kCheckpointVersion = 1;
constexpr std::uint32_t kCheckpointVersion2 = 2;  // compressed arrays

template <typename T>
void write_pod(std::ostream& os, const T& v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof v);
}
template <typename T>
T read_pod(std::istream& is) {
    T v{};
    is.read(reinterpret_cast<char*>(&v), sizeof v);
    if (!is) throw std::runtime_error("checkpoint: truncated stream");
    return v;
}

void write_snapshot_header(const CheckpointSnapshot& s,
                           std::uint32_t version, std::ostream& os) {
    write_pod(os, kCheckpointMagic);
    write_pod(os, version);
    write_pod(os, s.elem);
    write_pod(os, static_cast<std::uint32_t>(0));  // pad
    write_pod(os, static_cast<std::uint64_t>(s.cells.size()));
    write_pod(os, s.time);
    write_pod(os, s.step);
    write_pod(os, s.geom.xmin);
    write_pod(os, s.geom.ymin);
    write_pod(os, s.geom.width);
    write_pod(os, s.geom.height);
    write_pod(os, s.geom.coarse_nx);
    write_pod(os, s.geom.coarse_ny);
    write_pod(os, s.geom.max_level);
    for (const mesh::Cell& c : s.cells) {
        write_pod(os, c.level);
        write_pod(os, c.i);
        write_pod(os, c.j);
    }
    io::require_write(os);
}
}  // namespace

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::snapshot_checkpoint(Snapshot& s) const {
    s.elem = static_cast<std::uint32_t>(sizeof(storage_t));
    s.storage_digits = io::storage_digits_v<storage_t>;
    s.time = time_;
    s.step = step_count_;
    s.geom = config_.geom;
    s.cells = mesh_.cells();
    auto copy_raw = [](const std::vector<storage_t>& a,
                       std::vector<std::uint8_t>& out) {
        out.resize(a.size() * sizeof(storage_t));
        std::memcpy(out.data(), a.data(), out.size());
    };
    copy_raw(h_, s.h);
    copy_raw(hu_, s.hu);
    copy_raw(hv_, s.hv);
}

template <fp::PrecisionPolicy Policy>
io::CheckpointWriteInfo ShallowWaterSolver<Policy>::write_snapshot(
    const Snapshot& s, std::ostream& os, const io::CheckpointOptions& opt) {
    TP_OBS_SPAN("clamr.checkpoint_write");
    const std::uint64_t n = s.cells.size();
    io::CheckpointWriteInfo info;
    info.raw_bytes = 84 + 12 * n + 3 * n * s.elem;
    if (!opt.compressed()) {
        info.version = kCheckpointVersion;
        write_snapshot_header(s, kCheckpointVersion, os);
        for (const auto* a : {&s.h, &s.hu, &s.hv}) {
            os.write(reinterpret_cast<const char*>(a->data()),
                     static_cast<std::streamsize>(a->size()));
        }
        io::require_write(os);
        info.written_bytes = info.raw_bytes;
        return info;
    }
    info.version = kCheckpointVersion2;
    write_snapshot_header(s, kCheckpointVersion2, os);
    std::uint64_t written = 84 + 12 * n;
    std::vector<double> wide;
    for (const auto* a : {&s.h, &s.hu, &s.hv}) {
        io::widen_storage(*a, s.elem, wide);
        const int bits =
            io::resolve_bits(opt, io::peak_abs(wide), s.storage_digits);
        written += io::write_compressed_array(os, wide, bits);
        info.bits.push_back(bits);
    }
    info.written_bytes = written;
    return info;
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::write_checkpoint(std::ostream& os) const {
    write_checkpoint(os, io::CheckpointOptions{});
}

template <fp::PrecisionPolicy Policy>
io::CheckpointWriteInfo ShallowWaterSolver<Policy>::write_checkpoint(
    std::ostream& os, const io::CheckpointOptions& opt) const {
    Snapshot s;
    snapshot_checkpoint(s);
    return write_snapshot(s, os, opt);
}

template <fp::PrecisionPolicy Policy>
std::uint64_t ShallowWaterSolver<Policy>::checkpoint_bytes(
    const io::CheckpointOptions& opt) const {
    if (!opt.compressed()) return checkpoint_bytes();
    const std::uint64_t n = mesh_.num_cells();
    std::uint64_t total = 84 + mesh_.metadata_bytes();
    for (const auto* a : {&h_, &hu_, &hv_}) {
        double peak = 0.0;
        for (const storage_t& v : *a)
            peak = std::max(peak, std::fabs(static_cast<double>(v)));
        const int bits =
            io::resolve_bits(opt, peak, io::storage_digits_v<storage_t>);
        total += 12 + compress::compressed_payload_bytes(n, bits);
    }
    return total;
}

template <fp::PrecisionPolicy Policy>
CheckpointData ShallowWaterSolver<Policy>::read_checkpoint(
    std::istream& is) {
    TP_OBS_SPAN("clamr.checkpoint_read");
    if (read_pod<std::uint32_t>(is) != kCheckpointMagic)
        throw std::runtime_error("checkpoint: bad magic");
    const auto version = read_pod<std::uint32_t>(is);
    if (version != kCheckpointVersion && version != kCheckpointVersion2)
        throw std::runtime_error("checkpoint: bad version");
    const auto elem = read_pod<std::uint32_t>(is);
    if (elem != 2 && elem != 4 && elem != 8)
        throw std::runtime_error("checkpoint: bad element size");
    (void)read_pod<std::uint32_t>(is);
    const auto n = read_pod<std::uint64_t>(is);

    CheckpointData d;
    d.time = read_pod<double>(is);
    d.step = read_pod<std::int64_t>(is);
    d.geom.xmin = read_pod<double>(is);
    d.geom.ymin = read_pod<double>(is);
    d.geom.width = read_pod<double>(is);
    d.geom.height = read_pod<double>(is);
    d.geom.coarse_nx = read_pod<std::int32_t>(is);
    d.geom.coarse_ny = read_pod<std::int32_t>(is);
    d.geom.max_level = read_pod<std::int32_t>(is);

    // Validate the header before trusting `n` for allocation: a corrupt
    // or hostile cell count would otherwise drive resize() into a
    // multi-gigabyte allocation (or bad_alloc) before the truncated-read
    // check ever fires.
    if (d.step < 0)
        throw std::runtime_error("checkpoint: negative step count");
    if (d.geom.coarse_nx < 1 || d.geom.coarse_ny < 1)
        throw std::runtime_error("checkpoint: bad coarse grid");
    if (d.geom.max_level < 0 ||
        d.geom.max_level > ShallowWaterSolver::kMaxSupportedLevel)
        throw std::runtime_error("checkpoint: bad max_level");
    // A fully refined mesh has coarse_nx*coarse_ny*4^max_level cells —
    // no valid checkpoint can exceed that (saturating multiply).
    std::uint64_t max_cells =
        static_cast<std::uint64_t>(d.geom.coarse_nx) *
        static_cast<std::uint64_t>(d.geom.coarse_ny);
    const int shift = 2 * d.geom.max_level;
    if (max_cells > (std::numeric_limits<std::uint64_t>::max() >> shift))
        max_cells = std::numeric_limits<std::uint64_t>::max();
    else
        max_cells <<= shift;
    if (n == 0 || n > max_cells)
        throw std::runtime_error(
            "checkpoint: cell count " + std::to_string(n) +
            " impossible for the stored geometry (max " +
            std::to_string(max_cells) + ")");
    // When the stream is seekable, also require that the payload the
    // header promises actually fits in the remaining bytes — expected vs.
    // actual, so a truncated state section is rejected before any
    // allocation instead of reading short.
    if (const auto here = is.tellg(); here != std::istream::pos_type(-1)) {
        is.seekg(0, std::ios::end);
        const auto end = is.tellg();
        is.seekg(here);
        if (end != std::istream::pos_type(-1)) {
            const auto remaining =
                static_cast<std::uint64_t>(end - here);
            // v2 array payloads are variable-size (validated per array
            // below); the cell metadata bound still applies.
            const std::uint64_t per_cell =
                version == kCheckpointVersion ? 12 + 3 * elem : 12;
            if (n > remaining / per_cell)  // division: no overflow
                throw std::runtime_error(
                    "checkpoint: header promises " + std::to_string(n) +
                    " cells (" + std::to_string(per_cell * n) +
                    " payload bytes) but only " +
                    std::to_string(remaining) + " bytes remain");
        }
    }
    d.cells.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        auto& c = d.cells[k];
        c.level = read_pod<std::int32_t>(is);
        c.i = read_pod<std::int32_t>(is);
        c.j = read_pod<std::int32_t>(is);
        // Payload validation (the header checks above can't see this): a
        // corrupt cell record would otherwise flow into mesh rebuilds and
        // index computations as out-of-range levels or coordinates.
        if (c.level < 0 || c.level > d.geom.max_level)
            throw std::runtime_error(
                "checkpoint: cell " + std::to_string(k) + " level " +
                std::to_string(c.level) + " outside [0, " +
                std::to_string(d.geom.max_level) + "]");
        const std::int64_t nx_at_level =
            static_cast<std::int64_t>(d.geom.coarse_nx) << c.level;
        const std::int64_t ny_at_level =
            static_cast<std::int64_t>(d.geom.coarse_ny) << c.level;
        if (c.i < 0 || c.i >= nx_at_level || c.j < 0 || c.j >= ny_at_level)
            throw std::runtime_error(
                "checkpoint: cell " + std::to_string(k) + " index (" +
                std::to_string(c.i) + ", " + std::to_string(c.j) +
                ") outside the level-" + std::to_string(c.level) +
                " grid " + std::to_string(nx_at_level) + "x" +
                std::to_string(ny_at_level));
    }
    auto read_array = [&](std::vector<double>& out) {
        out.resize(n);
        if (elem == 2) {
            std::vector<std::uint16_t> tmp(n);
            is.read(reinterpret_cast<char*>(tmp.data()),
                    static_cast<std::streamsize>(n * sizeof(std::uint16_t)));
            for (std::size_t k = 0; k < n; ++k)
                out[k] = static_cast<double>(fp::Half::from_bits(tmp[k]));
        } else if (elem == 4) {
            std::vector<float> tmp(n);
            is.read(reinterpret_cast<char*>(tmp.data()),
                    static_cast<std::streamsize>(n * sizeof(float)));
            for (std::size_t k = 0; k < n; ++k)
                out[k] = static_cast<double>(tmp[k]);
        } else {
            is.read(reinterpret_cast<char*>(out.data()),
                    static_cast<std::streamsize>(n * sizeof(double)));
        }
        if (!is) throw std::runtime_error("checkpoint: truncated arrays");
    };
    for (auto* a : {&d.h, &d.hu, &d.hv}) {
        if (version == kCheckpointVersion)
            read_array(*a);
        else
            *a = io::read_compressed_array(is, n);
    }
    return d;
}

template <fp::PrecisionPolicy Policy>
void ShallowWaterSolver<Policy>::restore_checkpoint(const CheckpointData& d) {
    TP_OBS_SPAN("clamr.checkpoint_restore");
    const auto& g = config_.geom;
    if (d.geom.xmin != g.xmin || d.geom.ymin != g.ymin ||
        d.geom.width != g.width || d.geom.height != g.height ||
        d.geom.coarse_nx != g.coarse_nx || d.geom.coarse_ny != g.coarse_ny ||
        d.geom.max_level != g.max_level)
        throw std::invalid_argument(
            "restore_checkpoint: geometry differs from the solver config");
    const std::size_t n = d.cells.size();
    if (d.h.size() != n || d.hu.size() != n || d.hv.size() != n)
        throw std::invalid_argument(
            "restore_checkpoint: state arrays do not match the cell count");
    // Validates tiling / 2:1 balance / Morton-sortability before anything
    // is adopted.
    mesh::AmrMesh restored(g, d.cells);
    // The state arrays are indexed by checkpoint cell order, which the
    // writer emits in Morton order; a reordered cell list would silently
    // bind state to the wrong cells.
    if (!std::equal(restored.cells().begin(), restored.cells().end(),
                    d.cells.begin(),
                    [](const mesh::Cell& a, const mesh::Cell& b) {
                        return a.level == b.level && a.i == b.i && a.j == b.j;
                    }))
        throw std::invalid_argument(
            "restore_checkpoint: cells are not in Morton order");
    mesh_ = std::move(restored);
    h_.resize(n);
    hu_.resize(n);
    hv_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        h_[k] = static_cast<storage_t>(d.h[k]);
        hu_[k] = static_cast<storage_t>(d.hu[k]);
        hv_[k] = static_cast<storage_t>(d.hv[k]);
    }
    rebuild_topology_caches();
    time_ = d.time;
    step_count_ = d.step;
}

template class ShallowWaterSolver<fp::MinimumPrecision>;
template class ShallowWaterSolver<fp::MixedPrecision>;
template class ShallowWaterSolver<fp::FullPrecision>;
template class ShallowWaterSolver<fp::HalfStoragePrecision>;

}  // namespace tp::shallow
