#pragma once
// The Rusanov flux sweep as a width-templated pack kernel (internal to the
// shallow-water solver; tests include it to probe the two instantiations
// directly).
//
// One template body, two instantiations per precision policy:
//
//   W == 1                      the scalar path, driven from a translation
//                               unit compiled with the auto-vectorizer off
//                               (flux_scalar.cpp) so it measures true
//                               scalar issue (Table III's baseline);
//   W == native_lanes<compute>  the vector path, lowered to full-width
//                               SIMD by the pack primitives (solver.cpp).
//
// Because pack operations are per-lane IEEE ops and the kernel TUs are
// compiled with -ffp-contract=off, the two instantiations are bit-identical
// per cell — `--simd` changes instruction shape, never the physics.
//
// The sweep is level-bucketed: cells are binned into maximal same-level
// Morton runs when the neighbor tables are rebuilt, and the vector driver
// walks W-wide blocks that never straddle a run boundary. Within a block
// the center state loads are unit-stride, the neighbor *index* loads are
// unit-stride (slot-major tables), and only the neighbor state goes through
// a gather; run tails use the partial ops, which replicate the last valid
// lane so every lane computes on real, finite data.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "simd/pack.hpp"

namespace tp::shallow::detail {

/// Pointer bundle for one sweep — everything the kernel reads or writes,
/// so the W = 1 and W = native drivers cannot drift apart in what they
/// touch.
template <typename S, typename C>
struct FluxArgs {
    const S* h;
    const S* hu;
    const S* hv;
    C* dh;
    C* dhu;
    C* dhv;
    const std::int32_t* nbr;  // kSlots slot-major tables of length n
    const C* areas;           // matching sub-face areas
    std::size_t n;
    C gravity;
};

/// A maximal run of consecutive same-level cells (Morton order keeps
/// same-level cells contiguous in practice, so runs are long).
struct LevelRun {
    std::int32_t begin;
    std::int32_t end;  // one past the last cell
    std::int32_t level;
};

/// Flux update for the block of `m` cells starting at `c` (1 <= m <= W;
/// the block never crosses a level-run boundary). Every cell evaluates its
/// eight sub-face slots and writes only its own increments — CLAMR's
/// scatter-free, redundant-flux trade.
template <typename S, typename C, int W>
inline void flux_block(const FluxArgs<S, C>& A, std::size_t c, int m) {
    using cpk = simd::pack<C, W>;
    using spk = simd::pack<S, W>;
    const bool full = m == W;

    const cpk g = cpk::broadcast(A.gravity);
    const cpk half = cpk::broadcast(C(0.5));
    const cpk half_g = cpk::broadcast(C(0.5) * A.gravity);
    const cpk one = cpk::broadcast(C(1));
    const cpk hfloor = cpk::broadcast(C(1e-8));

    const auto load_state = [&](const S* p) {
        const spk s = full ? spk::load(p + c) : spk::load_partial(p + c, m);
        return s.template convert<C>();
    };
    const cpk hC = simd::max(load_state(A.h), hfloor);
    const cpk huC = load_state(A.hu);
    const cpk hvC = load_state(A.hv);
    const cpk invC = one / hC;
    cpk ddh = cpk::broadcast(C(0));
    cpk ddhu = cpk::broadcast(C(0));
    cpk ddhv = cpk::broadcast(C(0));

    const auto side = [&]<int SLOT>() {
        constexpr bool xd = SLOT < 4;        // x-directed face
        constexpr bool pos = (SLOT & 2) != 0;  // cell is on the low side
        const std::size_t off = static_cast<std::size_t>(SLOT) * A.n + c;
        const std::int32_t* idx = A.nbr + off;
        const cpk a = full ? cpk::load(A.areas + off)
                           : cpk::load_partial(A.areas + off, m);
        const auto gather_state = [&](const S* p) {
            const spk s = full ? spk::gather(p, idx)
                               : spk::gather_partial(p, idx, m);
            return s.template convert<C>();
        };
        const cpk hN = simd::max(gather_state(A.h), hfloor);
        const cpk huN = gather_state(A.hu);
        const cpk hvN = gather_state(A.hv);
        const cpk invN = one / hN;
        const cpk qnC = xd ? huC : hvC;
        const cpk qtC = xd ? hvC : huC;
        const cpk qnN = xd ? huN : hvN;
        const cpk qtN = xd ? hvN : huN;
        // Orient along +x/+y: L is the lower-coordinate side, so both
        // cells sharing the face evaluate the identical expression and
        // the scheme stays exactly conservative.
        const cpk hL = pos ? hC : hN;
        const cpk hR = pos ? hN : hC;
        const cpk qnL = pos ? qnC : qnN;
        const cpk qnR = pos ? qnN : qnC;
        const cpk qtL = pos ? qtC : qtN;
        const cpk qtR = pos ? qtN : qtC;
        const cpk invL = pos ? invC : invN;
        const cpk invR = pos ? invN : invC;
        const cpk unL = qnL * invL;
        const cpk unR = qnR * invR;
        const cpk utL = qtL * invL;
        const cpk utR = qtR * invR;
        const cpk cL = simd::sqrt(g * hL);
        const cpk cR = simd::sqrt(g * hR);
        const cpk smax =
            simd::max(simd::abs(unL) + cL, simd::abs(unR) + cR);
        const cpk f1 = half * (qnL + qnR) - half * smax * (hR - hL);
        // Momentum flux qn*un + g/2 h^2 via explicit fused multiply-add —
        // the only fusion in the kernel, present identically in every W.
        const cpk pL = simd::fma(half_g * hL, hL, qnL * unL);
        const cpk pR = simd::fma(half_g * hR, hR, qnR * unR);
        const cpk f2 = half * (pL + pR) - half * smax * (qnR - qnL);
        const cpk f3 = half * (qnL * utL + qnR * utR) -
                       half * smax * (qtR - qtL);
        // Outward flux leaves the cell on its positive sides.
        const cpk sa = pos ? a : -a;
        ddh = ddh - sa * f1;
        ddhu = ddhu - sa * (xd ? f2 : f3);
        ddhv = ddhv - sa * (xd ? f3 : f2);
    };
    side.template operator()<0>();
    side.template operator()<1>();
    side.template operator()<2>();
    side.template operator()<3>();
    side.template operator()<4>();
    side.template operator()<5>();
    side.template operator()<6>();
    side.template operator()<7>();
    if (full) {
        ddh.store(A.dh + c);
        ddhu.store(A.dhu + c);
        ddhv.store(A.dhv + c);
    } else {
        ddh.store_partial(A.dh + c, m);
        ddhu.store_partial(A.dhu + c, m);
        ddhv.store_partial(A.dhv + c, m);
    }
}

/// flux_block over an arbitrary cell list: lane l computes cell cells[l].
/// The kernel's arithmetic is purely per-lane, so which cells share a pack
/// is irrelevant to the bits — this exists so the blocked sweep's
/// fallback cells (scattered singletons at tile seams and level
/// interfaces) can ride full-width packs instead of paying a whole
/// masked pack per two-cell run. Same expressions as flux_block, token
/// for token; only the addressing differs (center loads and increment
/// stores go through the list, neighbor indices through one extra
/// per-lane table hop).
template <typename S, typename C, int W>
inline void flux_block_gather(const FluxArgs<S, C>& A,
                              const std::int32_t* cells, int m) {
    using cpk = simd::pack<C, W>;
    using spk = simd::pack<S, W>;
    const bool full = m == W;

    const cpk g = cpk::broadcast(A.gravity);
    const cpk half = cpk::broadcast(C(0.5));
    const cpk half_g = cpk::broadcast(C(0.5) * A.gravity);
    const cpk one = cpk::broadcast(C(1));
    const cpk hfloor = cpk::broadcast(C(1e-8));

    const auto load_state = [&](const S* p) {
        const spk s = full ? spk::gather(p, cells)
                           : spk::gather_partial(p, cells, m);
        return s.template convert<C>();
    };
    const cpk hC = simd::max(load_state(A.h), hfloor);
    const cpk huC = load_state(A.hu);
    const cpk hvC = load_state(A.hv);
    const cpk invC = one / hC;
    cpk ddh = cpk::broadcast(C(0));
    cpk ddhu = cpk::broadcast(C(0));
    cpk ddhv = cpk::broadcast(C(0));

    const auto side = [&]<int SLOT>() {
        constexpr bool xd = SLOT < 4;
        constexpr bool pos = (SLOT & 2) != 0;
        const std::size_t off = static_cast<std::size_t>(SLOT) * A.n;
        // Per-lane slot index and area via the cell list (dead lanes
        // replicate the last valid cell, exactly like gather_partial).
        std::int32_t idx[W];
        for (int l = 0; l < W; ++l)
            idx[l] = A.nbr[off + static_cast<std::size_t>(
                                     cells[l < m ? l : m - 1])];
        const cpk a = full ? cpk::gather(A.areas + off, cells)
                           : cpk::gather_partial(A.areas + off, cells, m);
        const auto gather_state = [&](const S* p) {
            const spk s = spk::gather(p, idx);
            return s.template convert<C>();
        };
        const cpk hN = simd::max(gather_state(A.h), hfloor);
        const cpk huN = gather_state(A.hu);
        const cpk hvN = gather_state(A.hv);
        const cpk invN = one / hN;
        const cpk qnC = xd ? huC : hvC;
        const cpk qtC = xd ? hvC : huC;
        const cpk qnN = xd ? huN : hvN;
        const cpk qtN = xd ? hvN : huN;
        const cpk hL = pos ? hC : hN;
        const cpk hR = pos ? hN : hC;
        const cpk qnL = pos ? qnC : qnN;
        const cpk qnR = pos ? qnN : qnC;
        const cpk qtL = pos ? qtC : qtN;
        const cpk qtR = pos ? qtN : qtC;
        const cpk invL = pos ? invC : invN;
        const cpk invR = pos ? invN : invC;
        const cpk unL = qnL * invL;
        const cpk unR = qnR * invR;
        const cpk utL = qtL * invL;
        const cpk utR = qtR * invR;
        const cpk cL = simd::sqrt(g * hL);
        const cpk cR = simd::sqrt(g * hR);
        const cpk smax =
            simd::max(simd::abs(unL) + cL, simd::abs(unR) + cR);
        const cpk f1 = half * (qnL + qnR) - half * smax * (hR - hL);
        const cpk pL = simd::fma(half_g * hL, hL, qnL * unL);
        const cpk pR = simd::fma(half_g * hR, hR, qnR * unR);
        const cpk f2 = half * (pL + pR) - half * smax * (qnR - qnL);
        const cpk f3 = half * (qnL * utL + qnR * utR) -
                       half * smax * (qtR - qtL);
        const cpk sa = pos ? a : -a;
        ddh = ddh - sa * f1;
        ddhu = ddhu - sa * (xd ? f2 : f3);
        ddhv = ddhv - sa * (xd ? f3 : f2);
    };
    side.template operator()<0>();
    side.template operator()<1>();
    side.template operator()<2>();
    side.template operator()<3>();
    side.template operator()<4>();
    side.template operator()<5>();
    side.template operator()<6>();
    side.template operator()<7>();
    for (int l = 0; l < m; ++l) {
        const auto cell = static_cast<std::size_t>(cells[l]);
        A.dh[cell] = ddh[l];
        A.dhu[cell] = ddhu[l];
        A.dhv[cell] = ddhv[l];
    }
}

// --------------------------------------------------------------------------
// Blocked AMR tile sweep — the unit-stride re-expression of the cell sweep
// above (DESIGN.md §13). mesh::BlockIndex aggregates same-level leaves
// into Morton-aligned 8x8 tiles with a one-cell ghost ring and a padded
// per-position source map; the sweep gathers storage state through the
// map into dense tiles, runs a per-position PRECOMPUTE pass (one divide +
// one sqrt per position, the same trade as the distributed row kernels
// below), then a fused four-face update whose every expression
// transliterates flux_block's slot arithmetic token for token, faces
// accumulated in slot order W, E, S, N.
//
// Bitwise contract with the cell path, per regular cell (all four
// neighbors in-domain and same-or-coarser level): the cell path evaluates
// exactly one slot per side with the full face width as area, L/R resolve
// to the tile's west/east/south/north positions, and skipping the
// zero-area slots is exact — the accumulators start at +0, a zero area
// times any finite flux is ±0, and +0 - (±0) is +0, so the empty slots
// never change a bit. The precomputed quantities reproduce the same bits
// the cell path computes freshly on each side of each face (max -> if
// identical per lane; |u| via ternary differs from simd::abs only at -0,
// which + c > 0 erases; the pressure fma is std::fma, the same correctly
// rounded operation as simd::fma). Irregular cells are computed by
// flux_block over fallback runs. W is again only a symbol tag: W == 1
// lives in the no-autovec TU (flux_scalar.cpp), W == native in the
// -ffp-contract=off solver TU where the annotated loops vectorize.

inline constexpr int kTileSize = 8;  // == mesh::kBlockSize; solver.cpp
inline constexpr int kTilePad = kTileSize + 2;  // static_asserts the match
inline constexpr int kTileCells = kTileSize * kTileSize;
inline constexpr int kTilePadCells = kTilePad * kTilePad;

/// One sweepable tile: a mesh block's source map plus its level's full
/// face widths (regular cells never see a fine sub-face, so the area is a
/// per-tile broadcast instead of a per-slot table).
template <typename C>
struct TileBlock {
    const std::int32_t* src;  ///< kTilePadCells gather map; -1 unread
    std::uint64_t regular;    ///< members the dense sweep computes
    C wx;                     ///< x-face area = cell_dy(level)
    C wy;                     ///< y-face area = cell_dx(level)
};

template <typename S, typename C>
struct TileSweepArgs {
    const S* h;
    const S* hu;
    const S* hv;
    C* dh;
    C* dhu;
    C* dhv;
    const TileBlock<C>* blocks;
    std::size_t nblocks;
    C gravity;
};

/// Gather, precompute, and sweep one tile; scatter increments for the
/// regular members only (irregular members are someone else's fallback
/// run). ~11 KB of stack scratch per call — no heap, no sharing.
template <typename S, typename C, int W>
inline void tile_block(const TileSweepArgs<S, C>& A, const TileBlock<C>& B) {
    const C g = A.gravity;
    const C half = C(0.5);
    const C half_g = C(0.5) * A.gravity;
    const C one = C(1);
    const C hfloor = C(1e-8);

    // Gather storage state through the source map. Unmapped positions
    // (-1: off-domain, or read by no regular member) get a benign finite
    // fill no regular cell ever reads.
    S th[kTilePadCells];
    S thu[kTilePadCells];
    S thv[kTilePadCells];
    for (int p = 0; p < kTilePadCells; ++p) {
        const std::int32_t s = B.src[p];
        if (s >= 0) {
            th[p] = A.h[s];
            thu[p] = A.hu[s];
            thv[p] = A.hv[s];
        } else {
            th[p] = static_cast<S>(1.0);
            thu[p] = static_cast<S>(0.0);
            thv[p] = static_cast<S>(0.0);
        }
    }

    // Per-position face quantities, evaluated once instead of freshly on
    // both sides of every face (each recomputation reproduces the same
    // bits, so this removes work, not rounding steps).
    C hf[kTilePadCells];  // floored height
    C qx[kTilePadCells];  // hu at compute precision
    C qy[kTilePadCells];  // hv at compute precision
    C sx[kTilePadCells];  // |u| + c
    C sy[kTilePadCells];  // |v| + c
    C px[kTilePadCells];  // x pressure flux  fma(g/2 h, h, hu u)
    C py[kTilePadCells];  // y pressure flux  fma(g/2 h, h, hv v)
    C mx[kTilePadCells];  // hu v (x-face transverse momentum)
    C my[kTilePadCells];  // hv u (y-face transverse momentum)
#pragma omp simd
    for (int p = 0; p < kTilePadCells; ++p) {
        const C h = static_cast<C>(th[p]);
        const C hc = h > hfloor ? h : hfloor;
        const C inv = one / hc;
        const C hu = static_cast<C>(thu[p]);
        const C hv = static_cast<C>(thv[p]);
        const C u = hu * inv;
        const C v = hv * inv;
        const C c = std::sqrt(g * hc);
        const C au = u < C(0) ? -u : u;
        const C av = v < C(0) ? -v : v;
        hf[p] = hc;
        qx[p] = hu;
        qy[p] = hv;
        sx[p] = au + c;
        sy[p] = av + c;
        px[p] = std::fma(half_g * hc, hc, hu * u);
        py[p] = std::fma(half_g * hc, hc, hv * v);
        mx[p] = hu * v;
        my[p] = hv * u;
    }

    C odh[kTileCells];
    C odhu[kTileCells];
    C odhv[kTileCells];
    for (int jj = 0; jj < kTileSize; ++jj) {
        const int r = (jj + 1) * kTilePad + 1;
        const int o = jj * kTileSize;
#pragma omp simd
        for (int ii = 0; ii < kTileSize; ++ii) {
            const int p = r + ii;
            C ddh = C(0);
            C ddhu = C(0);
            C ddhv = C(0);
            {  // west face (slot 0): L = p-1, R = p, outward area -wx
                const C s = sx[p - 1] > sx[p] ? sx[p - 1] : sx[p];
                const C f1 = half * (qx[p - 1] + qx[p]) -
                             half * s * (hf[p] - hf[p - 1]);
                const C f2 = half * (px[p - 1] + px[p]) -
                             half * s * (qx[p] - qx[p - 1]);
                const C f3 = half * (mx[p - 1] + mx[p]) -
                             half * s * (qy[p] - qy[p - 1]);
                const C sa = -B.wx;
                ddh = ddh - sa * f1;
                ddhu = ddhu - sa * f2;
                ddhv = ddhv - sa * f3;
            }
            {  // east face (slot 2): L = p, R = p+1, outward area +wx
                const C s = sx[p] > sx[p + 1] ? sx[p] : sx[p + 1];
                const C f1 = half * (qx[p] + qx[p + 1]) -
                             half * s * (hf[p + 1] - hf[p]);
                const C f2 = half * (px[p] + px[p + 1]) -
                             half * s * (qx[p + 1] - qx[p]);
                const C f3 = half * (mx[p] + mx[p + 1]) -
                             half * s * (qy[p + 1] - qy[p]);
                const C sa = B.wx;
                ddh = ddh - sa * f1;
                ddhu = ddhu - sa * f2;
                ddhv = ddhv - sa * f3;
            }
            {  // south face (slot 4): L = p-pad, R = p, outward area -wy
                const int q = p - kTilePad;
                const C s = sy[q] > sy[p] ? sy[q] : sy[p];
                const C f1 =
                    half * (qy[q] + qy[p]) - half * s * (hf[p] - hf[q]);
                const C f2 =
                    half * (py[q] + py[p]) - half * s * (qy[p] - qy[q]);
                const C f3 =
                    half * (my[q] + my[p]) - half * s * (qx[p] - qx[q]);
                const C sa = -B.wy;
                ddh = ddh - sa * f1;
                ddhu = ddhu - sa * f3;  // y faces swap the momentum rows
                ddhv = ddhv - sa * f2;
            }
            {  // north face (slot 6): L = p, R = p+pad, outward area +wy
                const int q = p + kTilePad;
                const C s = sy[p] > sy[q] ? sy[p] : sy[q];
                const C f1 =
                    half * (qy[p] + qy[q]) - half * s * (hf[q] - hf[p]);
                const C f2 =
                    half * (py[p] + py[q]) - half * s * (qy[q] - qy[p]);
                const C f3 =
                    half * (my[p] + my[q]) - half * s * (qx[q] - qx[p]);
                const C sa = B.wy;
                ddh = ddh - sa * f1;
                ddhu = ddhu - sa * f3;
                ddhv = ddhv - sa * f2;
            }
            odh[o + ii] = ddh;
            odhu[o + ii] = ddhu;
            odhv[o + ii] = ddhv;
        }
    }

    std::uint64_t m = B.regular;
    while (m != 0) {
        const int k = std::countr_zero(m);
        m &= m - 1;
        const int p = (k / kTileSize + 1) * kTilePad + (k % kTileSize) + 1;
        const std::int32_t cell = B.src[p];
        A.dh[cell] = odh[k];
        A.dhu[cell] = odhu[k];
        A.dhv[cell] = odhv[k];
    }
}

// --------------------------------------------------------------------------
// Uniform-grid row sweep — the distributed solver's kernel
// (par/dist_shallow.*). Unlike the AMR sweep above (whose gathers force
// the explicit pack form), the distributed rows are pure unit-stride, so
// the kernels are written as flat `#pragma omp simd` loops of scalar IEEE
// expressions. The two instruction shapes come from the translation unit,
// not the source: the W == 1 instantiation lives in the no-autovec TU
// (flux_scalar.cpp) and stays genuinely scalar, the W == native_lanes<C>
// instantiation lives in the -ffp-contract=off solver TU where the
// vectorizer lowers the annotated loop to full-width SIMD. (The width
// parameter exists to keep the two instantiations distinct symbols — an
// unparameterized inline function would be merged by the linker and one
// TU's codegen would silently win.) Every operation is an individually
// rounded IEEE op in either shape and contraction is off in both TUs, so
// scalar and native are bit-identical per cell — same contract as the
// pack kernels, enforced by tests/bench gates.
//
// Rows carry one mirror ghost column per side (h copied, hu negated, hv
// copied), so every access in the sweep is unit-stride: the center row
// shifts by ±1 for the x faces and the south/north rows align at the same
// column for the y faces. No gathers, no per-cell branching — the stride
// regularity the ROADMAP wants for the later per-block AMR path.
//
// The step is split into a per-cell PRECOMPUTE pass and a fused
// FLUX + APPLY pass. The historic per-cell lambda evaluated 1/h, u, v and
// sqrt(g h) freshly on both sides of all four faces — eight divides and
// eight square roots per cell per step, plus nine more in the separate dt
// scan. Every one of those recomputations produces the same bits as the
// cell's own values, so the precompute pass evaluates them once per cell
// (one divide, one square root) and the update pass just reloads them:
//
//   hf = max(h, 1e-8)        inv = 1/hf      u = hu*inv     v = hv*inv
//   c  = sqrt(g*hf)          sx = |u| + c    sy = |v| + c
//   p  = (g/2 * hf) * hf     (the pressure term of the momentum flux)
//
// Expressions match the historic lambda token for token, so the
// refactor is bitwise invisible — it removes redundant work, not
// rounding steps.
//
// sx/sy double as the CFL quantities: the historic dt pass scanned the
// grid for max(|u| + c, |v| + c) == max(sx, sy), so the precompute pass
// folds that row maximum as it stores and the separate full-grid dt scan
// is redundant — bit-for-bit, because a max reduction performs no
// rounding and is therefore order-free. (Mirror ghost columns replicate
// an owned cell's h and |momenta|, so folding the full padded row equals
// folding the owned cells.) Having dt before any flux work is what lets
// the flux and apply passes fuse: the update row consumes the precomputed
// quantities, applies the increments in registers, and writes the NEXT
// state buffers directly — the historic six full-field increment arrays
// (and the separate apply sweep over them) are gone. Because the old
// state is never written mid-step, the fusion cannot reorder any read:
// every stencil load still sees exactly the old values, and the update
// expressions transliterate the historic apply (a compute_t store +
// reload of the increments was a bitwise identity anyway).

/// Per-cell precomputed face quantities for one padded row (see above).
/// Pointers are positioned at column 0; n covers the full padded width.
template <typename S, typename C>
struct RowPreArgs {
    const S* h;
    const S* hu;
    const S* hv;
    C* hf;
    C* u;
    C* v;
    C* sx;
    C* sy;
    C* p;
    int n;  // padded columns to process (nx + 2)
    C gravity;
};

/// Precompute one padded row; returns the row's max(sx, sy) — the CFL
/// quantity the solver folds into this step's dt before any flux work.
template <typename S, typename C, int W>
inline C dist_pre_row(const RowPreArgs<S, C>& A) {
    static_assert(W >= 1, "width tag must be positive");
    const C g = A.gravity;
    const C half_g = C(0.5) * A.gravity;
    const C hfloor = C(1e-8);
    C ws = C(0);
#pragma omp simd reduction(max : ws)
    for (int i = 0; i < A.n; ++i) {
        const C h = static_cast<C>(A.h[i]);
        // Ternary forms mirror simd::max / simd::abs exactly.
        const C hf = h > hfloor ? h : hfloor;
        const C inv = C(1) / hf;
        const C u = static_cast<C>(A.hu[i]) * inv;
        const C v = static_cast<C>(A.hv[i]) * inv;
        const C c = std::sqrt(g * hf);
        const C sx = (u < C(0) ? -u : u) + c;
        const C sy = (v < C(0) ? -v : v) + c;
        A.hf[i] = hf;
        A.u[i] = u;
        A.v[i] = v;
        A.sx[i] = sx;
        A.sy[i] = sy;
        A.p[i] = (half_g * hf) * hf;
        const C s = sx > sy ? sx : sy;
        ws = s > ws ? s : ws;
    }
    return ws;
}

/// One row of the fused distributed update. All pointers are positioned
/// at column 0 (the west ghost column); cells i in [1, nx] are updated.
/// S/C/N are the south (j-1), center (j) and north (j+1) OLD rows; raw
/// momenta come from the old state, everything else from the precompute.
/// h2/hu2/hv2 are the NEXT state buffers (never aliasing the old rows).
template <typename S, typename C>
struct RowUpdateArgs {
    const S* hC;  // old center height, for the conservative update
    const S* huS;
    const S* hvS;
    const S* huC;
    const S* hvC;
    const S* huN;
    const S* hvN;
    const C* hfS;
    const C* uS;
    const C* vS;
    const C* syS;
    const C* pS;
    const C* hfC;
    const C* uC;
    const C* vC;
    const C* sxC;
    const C* syC;
    const C* pC;
    const C* hfN;
    const C* uN;
    const C* vN;
    const C* syN;
    const C* pN;
    S* h2;  // next-state row, same indexing
    S* hu2;
    S* hv2;
    int nx;  // interior cells in the row
    C dtdx;  // dt / dx and dt / dy, already in compute precision
    C dtdy;
};

/// Whole-row fused flux + apply sweep. Per oriented face,
///   smax = max(sL, sR),   f = ½(qL + qR) − ½ smax (R − L),
/// with the same expression order as the historic per-cell lambda (the
/// precomputed quantities substitute bitwise); L is always the
/// lower-coordinate side, so both cells sharing a face evaluate the
/// identical expression and the scheme stays exactly conservative.
/// Separate x / y increments — the two directions carry different metric
/// factors dt/dx vs dt/dy — which feed the conservative update in
/// registers and write the next-state row directly.
template <typename S, typename C, int W>
inline void dist_update_row(const RowUpdateArgs<S, C>& A) {
    static_assert(W >= 1, "width tag must be positive");
    const C half = C(0.5);
    const C hfloor = C(1e-8);
    const C dtdx = A.dtdx;
    const C dtdy = A.dtdy;
#pragma omp simd
    for (int i = 1; i <= A.nx; ++i) {
        const C huC = static_cast<C>(A.huC[i]);
        const C hvC = static_cast<C>(A.hvC[i]);
        const C hfC = A.hfC[i], uC = A.uC[i], vC = A.vC[i];
        const C sxC = A.sxC[i], syC = A.syC[i], pC = A.pC[i];
        // West face (normal +x; index i-1 picks up the mirror ghost at
        // i == 1). qn = hu, un = u, ut = v, qt = hv.
        const C huW = static_cast<C>(A.huC[i - 1]);
        const C hvW = static_cast<C>(A.hvC[i - 1]);
        const C sW = A.sxC[i - 1] > sxC ? A.sxC[i - 1] : sxC;
        const C fW0 = half * (huW + huC) - half * sW * (hfC - A.hfC[i - 1]);
        const C fW1 = half * (huW * A.uC[i - 1] + A.pC[i - 1] + huC * uC +
                              pC) -
                      half * sW * (huC - huW);
        const C fW2 = half * (huW * A.vC[i - 1] + huC * vC) -
                      half * sW * (hvC - hvW);
        // East face.
        const C huE = static_cast<C>(A.huC[i + 1]);
        const C hvE = static_cast<C>(A.hvC[i + 1]);
        const C sE = sxC > A.sxC[i + 1] ? sxC : A.sxC[i + 1];
        const C fE0 = half * (huC + huE) - half * sE * (A.hfC[i + 1] - hfC);
        const C fE1 = half * (huC * uC + pC + huE * A.uC[i + 1] +
                              A.pC[i + 1]) -
                      half * sE * (huE - huC);
        const C fE2 = half * (huC * vC + huE * A.vC[i + 1]) -
                      half * sE * (hvE - hvC);
        // South face (normal +y; normal/tangential momenta swap roles:
        // qn = hv, un = v, ut = u, qt = hu).
        const C huS = static_cast<C>(A.huS[i]);
        const C hvS = static_cast<C>(A.hvS[i]);
        const C sS = A.syS[i] > syC ? A.syS[i] : syC;
        const C fS0 = half * (hvS + hvC) - half * sS * (hfC - A.hfS[i]);
        const C fS1 = half * (hvS * A.vS[i] + A.pS[i] + hvC * vC + pC) -
                      half * sS * (hvC - hvS);
        const C fS2 = half * (hvS * A.uS[i] + hvC * uC) -
                      half * sS * (huC - huS);
        // North face.
        const C huN = static_cast<C>(A.huN[i]);
        const C hvN = static_cast<C>(A.hvN[i]);
        const C sN = syC > A.syN[i] ? syC : A.syN[i];
        const C fN0 = half * (hvC + hvN) - half * sN * (A.hfN[i] - hfC);
        const C fN1 = half * (hvC * vC + pC + hvN * A.vN[i] + A.pN[i]) -
                      half * sN * (hvN - hvC);
        const C fN2 = half * (hvC * uC + hvN * A.uN[i]) -
                      half * sN * (huN - huC);
        // Conservative update, increments in registers. Transliterates
        // the historic apply: old + dt/dx * (x increment) + dt/dy * (y
        // increment), left-associated, height floored before the storage
        // round. (The y faces' f1 is the hv flux and f2 the hu flux —
        // normal and tangential momenta swap roles.)
        const C hOld = static_cast<C>(A.hC[i]);
        const C hNew = hOld + dtdx * (fW0 - fE0) + dtdy * (fS0 - fN0);
        A.h2[i] = static_cast<S>(hNew < hfloor ? hfloor : hNew);
        A.hu2[i] = static_cast<S>(huC + dtdx * (fW1 - fE1) +
                                  dtdy * (fS2 - fN2));
        A.hv2[i] = static_cast<S>(hvC + dtdx * (fW2 - fE2) +
                                  dtdy * (fS1 - fN1));
    }
}

/// The W == 1 sweeps, defined in flux_scalar.cpp (the no-autovec TU) so
/// `--simd=scalar` measures true one-lane issue in the distributed
/// solver exactly as it does in the AMR one.
template <typename S, typename C>
C dist_pre_row_scalar(const RowPreArgs<S, C>& A);
template <typename S, typename C>
void dist_update_row_scalar(const RowUpdateArgs<S, C>& A);

extern template float dist_pre_row_scalar<float, float>(
    const RowPreArgs<float, float>&);
extern template double dist_pre_row_scalar<float, double>(
    const RowPreArgs<float, double>&);
extern template double dist_pre_row_scalar<double, double>(
    const RowPreArgs<double, double>&);
extern template void dist_update_row_scalar<float, float>(
    const RowUpdateArgs<float, float>&);
extern template void dist_update_row_scalar<float, double>(
    const RowUpdateArgs<float, double>&);
extern template void dist_update_row_scalar<double, double>(
    const RowUpdateArgs<double, double>&);

}  // namespace tp::shallow::detail
