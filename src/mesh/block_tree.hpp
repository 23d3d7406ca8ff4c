#pragma once
// Block-structured view of the Morton-sorted AMR leaf array (DESIGN.md
// §13) — the AthenaK MeshBlockTree idea adapted to this codebase's
// cell-based mesh.
//
// Leaves are aggregated into fixed-size per-level tiles: a block is the
// set of leaves at one refinement level inside one Morton-aligned
// kBlockSize x kBlockSize quadrant of that level's index space. Because
// an aligned power-of-two square is exactly one contiguous Morton range,
// every block's members are a contiguous slice of the sorted leaf list
// (interleaved only with other levels' leaves).
//
// Each block carries a padded (kBlockPad x kBlockPad) *source map* over
// the tile plus its one-cell ghost ring. It holds exactly what the dense
// tile sweep reads: every member's own leaf index, and for each regular
// member the leaves covering its four face neighbors. Every other
// position is -1 — the tile gather fills those with a benign value that
// no regular cell reads. Gathering state through the map turns the
// irregular Morton walk into dense unit-stride tiles — what lets the
// flux sweep run the fused SIMD bodies block-by-block on an adaptive
// mesh (shallow/flux_kernel.hpp's tile kernels).
//
// The index is rebuilt after every topology refresh in one linear pass
// over the leaves that reads each member's sides from the solver's slot
// tables (which are themselves maintained incrementally), so it needs no
// mesh searches and no remap bookkeeping of its own. The structure is
// geometry/topology only — state stays in the solver, which owns the
// per-policy gather/scatter.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mesh/amr_mesh.hpp"

namespace tp::mesh {

/// Leaves per block side; a block is one Morton-aligned 8x8 quadrant of
/// one level's index space, so its member mask fits a 64-bit word.
inline constexpr std::int32_t kBlockSize = 8;
inline constexpr std::int32_t kBlockPad = kBlockSize + 2;  ///< + ghost ring
inline constexpr std::int32_t kBlockCells = kBlockSize * kBlockSize;
inline constexpr std::int32_t kBlockPadCells = kBlockPad * kBlockPad;

/// Interior position (ii, jj) in [0, kBlockSize)^2 <-> mask bit.
[[nodiscard]] constexpr int block_bit(int ii, int jj) {
    return jj * kBlockSize + ii;
}
/// Interior position -> index into the padded source map.
[[nodiscard]] constexpr int block_padded(int ii, int jj) {
    return (jj + 1) * kBlockPad + (ii + 1);
}

struct MeshBlock {
    std::int32_t level = 0;
    std::int32_t bi = 0;  ///< tile coordinate, level-`level` cell i >> 3
    std::int32_t bj = 0;
    /// Offset of this block's padded source map in the index's source
    /// table (a multiple of kBlockPadCells; map order is row-major over
    /// the padded tile, ghost ring included).
    std::int32_t src_begin = 0;
    std::int32_t members = 0;  ///< popcount(member_mask)
    /// Bit block_bit(ii, jj) set iff the tile position holds a leaf at
    /// exactly this block's level (partially refined tiles have holes).
    std::uint64_t member_mask = 0;
    /// Subset of member_mask: members whose four side neighbors are all
    /// inside the domain and covered by same-or-coarser leaves — the
    /// cells the dense tile sweep may compute; the rest take the
    /// per-cell slot-table path.
    std::uint64_t regular_mask = 0;
};

class BlockIndex {
public:
    /// Rebuild the whole index in one pass over the Morton-sorted leaves
    /// of `mesh`. `nbr_idx`/`nbr_area` are the solver's slot-major
    /// neighbor tables (8 planes of num_cells entries); only the first
    /// slot of each side is read — plane 0 west, 2 east, 4 south,
    /// 6 north — whose area is 0 on a domain wall. Blocks come out in
    /// the order of their first member leaf. Reuses capacity: a rebuild
    /// that fits the previous high-water mark allocates nothing.
    template <typename Area>
    void rebuild(const AmrMesh& mesh, std::span<const std::int32_t> nbr_idx,
                 std::span<const Area> nbr_area);

    [[nodiscard]] const std::vector<MeshBlock>& blocks() const {
        return blocks_;
    }
    [[nodiscard]] std::span<const std::int32_t> src(
        const MeshBlock& b) const {
        return {src_.data() + static_cast<std::size_t>(b.src_begin),
                static_cast<std::size_t>(kBlockPadCells)};
    }

    struct Stats {
        std::uint64_t rebuilds = 0;        ///< rebuild() calls
        std::uint64_t blocks_rebuilt = 0;  ///< blocks built, summed
        /// Always 0: every refresh rebuilds the whole index (the old
        /// incremental translate was never cheaper). Kept so benchmark
        /// reports that print the counter stay comparable.
        std::uint64_t blocks_translated = 0;
    };
    [[nodiscard]] const Stats& stats() const { return stats_; }

    /// Check the index against an oracle derived from the mesh alone
    /// (leaf and covering-leaf lookups, never the slot tables): every
    /// leaf is a member of exactly one block — its (level, i>>3, j>>3)
    /// tile — the member and regular masks are exact, and each source
    /// map holds the members' own leaves, the covering leaves of the
    /// regular members' four face neighbors, and -1 everywhere else.
    /// Test hook; allocates, so never on a hot path.
    [[nodiscard]] bool consistent_with(const AmrMesh& mesh,
                                       std::string* why = nullptr) const;

private:
    std::vector<MeshBlock> blocks_;
    std::vector<std::int32_t> src_;
    std::vector<std::int32_t> open_;  ///< per level: block being filled
    Stats stats_;
};

extern template void BlockIndex::rebuild<float>(
    const AmrMesh&, std::span<const std::int32_t>, std::span<const float>);
extern template void BlockIndex::rebuild<double>(
    const AmrMesh&, std::span<const std::int32_t>, std::span<const double>);

}  // namespace tp::mesh
