#include "mesh/block_tree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <tuple>

namespace tp::mesh {

namespace {

/// A tile position's four face neighbors in slot side order (west, east,
/// south, north): index-space steps and source-map offsets.
constexpr std::array<int, 4> kSideDi = {-1, +1, 0, 0};
constexpr std::array<int, 4> kSideDj = {0, 0, -1, +1};
constexpr std::array<int, 4> kSideOffset = {-1, +1, -kBlockPad, +kBlockPad};

}  // namespace

template <typename Area>
void BlockIndex::rebuild(const AmrMesh& mesh,
                         std::span<const std::int32_t> nbr_idx,
                         std::span<const Area> nbr_area) {
    const auto& cells = mesh.cells();
    const std::size_t n = cells.size();
    ++stats_.rebuilds;
    blocks_.clear();
    src_.clear();
    open_.assign(static_cast<std::size_t>(mesh.geometry().max_level) + 1, -1);
    for (std::size_t c = 0; c < n; ++c) {
        const Cell& cell = cells[c];
        const std::int32_t bi = cell.i / kBlockSize;
        const std::int32_t bj = cell.j / kBlockSize;
        // A tile is one contiguous Morton range, so a leaf outside its
        // level's open tile starts that level's next tile.
        std::int32_t& open = open_[static_cast<std::size_t>(cell.level)];
        if (open < 0 || blocks_[static_cast<std::size_t>(open)].bi != bi ||
            blocks_[static_cast<std::size_t>(open)].bj != bj) {
            open = static_cast<std::int32_t>(blocks_.size());
            MeshBlock b;
            b.level = cell.level;
            b.bi = bi;
            b.bj = bj;
            b.src_begin = static_cast<std::int32_t>(src_.size());
            blocks_.push_back(b);
            src_.resize(src_.size() + kBlockPadCells, -1);
        }
        MeshBlock& b = blocks_[static_cast<std::size_t>(open)];
        const int ii = cell.i - bi * kBlockSize;
        const int jj = cell.j - bj * kBlockSize;
        const int p = block_padded(ii, jj);
        std::int32_t* src = src_.data() + b.src_begin;
        src[p] = static_cast<std::int32_t>(c);
        const std::uint64_t bit = 1ull << block_bit(ii, jj);
        b.member_mask |= bit;
        ++b.members;

        // Regular iff every side has one same-or-coarser neighbor: a wall
        // side has zero area, a finer side puts a finer leaf in slot 0.
        // Sides are slot planes 0, 2, 4, 6, in kSideOffset order.
        std::array<std::int32_t, 4> side;
        bool regular = true;
        for (std::size_t s = 0; s < 4 && regular; ++s) {
            const std::size_t e = 2 * s * n + c;
            side[s] = nbr_idx[e];
            regular = nbr_area[e] != Area(0) &&
                      cells[static_cast<std::size_t>(side[s])].level <=
                          cell.level;
        }
        if (!regular) continue;
        b.regular_mask |= bit;
        for (std::size_t s = 0; s < 4; ++s) src[p + kSideOffset[s]] = side[s];
    }
    stats_.blocks_rebuilt += blocks_.size();
}

template void BlockIndex::rebuild<float>(const AmrMesh&,
                                         std::span<const std::int32_t>,
                                         std::span<const float>);
template void BlockIndex::rebuild<double>(const AmrMesh&,
                                          std::span<const std::int32_t>,
                                          std::span<const double>);

bool BlockIndex::consistent_with(const AmrMesh& mesh,
                                 std::string* why) const {
    auto fail = [&](std::string m) {
        if (why) *why = std::move(m);
        return false;
    };
    const MeshGeometry& g = mesh.geometry();
    const auto& cells = mesh.cells();
    std::vector<std::tuple<std::int32_t, std::int32_t, std::int32_t>> tiles;
    std::vector<std::int32_t> begins;
    std::array<std::int32_t, kBlockPadCells> expect;
    std::size_t members = 0;
    for (std::size_t k = 0; k < blocks_.size(); ++k) {
        const MeshBlock& b = blocks_[k];
        const std::string at = "block " + std::to_string(k) + " (level " +
                               std::to_string(b.level) + ", tile " +
                               std::to_string(b.bi) + "," +
                               std::to_string(b.bj) + "): ";
        if (b.src_begin < 0 || b.src_begin % kBlockPadCells != 0 ||
            static_cast<std::size_t>(b.src_begin) + kBlockPadCells >
                src_.size())
            return fail(at + "source map out of range");
        tiles.emplace_back(b.level, b.bi, b.bj);
        begins.push_back(b.src_begin);

        const std::int32_t nx = g.coarse_nx << b.level;
        const std::int32_t ny = g.coarse_ny << b.level;
        std::uint64_t member = 0;
        std::uint64_t regular = 0;
        expect.fill(-1);
        for (int jj = 0; jj < kBlockSize; ++jj) {
            for (int ii = 0; ii < kBlockSize; ++ii) {
                const std::int32_t i = b.bi * kBlockSize + ii;
                const std::int32_t j = b.bj * kBlockSize + jj;
                if (i >= nx || j >= ny) continue;
                const std::int32_t leaf = mesh.leaf_index(b.level, i, j);
                if (leaf < 0) continue;
                const std::uint64_t bit = 1ull << block_bit(ii, jj);
                const int p = block_padded(ii, jj);
                member |= bit;
                expect[static_cast<std::size_t>(p)] = leaf;
                std::array<std::int32_t, 4> cover;
                bool reg = true;
                for (std::size_t s = 0; s < 4 && reg; ++s) {
                    const std::int32_t ni = i + kSideDi[s];
                    const std::int32_t nj = j + kSideDj[s];
                    reg = ni >= 0 && ni < nx && nj >= 0 && nj < ny;
                    if (!reg) break;
                    cover[s] = mesh.covering_leaf(b.level, ni, nj);
                    reg = cells[static_cast<std::size_t>(cover[s])].level <=
                          b.level;
                }
                if (!reg) continue;
                regular |= bit;
                for (std::size_t s = 0; s < 4; ++s)
                    expect[static_cast<std::size_t>(p + kSideOffset[s])] =
                        cover[s];
            }
        }
        if (member == 0) return fail(at + "no member leaves");
        if (b.member_mask != member) return fail(at + "member_mask mismatch");
        if (b.members != std::popcount(member))
            return fail(at + "member count mismatch");
        if (b.regular_mask != regular)
            return fail(at + "regular_mask mismatch");
        const auto s = src(b);
        for (std::size_t p = 0; p < expect.size(); ++p)
            if (s[p] != expect[p])
                return fail(at + "source map position " + std::to_string(p) +
                            " holds " + std::to_string(s[p]) +
                            ", expected " + std::to_string(expect[p]));
        members += static_cast<std::size_t>(b.members);
    }
    std::sort(tiles.begin(), tiles.end());
    if (std::adjacent_find(tiles.begin(), tiles.end()) != tiles.end())
        return fail("a tile appears in two blocks");
    std::sort(begins.begin(), begins.end());
    if (std::adjacent_find(begins.begin(), begins.end()) != begins.end())
        return fail("two blocks share a source map");
    if (members != mesh.num_cells())
        return fail("blocks hold " + std::to_string(members) +
                    " members, mesh has " +
                    std::to_string(mesh.num_cells()) + " leaves");
    return true;
}

}  // namespace tp::mesh
