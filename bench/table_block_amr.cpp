// Block-decomposition gate for the distributed solver (DESIGN.md §13):
// the block-decomposed solver (par/dist_blocks.hpp) must reproduce the
// row-stripe solver's gather_height() bit-for-bit across rank count x
// schedule x SIMD for all three paper policies.
//
// The AMR flux sweep's own bitwise gate lives in tests/test_blocks.cpp
// (CellPathDigests: frozen checkpoints for every policy x SIMD shape x
// grid, rezoning throughout).
//
// `--quick` shrinks the grid for CI.

#include <cstdio>
#include <string>
#include <vector>

#include "par/dist_blocks.hpp"
#include "par/dist_shallow.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/threads.hpp"

using namespace tp;

namespace {

template <typename P>
std::vector<double> row_state(int grid, int steps) {
    par::DistConfig cfg;
    cfg.nx = cfg.ny = grid;
    cfg.ranks = 1;
    cfg.overlap = false;
    cfg.simd = simd::Mode::Scalar;
    par::DistributedShallowSolver<P> s(cfg);
    s.initialize_dam_break();
    s.run(steps);
    return s.gather_height();
}

template <typename P>
std::vector<double> block_state(int grid, int steps, int ranks,
                                bool overlap, simd::Mode mode) {
    par::DistConfig cfg;
    cfg.nx = cfg.ny = grid;
    cfg.ranks = ranks;
    cfg.overlap = overlap;
    cfg.simd = mode;
    par::BlockDistributedShallowSolver<P> s(cfg);
    s.initialize_dam_break();
    s.run(steps);
    return s.gather_height();
}

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser args("table_block_amr",
                         "block-decomposed distributed solver: bitwise "
                         "gate vs the row-stripe solver");
    args.add_flag("quick", "CI smoke mode: small grid, few steps");
    if (!args.parse(argc, argv)) return 1;
    const bool quick = args.get_flag("quick");
    util::set_threads(1);

    int failures = 0;

    const int dgrid = quick ? 24 : 48;
    const int dsteps = quick ? 12 : 25;
    util::TextTable t("Bitwise gate: block solver vs row solver across "
                      "rank count x schedule x SIMD (" +
                      std::to_string(dgrid) + "^2, " +
                      std::to_string(dsteps) + " steps)");
    t.set_header({"policy", "combos", "verdict"});
    auto dist_gate = [&]<typename P>(const std::string& label) {
        const auto ref = row_state<P>(dgrid, dsteps);
        int combos = 0, bad = 0;
        for (const int ranks : {1, 3, 9})
            for (const bool overlap : {false, true})
                for (const simd::Mode mode :
                     {simd::Mode::Scalar, simd::Mode::Native}) {
                    ++combos;
                    if (block_state<P>(dgrid, dsteps, ranks, overlap,
                                       mode) != ref)
                        ++bad;
                }
        failures += bad;
        t.add_row({label, std::to_string(combos),
                    bad == 0 ? "IDENTICAL"
                             : std::to_string(bad) + " MISMATCH"});
    };
    dist_gate.template operator()<fp::MinimumPrecision>("minimum");
    dist_gate.template operator()<fp::MixedPrecision>("mixed");
    dist_gate.template operator()<fp::FullPrecision>("full");
    t.print();

    std::printf("\n%s\n",
                failures == 0
                    ? "All block decompositions bit-identical."
                    : "BITWISE MISMATCH in a block decomposition!");
    return failures == 0 ? 0 : 1;
}
