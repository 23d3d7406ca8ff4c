// Strong-scaling study of the threaded CLAMR-analogue hot path: the same
// dam break at 1, 2, ... N threads for each precision mode, reporting
// finite_diff time, speedup, and parallel efficiency — and checking that
// the physics is bit-identical at every team size (the determinism
// contract of compute_dt's OpenMP min reduction, exact at any team size,
// and of the exact mass sum in sum/parallel.hpp).
//
// On a single-core host every team size shares one core, so expect
// efficiency ~1/threads there; the bitwise-identity column is the part
// that must hold everywhere.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/threads.hpp"

using namespace tp;

namespace {

struct Sample {
    double finite_diff_seconds = 0.0;
    double mass = 0.0;
    std::vector<double> dts;
};

template <typename P>
Sample run_one(int n, int levels, int steps, int threads) {
    util::set_threads(threads);
    shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, n, n, levels};
    shallow::ShallowWaterSolver<P> s(cfg);
    s.initialize_dam_break({});
    Sample out;
    out.dts.reserve(static_cast<std::size_t>(steps));
    for (int k = 0; k < steps; ++k) out.dts.push_back(s.step());
    out.finite_diff_seconds = s.timers().total("finite_diff");
    out.mass = s.total_mass();
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser args("table_threads_scaling",
                         "CLAMR finite_diff strong scaling per precision");
    args.add_option("grid", "coarse cells per side", "128");
    args.add_option("levels", "max AMR refinement levels", "2");
    args.add_option("steps", "time steps per run", "60");
    args.add_option("max-threads",
                    "largest team size (0 = hardware threads)", "0");
    if (!args.parse(argc, argv)) return 1;

    const int n = args.get_int("grid");
    const int levels = args.get_int("levels");
    const int steps = args.get_int("steps");
    int tmax = args.get_int("max-threads");
    if (tmax <= 0) tmax = util::hardware_threads();

    bench::print_scale_note(
        "CLAMR dam break, " + std::to_string(n) + "x" + std::to_string(n) +
        " coarse cells, " + std::to_string(levels) + " AMR levels, " +
        std::to_string(steps) + " steps per (mode, threads) cell; OpenMP " +
        (util::openmp_enabled() ? "enabled" : "DISABLED (serial build)"));

    std::vector<int> teams{1};
    for (int t = 2; t <= tmax; t *= 2) teams.push_back(t);

    util::TextTable table(
        "CLAMR finite_diff strong scaling (host-measured)");
    table.set_header({"Mode", "Threads", "finite_diff (s)", "Speedup",
                      "Efficiency", "Bitwise vs 1 thread"});
    bool all_identical = true;
    fp::for_each_precision([&]<typename P>() {
        Sample base;
        for (const int t : teams) {
            const Sample s = run_one<P>(n, levels, steps, t);
            if (t == 1) base = s;
            const bool identical =
                s.mass == base.mass && s.dts == base.dts;
            all_identical = all_identical && identical;
            const double speedup =
                s.finite_diff_seconds > 0.0
                    ? base.finite_diff_seconds / s.finite_diff_seconds
                    : 0.0;
            table.add_row({std::string(P::name), std::to_string(t),
                           util::fixed(s.finite_diff_seconds, 3),
                           util::fixed(speedup, 2),
                           util::fixed(speedup / t, 2),
                           identical ? "identical" : "DIFFERS"});
        }
    });
    util::set_threads(0);  // restore the runtime default

    table.print();
    std::printf("determinism across team sizes: %s\n",
                all_identical ? "PASS (mass and every dt bit-identical)"
                              : "FAIL");
    return all_identical ? 0 : 1;
}
