// dam_break_dist: the distributed dam break as an instrumented mini-app —
// the overlapped/SIMD/load-balanced pipeline of par/dist_shallow with the
// full flight-recorder surface (manifest, per-step metrics including halo
// traffic, spans), so tp_report can diff runs and obs_check can validate
// them exactly like the serial drivers. `--blocks=on` swaps the row-stripe
// decomposition for the block-structured solver (par/dist_blocks.hpp) —
// bitwise the same solution, per-block-face halos, whole-block rebalance.
//
//   $ ./dam_break_dist --precision mixed --grid 256 --ranks 8
//                      --overlap on --simd native --metrics run.jsonl
//   $ ./dam_break_dist --blocks on --block 16 --ranks 8

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "par/dist_blocks.hpp"
#include "par/dist_shallow.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/threads.hpp"
#include "util/timing.hpp"

using namespace tp;

namespace {

std::string number_array(const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out.push_back(',');
        obs::json::append_number(out, v[i]);
    }
    out.push_back(']');
    return out;
}

std::string byte_array(const std::vector<std::uint64_t>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out.push_back(',');
        out += std::to_string(v[i]);
    }
    out.push_back(']');
    return out;
}

template <typename Policy, typename Solver>
int run_solver(Solver& solver, const util::ArgParser& args,
               const par::DistConfig& cfg, int nthreads) {
    solver.initialize_dam_break();
    const double mass0 = solver.total_mass();
    std::printf(
        "initialized: %d x %d cells on %d ranks (%s schedule), initial "
        "mass %.6e, %d thread%s (OpenMP %s)\n",
        cfg.nx, cfg.ny, cfg.ranks, cfg.overlap ? "overlapped" : "BSP",
        mass0, nthreads, nthreads == 1 ? "" : "s",
        util::openmp_enabled() ? "on" : "off");

    const int steps = args.get_int("steps");
    util::WallTimer timer;
    const int report = std::max(1, steps / 10);
    std::map<std::string, double> phase_baseline;
    // Per-rank deltas for the {"type":"dist"} record: halo bytes are
    // cumulative in the comm layer, resplits in the balancer's stats.
    const auto nranks = static_cast<std::size_t>(cfg.ranks);
    std::vector<std::uint64_t> rank_bytes_prev(nranks, 0);
    std::vector<std::uint64_t> rank_bytes_delta(nranks, 0);
    std::vector<double> post_s(nranks), precompute_s(nranks),
        interior_s(nranks), wait_s(nranks), boundary_s(nranks);
    std::uint64_t resplits_prev = 0;
    for (int s = 0; s < steps; ++s) {
        util::WallTimer step_timer;
        const double dt = solver.step();
        const double wall_s = step_timer.elapsed_seconds();
        if (obs::metrics().is_open()) {
            obs::metrics().write_line(
                obs::json::Object()
                    .field("type", "step")
                    .field("step", solver.step_count())
                    .field("t", solver.time())
                    .field("dt", dt)
                    .field("wall_s", wall_s)
                    .field("mass", solver.total_mass())
                    .field("halo_bytes_sent", solver.halo_bytes_sent())
                    .field("lb_resplits", solver.lb_stats().resplits)
                    .field("flops", solver.ledger().total().flops())
                    .field_raw("phase_seconds",
                               obs::timer_delta_json(solver.timers(),
                                                     phase_baseline))
                    .str());
            // One {"type":"dist"} record per step: the per-rank phase
            // split the critical-path analyzer consumes (DESIGN.md §15).
            const auto& rp = solver.rank_phase_seconds();
            for (std::size_t r = 0; r < nranks; ++r) {
                post_s[r] = rp[r].post;
                precompute_s[r] = rp[r].precompute;
                interior_s[r] = rp[r].interior;
                wait_s[r] = rp[r].wait;
                boundary_s[r] = rp[r].boundary;
                const std::uint64_t sent =
                    solver.halo_bytes_sent(static_cast<int>(r));
                rank_bytes_delta[r] = sent - rank_bytes_prev[r];
                rank_bytes_prev[r] = sent;
            }
            const std::uint64_t resplits = solver.lb_stats().resplits;
            obs::metrics().write_line(
                obs::json::Object()
                    .field("type", "dist")
                    .field("step", solver.step_count())
                    .field("ranks", cfg.ranks)
                    .field("wall_s", wall_s)
                    .field_raw("post_s", number_array(post_s))
                    .field_raw("precompute_s", number_array(precompute_s))
                    .field_raw("interior_s", number_array(interior_s))
                    .field_raw("wait_s", number_array(wait_s))
                    .field_raw("boundary_s", number_array(boundary_s))
                    .field_raw("halo_bytes", byte_array(rank_bytes_delta))
                    .field("resplits", resplits - resplits_prev)
                    .str());
            resplits_prev = resplits;
        }
        if (args.get_flag("verbose") && (s + 1) % report == 0)
            std::printf("  step %6d  t=%.5f  dt=%.3e\n", s + 1,
                        solver.time(), dt);
    }
    const double seconds = timer.elapsed_seconds();

    std::printf(
        "ran %d steps to t=%.5f in %.3f s (%s precision, %s kernel, "
        "%s schedule)\n",
        steps, solver.time(), seconds, std::string(Policy::name).c_str(),
        simd::use_native(cfg.simd) ? simd::isa_name() : "scalar",
        cfg.overlap ? "overlapped" : "BSP");
    std::printf(
        "phases: pack %.3f s | pre %.3f s | wait %.3f s | "
        "interior %.3f s | boundary %.3f s\n",
        solver.timers().total("halo_pack"),
        solver.timers().total("precompute"),
        solver.timers().total("halo_wait"),
        solver.timers().total("interior"),
        solver.timers().total("boundary"));
    std::printf("halo traffic: %s (%s storage rows)\n",
                util::human_bytes(solver.halo_bytes_sent()).c_str(),
                std::string(Policy::name).c_str());
    if (cfg.lb_interval > 0) {
        const auto& lb = solver.lb_stats();
        unsigned long long moved = 0;
        const char* unit = "rows";
        if constexpr (requires { lb.rows_moved; }) {
            moved = static_cast<unsigned long long>(lb.rows_moved);
        } else {
            moved = static_cast<unsigned long long>(lb.blocks_moved);
            unit = "blocks";
        }
        std::printf(
            "load balancer: %llu evaluations, %llu re-splits, %llu %s "
            "moved\n",
            static_cast<unsigned long long>(lb.evaluations),
            static_cast<unsigned long long>(lb.resplits), moved, unit);
    }
    std::printf("mass drift: %+.3e (relative)\n",
                (solver.total_mass() - mass0) / mass0);
    if (!solver.comm_drained()) {
        std::fprintf(stderr,
                     "dam_break_dist: communicator not drained after run\n");
        return 1;
    }
    return 0;
}

template <typename Policy>
int run(const util::ArgParser& args) {
    par::DistConfig cfg;
    cfg.nx = cfg.ny = args.get_int("grid");
    cfg.ranks = args.get_int("ranks");
    cfg.courant = args.get_double("courant");
    cfg.simd = util::apply_simd_option(args);
    cfg.lb_interval = args.get_int("lb-interval");
    cfg.block = args.get_int("block");
    const std::string overlap = args.get_string("overlap");
    if (overlap != "on" && overlap != "off")
        throw std::invalid_argument("--overlap must be on or off");
    cfg.overlap = overlap == "on";
    const bool blocks = util::apply_blocks_option(args);

    const int nthreads = util::apply_threads_option(args);

    const obs::ObsGuard obs_guard(
        args, "dam_break_dist",
        {{"precision", std::string(Policy::name)},
         {"simd", simd::use_native(cfg.simd) ? simd::isa_name() : "scalar"},
         {"grid", std::to_string(cfg.nx)},
         {"ranks", std::to_string(cfg.ranks)},
         {"overlap", overlap},
         {"blocks", shallow::blocks_mode_name(blocks)},
         {"lb_interval", std::to_string(cfg.lb_interval)},
         {"courant", std::to_string(cfg.courant)}});

    if (blocks) {
        par::BlockDistributedShallowSolver<Policy> solver(cfg);
        std::printf("block decomposition: %zu blocks of %d x %d cells\n",
                    solver.num_blocks(), solver.block_edge(),
                    solver.block_edge());
        return run_solver<Policy>(solver, args, cfg, nthreads);
    }
    par::DistributedShallowSolver<Policy> solver(cfg);
    return run_solver<Policy>(solver, args, cfg, nthreads);
}

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser args("dam_break_dist",
                         "instrumented distributed dam break (overlapped "
                         "halo exchange, SIMD row sweeps, load balancing)");
    args.add_option("precision", "minimum | mixed | full", "full");
    args.add_int_option("grid", "global cells per side", "128");
    args.add_int_option("steps", "time steps to run", "100");
    args.add_int_option("ranks", "simulated rank count", "4");
    args.add_option("overlap", "on | off (BSP baseline)", "on");
    args.add_int_option("lb-interval",
                        "re-split rows by measured cost every N steps "
                        "(0 = static partition)",
                        "0");
    args.add_int_option("block",
                        "block edge for --blocks=on (0 = auto; must "
                        "divide the grid)",
                        "0");
    args.add_double_option("courant", "CFL number", "0.2");
    args.add_flag("verbose", "print periodic step diagnostics");
    util::add_simd_option(args);
    // Not util::add_blocks_option: here the flag picks the decomposition,
    // and the row-stripe solver stays the default.
    args.add_option("blocks",
                    "Decomposition: off (row stripes) | on (blocks); "
                    "bit-identical solutions",
                    "off");
    util::add_threads_option(args);
    obs::add_obs_options(args);
    if (!args.parse(argc, argv)) return 1;

    try {
        const std::string p = args.get_string("precision");
        if (p == "minimum") return run<fp::MinimumPrecision>(args);
        if (p == "mixed") return run<fp::MixedPrecision>(args);
        if (p == "full") return run<fp::FullPrecision>(args);
        std::fprintf(stderr, "unknown precision '%s'\n%s", p.c_str(),
                     args.help().c_str());
        return 1;
    } catch (const obs::NumericalFault& fault) {
        std::fprintf(stderr,
                     "dam_break_dist: numerical fault in kernel '%s' at "
                     "step %lld: %s\n",
                     fault.kernel().c_str(),
                     static_cast<long long>(fault.step()), fault.what());
        return 2;
    } catch (const std::invalid_argument& err) {
        std::fprintf(stderr, "dam_break_dist: %s\n%s", err.what(),
                     args.help().c_str());
        return 1;
    }
}
