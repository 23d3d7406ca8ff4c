// dam_break: the CLAMR-analogue mini-app as a standalone command-line
// tool. Runs the cylindrical dam break at a chosen precision, reports
// conservation and timing, and optionally writes a checkpoint and a
// line-cut CSV.
//
//   $ ./dam_break --precision mixed --grid 128 --levels 2 --steps 400 \
//                 --cut cut.csv --checkpoint state.ckpt

#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "analysis/linecut.hpp"
#include "fp/governor.hpp"
#include "io/async_checkpoint.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "shallow/solver.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/threads.hpp"
#include "util/timing.hpp"

using namespace tp;

namespace {

template <typename Policy>
int run(const util::ArgParser& args) {
    shallow::Config cfg;
    const int n = args.get_int("grid");
    cfg.geom = {0.0, 0.0, 100.0, 100.0, n, n, args.get_int("levels")};
    cfg.courant = args.get_double("courant");
    cfg.simd = util::apply_simd_option(args);
    cfg.rezone_mode = util::apply_rezone_option(args);
    cfg.blocks = util::apply_blocks_option(args);

    shallow::DamBreak ic;
    ic.h_inside = args.get_double("h-inside");
    ic.h_outside = args.get_double("h-outside");

    const int nthreads = util::apply_threads_option(args);
    const fp::GovernorConfig gov_cfg = util::apply_governor_options(args);
    // The compressor's Drift mode keys off the same ULP budget as the
    // governor, so compression error stays under the noise floor the
    // precision policy already tolerates.
    const io::CheckpointOptions ckpt_opt =
        util::apply_checkpoint_options(args, gov_cfg.drift_budget_ulp);

    const obs::ObsGuard obs_guard(
        args, "dam_break",
        {{"precision", std::string(Policy::name)},
         {"simd", simd::use_native(cfg.simd) ? simd::isa_name() : "scalar"},
         {"rezone", shallow::rezone_mode_name(cfg.rezone_mode)},
         {"blocks", shallow::blocks_mode_name(cfg.blocks)},
         {"grid", std::to_string(n)},
         {"levels", std::to_string(cfg.geom.max_level)},
         {"courant", std::to_string(cfg.courant)},
         {"governor", gov_cfg.enabled ? "on" : "off"},
         {"drift_budget", std::to_string(gov_cfg.drift_budget_ulp)},
         {"checkpoint_compress", args.get_string("checkpoint-compress")},
         {"checkpoint_async",
          args.get_flag("checkpoint-async") ? "on" : "off"}});

    // The governor outlives the solver's use of it; the record sink routes
    // each transition into the metrics stream as a {"type":"governor"} line.
    fp::PrecisionGovernor governor(gov_cfg);
    governor.set_record_sink([](const std::string& line) {
        if (obs::metrics().is_open()) obs::metrics().write_line(line);
    });

    shallow::ShallowWaterSolver<Policy> solver(cfg);
    solver.set_governor(&governor);
    if (const std::string rpath = args.get_string("restart");
        !rpath.empty()) {
        std::ifstream is(rpath, std::ios::binary);
        if (!is)
            throw std::runtime_error("restart: cannot open " + rpath);
        solver.restore_checkpoint(
            shallow::ShallowWaterSolver<Policy>::read_checkpoint(is));
        std::printf("restarted from %s at step %lld (t=%.5f)\n",
                    rpath.c_str(),
                    static_cast<long long>(solver.step_count()),
                    solver.time());
    } else {
        solver.initialize_dam_break(ic);
    }
    const double mass0 = solver.total_mass();

    // One checkpoint sink for both cadences (periodic and final): the
    // synchronous path writes inline and emits the metrics record itself;
    // the asynchronous path snapshots and hands off to the writer thread,
    // which emits the record (byte-identical output either way).
    io::AsyncCheckpointer<shallow::ShallowWaterSolver<Policy>> async_ckpt(
        ckpt_opt);
    const bool ckpt_async = args.get_flag("checkpoint-async");
    const std::string ckpt_path = args.get_string("checkpoint");
    const int ckpt_interval = args.get_int("checkpoint-interval");
    auto write_ckpt = [&](const std::string& path) {
        if (ckpt_async) {
            async_ckpt.checkpoint(solver, path);
            return;
        }
        util::WallTimer write_timer;
        std::ofstream os(path, std::ios::binary);
        if (!os)
            throw std::runtime_error("checkpoint: cannot open " + path);
        const io::CheckpointWriteInfo info =
            solver.write_checkpoint(os, ckpt_opt);
        os.flush();
        io::require_write(os);
        if (obs::metrics().is_open())
            obs::metrics().write_line(io::checkpoint_record(
                path, solver.step_count(), info, 0.0,
                write_timer.elapsed_seconds(), 0.0, false));
    };
    std::printf(
        "initialized: %zu cells (%d levels), initial mass %.6e, "
        "%d thread%s (OpenMP %s)\n",
        solver.mesh().num_cells(), cfg.geom.max_level + 1, mass0, nthreads,
        nthreads == 1 ? "" : "s", util::openmp_enabled() ? "on" : "off");

    const int steps = args.get_int("steps");
    util::WallTimer timer;
    const int report = std::max(1, steps / 10);
    std::map<std::string, double> phase_baseline;
    for (int s = 0; s < steps; ++s) {
        util::WallTimer step_timer;
        const double dt = solver.step();
        if (governor.enabled()) governor.end_step(solver.step_count());
        const double wall_s = step_timer.elapsed_seconds();
        if (obs::metrics().is_open()) {
            const auto& rz = solver.rezone_stats();
            obs::metrics().write_line(
                obs::json::Object()
                    .field("type", "step")
                    .field("step", solver.step_count())
                    .field("t", solver.time())
                    .field("dt", dt)
                    .field("wall_s", wall_s)
                    .field("cells",
                           static_cast<std::uint64_t>(
                               solver.mesh().num_cells()))
                    .field("mass", solver.total_mass())
                    .field("rezones", rz.rezones)
                    .field("rezone_cells_touched", rz.cells_touched)
                    .field("rezone_translated", rz.translated_cells)
                    .field("rezone_resolved", rz.resolved_cells)
                    .field("flops",
                           solver.ledger().total().flops())
                    .field_raw("phase_seconds",
                               obs::timer_delta_json(solver.timers(),
                                                     phase_baseline))
                    .str());
        }
        if (!ckpt_path.empty() && ckpt_interval > 0 &&
            solver.step_count() % ckpt_interval == 0)
            write_ckpt(ckpt_path + "." +
                       std::to_string(solver.step_count()));
        if (args.get_flag("verbose") && (s + 1) % report == 0)
            std::printf("  step %6d  t=%.5f  dt=%.3e  cells=%zu\n", s + 1,
                        solver.time(), dt, solver.mesh().num_cells());
    }
    const double seconds = timer.elapsed_seconds();

    std::printf(
        "ran %d steps to t=%.5f in %.3f s (%s precision, %s kernel)\n",
        steps, solver.time(), seconds, std::string(Policy::name).c_str(),
        simd::use_native(cfg.simd) ? simd::isa_name() : "scalar");
    std::printf(
        "finite_diff: %.3f s (flux_sweep %.3f s)  |  cfl: %.3f s  |  "
        "rezone: %.3f s\n",
        solver.timers().total("finite_diff"),
        solver.timers().total("flux_sweep"), solver.timers().total("cfl"),
        solver.timers().total("rezone"));
    std::printf(
        "rezone phases (%s): flags %.3f s | adapt %.3f s | remap %.3f s | "
        "cache %.3f s (block index %.3f s)\n",
        shallow::rezone_mode_name(cfg.rezone_mode),
        solver.timers().total("rezone_flags"),
        solver.timers().total("rezone_adapt"),
        solver.timers().total("rezone_remap"),
        solver.timers().total("rezone_cache"),
        solver.timers().total("block_index"));
    if (cfg.blocks) {
        const auto& bs = solver.block_index().stats();
        std::size_t tiled_cells = 0;
        for (const auto& t : solver.tile_blocks())
            tiled_cells += static_cast<std::size_t>(
                std::popcount(t.regular));
        std::printf(
            "blocks: %zu dense tiles (%zu cells), %zu fallback cells, "
            "flux_sweep %.3f s, %llu blocks built over %llu index "
            "rebuilds\n",
            solver.tile_blocks().size(), tiled_cells,
            solver.fallback_cells().size(),
            solver.timers().total("flux_sweep"),
            static_cast<unsigned long long>(bs.blocks_rebuilt),
            static_cast<unsigned long long>(bs.rebuilds));
    }
    std::printf("mass drift: %+.3e (relative)\n",
                (solver.total_mass() - mass0) / mass0);
    if (governor.enabled()) {
        std::size_t promotes = 0;
        for (const auto& d : governor.decisions())
            if (d.action == "promote") ++promotes;
        // The solver registers exactly one governed kernel, so id 0 is
        // clamr.flux_sweep.
        std::printf(
            "governor: %zu transitions (%zu promotes, %zu demotes), "
            "flux sweep reduced %llu of %llu governed steps\n",
            governor.decisions().size(), promotes,
            governor.decisions().size() - promotes,
            static_cast<unsigned long long>(governor.reduced_steps(0)),
            static_cast<unsigned long long>(governor.observed_steps(0)));
    }
    std::printf("state: %s resident, checkpoint %s%s\n",
                util::human_bytes(solver.state_bytes()).c_str(),
                util::human_bytes(solver.checkpoint_bytes(ckpt_opt)).c_str(),
                ckpt_opt.compressed() ? " (compressed)" : "");

    if (const std::string path = args.get_string("cut"); !path.empty()) {
        const auto ys = analysis::face_free_positions(
            0.0, cfg.geom.height, cfg.geom.coarse_ny << cfg.geom.max_level);
        analysis::LineCut cut;
        cut.label = std::string(Policy::name);
        cut.position = ys;
        const double x0 =
            cfg.geom.xmin + 0.5 * cfg.geom.width +
            0.25 * cfg.geom.width / (cfg.geom.coarse_nx << cfg.geom.max_level);
        for (const double y : ys)
            cut.value.push_back(solver.height_at(x0, y));
        const std::vector<analysis::LineCut> cuts{cut};
        analysis::write_csv(path, cuts);
        std::printf("wrote line-cut to %s\n", path.c_str());
    }
    if (!ckpt_path.empty()) {
        write_ckpt(ckpt_path);
        async_ckpt.finish();  // rethrows the first writer-thread error
        std::printf("wrote checkpoint to %s%s\n", ckpt_path.c_str(),
                    ckpt_async ? " (async)" : "");
        if (ckpt_async)
            std::printf("async checkpoint stall: %.3f s solver-side\n",
                        async_ckpt.stall_seconds());
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser args("dam_break",
                         "CLAMR-analogue cylindrical dam break");
    args.add_option("precision", "minimum | mixed | full", "full");
    args.add_int_option("grid", "coarse cells per side", "64");
    args.add_int_option("levels", "max AMR refinement levels", "2");
    args.add_int_option("steps", "time steps to run", "200");
    args.add_double_option("courant", "CFL number", "0.2");
    args.add_double_option("h-inside", "column height inside the dam",
                           "80.0");
    args.add_double_option("h-outside", "background water height", "10.0");
    args.add_option("cut", "write center line-cut CSV to this path", "");
    args.add_flag("verbose", "print periodic step diagnostics");
    util::add_checkpoint_options(args);
    util::add_simd_option(args);
    util::add_rezone_option(args);
    util::add_blocks_option(args);
    util::add_threads_option(args);
    util::add_governor_options(args);
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
        // The probe layer already wrote a {"type":"diagnostic"} record and
        // the ObsGuard flushed trace/metrics during unwind; this is the
        // human-readable summary.
        std::fprintf(stderr,
                     "dam_break: numerical fault in kernel '%s' at step "
                     "%lld: %s\n",
                     fault.kernel().c_str(),
                     static_cast<long long>(fault.step()), fault.what());
        return 2;
    } catch (const std::exception& e) {
        // Bad option values and checkpoint/restart I/O failures land
        // here; a nonzero exit instead of std::terminate so scripted
        // runs (and the CI corruption fuzz) see a clean failure.
        std::fprintf(stderr, "dam_break: %s\n", e.what());
        return 1;
    }
}
