// perfbench — the measuring program behind perfbench/run.py.
//
// Runs one named workload through the public API of the library, repeating
// the whole workload (set-up, stepping loop, checkpoint/restart) until the
// time budget is spent, checks every repetition's outputs, and prints one
// JSON line with the medians, the checks and the host facts. run.py draws
// the initial-condition values from the seed and passes them in; this
// program never sees the seed.
//
// Untraced repetitions time only what a user sees (set-up, the stepping
// loop, each step, the restart). Traced repetitions additionally record
// spans around every public call into a layer and read the counters the
// layers publish (timers(), ledger(), rezone_stats(), ...). With --trace 1
// both kinds run alternately, so the tracing overhead is measured under
// the same conditions. Nothing here adds instrumentation to the library.
//
// Usage (run.py builds the argument list):
//   perfbench --workload amr_dam_break|dist_dam_break|bubble_ckpt
//             --seconds S --trace 0|1 --dir SCRATCH_DIR
//             [--h-inside H --h-outside H --radius-fraction F]
//             [--dtheta K --radius M --center-z M]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/fixedrate.hpp"
#include "fp/precision.hpp"
#include "io/async_checkpoint.hpp"
#include "io/checkpoint.hpp"
#include "obs/json.hpp"
#include "par/dist_shallow.hpp"
#include "sem/dgsem.hpp"
#include "shallow/solver.hpp"
#include "simd/pack.hpp"
#include "util/threads.hpp"

namespace fs = std::filesystem;
using namespace tp;

namespace {

// ------------------------------------------------------------------ inputs

struct Inputs {
    std::string workload;
    double seconds = 10.0;
    bool trace = false;
    fs::path dir;
    // Dam breaks.
    double h_inside = 0.0, h_outside = 0.0, radius_fraction = 0.0;
    // Thermal bubble.
    double dtheta = 0.0, radius = 0.0, center_z = 0.0;
};

// Workload geometry and run length. Only inputs live here: every
// execution-mode field of shallow::Config / par::DistConfig / SemConfig
// keeps its library default.
constexpr int kAmrCoarse = 96;
constexpr int kAmrLevels = 4;
constexpr int kAmrSteps = 300;
constexpr int kDistN = 512;
constexpr int kDistRanks = 4;
constexpr int kDistSteps = 200;
constexpr int kSemElems = 6;
constexpr int kSemOrder = 7;
constexpr int kSemSteps = 80;
constexpr int kSemCkptEvery = 2;
// Fewest measured untraced repetitions of a --trace 0 run.
constexpr int kMinReps = 4;
// Restarts per repetition: each is timed on its own and reported as a
// median, so the short read + restore is not one noisy sample.
constexpr int kRestartsPerRep = 5;
// Set-up is sampled at least this often per run (extra set-up-only
// repetitions are made when the full repetitions are fewer).
constexpr int kMinSetupSamples = 9;
// Steps left beyond the tail percentile of one repetition.
constexpr std::size_t kTailBeyond = 10;

// Relative mass drift allowed for float state storage over one workload
// run: the suite's float-storage conservation tolerances (5e-5 shallow,
// 2e-4 SEM perturbation mass; double storage would be 1e-11 / 1e-10).
constexpr double kShallowMassDriftFloat = 5e-5;
constexpr double kSemMassDriftFloat = 2e-4;

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ------------------------------------------------------------------ spans

/// In-memory span recorder: name, parent span, start and end. Written
/// out only as totals when the run ends.
class Tracer {
public:
    struct Span {
        const char* name;
        int parent;
        double t0, t1;
    };

    Tracer() { spans_.reserve(4096); }

    int open(const char* name) {
        spans_.push_back({name, cur_, now_s(), 0.0});
        cur_ = static_cast<int>(spans_.size()) - 1;
        return cur_;
    }
    void close(int id) {
        spans_[static_cast<std::size_t>(id)].t1 = now_s();
        cur_ = spans_[static_cast<std::size_t>(id)].parent;
    }

    /// Summed duration of every span called `name`.
    [[nodiscard]] double total(const char* name) const {
        double s = 0.0;
        for (const Span& sp : spans_)
            if (std::strcmp(sp.name, name) == 0) s += sp.t1 - sp.t0;
        return s;
    }

private:
    std::vector<Span> spans_;
    int cur_ = -1;
};

/// Records a span when a tracer is given; costs nothing otherwise.
class ScopedSpan {
public:
    ScopedSpan(Tracer* t, const char* name)
        : t_(t), id_(t != nullptr ? t->open(name) : -1) {}
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    ~ScopedSpan() {
        if (t_ != nullptr) t_->close(id_);
    }

private:
    Tracer* t_;
    int id_;
};

// ------------------------------------------------------------------ reps

struct Check {
    std::string name;
    bool ok;
    std::string detail;
};

/// One complete repetition of a workload.
struct Rep {
    bool traced = false;
    double setup_s = 0.0;
    double solve_s = 0.0;
    std::vector<double> step_s;
    double updates = 0.0;  // cell-steps (AMR, dist) or node-steps (SEM)
    std::vector<double> restart_s;
    double ckpt_bytes = 0.0;  // mean checkpoint file size
    std::int64_t attempted = 0, failed = 0;
    std::string final_bits;  // exact final-state fingerprint
    std::vector<Check> checks;
    std::map<std::string, double> layer;  // traced repetitions only

    /// Run one operation (a step, a checkpoint write, a restart); a throw
    /// counts it failed and is recorded as a failed check.
    template <class F>
    bool op(const char* what, F&& f) {
        ++attempted;
        try {
            f();
            return true;
        } catch (const std::exception& e) {
            ++failed;
            checks.push_back({what, false, e.what()});
            return false;
        }
    }
    /// A check that fails marks its operation failed.
    void check(const std::string& name, bool ok, std::string detail = {}) {
        if (!ok) ++failed;
        checks.push_back({name, ok, std::move(detail)});
    }
};

template <typename T>
void append_bits(std::string& out, const T& v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
template <typename T>
void append_bits(std::string& out, const std::vector<T>& v) {
    out.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

std::string fmt(const char* f, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, f, v);
    return buf;
}

double relative_drift(double m0, double m1) {
    return std::fabs(m1 - m0) / std::fabs(m0);
}

// -------------------------------------------------------- amr_dam_break

using AmrSolver = shallow::ShallowWaterSolver<fp::MinimumPrecision>;

shallow::Config amr_config() {
    shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, kAmrCoarse, kAmrCoarse, kAmrLevels};
    return cfg;
}

std::string amr_fingerprint(const AmrSolver& s) {
    std::string bits;
    append_bits(bits, s.total_mass());
    append_bits(bits, static_cast<std::uint64_t>(s.mesh().num_cells()));
    const auto& g = s.config().geom;
    append_bits(bits, s.sample_height_vertical(g.xmin + 0.5 * g.width,
                                               g.coarse_ny << g.max_level));
    return bits;
}

Rep run_amr(const Inputs& in, Tracer* tr) {
    Rep r;
    r.traced = tr != nullptr;
    const shallow::DamBreak ic{in.h_inside, in.h_outside, in.radius_fraction};
    const double t0 = now_s();
    std::unique_ptr<AmrSolver> s;
    {
        ScopedSpan sp(tr, "initialize_dam_break");
        s = std::make_unique<AmrSolver>(amr_config());
        s->initialize_dam_break(ic);
    }
    r.setup_s = now_s() - t0;
    double m0 = 0.0;
    {
        ScopedSpan sp(tr, "total_mass");
        m0 = s->total_mass();
    }

    r.step_s.reserve(kAmrSteps);
    double loop_spans = 0.0;
    const double l0 = now_s();
    for (int k = 0; k < kAmrSteps; ++k) {
        const double a = now_s();
        bool ok = false;
        {
            ScopedSpan sp(tr, "step");
            ok = r.op("step", [&] { s->step(); });
        }
        const double b = now_s();
        if (!ok) break;
        r.step_s.push_back(b - a);
        r.updates += static_cast<double>(s->mesh().num_cells());
    }
    r.solve_s = now_s() - l0;
    if (tr != nullptr) loop_spans = tr->total("step");

    double m1 = 0.0;
    {
        ScopedSpan sp(tr, "total_mass");
        m1 = s->total_mass();
    }
    const double drift = relative_drift(m0, m1);
    r.check("mass_drift", drift <= kShallowMassDriftFloat,
            fmt("relative drift %.3e", drift));
    r.final_bits = amr_fingerprint(*s);

    // Final checkpoint (v1) and restarts from it into a fresh solver.
    const fs::path path = in.dir / "amr_final.ckpt";
    double write_s = 0.0;
    r.op("checkpoint_write", [&] {
        ScopedSpan sp(tr, "write_checkpoint");
        const double w0 = now_s();
        std::ofstream os(path, std::ios::binary);
        if (!os) throw std::runtime_error("cannot open " + path.string());
        s->write_checkpoint(os);
        os.close();
        if (!os) throw std::runtime_error("checkpoint write failed");
        write_s = now_s() - w0;
    });
    r.ckpt_bytes = fs::exists(path)
                       ? static_cast<double>(fs::file_size(path))
                       : 0.0;
    AmrSolver fresh(amr_config());
    double read_s = 0.0, restore_s = 0.0;
    for (int k = 0; k < kRestartsPerRep; ++k) {
        r.op("restart", [&] {
            const double a = now_s();
            shallow::CheckpointData d;
            {
                ScopedSpan sp(tr, "read_checkpoint");
                std::ifstream is(path, std::ios::binary);
                d = AmrSolver::read_checkpoint(is);
            }
            const double b = now_s();
            {
                ScopedSpan sp(tr, "restore_checkpoint");
                fresh.restore_checkpoint(d);
            }
            const double c = now_s();
            r.restart_s.push_back(c - a);
            read_s += b - a;
            restore_s += c - b;
            if (k == 0)
                r.check("restart_bit_identical",
                        amr_fingerprint(fresh) == r.final_bits);
        });
    }
    fs::remove(path);

    if (tr != nullptr) {
        const auto& t = s->timers();
        auto& L = r.layer;
        L["shallow.step_s"] = loop_spans;
        L["shallow.flux_sweep_s"] = t.total("flux_sweep");
        L["shallow.apply_s"] = t.total("finite_diff") - t.total("flux_sweep");
        L["shallow.cfl_s"] = t.total("cfl");
        if (const perf::KernelWork* w = s->ledger().find("finite_diff")) {
            const double sweep = t.total("flux_sweep");
            const auto bytes =
                static_cast<double>(w->bytes + w->bytes_compute);
            L["shallow.flux_sweep_gflops"] =
                static_cast<double>(w->flops()) / sweep * 1e-9;
            L["shallow.flux_sweep_gbps"] = bytes / sweep * 1e-9;
            L["shallow.flux_sweep_ops_per_byte"] =
                static_cast<double>(w->flops()) / bytes;
        }
        L["mesh.rezone_s"] = t.total("rezone");
        L["mesh.rezone_flags_s"] = t.total("rezone_flags");
        L["mesh.rezone_adapt_s"] = t.total("rezone_adapt");
        L["mesh.rezone_remap_s"] = t.total("rezone_remap");
        L["mesh.rezone_cache_s"] = t.total("rezone_cache");
        const auto& rz = s->rezone_stats();
        L["mesh.rezones"] = static_cast<double>(rz.rezones);
        const double slots =
            static_cast<double>(rz.translated_cells + rz.resolved_cells);
        L["mesh.resolved_frac"] =
            slots > 0 ? static_cast<double>(rz.resolved_cells) / slots : 0.0;
        const auto& bs = s->block_index().stats();
        L["mesh.blocks_rebuilt"] = static_cast<double>(bs.blocks_rebuilt);
        L["mesh.blocks_translated"] =
            static_cast<double>(bs.blocks_translated);
        L["io.checkpoint_call_s"] = write_s;
        L["io.restart_read_s"] = read_s / kRestartsPerRep;
        L["io.restore_s"] = restore_s / kRestartsPerRep;
        L["unattributed_s"] = r.solve_s - loop_spans;
    }
    return r;
}

// ------------------------------------------------------- dist_dam_break

using DistSolver = par::DistributedShallowSolver<fp::MixedPrecision>;

par::DistConfig dist_config() {
    par::DistConfig cfg;
    cfg.nx = cfg.ny = kDistN;
    cfg.ranks = kDistRanks;
    return cfg;
}

std::string dist_fingerprint(const DistSolver& s) {
    std::string bits;
    append_bits(bits, s.total_mass());
    const std::vector<double> h = s.gather_height();
    std::vector<double> cut(static_cast<std::size_t>(kDistN));
    for (int j = 0; j < kDistN; ++j)
        cut[static_cast<std::size_t>(j)] =
            h[static_cast<std::size_t>(j) * kDistN + kDistN / 2];
    append_bits(bits, cut);
    return bits;
}

Rep run_dist(const Inputs& in, Tracer* tr) {
    Rep r;
    r.traced = tr != nullptr;
    const double t0 = now_s();
    std::unique_ptr<DistSolver> s;
    {
        ScopedSpan sp(tr, "initialize_dam_break");
        s = std::make_unique<DistSolver>(dist_config());
        s->initialize_dam_break(in.h_inside, in.h_outside,
                                in.radius_fraction);
    }
    r.setup_s = now_s() - t0;
    double m0 = 0.0;
    {
        ScopedSpan sp(tr, "total_mass");
        m0 = s->total_mass();
    }

    // Per-rank compute, summed over steps: max and mean across ranks.
    double max_compute = 0.0, mean_compute = 0.0;
    r.step_s.reserve(kDistSteps);
    const double l0 = now_s();
    for (int k = 0; k < kDistSteps; ++k) {
        const double a = now_s();
        bool ok = false;
        {
            ScopedSpan sp(tr, "step");
            ok = r.op("step", [&] { s->step(); });
        }
        const double b = now_s();
        if (!ok) break;
        r.step_s.push_back(b - a);
        r.updates += static_cast<double>(kDistN) * kDistN;
        if (tr != nullptr) {
            double mx = 0.0, sum = 0.0;
            for (const par::RankPhaseSeconds& p : s->rank_phase_seconds()) {
                mx = std::max(mx, p.compute());
                sum += p.compute();
            }
            max_compute += mx;
            mean_compute += sum / kDistRanks;
        }
    }
    r.solve_s = now_s() - l0;
    const double loop_spans = tr != nullptr ? tr->total("step") : 0.0;

    double m1 = 0.0;
    {
        ScopedSpan sp(tr, "total_mass");
        m1 = s->total_mass();
    }
    const double drift = relative_drift(m0, m1);
    r.check("mass_drift", drift <= kShallowMassDriftFloat,
            fmt("relative drift %.3e", drift));
    r.check("halo_drained", s->comm_drained());
    r.final_bits = dist_fingerprint(*s);

    // Final sharded restart set (v1) and restarts from it on a fresh
    // solver; restore_restart reads and adopts in one call.
    const std::string base = (in.dir / "dist_final").string();
    double write_s = 0.0;
    r.op("checkpoint_write", [&] {
        ScopedSpan sp(tr, "write_restart");
        const double w0 = now_s();
        s->write_restart(base);
        write_s = now_s() - w0;
    });
    double bytes = 0.0;
    for (const auto& e : fs::directory_iterator(in.dir))
        if (e.path().filename().string().rfind("dist_final", 0) == 0)
            bytes += static_cast<double>(e.file_size());
    r.ckpt_bytes = bytes;
    DistSolver fresh(dist_config());
    double restore_s = 0.0;
    for (int k = 0; k < kRestartsPerRep; ++k) {
        r.op("restart", [&] {
            const double a = now_s();
            {
                ScopedSpan sp(tr, "restore_restart");
                fresh.restore_restart(base);
            }
            const double b = now_s();
            r.restart_s.push_back(b - a);
            restore_s += b - a;
            if (k == 0)
                r.check("restart_bit_identical",
                        dist_fingerprint(fresh) == r.final_bits);
        });
    }
    for (const auto& e : fs::directory_iterator(in.dir))
        if (e.path().filename().string().rfind("dist_final", 0) == 0)
            fs::remove(e.path());

    if (tr != nullptr) {
        const auto& t = s->timers();
        auto& L = r.layer;
        const double steps = static_cast<double>(r.step_s.size());
        L["par.step_s"] = loop_spans;
        L["par.precompute_s"] = t.total("precompute");
        L["par.interior_s"] = t.total("interior");
        L["par.boundary_s"] = t.total("boundary");
        L["par.halo_post_s"] = t.total("halo_pack");
        L["par.halo_wait_s"] = t.total("halo_wait");
        L["par.halo_bytes_per_step"] =
            static_cast<double>(s->halo_bytes_sent()) / steps;
        L["par.imbalance_frac"] =
            mean_compute > 0 ? max_compute / mean_compute - 1.0 : 0.0;
        L["io.checkpoint_call_s"] = write_s;
        L["io.restore_s"] = restore_s / kRestartsPerRep;
        L["unattributed_s"] = r.solve_s - loop_spans;
    }
    return r;
}

// ---------------------------------------------------------- bubble_ckpt

using SemSolver = sem::SpectralEulerSolver<fp::MinimumPrecision>;

sem::SemConfig sem_config() {
    sem::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = kSemElems;
    cfg.order = kSemOrder;
    return cfg;
}

io::CheckpointOptions sem_ckpt_options() {
    io::CheckpointOptions opt;
    opt.mode = io::CheckpointCompress::Drift;
    return opt;
}

/// The five state fields of a SEM solver, widened from their float bits.
std::vector<std::vector<double>> sem_state(const std::string& bits) {
    const std::size_t n = bits.size() / sizeof(float) / sem::kVars;
    std::vector<std::vector<double>> q(sem::kVars, std::vector<double>(n));
    for (int v = 0; v < sem::kVars; ++v)
        for (std::size_t i = 0; i < n; ++i) {
            float f = 0.0f;
            std::memcpy(&f, bits.data() + (v * n + i) * sizeof(float),
                        sizeof f);
            q[static_cast<std::size_t>(v)][i] = f;
        }
    return q;
}

/// The restored state must be within the compressor's stated bound of
/// the snapshot it was written from: |decoded - snapshot| <=
/// error_bound(peak, rate) per array, and the restored float state must
/// be exactly the narrowed decoded values.
Check sem_restore_check(const std::string& snapshot_bits,
                        const sem::SemCheckpointData& d,
                        const std::string& restored_bits) {
    const auto snap = sem_state(snapshot_bits);
    const auto restored = sem_state(restored_bits);
    const io::CheckpointOptions opt = sem_ckpt_options();
    double worst = 0.0;  // largest error as a share of its bound
    for (int v = 0; v < sem::kVars; ++v) {
        const auto& x = snap[static_cast<std::size_t>(v)];
        const auto& y = d.q[v];
        if (y.size() != x.size())
            return {"restore_within_bound", false, "array size mismatch"};
        const double peak = io::peak_abs(x);
        const int bits =
            io::resolve_bits(opt, peak, io::storage_digits_v<float>);
        const double bound = compress::error_bound(peak, bits);
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double err = std::fabs(y[i] - x[i]);
            if (err > bound)
                return {"restore_within_bound", false,
                        "var " + std::to_string(v) + " node " +
                            std::to_string(i) + " error " +
                            fmt("%.3e", err) + " > bound " +
                            fmt("%.3e", bound)};
            if (bound > 0) worst = std::max(worst, err / bound);
            const auto narrowed = static_cast<double>(
                static_cast<float>(y[i]));
            if (restored[static_cast<std::size_t>(v)][i] != narrowed)
                return {"restore_within_bound", false,
                        "restored state differs from decoded checkpoint"};
        }
    }
    return {"restore_within_bound", true,
            fmt("max error %.3f of bound", worst)};
}

Rep run_bubble(const Inputs& in, Tracer* tr) {
    Rep r;
    r.traced = tr != nullptr;
    const sem::ThermalBubble bubble{in.dtheta, in.radius, in.center_z};
    const double t0 = now_s();
    std::unique_ptr<SemSolver> s;
    {
        ScopedSpan sp(tr, "initialize_thermal_bubble");
        s = std::make_unique<SemSolver>(sem_config());
        s->initialize_thermal_bubble(bubble);
    }
    r.setup_s = now_s() - t0;
    double m0 = 0.0;
    {
        ScopedSpan sp(tr, "total_mass");
        m0 = s->total_mass_perturbation();
    }

    std::vector<fs::path> files;
    double call_s = 0.0, drain_s = 0.0, stall_s = 0.0;
    r.step_s.reserve(kSemSteps);
    double loop_spans = 0.0;
    const double l0 = now_s();
    {
        io::AsyncCheckpointer<SemSolver> ckpt(sem_ckpt_options());
        for (int k = 1; k <= kSemSteps; ++k) {
            const double a = now_s();
            bool ok = false;
            {
                ScopedSpan sp(tr, "step");
                ok = r.op("step", [&] { s->step(); });
            }
            if (!ok) break;
            if (k % kSemCkptEvery == 0) {
                files.push_back(in.dir /
                                ("bubble_" + std::to_string(k) + ".ckpt"));
                ScopedSpan sp(tr, "checkpoint");
                const double c0 = now_s();
                r.op("checkpoint_write",
                     [&] { ckpt.checkpoint(*s, files.back().string()); });
                call_s += now_s() - c0;
            }
            r.step_s.push_back(now_s() - a);
            r.updates += static_cast<double>(s->num_nodes());
        }
        {
            ScopedSpan sp(tr, "finish");
            const double f0 = now_s();
            // A writer error surfaces here; it fails the last write.
            try {
                ckpt.finish();
            } catch (const std::exception& e) {
                ++r.failed;
                r.checks.push_back({"checkpoint_write", false, e.what()});
            }
            drain_s = now_s() - f0;
        }
        stall_s = ckpt.stall_seconds();
    }
    r.solve_s = now_s() - l0;
    if (tr != nullptr)
        loop_spans = tr->total("step") + tr->total("checkpoint") +
                     tr->total("finish");

    double m1 = 0.0;
    {
        ScopedSpan sp(tr, "total_mass");
        m1 = s->total_mass_perturbation();
    }
    const double drift = relative_drift(m0, m1);
    r.check("mass_drift", drift <= kSemMassDriftFloat,
            fmt("relative drift %.3e", drift));
    r.final_bits = s->state_fingerprint();

    double bytes = 0.0;
    for (const fs::path& f : files)
        if (fs::exists(f)) bytes += static_cast<double>(fs::file_size(f));
    r.ckpt_bytes = files.empty() ? 0.0 : bytes / static_cast<double>(
                                                    files.size());

    // Restart from the last file into a fresh solver.
    SemSolver fresh(sem_config());
    double read_s = 0.0, restore_s = 0.0;
    for (int k = 0; k < kRestartsPerRep && !files.empty(); ++k) {
        r.op("restart", [&] {
            const double a = now_s();
            sem::SemCheckpointData d;
            {
                ScopedSpan sp(tr, "read_checkpoint");
                std::ifstream is(files.back(), std::ios::binary);
                d = SemSolver::read_checkpoint(is);
            }
            const double b = now_s();
            {
                ScopedSpan sp(tr, "restore_checkpoint");
                fresh.restore_checkpoint(d);
            }
            const double c = now_s();
            r.restart_s.push_back(c - a);
            read_s += b - a;
            restore_s += c - b;
            if (k == 0) {
                const Check c1 = sem_restore_check(
                    r.final_bits, d, fresh.state_fingerprint());
                r.check(c1.name, c1.ok, c1.detail);
            }
        });
    }
    for (const fs::path& f : files) fs::remove(f);

    if (tr != nullptr) {
        const auto& t = s->timers();
        auto& L = r.layer;
        L["sem.step_s"] = tr->total("step");
        L["sem.volume_s"] = t.total("volume");
        L["sem.surface_s"] = t.total("surface");
        L["sem.filter_s"] = t.total("filter");
        L["sem.rk_s"] = t.total("rk_update");
        if (const perf::KernelWork* w = s->ledger().find("volume"))
            L["sem.volume_gflops"] = w->measured_gflops();
        L["io.checkpoint_call_s"] = call_s;
        L["io.stall_s"] = stall_s;
        L["io.drain_s"] = drain_s;
        L["io.restart_read_s"] = read_s / kRestartsPerRep;
        L["io.restore_s"] = restore_s / kRestartsPerRep;
        L["compress.ratio"] =
            r.ckpt_bytes > 0
                ? static_cast<double>(s->checkpoint_bytes()) / r.ckpt_bytes
                : 0.0;
        L["unattributed_s"] = r.solve_s - loop_spans;
    }
    return r;
}

// ------------------------------------------------------------ host roof

struct Roof {
    double llc_bytes = 0.0;
    double triad_bytes = 0.0;  // all three arrays
    double triad_gbps = 0.0;
    double fma_gflops = 0.0;
    bool bandwidth_valid = false;  // arrays >= 4x LLC
};

/// Size of the largest cache the host reports (0 when it reports none).
double llc_bytes() {
    long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (v <= 0) v = sysconf(_SC_LEVEL2_CACHE_SIZE);
    return v > 0 ? static_cast<double>(v) : 0.0;
}

double free_memory_bytes() {
    const long pages = sysconf(_SC_AVPHYS_PAGES);
    const long page = sysconf(_SC_PAGESIZE);
    return pages > 0 && page > 0
               ? static_cast<double>(pages) * static_cast<double>(page)
               : 0.0;
}

/// STREAM triad a = b + s*c over arrays totalling 4x the LLC, best of
/// several passes. The arrays are capped at half the free memory; when the
/// cap bites, or the host reports no cache size, the bandwidth roof is not
/// valid.
void measure_triad(Roof& roof) {
    roof.llc_bytes = llc_bytes();
    constexpr double kFallback = 64.0 * 1024 * 1024;
    const double want =
        4.0 * (roof.llc_bytes > 0 ? roof.llc_bytes : kFallback);
    const double cap = 0.5 * free_memory_bytes();
    const double total = cap > 0 ? std::min(want, cap) : want;
    roof.bandwidth_valid = roof.llc_bytes > 0 && total >= want;
    const auto n = static_cast<std::size_t>(total / 3.0 / sizeof(double));
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const double scalar = 3.0;
    double best = 1e300;
    for (int pass = 0; pass < 6; ++pass) {
        const double t0 = now_s();
        double* __restrict pa = a.data();
        const double* __restrict pb = b.data();
        const double* __restrict pc = c.data();
#pragma omp simd
        for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + scalar * pc[i];
        best = std::min(best, now_s() - t0);
    }
    roof.bandwidth_valid = roof.bandwidth_valid && a[n / 2] == 7.0;
    roof.triad_bytes = 3.0 * static_cast<double>(n) * sizeof(double);
    roof.triad_gbps = roof.triad_bytes / best * 1e-9;
}

/// Single-thread FMA peak in float (the compute type of the traced
/// kernels): independent accumulator chains, enough to cover FMA latency.
void measure_fma(Roof& roof) {
    constexpr int W = simd::native_lanes<float>;
    constexpr int kChains = 12;
    constexpr int kLen = W * kChains;
    alignas(64) float acc[kLen];
    for (int i = 0; i < kLen; ++i) acc[i] = 1.0f + 1e-3f * i;
    volatile float vx = 0.999999f, vy = 1e-7f;
    const float x = vx, y = vy;
    const long iters = 20'000'000;
    double best = 1e300;
    for (int pass = 0; pass < 5; ++pass) {
        const double t0 = now_s();
        for (long it = 0; it < iters; ++it) {
#pragma omp simd
            for (int i = 0; i < kLen; ++i) acc[i] = std::fma(acc[i], x, y);
        }
        best = std::min(best, now_s() - t0);
    }
    // Keep the accumulators live so the loop cannot be dropped.
    volatile float sink = 0.0f;
    for (float v : acc) sink = sink + v;
    roof.fma_gflops = 2.0 * kLen * static_cast<double>(iters) / best * 1e-9;
}

// ------------------------------------------------------------ reporting

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mib() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string metric(double v, const char* unit) {
    return obs::json::Object().field("value", v).field("unit", unit).str();
}

int usage(const char* msg) {
    std::fprintf(stderr, "perfbench: %s\n", msg);
    return 2;
}

}  // namespace

/// A workload: its repetition and a set-up-only pass.
struct Workload {
    const char* name;
    Rep (*run)(const Inputs&, Tracer*);
    void (*setup)(const Inputs&);
};

const Workload kWorkloads[] = {
    {"amr_dam_break", run_amr,
     [](const Inputs& in) {
         AmrSolver s(amr_config());
         s.initialize_dam_break(
             {in.h_inside, in.h_outside, in.radius_fraction});
     }},
    {"dist_dam_break", run_dist,
     [](const Inputs& in) {
         DistSolver s(dist_config());
         s.initialize_dam_break(in.h_inside, in.h_outside,
                                in.radius_fraction);
     }},
    {"bubble_ckpt", run_bubble,
     [](const Inputs& in) {
         SemSolver s(sem_config());
         s.initialize_thermal_bubble({in.dtheta, in.radius, in.center_z});
     }},
};

/// One repetition; a throw outside the per-operation guards (solver
/// construction, initial condition, a diagnostic) fails it as a whole.
Rep run_guarded(const Workload& wl, const Inputs& in, Tracer* tr) {
    try {
        return wl.run(in, tr);
    } catch (const std::exception& e) {
        Rep r;
        r.traced = tr != nullptr;
        r.attempted = 1;
        r.check("repetition", false, e.what());
        return r;
    }
}

int main(int argc, char** argv) {
    Inputs in;
    std::map<std::string, double*> nums{
        {"--seconds", &in.seconds},
        {"--h-inside", &in.h_inside},
        {"--h-outside", &in.h_outside},
        {"--radius-fraction", &in.radius_fraction},
        {"--dtheta", &in.dtheta},
        {"--radius", &in.radius},
        {"--center-z", &in.center_z}};
    if (argc % 2 != 1) return usage("options come in --name value pairs");
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") {
            in.workload = v;
        } else if (k == "--trace") {
            in.trace = v == "1";
        } else if (k == "--dir") {
            in.dir = v;
        } else if (auto it = nums.find(k); it != nums.end()) {
            char* end = nullptr;
            *it->second = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' ||
                !std::isfinite(*it->second))
                return usage(("bad value for " + k).c_str());
        } else {
            return usage(("unknown option " + k).c_str());
        }
    }
    const Workload* wl = nullptr;
    for (const Workload& w : kWorkloads)
        if (in.workload == w.name) wl = &w;
    if (wl == nullptr) return usage("unknown --workload");
    if (wl->run == run_bubble) {
        if (!(in.dtheta > 0 && in.radius > 0 && in.center_z > 0))
            return usage("bubble needs positive dtheta, radius, center-z");
    } else if (!(in.h_inside > in.h_outside && in.h_outside > 0 &&
                 in.radius_fraction > 0 && in.radius_fraction < 0.5)) {
        return usage("dam break needs h-inside > h-outside > 0 and "
                     "0 < radius-fraction < 0.5");
    }
    if (in.dir.empty() || !fs::is_directory(in.dir))
        return usage("--dir must name an existing directory");
    if (!(in.seconds > 0)) return usage("--seconds must be positive");

    // All load from this thread; the async checkpoint writer is the only
    // other thread.
    util::set_threads(1);

    // reps[0] is a warm-up: checked, and the reference every later final
    // state must match bit for bit, but left out of every figure. Then
    // repeat until the budget is spent and the minimum counts are met;
    // with --trace 1, traced repetitions alternate with untraced ones and
    // two of each suffice.
    std::vector<Rep> reps;
    const double start = now_s();
    reps.push_back(run_guarded(*wl, in, nullptr));
    // Peak memory of one complete run of the workload, before later
    // repetitions (whose number depends on speed) can fragment the heap.
    const double rss = peak_rss_mib();
    const int min_plain = in.trace ? 2 : kMinReps;
    int n_plain = 0, n_traced = 0;
    while (!reps.front().step_s.empty()) {
        const double used = now_s() - start;
        const double per_rep = used / static_cast<double>(reps.size());
        const bool need_more =
            n_plain < min_plain || (in.trace && n_traced < 2);
        if (!need_more && used + per_rep > in.seconds) break;
        const bool traced = in.trace && n_traced < n_plain;
        Tracer tracer;
        reps.push_back(run_guarded(*wl, in, traced ? &tracer : nullptr));
        (traced ? n_traced : n_plain) += 1;
    }

    // Set-up samples: every measured repetition's, plus set-up-only
    // passes up to the minimum count.
    std::vector<double> setups;
    for (std::size_t i = 1; i < reps.size(); ++i)
        setups.push_back(reps[i].setup_s);
    while (!reps.front().step_s.empty() && setups.size() < kMinSetupSamples) {
        const double t0 = now_s();
        wl->setup(in);
        setups.push_back(now_s() - t0);
    }

    // Checks across repetitions: every final state bit-identical to the
    // warm-up's, traced ones included.
    std::int64_t attempted = 0, failed = 0;
    std::vector<Check> checks;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        Rep& r = reps[i];
        if (i > 0)
            r.check(r.traced ? "traced_bit_identical" : "repeat_bit_identical",
                    r.final_bits == reps[0].final_bits,
                    "repetition " + std::to_string(i));
        attempted += r.attempted;
        failed += r.failed;
        // Report each check once: the first time it is seen, or a failure.
        for (const Check& c : r.checks) {
            const bool seen =
                std::any_of(checks.begin(), checks.end(),
                            [&](const Check& o) { return o.name == c.name; });
            if (!c.ok || !seen) checks.push_back(c);
        }
    }

    // End-to-end figures from the measured untraced repetitions. The tail
    // is taken per repetition (one run of the workload, as a user sees
    // it): the highest percentile with at least 10 steps beyond it.
    std::vector<double> solve, rate, steps, tails, restarts, ckpt;
    double tail_pct = 0.0;
    for (std::size_t i = 1; i < reps.size(); ++i) {
        const Rep& r = reps[i];
        if (r.traced || r.step_s.empty()) continue;
        solve.push_back(r.solve_s);
        rate.push_back(r.updates / r.solve_s);
        steps.insert(steps.end(), r.step_s.begin(), r.step_s.end());
        std::vector<double> sorted = r.step_s;
        std::sort(sorted.begin(), sorted.end());
        const std::size_t n = sorted.size();
        const std::size_t k = n > kTailBeyond ? n - 1 - kTailBeyond : 0;
        if (n > 0) tails.push_back(sorted[k]);
        tail_pct = n > 0 ? 100.0 * static_cast<double>(k + 1) /
                               static_cast<double>(n)
                         : 0.0;
        restarts.insert(restarts.end(), r.restart_s.begin(),
                        r.restart_s.end());
        ckpt.push_back(r.ckpt_bytes);
    }

    obs::json::Object m;
    m.field_raw("setup_s", metric(median(setups), "s"))
        .field_raw("solve_s", metric(median(solve), "s"))
        .field_raw("updates_per_s", metric(median(rate), "1/s"))
        .field_raw("step_ms_p50", metric(1e3 * median(steps), "ms"))
        .field_raw("step_ms_tail", metric(1e3 * median(tails), "ms"))
        .field_raw("peak_rss_mib", metric(rss, "MiB"))
        .field_raw("ckpt_mib", metric(median(ckpt) / (1024.0 * 1024.0),
                                      "MiB"))
        .field_raw("restart_s", metric(median(restarts), "s"));

    obs::json::Object layer;
    Roof roof;
    if (in.trace) {
        // Median over traced repetitions of each per-layer figure.
        std::map<std::string, std::vector<double>> per;
        std::vector<double> traced_solve;
        for (const Rep& r : reps) {
            if (!r.traced) continue;
            traced_solve.push_back(r.solve_s);
            for (const auto& [k, v] : r.layer) per[k].push_back(v);
        }
        measure_fma(roof);
        try {
            measure_triad(roof);
        } catch (const std::bad_alloc&) {
            roof.bandwidth_valid = false;  // the arrays did not fit
        }
        for (const auto& [k, v] : per) layer.field(k, median(v));
        layer.field("host.triad_gbps", roof.triad_gbps)
            .field("host.fma_gflops", roof.fma_gflops)
            .field("trace_overhead_frac",
                   median(traced_solve) / median(solve) - 1.0);
        if (per.count("shallow.flux_sweep_gflops") != 0 &&
            roof.bandwidth_valid) {
            const double ai = median(per["shallow.flux_sweep_ops_per_byte"]);
            const double bound =
                std::min(roof.fma_gflops, roof.triad_gbps * ai);
            layer.field("shallow.flux_sweep_roof_frac",
                        median(per["shallow.flux_sweep_gflops"]) / bound);
        }
    }

    bool correct = failed == 0;
    std::string check_list = "[";
    for (std::size_t i = 0; i < checks.size(); ++i) {
        if (i != 0) check_list += ',';
        check_list += obs::json::Object()
                          .field("name", checks[i].name)
                          .field("ok", checks[i].ok)
                          .field("detail", checks[i].detail)
                          .str();
        correct = correct && checks[i].ok;
    }
    check_list += ']';

    std::string solve_list = "[";
    for (std::size_t i = 0; i < solve.size(); ++i)
        solve_list += (i != 0 ? "," : "") + fmt("%.6f", solve[i]);
    solve_list += ']';

    obs::json::Object host;
    host.field("isa", simd::isa_name())
#if defined(__VERSION__)
        .field("compiler", __VERSION__)
#endif
#ifdef NDEBUG
        .field("build", "release")
#else
        .field("build", "debug")
#endif
        .field("openmp_threads", util::max_threads())
        .field("llc_bytes", llc_bytes());
    if (in.trace)
        host.field("triad_array_bytes", roof.triad_bytes / 3.0)
            .field("triad_total_bytes", roof.triad_bytes)
            .field("triad_bandwidth_roof_valid", roof.bandwidth_valid);

    const std::string out =
        obs::json::Object()
            .field("workload", in.workload)
            .field("correct", correct)
            .field("attempted", attempted)
            .field("failed", failed)
            .field("reps", static_cast<std::int64_t>(n_plain))
            .field("traced_reps", static_cast<std::int64_t>(n_traced))
            .field("setup_samples", static_cast<std::int64_t>(setups.size()))
            .field("step_samples", static_cast<std::int64_t>(steps.size()))
            .field("tail_percentile", tail_pct)
            .field("tail_reps", static_cast<std::int64_t>(tails.size()))
            .field_raw("solve_s_reps", solve_list)
            .field_raw("metrics", m.str())
            .field_raw("layers", layer.str())
            .field_raw("host", host.str())
            .field_raw("checks", check_list)
            .str();
    std::printf("%s\n", out.c_str());
    return 0;
}
