#pragma once
// Closed-loop runtime precision governor (DESIGN.md §11).
//
// PR 5 gave every instrumented kernel a measured divergence signal
// (obs::DivergenceStats); this subsystem closes the loop: a solver feeds
// the governor one float-lattice divergence sample set per governed
// kernel per step, and the governor decides — per kernel, at step
// boundaries — whether the next step runs the kernel's reduced (float)
// or full (double) compute instantiation:
//
//   * while the max ULP drift and the relative-error histogram tail stay
//     under the configured budget, the kernel stays demoted (float);
//   * when either crosses the budget, the kernel is promoted to double;
//   * after `hysteresis` consecutive clean promoted steps the kernel is
//     trial-demoted again — the reconfiguration loop of "Exploring and
//     Exploiting Runtime Reconfigurable Floating Point Precision"
//     (arXiv 2409.15073), with the sampled shadow-execution monitor
//     RAPTOR (arXiv 2507.04647) validated as the error signal.
//
// Measurement convention: divergence is always accumulated on the FLOAT
// lattice (the reduced precision), regardless of which instantiation
// produced the step. A demoted step therefore reports the real drift the
// reduced kernel introduced, while a promoted step — whose double result
// matches the double shadow reference bit-for-bit — reports zero, so the
// hysteresis window measures genuinely clean steps. Measuring in the
// output buffer's own precision instead would make promoted double steps
// report meaningless ~2^29-ULP distances against their float shadow.
//
// The governor is deliberately solver-agnostic and link-light: it
// consumes DivergenceStats (a header-only accumulator), buffers its
// decisions, and hands each {"type":"governor"} JSONL record to a caller
// installed sink (the drivers connect obs::metrics()). It never touches
// the solvers' kernel tables itself — they query reduced(id) when
// dispatching.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/numerics.hpp"

namespace tp::fp {

/// Tuning knobs, filled from the CLI (--governor, --drift-budget, ...).
struct GovernorConfig {
    /// Master switch. A disabled governor never changes a dispatch
    /// decision: solvers treat it exactly like no governor at all, which
    /// is what keeps `--governor=off` bit-identical to the ungoverned
    /// binary.
    bool enabled = false;
    /// Max tolerated per-step ULP drift on the float lattice.
    std::uint64_t drift_budget_ulp = 256;
    /// Max tolerated fraction of samples whose relative error reaches
    /// 10^tail_exp or worse (the histogram tail).
    double tail_budget_frac = 0.01;
    /// First relative-error decade counted as "tail". The histogram's
    /// top bucket absorbs everything from 10^-6 up, so values above -6
    /// clamp to -6.
    int tail_exp = -6;
    /// Consecutive clean promoted steps before a trial re-demotion.
    int hysteresis = 8;
    /// Steps of telemetry collected before the first decision.
    int warmup = 2;
};

class PrecisionGovernor {
public:
    explicit PrecisionGovernor(const GovernorConfig& cfg);

    [[nodiscard]] const GovernorConfig& config() const { return cfg_; }
    [[nodiscard]] bool enabled() const { return cfg_.enabled; }

    /// Register a governed kernel ("clamr.flux_sweep", "sem.rhs").
    /// Returns the id the solver uses for reduced()/observe().
    /// Registering the same name twice returns the same id with the
    /// kernel's state reset (a solver re-attaching after re-init).
    int register_kernel(const std::string& name);

    /// True when the kernel's next invocation should use the reduced
    /// (float) instantiation. Kernels start demoted: the loop's premise
    /// is "run cheap until the monitor objects".
    [[nodiscard]] bool reduced(int id) const;

    /// Feed one step's float-lattice divergence for one kernel. Multiple
    /// calls per step accumulate (a solver may observe several output
    /// arrays or several RK stages).
    void observe(int id, const obs::DivergenceStats& s);

    /// Commit this step's decisions: promote kernels that crossed the
    /// budget, count clean steps and trial-demote after the hysteresis
    /// window, emit one {"type":"governor"} record per transition, and
    /// clear the per-step accumulators.
    void end_step(std::int64_t step);

    /// One demote/promote transition, in decision order.
    struct Decision {
        std::int64_t step = 0;
        std::string kernel;
        std::string action;  ///< "promote" | "demote"
        std::uint64_t max_ulp = 0;
        double tail_frac = 0.0;
        std::uint64_t samples = 0;
        int clean_steps = 0;  ///< promoted steps observed before a demote
    };
    [[nodiscard]] const std::vector<Decision>& decisions() const {
        return decisions_;
    }

    /// Steps the kernel spent demoted / total steps it was observed.
    [[nodiscard]] std::uint64_t reduced_steps(int id) const;
    [[nodiscard]] std::uint64_t observed_steps(int id) const;

    /// Install the JSONL sink; each committed Decision is rendered with
    /// decision_record_json() and handed over. The drivers connect this
    /// to obs::metrics() — the governor itself stays link-independent of
    /// the metrics stream.
    void set_record_sink(std::function<void(const std::string&)> sink);

    /// The {"type":"governor"} record for one decision (fields in
    /// obs/schema.cpp; DESIGN.md §11).
    [[nodiscard]] std::string decision_record_json(const Decision& d) const;

    /// Tail fraction of one accumulated sample set under this config:
    /// samples with relative error >= 10^tail_exp over all samples.
    [[nodiscard]] double tail_fraction(const obs::DivergenceStats& s) const;

private:
    struct Kernel {
        std::string name;
        bool reduced = true;
        int clean_steps = 0;
        std::uint64_t steps_observed = 0;
        std::uint64_t steps_reduced = 0;
        obs::DivergenceStats pending;  // this step's accumulated signal
        bool pending_any = false;
    };

    [[nodiscard]] bool over_budget(const obs::DivergenceStats& s) const;

    GovernorConfig cfg_;
    std::vector<Kernel> kernels_;
    std::vector<Decision> decisions_;
    std::function<void(const std::string&)> sink_;
};

}  // namespace tp::fp
