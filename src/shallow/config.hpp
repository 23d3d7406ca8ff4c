#pragma once
// Configuration types for the CLAMR-analogue shallow-water mini-app.

#include <stdexcept>
#include <string>

#include "mesh/amr_mesh.hpp"
#include "simd/dispatch.hpp"

namespace tp::shallow {

/// How the solver refreshes its topology caches after an AMR adapt.
/// Both modes produce bit-identical solutions; Full exists as the
/// measured baseline the incremental pipeline is benchmarked against.
enum class RezoneMode {
    Incremental,  ///< dirty-span cache update + threaded slot resolve
    Full,         ///< historic path: face-scan rebuild of every cache
};

/// Parse the CLI spelling ("incremental" | "full"); throws
/// std::invalid_argument on anything else.
inline RezoneMode parse_rezone_mode(const std::string& s) {
    if (s == "incremental") return RezoneMode::Incremental;
    if (s == "full") return RezoneMode::Full;
    throw std::invalid_argument(
        "rezone mode must be 'incremental' or 'full', got '" + s + "'");
}

[[nodiscard]] inline const char* rezone_mode_name(RezoneMode m) {
    return m == RezoneMode::Incremental ? "incremental" : "full";
}

/// Parse the --blocks CLI spelling ("on" | "off"); throws
/// std::invalid_argument on anything else.
inline bool parse_blocks_mode(const std::string& s) {
    if (s == "on") return true;
    if (s == "off") return false;
    throw std::invalid_argument("blocks mode must be 'on' or 'off', got '" +
                                s + "'");
}

[[nodiscard]] inline const char* blocks_mode_name(bool on) {
    return on ? "on" : "off";
}

/// Solver configuration. Defaults reproduce the paper's cylindrical
/// dam-break setup at laptop scale; the benches override sizes per table.
struct Config {
    mesh::MeshGeometry geom{0.0, 0.0, 100.0, 100.0, 64, 64, 2};
    double gravity = 9.80665;
    double courant = 0.20;        ///< CFL number (paper holds this fixed
                                  ///< across resolutions in Fig. 3)
    int rezone_interval = 4;      ///< steps between AMR adapt calls
    double refine_threshold = 0.02;   ///< relative height jump to refine
    double coarsen_threshold = 0.004; ///< relative height jump to coarsen
    simd::Mode simd = simd::Mode::Auto;  ///< pack-vectorized or scalar
                                         ///< finite_diff kernel (runtime
                                         ///< --simd=auto|scalar|native);
                                         ///< both paths are bit-identical
    RezoneMode rezone_mode = RezoneMode::Incremental;  ///< runtime
                                         ///< --rezone=incremental|full
    bool blocks = true;  ///< --blocks=on|off: run the flux sweep over
                         ///< dense SoA mesh-block tiles (on, the
                         ///< default) or the per-cell runs (off, the
                         ///< bit-identical oracle path)
};

/// Cylindrical dam break initial condition: a column of water of height
/// `h_inside` and radius `radius` centered in the domain over a background
/// of `h_outside`, at rest. This is CLAMR's standard demonstration problem.
struct DamBreak {
    double h_inside = 80.0;
    double h_outside = 10.0;
    double radius_fraction = 0.2;  ///< radius as a fraction of min extent
};

}  // namespace tp::shallow
