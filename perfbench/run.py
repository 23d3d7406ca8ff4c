#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload amr_dam_break --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (and with it the library under src/) in Release into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench, draws the workload's
initial condition from --seed, runs the measuring program for --seconds,
prints a readable report (host manifest, inputs, every metric with its
unit, every check) and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is 0 only when a result was printed. See README.md for the
workloads, the metrics and what each is expected to move.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run must end within 180 s, or 900 s when it has to build first.
RUN_LIMIT_S = 175
BUILD_RUN_LIMIT_S = 895

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "updates_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "peak_rss_mib": "MiB",
    "ckpt_mib": "MiB",
    "restart_s": "s",
}

PER_LAYER = {
    "shallow.step_s": "s",
    "shallow.flux_sweep_s": "s",
    "shallow.apply_s": "s",
    "shallow.cfl_s": "s",
    "shallow.flux_sweep_gflops": "GFLOP/s",
    "shallow.flux_sweep_gbps": "GB/s",
    "shallow.flux_sweep_ops_per_byte": "flop/B",
    "shallow.flux_sweep_roof_frac": "ratio",
    "mesh.rezone_s": "s",
    "mesh.rezone_flags_s": "s",
    "mesh.rezone_adapt_s": "s",
    "mesh.rezone_remap_s": "s",
    "mesh.rezone_cache_s": "s",
    "mesh.rezones": "count",
    "mesh.resolved_frac": "ratio",
    "mesh.blocks_rebuilt": "count",
    "mesh.blocks_translated": "count",
    "par.step_s": "s",
    "par.precompute_s": "s",
    "par.interior_s": "s",
    "par.boundary_s": "s",
    "par.halo_post_s": "s",
    "par.halo_wait_s": "s",
    "par.halo_bytes_per_step": "B",
    "par.imbalance_frac": "ratio",
    "sem.step_s": "s",
    "sem.volume_s": "s",
    "sem.surface_s": "s",
    "sem.filter_s": "s",
    "sem.rk_s": "s",
    "sem.volume_gflops": "GFLOP/s",
    "io.checkpoint_call_s": "s",
    "io.stall_s": "s",
    "io.drain_s": "s",
    "io.restart_read_s": "s",
    "io.restore_s": "s",
    "compress.ratio": "ratio",
    "host.triad_gbps": "GB/s",
    "host.fma_gflops": "GFLOP/s",
    "unattributed_s": "s",
    "trace_overhead_frac": "ratio",
}

WORKLOADS = ("amr_dam_break", "dist_dam_break", "bubble_ckpt")


def draw_inputs(workload, seed):
    """Initial-condition values for one seed, within 1% of the library
    defaults. The ranges are narrow because the work depends on them: in
    bubble_ckpt, dtheta 0.484 against 0.519 moved solve_s by about 10%."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "bubble_ckpt":
        return {
            "dtheta": round(rng.uniform(0.495, 0.505), 6),
            "radius": round(rng.uniform(247.5, 252.5), 6),
            "center-z": round(rng.uniform(346.5, 353.5), 6),
        }
    return {
        "h-inside": round(rng.uniform(79.2, 80.8), 6),
        "h-outside": round(rng.uniform(9.9, 10.1), 6),
        "radius-fraction": round(rng.uniform(0.199, 0.201), 6),
    }


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def work_dir():
    """Where builds and scratch files go, inside the checkout."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    build_dir = os.path.join(work_dir(), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    deadline = time.monotonic() + BUILD_RUN_LIMIT_S - 60
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                ok = subprocess.run(
                    cmd, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, deadline - time.monotonic()),
                ).returncode == 0
            except subprocess.TimeoutExpired:
                ok = False
            if not ok:
                break
    if not ok:
        with open(log_path) as f:
            tail = f.read()[-3000:]
        if not os.path.exists(os.path.join(build_dir, "build.ninja")) and \
                not os.path.exists(os.path.join(build_dir, "Makefile")):
            # A failed configure must not leave a half-written cache.
            shutil.rmtree(build_dir, ignore_errors=True)
        fail(f"build failed:\n{tail}")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.exists(binary):
        fail("build produced no perfbench binary")
    return binary


def source_identity():
    """Git commit when the checkout has one, and a digest of the library
    and benchmark sources either way (an exported tree has no .git)."""
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return sha or "unknown", h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    start = time.monotonic()
    binary = build()
    built = time.monotonic() - start > 5.0
    limit = BUILD_RUN_LIMIT_S if built else RUN_LIMIT_S
    inputs = draw_inputs(args.workload, args.seed)
    scratch = os.path.join(work_dir(), "perfbench-run",
                           f"{args.workload}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [binary, "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", scratch]
    for k, v in inputs.items():
        cmd += [f"--{k}", repr(v)]
    env = dict(os.environ, OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env,
            timeout=max(1.0, limit - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {limit} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{args.workload} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"unreadable output from {args.workload}:\n{proc.stdout[-2000:]}")

    sha, digest = source_identity()
    host = res["host"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  seconds {args.seconds}")
    print("inputs   " + "  ".join(f"{k}={v}" for k, v in inputs.items()))
    print(f"host     cores={os.cpu_count()} isa={host['isa']} "
          f"compiler=gcc-{host['compiler']} build=Release "
          f"({host['build']}) git={sha} source={digest} "
          f"omp_threads={host['openmp_threads']} "
          f"llc={host['llc_bytes'] / 2**20:.1f}MiB")
    print(f"reps     {res['reps']} untraced + {res['traced_reps']} traced "
          f"(+1 warm-up), set-up samples {res['setup_samples']}, "
          f"solve_s per rep {res['solve_s_reps']}")

    if args.trace == 0:
        metrics = {k: res["metrics"][k] for k in END_TO_END}
        notes = {"step_ms_tail": f"p{res['tail_percentile']:.4g} of each "
                                 f"repetition's steps, 10 beyond it; median "
                                 f"of {res['tail_reps']} repetitions, "
                                 f"{res['step_samples']} steps"}
    else:
        print(f"roof     triad arrays {host['triad_array_bytes'] / 2**20:.0f}"
              f" MiB each ({host['triad_total_bytes'] / 2**20:.0f} MiB total"
              f", {host['triad_total_bytes'] / host['llc_bytes']:.1f}x LLC);"
              " bandwidth roof "
              + ("valid" if host["triad_bandwidth_roof_valid"] else
                 "NOT valid (no LLC size, or memory cannot hold 4x LLC): "
                 "ops/byte only"))
        # A layer the workload does not run did no work: its figures are 0.
        # The roof fraction is left out when the bandwidth roof is not
        # valid, rather than reported against a roof that was not measured.
        metrics = {name: {"value": res["layers"].get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()
                   if name != "shallow.flux_sweep_roof_frac"
                   or host["triad_bandwidth_roof_valid"]}
        notes = {"shallow.flux_sweep_gbps": "computed bytes (ledger model)"}

    # A figure the program could not represent (no successful repetition)
    # arrives as null: leave it out, and the result is not correct.
    correct = bool(res["correct"])
    for name in [n for n, m in metrics.items() if m["value"] is None]:
        print(f"  {name:34s} {'not measured':>16s}")
        del metrics[name]
        correct = False
    for name, m in metrics.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}{note}")
    for c in res["checks"]:
        status = "ok  " if c["ok"] else "FAIL"
        print(f"check    {status} {c['name']} {c['detail']}".rstrip())
    attempted, failed = res["attempted"], res["failed"]
    print(f"failed_frac {failed / max(1, attempted):.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": correct,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
