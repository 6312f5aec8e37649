#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark from source, runs one workload,
checks its outputs, and prints one JSON result as the last stdout line.

Run from the root of a SeDA checkout:

  python3 perfbench/run.py --workload serve_open --seed 1 --seconds 30 --trace 0

Workloads: serve_open, infer_session, infer_serve, suite_sweep (see
perfbench/README.md for what each measures and why).

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1 prints
every per-layer metric.  The first run configures and builds
.bench_build/ (CMake, Release); later runs rebuild incrementally.  Every
SEDA_* environment variable is removed from the measured process, so it
runs as users run it: observability live, crypto backends auto-selected.
The traced run also measures obs.overhead_pct: the serve_open `hi` phase
p50 with observability live against SEDA_OBS=0, in two extra processes.

Note lines ("# ...") carry the host fingerprint, sample counts, per-phase
detail and informational percentiles.  Exit status is 0 with a result
line, or non-zero without one when the build or a run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "seda_perfbench"
WORKLOADS = ("serve_open", "infer_session", "infer_serve", "suite_sweep")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; exits 2 on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no SeDA source tree in {ROOT} (run from the root of a checkout)")
        sys.exit(2)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "seda_perfbench",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(2)


def clean_env(extra=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEDA_")}
    env.update(extra or {})
    return env


def run_binary(args, env):
    """Runs the benchmark binary; returns (note lines, result dict)."""
    try:
        proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(args)}")
        sys.exit(3)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"benchmark binary failed (exit {proc.returncode}): {' '.join(args)}")
        sys.exit(3)
    return lines[:-1], json.loads(lines[-1])


def source_digest():
    """Content hash of the program's sources (the checkout need not be git)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def fingerprint(notes, env):
    """The binary's fingerprint note, completed with what only we know."""
    fp = {}
    for line in notes:
        if line.startswith("# fingerprint "):
            fp = json.loads(line[len("# fingerprint "):])
    fp["obs"] = "off" if env.get("SEDA_OBS", "").lower() in ("0", "off", "false") else "live"
    fp["source_sha"] = source_digest()
    fp["commit"] = commit()
    return fp


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build()
    env = clean_env()
    base = ["--seed", str(args.seed)]
    notes = []
    obs_pct = None
    if args.trace:
        # Observability cost on the serving path, live vs off, same seed.
        probe_s = str(max(1.0, 0.1 * args.seconds))
        live_notes, live = run_binary(["--probe", "serve_hi", "--seconds", probe_s] + base, env)
        off_notes, off = run_binary(["--probe", "serve_hi", "--seconds", probe_s] + base,
                                    clean_env({"SEDA_OBS": "0"}))
        p_live = live["metrics"]["probe_p50_us"]["value"]
        p_off = off["metrics"]["probe_p50_us"]["value"]
        obs_pct = (p_live - p_off) / p_off * 100.0
        notes += [n for n in live_notes + off_notes if not n.startswith("# fingerprint")]
        notes.append(f"# obs probe: serve_open hi p50 {p_live:.4f} us live, {p_off:.4f} us "
                     f"with SEDA_OBS=0")
        run_s = 0.8 * args.seconds
    else:
        run_s = args.seconds
    run_notes, result = run_binary(["--workload", args.workload, "--seconds", str(run_s),
                                    "--trace", str(args.trace)] + base, env)
    notes += run_notes
    metrics = result["metrics"]
    if obs_pct is not None:
        metrics["obs.overhead_pct"] = {"value": obs_pct, "unit": "%"}
        result["attempted"] += live["attempted"] + off["attempted"]
        result["failed"] += live["failed"] + off["failed"]
        result["correct"] = result["correct"] and live["correct"] and off["correct"]

    want = expected_metrics(args.trace)
    if set(metrics) != set(want) or any(metrics[k]["unit"] != u for k, u in want.items()):
        log(f"metric set differs from BENCHMARK.json: missing {sorted(set(want) - set(metrics))},"
            f" extra {sorted(set(metrics) - set(want))}")
        sys.exit(4)

    for line in notes:
        if not line.startswith("# fingerprint"):
            print(line)
    print("# fingerprint " + json.dumps(fingerprint(run_notes, env), sort_keys=True))
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace}))
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": {k: metrics[k] for k in want}}), flush=True)


if __name__ == "__main__":
    main()
