"""Benchmark of the ``vlcnoma`` command line, timed from outside the program.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition of a workload is one fresh interpreter (``worker.py``) that
imports ``vlcnoma.cli`` and calls ``cli.main`` once per command, as a user of
the command line would.  Repetitions run back to back, one at a time, until
``--seconds`` have passed (at least one).  Every output is checked against
the independent reference sampler (``refsampler.py``) and the exact
properties in ``checks.py``.  With ``--trace 1`` traced and untraced
repetitions alternate and the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable summary
goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import refsampler  # noqa: E402

# Monte Carlo trials per run group: 8 chunks of simulate._CHUNK (4096), so a
# chunked engine is timed on whole chunks.  It is the largest such count with
# which one mc-individual repetition (4 run groups) fits in a 10 s run at the
# reference speed: 131 072 trials, about 10 s.  Per-trial costs at 5000,
# 32 768 and 100 000 trials (the presets' default) agree within the noise;
# perfbench/README.md has the figures.
TRIALS = 32768
REF_TRIALS = {"simulate": 100_000, "analytic": 200_000}  # reference snapshots per run group
CF_SCHEMES = ("full-csi", "mean-angle", "two-bit-instant", "two-bit-mean")  # schemes with a closed-form route
VALIDATE_CHECKS = 32  # checks ``validate --quick`` reports
SETUP_PROBES = 3  # extra import-only interpreters per run, for the set-up median
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# Probe-kernel time at the reference CPU speed.  worker.probe_kernel ran in
# 91-188 us (5th-95th percentile) on the 2-core machine the README figures
# come from.  Every time this benchmark reports is rescaled to that speed:
# seconds * KERNEL_REF_S / the mean kernel time sampled while they passed.
KERNEL_REF_S = 100e-6

# workload -> (CLI command, presets in call order)
WORKLOADS = {
    "mc-individual": ("simulate", ("fig2", "fig4")),
    "mc-group": ("simulate", ("fig3",)),
    "closed-form": ("analytic", ("fig2", "fig3")),
    "validate-quick": ("validate", (None,)),
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {**layers.UNITS, "trace.overhead_pct": "%"}
# what one unit of work_per_s is, per CLI command
WORK_UNIT = {"simulate": "mc_trials_per_s", "analytic": "cf_points_per_s", "validate": "checks_per_s"}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run: no package, or a repetition gave no result."""


def command_argv(command, preset, seed, out):
    if command == "validate":
        return ["validate", "--quick", "--seed", str(seed), "--out", str(out)]
    argv = [command, "--preset", preset, "--seed", str(seed), "--set", "sweep.workers=1", "--out", str(out)]
    return argv + (["--trials", str(TRIALS)] if command == "simulate" else [])


def expected_operations(command, preset):
    """CSV labels a command must write, or the number of checks ``validate`` must pass."""
    if command == "validate":
        return VALIDATE_CHECKS
    return refsampler.curve_labels(preset, CF_SCHEMES if command == "analytic" else None)


def work_items(command, presets):
    """Units of work one repetition does: trials, curve points or checks."""
    if command == "simulate":
        return TRIALS * sum(len(refsampler.PRESETS[p]) for p in presets)
    if command == "analytic":
        return len(refsampler.GAMMA_DB) * sum(len(expected_operations(command, p)) for p in presets)
    return VALIDATE_CHECKS


def judge(command, presets, outputs, calls, refs, first):
    """(attempted, failed, problems) of one repetition.

    ``refs`` maps preset -> label -> reference curve; ``first`` keeps the first
    curve seen per (preset, label), against which later repetitions must match.
    """
    attempted = failed = 0
    problems = []
    for preset, out, call in zip(presets, outputs, calls):
        expected = expected_operations(command, preset)
        if command == "validate":
            report = json.loads(out.read_text()) if out.exists() else None
            attempted += expected
            failed += checks.validate_failures(call["code"], report, expected)
            continue
        attempted += len(expected)
        if call["code"] != 0 or not out.exists():
            failed += len(expected)
            continue
        curves = checks.parse_csv(out.read_text())
        for label in expected:
            curve = curves.get(label)
            if curve is None:
                failed += 1
                continue
            if command == "simulate":
                found = checks.check_mc_curve(curve, refs[preset][label], TRIALS)
            else:
                found = checks.check_cf_curve(curve, refs[preset][label])
            found += checks.check_identical(curve, first.setdefault((preset, label), curve))
            problems += [f"{preset} {label}: {p}" for p in found]
    return attempted, failed, problems


def spawn(spec, timeout):
    """Run one worker; returns (its result, set-up seconds)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not Path(result["package"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchmarkError(f"imported vlcnoma from {result['package']}, not from {ROOT / 'src'}")
    return result, result["imported"] - start


def median(values):
    return float(statistics.median(values))


def run(workload, seed, seconds, trace):
    if not (ROOT / "src" / "vlcnoma" / "cli.py").is_file():
        raise BenchmarkError(f"no package source at {ROOT / 'src' / 'vlcnoma'}")
    command, presets = WORKLOADS[workload]
    out_dir = HERE / "_out" / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = ".json" if command == "validate" else ".csv"
    outputs = [out_dir / f"{preset or 'validate'}{suffix}" for preset in presets]
    commands = [command_argv(command, p, seed, o) for p, o in zip(presets, outputs)]
    refs = {}
    if command != "validate":
        refs = {p: refsampler.reference_curves(p, REF_TRIALS[command], seed) for p in presets}

    run_start = time.monotonic()
    log = str(out_dir / "cli.log")
    setups = [spawn({"commands": [], "log": log}, 60.0) for _ in range(SETUP_PROBES)]
    reps = []  # (traced, reference-speed wall s, peak rss MB, per-layer metrics or None)
    raw_walls = []
    attempted = failed = 0
    problems, first = [], {}
    loop_start = time.monotonic()
    while not reps or time.monotonic() - loop_start < seconds or (trace and len(reps) < 2):
        traced = trace and len(reps) % 2 == 1
        for out in outputs:
            out.unlink(missing_ok=True)
        spec = {"commands": commands, "log": log, "trace": traced, "spans": str(out_dir / "spans.npz")}
        result, setup = spawn(spec, max(RUN_LIMIT_S - (time.monotonic() - run_start), 1.0))
        setups.append((result, setup))
        a, f, p = judge(command, presets, outputs, result["calls"], refs, first)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        raw_walls.append(sum(c["seconds"] for c in result["calls"]))
        wall = sum(c["seconds"] * KERNEL_REF_S / c["kernel_s"] for c in result["calls"])
        per_layer = result.get("layers")
        if per_layer:
            scale = KERNEL_REF_S / result["layers_kernel_s"]
            per_layer = {k: v if layers.UNITS[k] == "count" else v * scale for k, v in per_layer.items()}
        reps.append((traced, wall, result["peak_rss_kb"] / 1024.0, per_layer))

    plain = [r for r in reps if not r[0]]
    wall = median([r[1] for r in plain])
    if trace:
        traced_reps = [r for r in reps if r[0]]
        # counts repeat exactly between repetitions; median_low keeps them whole
        values = {name: (statistics.median_low if unit == "count" else median)([r[3][name] for r in traced_reps])
                  for name, unit in layers.UNITS.items()}
        values["trace.overhead_pct"] = (median([r[1] for r in traced_reps]) / wall - 1.0) * 100.0
        units = PER_LAYER
    else:
        values = {
            "setup_s": median([s * KERNEL_REF_S / r["setup_kernel_s"] for r, s in setups]),
            "wall_s": wall,
            "work_per_s": work_items(command, presets) / wall,
            "peak_rss_mb": median([r[2] for r in plain]),
        }
        units = END_TO_END
    for p in problems:
        print(f"wrong output: {p}", file=sys.stderr)
    print(f"{workload}: {len(reps)} repetitions ({sum(r[0] for r in reps)} traced), "
          f"{attempted} operations attempted, {failed} failed, {len(problems)} wrong", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}", file=sys.stderr)
    print(f"  (unscaled: median wall {median(raw_walls):.4g} s, setup {median([s for _, s in setups]):.4g} s)",
          file=sys.stderr)
    if not trace:
        print(f"  ({WORK_UNIT[command]} = {values['work_per_s']:.6g})", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
