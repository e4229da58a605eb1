"""Command-line front end: simulate | analytic | validate | plot.

Runs are driven by a preset and/or an INI config file with ``--set`` overrides
on top.  Every simulate/analytic run writes a CSV (fixed column order) plus a
JSON manifest holding the fully resolved configuration and seed; re-running
from the manifest's configuration reproduces the CSV byte for byte.  The
manifest also records the NumPy version and the SIMD targets its ufuncs run
on, and a simulate manifest the random-stream version and trials per second.

Exit codes: 0 success, 1 usage/config error, 2 validation failure,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # NumPy 1.x
    from numpy.core import _multiarray_umath as _umath

from . import __version__
from .analytic import ROUTES, UndefinedLawError, sum_rate_sweep
from .config import (
    ConfigError,
    build_experiment,
    parse_overrides,
    read_config_file,
    resolve_groups,
)
from .link import InfeasibleAllocationError
from .quadrature import QuadratureError
from .simulate import STREAM_VERSION, run_sweep
from .validation import run_validation

CSV_COLUMNS = ["scheme", "gamma_db", "sum_rate", "ci_halfwidth", "outage_weak", "outage_strong", "conditioning_rate"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise ConfigError(message)


def _add_sweep_flags(sub):
    sub.add_argument("--config", help="INI configuration file")
    sub.add_argument("--preset", help="bundled experiment preset (fig2, fig3, fig4)")
    sub.add_argument("--set", dest="overrides", action="append", metavar="SECTION.KEY=VALUE",
                     help="override one configuration value (repeatable)")
    sub.add_argument("--seed", type=int, help="root random seed")
    sub.add_argument("--out", help="output CSV path")


def build_parser():
    """Each command accepts only the flags it reads; any other flag is a usage error."""
    parser = _Parser(prog="vlcnoma", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    simulate = subs.add_parser("simulate", help="Monte Carlo sum-rate sweep")
    _add_sweep_flags(simulate)
    simulate.add_argument("--trials", type=int, help="Monte Carlo trials per run group")
    _add_sweep_flags(subs.add_parser("analytic", help="closed-form sum-rate sweep"))
    validate = subs.add_parser("validate", help="analytic-vs-sampling cross validation")
    validate.add_argument("--seed", type=int,
                          help="accepted and ignored: the checks always draw from the fixed seed 20240")
    validate.add_argument("--out", help="output JSON report path")
    validate.add_argument("--quick", action="store_true", help="reduced sample sizes for a fast pass")
    plot = subs.add_parser("plot", help="emit a plotting script for sweep CSVs")
    plot.add_argument("csv", nargs="+", help="CSV files produced by simulate/analytic")
    plot.add_argument("--out", help="path of the generated plot script")
    return parser


def _resolved_groups(args, trials=None):
    file_flat = read_config_file(args.config) if args.config else {}
    set_flat = parse_overrides(args.overrides)
    if args.seed is not None:
        set_flat["sweep.seed"] = str(args.seed)
    if trials is not None:
        set_flat["sweep.trials"] = str(trials)
    return resolve_groups(args.preset, file_flat, set_flat)


def _label(curve_label, suffix):
    return f"{curve_label}|{suffix}" if suffix else curve_label


def _rows_from_curves(curves, suffix):
    rows = []
    for curve_label in sorted(curves):
        for pt in curves[curve_label]:
            rows.append(
                {
                    "scheme": _label(curve_label, suffix),
                    "gamma_db": pt.gamma_db,
                    "sum_rate": pt.sum_rate,
                    "ci_halfwidth": pt.ci_halfwidth,
                    "outage_weak": pt.outage_weak,
                    "outage_strong": pt.outage_strong,
                    "conditioning_rate": pt.conditioning_rate,
                }
            )
    return rows


def _output_path(path):
    """``path`` as a Path whose directory exists, made before any work so that a bad --out costs nothing."""
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: str(row[k]) for k in CSV_COLUMNS})


def _numpy_simd():
    """The SIMD targets NumPy runs its ufuncs on here: its compiled baseline, and the dispatched targets this CPU has.

    ``NPY_DISABLE_CPU_FEATURES`` switches dispatched targets off; they then read as absent from the CPU.
    """
    features = _umath.__cpu_features__
    return {"baseline": list(_umath.__cpu_baseline__),
            "dispatch": [target for target in _umath.__cpu_dispatch__ if features.get(target)]}


def _write_manifest(path, command, args, groups, outputs, started, duration, **extra):
    manifest = {
        **extra,
        "tool": "vlcnoma",
        "version": __version__,
        "numpy_version": np.__version__,
        "numpy_simd": _numpy_simd(),
        "command": command,
        "preset": args.preset,
        "started_utc": started,
        "duration_s": round(duration, 3),
        "groups": [{"suffix": suffix, "config": flat} for suffix, flat in groups],
        "outputs": [str(p) for p in outputs],
        "csv_sha256": {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs if p.suffix == ".csv"},
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(args):
    groups = _resolved_groups(args, args.trials)
    out = _output_path(args.out or f"{args.preset or 'run'}-simulate.csv")
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    rows = []
    trials = 0
    for suffix, flat in groups:
        config = build_experiment(flat)
        workers = int(flat["sweep.workers"])
        curves = run_sweep(config, n_workers=workers)
        rows.extend(_rows_from_curves(curves, suffix))
        trials += config.trials
    _write_csv(out, rows)
    duration = time.perf_counter() - t0
    # trials summed over run groups per second of the whole command
    _write_manifest(out.with_suffix(".manifest.json"), "simulate", args, groups, [out], started, duration,
                    stream_version=STREAM_VERSION, trials_per_s=round(trials / duration, 1))
    print(f"wrote {out} ({len(rows)} rows) and {out.with_suffix('.manifest.json')}")
    return EXIT_OK


def cmd_analytic(args):
    groups = _resolved_groups(args)
    out = _output_path(args.out or f"{args.preset or 'run'}-analytic.csv")
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    rows = []
    failures = 0
    for suffix, flat in groups:
        config = build_experiment(flat)
        if config.noise is not None:
            print(f"note: run group {suffix or 'default'!r} has estimation noise, which the closed-form engine "
                  "does not model; skipped", file=sys.stderr)
            continue
        for scheme in config.schemes:
            if scheme.kind not in ROUTES:
                print(f"note: run group {suffix or 'default'!r} has no closed-form route for scheme "
                      f"{scheme.kind.value!r}; skipped", file=sys.stderr)
        try:
            curves, failed = sum_rate_sweep(config)
        except UndefinedLawError as exc:
            raise ConfigError(f"run group {suffix or 'default'!r}, {exc}") from exc
        for label, exc in failed.items():
            print(f"numerical failure for {_label(label, suffix)}: {exc}", file=sys.stderr)
        failures += len(failed)
        rows.extend(_rows_from_curves(curves, suffix))
    _write_csv(out, rows)
    _write_manifest(out.with_suffix(".manifest.json"), "analytic", args, groups, [out], started, time.perf_counter() - t0)
    print(f"wrote {out} ({len(rows)} rows) and {out.with_suffix('.manifest.json')}")
    return EXIT_NUMERICAL if failures else EXIT_OK


def cmd_validate(args):
    out = _output_path(args.out) if args.out else None
    results = run_validation(quick=args.quick)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if out:
        report = [dataclasses.asdict(r) for r in results]
        with open(out, "w") as fh:
            json.dump({"passed": not failed, "checks": report}, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out}")
    return EXIT_VALIDATION if failed else EXIT_OK


PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Render sum-rate-versus-SNR curves from sweep CSVs (auto-generated)."""

import csv
from collections import defaultdict

import matplotlib.pyplot as plt

CSV_FILES = {csv_files!r}

curves = defaultdict(list)
for path in CSV_FILES:
    with open(path) as fh:
        for row in csv.DictReader(fh):
            curves[(path, row["scheme"])].append((float(row["gamma_db"]), float(row["sum_rate"]),
                                                  float(row["ci_halfwidth"])))

fig, ax = plt.subplots(figsize=(7.0, 4.8))
for (path, scheme), pts in sorted(curves.items()):
    pts.sort()
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    style = "--" if "analytic" in path else "-"
    marker = "" if "analytic" in path else "o"
    ax.plot(xs, ys, style, marker=marker, markersize=3.5, linewidth=1.2, label=scheme)

ax.set_xlabel("transmit SNR [dB]")
ax.set_ylabel("sum rate [bit/s/Hz]")
ax.grid(True, alpha=0.3)
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig({out_png!r}, dpi=200)
print("wrote", {out_png!r})
'''


def cmd_plot(args):
    out, paths = Path(args.out or "plot_sum_rates.py"), [Path(p) for p in args.csv]
    if out.suffix.lower() == ".png":
        raise ConfigError(f"cannot write {out}: the script renders to the .png of its own path, so it would "
                          "draw over itself; give a script path such as plot.py")
    if out.resolve() in {p.resolve() for p in paths}:
        raise ConfigError(f"cannot write {out}: it is one of the input CSVs")
    out = _output_path(out)
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                first = next(reader, None)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        if header != CSV_COLUMNS:
            offending = set(header or []) ^ set(CSV_COLUMNS)
            raise ConfigError(f"{path}: unexpected CSV schema (column mismatch: {sorted(offending)})")
        if first is None:
            raise ConfigError(f"{path}: CSV has no data rows")
    png = str(out.with_suffix(".png"))
    script = PLOT_TEMPLATE.format(csv_files=[str(p) for p in paths], out_png=png)
    out.write_text(script)
    print(f"wrote {out}; run it with python to render {png}")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "analytic":
            return cmd_analytic(args)
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "plot":
            return cmd_plot(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, InfeasibleAllocationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
