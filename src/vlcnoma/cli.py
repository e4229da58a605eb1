"""Command-line front end: simulate | analytic | validate | plot.

Runs are driven by a preset and/or an INI config file with ``--set`` overrides
on top.  Every simulate/analytic run writes a CSV (fixed column order) plus a
JSON manifest holding the fully resolved configuration and seed; re-running
from the manifest's configuration reproduces the CSV byte for byte.  The
manifest also records the NumPy version, the SIMD targets its ufuncs run on
and what the CSV's ci_halfwidth column means, and a simulate manifest the
random-stream version and trials per second.

Exit codes: 0 success, 1 usage/config error, 2 validation failure,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import operator
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
from .analytic import UndefinedLawError, sum_rate_sweep
from .config import (
    ConfigError,
    build_experiment,
    parse_overrides,
    read_config_file,
    resolve_groups,
)
from .link import CurvePoint
from .quadrature import QuadratureError
from .simulate import STREAM_VERSION, run_sweep
from .stats import Z_CI
from .validation import run_validation

# one row per curve point: the curve label, then the CurvePoint fields in order
CSV_COLUMNS = ["scheme", *(f.name for f in dataclasses.fields(CurvePoint))]
# reads those fields in that order; dataclasses.astuple would deep-copy every value, at 30x the cost per row
_point_values = operator.attrgetter(*CSV_COLUMNS[1:])

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
    simulate.set_defaults(handler=cmd_sweep)
    analytic = subs.add_parser("analytic", help="closed-form sum-rate sweep")
    _add_sweep_flags(analytic)
    analytic.set_defaults(handler=cmd_sweep, trials=None)  # the closed form draws no trials
    validate = subs.add_parser("validate", help="analytic-vs-sampling cross validation")
    validate.add_argument("--seed", type=int,
                          help="accepted and ignored: the checks always draw from the fixed seed 20240")
    validate.add_argument("--out", help="output JSON report path")
    validate.add_argument("--quick", action="store_true", help="reduced sample sizes for a fast pass")
    validate.set_defaults(handler=cmd_validate)
    plot = subs.add_parser("plot", help="emit a plotting script for sweep CSVs")
    plot.add_argument("csv", nargs="+", help="CSV files produced by simulate/analytic")
    plot.add_argument("--out", help="path of the generated plot script")
    plot.set_defaults(handler=cmd_plot)
    return parser


def _resolved_groups(args):
    file_flat = read_config_file(args.config) if args.config else {}
    set_flat = parse_overrides(args.overrides)
    if args.seed is not None:
        set_flat["sweep.seed"] = str(args.seed)
    if args.trials is not None:
        set_flat["sweep.trials"] = str(args.trials)
    return resolve_groups(args.preset, file_flat, set_flat)


def _label(curve_label, suffix):
    return f"{curve_label}|{suffix}" if suffix else curve_label


def _rows_from_curves(curves, suffix):
    return [(_label(label, suffix), *_point_values(point)) for label in sorted(curves) for point in curves[label]]


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
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


def _numpy_simd():
    """The SIMD targets NumPy runs its ufuncs on here: its compiled baseline, and the dispatched targets this CPU has.

    ``NPY_DISABLE_CPU_FEATURES`` switches dispatched targets off; they then read as absent from the CPU.
    """
    features = _umath.__cpu_features__
    return {"baseline": list(_umath.__cpu_baseline__),
            "dispatch": [target for target in _umath.__cpu_dispatch__ if features.get(target)]}


def _write_manifest(path, args, groups, outputs, started, duration, **extra):
    manifest = {
        **extra,
        "tool": "vlcnoma",
        "version": __version__,
        "numpy_version": np.__version__,
        "numpy_simd": _numpy_simd(),
        "command": args.command,
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


def cmd_sweep(args):
    """``simulate`` or ``analytic``: every run group through the command's engine, into one CSV and its manifest."""
    groups = _resolved_groups(args)
    # a refused run group or output path costs no work; the groups are built before --out's directory is made
    configs = [build_experiment(flat) for _, flat in groups]
    out = _output_path(args.out or f"{args.preset or 'run'}-{args.command}.csv")
    manifest = _output_path(out.with_suffix(".manifest.json"))
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    rows = []
    failures = trials = 0
    for (suffix, _), config in zip(groups, configs):
        group = suffix or "default"
        try:
            if args.command == "simulate":
                curves, failed, skipped = run_sweep(config), {}, ()
            else:
                curves, failed, skipped = sum_rate_sweep(config)
        except UndefinedLawError as exc:
            raise ConfigError(f"run group {group!r}, {exc}") from exc
        for reason in skipped:
            print(f"note: run group {group!r} has {reason}; skipped", file=sys.stderr)
        for label, exc in failed.items():
            print(f"numerical failure for {_label(label, suffix)}: {exc}", file=sys.stderr)
        failures += len(failed)
        trials += config.trials
        rows.extend(_rows_from_curves(curves, suffix))
    _write_csv(out, rows)
    duration = time.perf_counter() - t0
    # a simulate manifest adds its stream version, and trials summed over run groups per second of the whole command
    if args.command == "simulate":
        extra = {"stream_version": STREAM_VERSION, "trials_per_s": round(trials / duration, 1),
                 "ci_halfwidth": f"{Z_CI:g} standard errors of the conditional per-trial sum rate"}
    else:
        extra = {"ci_halfwidth": "propagated quadrature error R_w*e_w + R_s*e_s, the target rates times the error "
                                 "estimates of the weak and strong outage probabilities; no z"}
    _write_manifest(manifest, args, groups, [out], started, duration, **extra)
    print(f"wrote {out} ({len(rows)} rows) and {manifest}")
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
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
