"""Output checks that decide whether one benchmark operation is correct.

An operation is one output curve (one CSV ``scheme`` label) or one
``validate`` check.  Curve checks return a list of problems; an empty list
means the curve is correct.

Agreement with the reference sampler uses Bernstein's inequality on the
difference of the two estimates.  The program's mean over n1 values and the
reference's mean over n2 values, both of variance at most v and range b, are
independent, so their difference is a sum of n1 + n2 independent terms of
total variance V = v (1/n1 + 1/n2), each within M = b / min(n1, n2) of its
mean.  Under a correct program it lies within

    t = L M / 3 + sqrt((L M / 3)^2 + 2 L V),   L = ln(2 / DELTA)

of 0 except with probability DELTA.  Unlike a normal-approximation interval
this stays valid for outage counts of a few events, which the tails of every
curve produce.  A closed-form curve has no sampling term (n1 = infinity);
its propagated quadrature error is added to t instead.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from refsampler import GAMMA_DB

# Per-comparison false-alarm probability.  A run compares at most 14 curves x 16
# points x 4 columns = 896 distinct values (repetitions at one seed write the
# same bytes), so a whole run falsely fails with probability at most 1e-3.
DELTA = 1e-6
CI_CEILING = 1e-4  # bit/s/Hz: largest propagated quadrature error a closed-form point may report
_L = math.log(2.0 / DELTA)
_EXACT = 1e-9  # float slack for identities the program computes in one expression


def deviation(n_prog, n_ref, var, spread):
    """Bernstein half-width t of the difference of two means of n_prog and n_ref values.

    ``n_prog`` None means an exact value (a closed form) against a mean of
    ``n_ref`` values; a count of 0 gives inf.
    """
    with np.errstate(divide="ignore"):
        inv = [1.0 / np.asarray(n, float) for n in (n_prog, n_ref) if n is not None]
    a = _L * spread * np.maximum.reduce(inv) / 3.0
    return a + np.sqrt(a * a + 2.0 * _L * np.asarray(var, float) * sum(inv))


def _bernoulli_var(p, q):
    return np.maximum(p * (1.0 - p), q * (1.0 - q))


class Curve:
    """One curve of a sweep CSV, as columns, plus the exact bytes of its rows."""

    def __init__(self, rows, raw):
        self.raw = raw
        col = lambda k: np.array([float(r[k]) for r in rows])  # noqa: E731
        self.gamma_db = col("gamma_db")
        self.sum_rate = col("sum_rate")
        self.ci = col("ci_halfwidth")
        self.outage_weak = col("outage_weak")
        self.outage_strong = col("outage_strong")
        self.cond = col("conditioning_rate")


def parse_csv(text):
    """{label: Curve} from the text of a sweep CSV."""
    lines = text.splitlines(keepends=True)
    rows = list(csv.DictReader(io.StringIO(text)))
    raw, grouped = {}, {}
    for line, row in zip(lines[1:], rows):
        grouped.setdefault(row["scheme"], []).append(row)
        raw[row["scheme"]] = raw.get(row["scheme"], "") + line
    return {label: Curve(rs, raw[label]) for label, rs in grouped.items()}


def _common_problems(curve, ref):
    problems = []
    if not np.array_equal(curve.gamma_db, GAMMA_DB):
        return [f"gamma grid {curve.gamma_db.tolist()} is not {list(GAMMA_DB)}"]
    values = np.concatenate([curve.sum_rate, curve.ci, curve.outage_weak, curve.outage_strong, curve.cond])
    if not np.all(np.isfinite(values)):
        problems.append("non-finite value")
    ceiling = ref.rate_weak + ref.rate_strong
    for name, col, hi in (("outage_weak", curve.outage_weak, 1.0), ("outage_strong", curve.outage_strong, 1.0),
                          ("conditioning_rate", curve.cond, 1.0), ("sum_rate", curve.sum_rate, ceiling)):
        if np.any(col < 0.0) or np.any(col > hi):
            problems.append(f"{name} outside [0, {hi:g}]")
    if np.any(curve.ci < 0.0):
        problems.append("negative ci_halfwidth")
    if np.ptp(curve.cond) != 0.0:
        problems.append("conditioning_rate varies along the curve")
    implied = ref.rate_weak * (1.0 - curve.outage_weak) + ref.rate_strong * (1.0 - curve.outage_strong)
    gap = np.max(np.abs(curve.sum_rate - implied))
    if gap > _EXACT * ceiling:
        problems.append(f"sum_rate differs from the rates times the success probabilities by {gap:.3g}")
    return problems


def _agreement_problems(curve, ref, trials, var_prog, err_weak, err_strong, err_sum):
    """Point-wise agreement with the reference.

    ``trials`` is the program's snapshot count (None for the closed form,
    whose own error enters through ``err_*`` instead of a sampling term).
    """
    problems = []
    n_cond = None if trials is None else int(round(curve.cond[0] * trials))
    spread = ref.rate_weak + ref.rate_strong
    rows = (
        ("conditioning_rate", curve.cond, ref.conditioning_rate, trials, ref.trials,
         _bernoulli_var(curve.cond, ref.conditioning_rate), 1.0, 0.0),
        ("outage_weak", curve.outage_weak, ref.outage_weak, n_cond, ref.n_cond,
         _bernoulli_var(curve.outage_weak, ref.outage_weak), 1.0, err_weak),
        ("outage_strong", curve.outage_strong, ref.outage_strong, n_cond, ref.n_cond,
         _bernoulli_var(curve.outage_strong, ref.outage_strong), 1.0, err_strong),
        ("sum_rate", curve.sum_rate, ref.sum_rate, n_cond, ref.n_cond,
         np.maximum(var_prog, ref.sum_rate_var), spread, err_sum),
    )
    for name, prog, want, n_prog, n_ref, var, b, err in rows:
        tol = deviation(n_prog, n_ref, var, b) + err
        gap = np.abs(prog - want)
        tol = np.broadcast_to(tol, gap.shape)
        if np.any(gap > tol):
            i = int(np.argmax(gap - tol))
            want_i = np.broadcast_to(want, gap.shape)[i]
            problems.append(f"{name} at {curve.gamma_db[i]:g} dB: {prog[i]:.6g} vs reference {want_i:.6g} "
                            f"(tolerance {tol[i]:.3g})")
    return problems


def check_mc_curve(curve, ref, trials):
    """Problems of a Monte Carlo curve written from ``trials`` snapshots."""
    problems = _common_problems(curve, ref)
    if problems:
        return problems
    for name, col, sign in (("outage_weak", curve.outage_weak, -1), ("outage_strong", curve.outage_strong, -1),
                            ("sum_rate", curve.sum_rate, 1)):
        if np.any(sign * np.diff(col) < 0.0):
            problems.append(f"{name} is not {'non-increasing' if sign < 0 else 'non-decreasing'} in gamma")
    # the program's CI is 1.96 standard errors of the conditioned per-trial rate
    var_prog = (curve.ci / 1.96) ** 2 * max(round(curve.cond[0] * trials), 1)
    return problems + _agreement_problems(curve, ref, trials, var_prog, 0.0, 0.0, 0.0)


def check_cf_curve(curve, ref, ci_ceiling=CI_CEILING):
    """Problems of a closed-form curve; its ci_halfwidth is the propagated quadrature error."""
    problems = _common_problems(curve, ref)
    if problems:
        return problems
    worst = float(np.max(curve.ci))
    if worst > ci_ceiling:
        problems.append(f"ci_halfwidth {worst:.3g} above the ceiling {ci_ceiling:g}")
    # ci = R_w e_w + R_s e_s bounds each outage error by ci / R
    return problems + _agreement_problems(curve, ref, None, 0.0, curve.ci / ref.rate_weak,
                                          curve.ci / ref.rate_strong, curve.ci)


def check_identical(curve, first):
    """A repetition at the same seed must write the same bytes as the first."""
    return [] if curve.raw == first.raw else ["CSV rows differ from the first repetition"]


def validate_failures(returncode, report, expected):
    """Failed operations of one ``validate`` run with ``expected`` checks.

    A non-zero exit fails every operation; otherwise each missing or failing
    reported check fails one.
    """
    if returncode != 0 or report is None:
        return expected
    checks = report.get("checks", [])
    failing = sum(1 for c in checks if not c.get("passed"))
    return min(expected, failing + max(0, expected - len(checks)))
