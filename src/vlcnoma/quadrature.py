"""Adaptive quadrature of the closed-form engine: one batched Gauss-Kronrod rule, in NumPy.

``integrate_levels`` integrates one integrand at a whole vector of levels
(rows) together.  It is QUADPACK's adaptive scheme run on every row at once:
the 21-point Kronrod / 10-point Gauss pair of dqk21 with QUADPACK's error
formula on each panel, and bisection of the panels with the largest errors
while the row's summed error exceeds max(abs_tol, rel_tol * |value|).  Each
row keeps its own tolerance, subdivision budget and error estimate (the sum
of its panels' estimates; no norm is shared across rows), and every
(row, panel) pair is evaluated elementwise in blocks of bounded size, with
every sum taken along one panel or one row, so a row's (value, error) is
bitwise the same whichever other rows share the call.  It has no
extrapolation, so where an integrand ends in a square-root edge, which
QUADPACK's epsilon algorithm would accelerate, the caller flags the row and
the rule integrates it in t = sqrt(hi - r), where that edge is smooth.
Every row's first panels are built in one vectorized pass (``_first_panels``)
from the ragged breakpoint lists, each padded with its hi.  An integrand
that is itself a quadrature, as the inner pass of the mean-angle route is,
returns (values, error densities): the Kronrod integral of the densities
joins each row's reported error, while bisection follows the rule's own
estimate alone.

``integrate_adaptive`` is the one-row case: it serves the band masses of
``analytic`` (memberships, count laws, conditioning rates).  Their
integrands are NumPy laws that would take a whole panel array, but it calls
them one float at a time, and only for the benchmark harness
(``perfbench/layers.py``), which wraps this call and counts every integrand
evaluation.  No SciPy module is loaded by either.

Integrands here are piecewise smooth with kinks at analytically known radii
(clamp points of the effective-angle helpers, corner crossings of the
orientation CDF); callers pass those as breakpoints so the subdivision does
not have to hunt for them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


def __getattr__(name):
    """``integrate`` (scipy.integrate), imported on first access and then kept as a module attribute.

    Nothing in the package reads it: only the benchmark harness does
    (``perfbench/layers.py:install`` wraps it in traced runs), which is why
    it stays.  It goes with ROADMAP direction 13, the benchmark change that
    makes that harness count ``integrate_levels`` instead.
    """
    if name != "integrate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import integrate

    globals()["integrate"] = integrate
    return integrate


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 200

    def halved(self):
        return QuadratureConfig(self.abs_tol / 2.0, self.rel_tol / 2.0, self.max_subdivisions)


# dqk21 of QUADPACK on [-1, 1], nodes ascending: the 21 Kronrod nodes and weights, and the weights of the
# embedded 10-point Gauss rule (zero at the Kronrod-only nodes)
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208980528472, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_KRONROD = np.array(_WGK[:-1] + _WGK[::-1])
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[11:20:2] = _WG[::-1]
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)
_PANEL_BLOCK = 2048  # panels evaluated together: each (panels x 21) temporary stays below 350 kB


def _kronrod(f, a, b, rows):
    """dqk21 on the panels [a, b] of ``rows``: (value, QUADPACK error estimate, density), in _PANEL_BLOCK blocks.

    Every reduction runs along one panel's 21 nodes, so a panel's numbers do
    not depend on the other panels of its block.  When ``f`` returns
    (values, error densities), ``density`` is the Kronrod integral of the
    densities on each panel; otherwise it is None.
    """
    values, errors, densities = [np.empty(0)], [np.empty(0)], [np.empty(0)]
    for i in range(0, a.size, _PANEL_BLOCK):
        lo, hi = a[i:i + _PANEL_BLOCK], b[i:i + _PANEL_BLOCK]
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fv = f(centre[:, None] + half[:, None] * _NODES, rows[i:i + _PANEL_BLOCK])
        if isinstance(fv, tuple):
            fv, dv = fv
            densities.append((dv * _KRONROD).sum(axis=1) * half)
        resk = (fv * _KRONROD).sum(axis=1)
        resabs = (np.abs(fv) * _KRONROD).sum(axis=1) * half
        resasc = (np.abs(fv - 0.5 * resk[:, None]) * _KRONROD).sum(axis=1) * half
        err = np.abs((resk - (fv * _GAUSS).sum(axis=1)) * half)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
        err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
        values.append(resk * half)
        errors.append(err)
    density = np.concatenate(densities) if len(densities) > 1 else None
    return np.concatenate(values), np.concatenate(errors), density


def _first_panels(lo, hi, breakpoints, root):
    """(a, b, owner) of every row's first panels, built in one pass: the edges lo, the breakpoints and hi.

    ``breakpoints`` is a list of sorted lists, one per row, or a (rows, k)
    array of sorted points in [lo, hi].  Each row is padded with hi, the rows
    in ``root`` are mapped to t = sqrt(hi - r) (reversed, so t ascends), and
    zero-width panels, every panel of a row with hi <= lo among them, are
    dropped.  Panels come row by row, in ascending order.
    """
    if isinstance(breakpoints, np.ndarray):
        points = breakpoints
    else:
        sizes = np.array([len(p) for p in breakpoints], int)
        points = np.repeat(hi[:, None], int(sizes.max(initial=0)), axis=1)
        flat = np.fromiter(itertools.chain.from_iterable(breakpoints), float)
        points[np.arange(points.shape[1]) < sizes[:, None]] = flat
    edges = np.column_stack((lo, points, hi))
    edges[root] = np.sqrt(hi[root, None] - edges[root, ::-1])
    keep = (edges[:, 1:] > edges[:, :-1]) & (hi > lo)[:, None]
    owner = np.broadcast_to(np.arange(lo.size)[:, None], keep.shape)
    return edges[:, :-1][keep], edges[:, 1:][keep], owner[keep]


def integrate_levels(f, lo, hi, config, breakpoints, label, root_end=None, unit="m"):
    """Integrals of ``f`` over [lo[i], hi[i]] for every row i, with per-row error estimates; raises on non-convergence.

    ``f(r, rows)`` evaluates the integrand of row ``rows[k]`` at the points
    ``r[k, :]`` (a (panels, 21) array).  It may instead return (values, error
    densities): the Kronrod integral of the densities over the row joins its
    reported error, but not the test that decides which panels to bisect.
    ``breakpoints[i]`` lists row i's kinks, sorted and inside (lo[i], hi[i]);
    they are the edges of its first panels (``_first_panels``).  A row with
    hi <= lo integrates to (0, 0).  The rows flagged in ``root_end`` behave
    like sqrt(hi - r) at hi; they are integrated in t = sqrt(hi - r), as
    2 t f(hi - t^2) over [0, sqrt(hi - lo)] split at the images of their
    kinks.  There that edge, and the steep stretch before it, are smooth, so
    their error does not stall on bisecting them.  Each round bisects, in
    every row whose summed error exceeds max(abs_tol, rel_tol * |value|),
    its panels in order of decreasing error until the errors left unsplit
    sum to at most an eighth of that tolerance, within the row's
    max_subdivisions panels.  Returns (values, errors).  A row that stops
    short of its tolerance raises QuadratureError when its error exceeds 100
    times the tolerance and 1e-7; within that margin its result is returned.
    The message starts with ``label(row)`` and names the interval of the
    row's worst panel, in ``unit``.
    """
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    n = lo.size
    root = np.zeros(n, bool) if root_end is None else np.asarray(root_end, bool) & (hi > lo)

    def g(u, rows):
        # the other rows multiply by 1.0 at r = u: their bits are those of f alone
        sub = root[rows, None]
        jacobian = np.where(sub, 2.0 * u, 1.0)
        out = f(np.where(sub, hi[rows, None] - u * u, u), rows)
        return (jacobian * out[0], jacobian * out[1]) if isinstance(out, tuple) else jacobian * out

    rule = g if root.any() else f
    a, b, owner = _first_panels(lo, hi, breakpoints, root)
    val, err, dens = _kronrod(rule, a, b, owner)
    while True:
        # bincount adds each row's panels in array order, which one row's history alone sets; with no panel at
        # all it returns integers
        value, error = (np.bincount(owner, w, n).astype(float, copy=False) for w in (val, err))
        tol = np.maximum(config.abs_tol, config.rel_tol * np.abs(value))
        # a panel whose midpoint rounds to an end cannot be bisected (QUADPACK's ier = 3)
        splittable = np.abs(b - a) > 100.0 * _EPS * np.maximum(np.abs(a), np.abs(b)) + 1000.0 * _TINY
        count = np.bincount(owner, minlength=n)
        open_rows = (error > tol) & (count < config.max_subdivisions)
        candidates = np.flatnonzero(open_rows[owner] & splittable)
        if candidates.size == 0:
            break
        pick = _largest_errors(candidates, owner, err, error - tol / 8.0, config.max_subdivisions - count)
        mid = 0.5 * (a[pick] + b[pick])
        halves_a, halves_b = np.concatenate((a[pick], mid)), np.concatenate((mid, b[pick]))
        halves_val, halves_err, halves_dens = _kronrod(rule, halves_a, halves_b, np.tile(owner[pick], 2))
        # the left half takes its parent's place, the right half is appended
        b[pick], val[pick], err[pick] = mid, halves_val[:pick.size], halves_err[:pick.size]
        a, b = np.concatenate((a, mid)), np.concatenate((b, halves_b[pick.size:]))
        owner = np.concatenate((owner, owner[pick]))
        val, err = np.concatenate((val, halves_val[pick.size:])), np.concatenate((err, halves_err[pick.size:]))
        if dens is not None:
            dens[pick] = halves_dens[:pick.size]
            dens = np.concatenate((dens, halves_dens[pick.size:]))
    failed = np.flatnonzero(error > np.maximum(100.0 * tol, 1e-7))
    if failed.size:
        row = int(failed[0])
        worst = np.flatnonzero(owner == row)[np.argmax(err[owner == row])]
        start, stop = (hi[row] - b[worst] ** 2, hi[row] - a[worst] ** 2) if root[row] else (a[worst], b[worst])
        raise QuadratureError(
            f"{label(row)}: quadrature did not converge on [{start:.9g}, {stop:.9g}] {unit} of [{lo[row]:.9g}, "
            f"{hi[row]:.9g}] {unit}: estimate {error[row]:.3e} for value {value[row]:.6e}")
    return value, error if dens is None else error + np.bincount(owner, dens, n)


def integrate_adaptive(f, a, b, config, breakpoints=()):
    """Integral of the scalar function f over [a, b] with an error estimate; raises on non-convergence.

    One row of ``integrate_levels``: ``f`` is called one float at a time, at
    every node of the rule.  ``breakpoints`` are pre-split locations (values
    outside (a, b) are dropped).  Returns (value, error_estimate) as Python
    floats; an empty interval gives (0.0, 0.0).  QuadratureError follows the
    rule of ``integrate_levels`` and names the distance interval of the worst
    panel.
    """
    def rows(r, _):
        return np.array([f(v) for v in r.ravel().tolist()], float).reshape(r.shape)

    kinks = sorted({float(p) for p in breakpoints if a < p < b})
    values, errors = integrate_levels(rows, [a], [b], config, [kinks], lambda _: "integral")
    return float(values[0]), float(errors[0])


def _largest_errors(candidates, owner, err, budget, room):
    """The panels to bisect: per row, ``candidates`` by decreasing error while the errors before them sum to <= budget.

    At least one panel per row and at most ``room`` of the row's; each row's
    errors are summed along its own line of a padded (rows x panels) array.
    """
    order = candidates[np.lexsort((-err[candidates], owner[candidates]))]
    rows, start, size = np.unique(owner[order], return_index=True, return_counts=True)
    place = np.arange(order.size) - np.repeat(start, size)
    table = np.zeros((rows.size, int(size.max())))
    line = np.repeat(np.arange(rows.size), size)
    table[line, place] = err[order]
    summed = np.cumsum(table, axis=1)
    before = np.where(place > 0, summed[line, place - 1], 0.0)
    keep = ((place == 0) | (before <= budget[owner[order]])) & (place < room[owner[order]])
    return np.sort(order[keep])
