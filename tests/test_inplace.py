"""The closed form's in-place and live-node rewrites keep the bits of their dense oracles.

The inner integrand of the mean-angle route (``analytic._weighted_band``)
evaluates the rank weight only at its live nodes, those with a nonzero band,
and writes its temporaries in place; the kink finder stops bisecting at the
fixed point.  Each is checked here against the dense expression it
replaced, kept in this file as the oracle, bit for bit.  NumPy picks a SIMD
kernel at run time, and compressing to live nodes moves where a kernel's
vector tail falls, so the rule tests, and the in-place angle laws of
``tests/test_analytic.py::TestOnePathPerLaw``, run again in a fresh
interpreter with every dispatched target above NumPy's baseline switched
off.  So do the three simulate golden hashes and the record oracle of
``tests/test_simulate.py``, whose per-trial rows evaluate the gain law on
K-element rows where its whole-chunk reference evaluates it on one array.
"""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vlcnoma import analytic as an
from vlcnoma import cli
from vlcnoma.channel import incidence_angle
from vlcnoma.population import conditional_phi_cdf
from vlcnoma.validation import paper_model

ROOT = Path(__file__).resolve().parent.parent


def bits(values):
    return np.asarray(values, float).view(np.int64)


def dense_cdf(cdf):
    """The mean-gain table lookup by ``searchsorted`` and out-of-place arithmetic, on the panels of ``cdf``."""
    panels = inspect.getclosurevars(cdf).nonlocals
    starts, center, half = panels["starts"], panels["center"], panels["half"]
    f_mid, slope, curve, lo, hi = panels["f_mid"], panels["slope"], panels["curve"], panels["lo"], panels["hi"]

    def lookup(y):
        v = np.minimum(np.maximum(np.log(y), lo), hi)
        i = np.searchsorted(starts, v, "right")
        s = (v - center.take(i)) / half.take(i)
        return np.clip(f_mid.take(i) + s * (slope.take(i) + s * curve.take(i)), 0.0, 1.0)

    return lookup


def dense_density(model, rank, min_count):
    """The rank density with both powers taken, zero exponents included."""
    n = np.arange(min_count, model.mobility.num_users + 1)
    weights = an.nonzero_count_pmf(an._mean_model(model), n, min_count)
    k = rank - 1
    coef = weights * n * np.exp([an._log_binomial_row(v - 1)[k] for v in n.tolist()])

    def density(u):
        v = 1.0 - u
        total = np.full(v.shape, coef[-1])
        for c in coef[-2::-1]:
            total *= v
            total += c
        return total * u**k * v ** (min_count - rank)

    return density


def dense_rows(model, x, cdf, density, r, u):
    """The inner integrand of the mean-angle route with every node evaluated: the band and the rank weight at all."""
    geom, dphi = model.geom, model.mobility.delta_phi
    cap = np.minimum(an.gain_boundary_angle(geom, x, r), geom.half_fov)[:, None]
    band = conditional_phi_cdf(0.0, dphi, u + cap) - conditional_phi_cdf(0.0, dphi, u - cap)
    weight = density(cdf(geom.gain_factor(r)[:, None] ** 2 * np.cos(u) ** 2))
    return band * weight, band


def inner_nodes(model, r):
    """The mean incidences of 16 equal 21-node panels over each distance's range [u_lo, u_hi], one row per distance."""
    geom, mob = model.geom, model.mobility
    c = incidence_angle(r, 0.0, geom.ell)
    u_lo = np.maximum(-geom.half_fov, c - mob.mean_phi_max)
    u_hi = np.maximum(np.minimum(geom.half_fov, c - mob.mean_phi_min), u_lo)
    t = (np.arange(16)[:, None] + 0.5 * (1.0 + np.linspace(-0.99, 0.99, 21))).ravel() / 16.0
    return u_lo[:, None] + (u_hi - u_lo)[:, None] * t


# (rank, min_count): no power of u (rank 1), no power of 1 - u (rank = min_count), both, and both of exponent 1
RANKS = ((1, 10), (10, 10), (20, 20), (3, 5), (2, 3))
# the pinned levels of the mean-angle rule, and one above g(d_min)^2, whose band is empty everywhere
LEVELS = (5e-15, 4e-13, 2e-11, 1e-9)


class TestLiveNodeRule:
    @pytest.mark.parametrize("rank,min_count", RANKS)
    @pytest.mark.parametrize("dphi", (0.0, 25.0))
    def test_rule_is_bitwise_the_dense_rule(self, dphi, rank, min_count):
        model = paper_model(dphi)
        geom, mob = model.geom, model.mobility
        cdf, _ = an._mean_gain_cdf_table(an._mean_model(model))
        density, _ = an._rank_density(model, rank, min_count)
        r = np.linspace(mob.d_min, mob.d_max, 301)
        u = inner_nodes(model, r)
        dead_band = dead_row = 0
        for level in LEVELS:
            x = np.full(r.size, level)
            cap = np.minimum(an.gain_boundary_angle(geom, x, r), geom.half_fov)[:, None]
            got = an._weighted_band(cdf, density, mob.delta_phi, geom.gain_factor(r)[:, None] ** 2, cap, u)
            want, band = dense_rows(model, x, dense_cdf(cdf), dense_density(model, rank, min_count), r, u)
            assert np.array_equal(bits(got), bits(want)), level
            dead_band += int(np.count_nonzero(band == 0.0))
            dead_row += int(np.count_nonzero(~np.any(band != 0.0, axis=1)))
        # the rows hold empty bands beside live nodes, and whole rows without a live node
        assert dead_band > dead_row * u.shape[1] and dead_row

    @pytest.mark.parametrize("dphi", (0.0, 25.0))
    def test_table_lookup_is_bitwise_the_dense_lookup(self, dphi):
        mean = an._mean_model(paper_model(dphi))
        cdf, _ = an._mean_gain_cdf_table(mean)
        panels = inspect.getclosurevars(cdf).nonlocals
        lo, hi, starts = panels["lo"], panels["hi"], panels["starts"]
        # every panel start and its neighbouring floats, the ends, and levels beyond them
        v = np.concatenate((starts, np.nextafter(starts, -np.inf), np.nextafter(starts, np.inf), [lo, hi],
                            np.random.default_rng(5).uniform(lo - 1.0, hi + 1.0, 20000)))
        y = np.exp(v)
        assert np.array_equal(bits(cdf(y)), bits(dense_cdf(cdf)(y)))


def pass_under_baseline_dispatch(tests):
    """Run the pytest node ids ``tests`` in a fresh interpreter with NumPy at its baseline; all must pass."""
    # every target NumPy dispatches to above its baseline, and that this CPU has, switched off
    above = cli._numpy_simd()["dispatch"]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(above),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    check = subprocess.run([sys.executable, "-c", "from vlcnoma import cli; print(*cli._numpy_simd()['dispatch'])"],
                           env=env, capture_output=True, text=True, timeout=120)
    assert check.returncode == 0 and check.stdout.split() == [], check.stdout + check.stderr


def test_rule_and_laws_keep_their_bits_under_baseline_dispatch():
    pass_under_baseline_dispatch([f"{__file__}::TestLiveNodeRule",
                                  str(ROOT / "tests" / "test_analytic.py") + "::TestOnePathPerLaw"])


def test_simulate_hashes_and_chunk_rows_keep_their_bits_under_baseline_dispatch():
    golden = str(ROOT / "tests" / "test_golden.py")
    pass_under_baseline_dispatch([*(f"{golden}::test_csv_bytes_match_golden_hash[simulate-{preset}]"
                                    for preset in ("fig2", "fig3", "fig4")),
                                  str(ROOT / "tests" / "test_simulate.py") + "::TestRecordOracle"])


def sixty_halvings(model, lo, hi, half_angles, levels=None, caps=(), corners=()):
    """The kink finder that bisects every bracket exactly _BISECTIONS times."""
    geom = model.geom
    fixed = []
    for s in [a * sign for a in half_angles for sign in (1.0, -1.0)]:
        for t in an._corners(model.mobility):
            beta = math.pi + s - t
            if 1e-12 < beta < math.pi / 2.0 - 1e-12:
                fixed.append(geom.ell / math.tan(beta))
    if levels is None:
        return [an._merged(fixed, lo, hi)]
    levels = np.atleast_1d(np.asarray(levels, float))
    his = np.broadcast_to(np.asarray(hi, float), levels.shape)
    scales = [1.0] + [math.cos(c) ** 2 for c in caps]
    pts = [fixed + [an.gain_boundary_distance(geom, x, scale) for scale in scales] for x in levels.tolist()]
    corners = list(dict.fromkeys(corners))
    rows = np.flatnonzero((levels > 0.0) & (his > lo)) if corners else np.empty(0, int)
    cos_t, sin_t = np.cos(corners), np.sin(corners)

    def gap(r, x, t):
        cos_sq = (r * cos_t[t] - geom.ell * sin_t[t]) ** 2 / (geom.ell**2 + r * r)
        return cos_sq - x * an.inverse_squared_gain(geom, r)

    brackets = []
    steps = np.linspace(0.0, 1.0, an._CROSSING_SCAN)
    for i in range(0, rows.size, an._SCAN_ROWS):
        block = rows[i:i + an._SCAN_ROWS]
        r = lo + (his[block] - lo)[:, None] * steps
        x = levels[block][:, None]
        for t in range(len(corners)):
            below = np.signbit(gap(r, x, t))
            row, col = np.nonzero(below[:, :-1] != below[:, 1:])
            brackets.append((block[row], np.full(row.size, t), r[row, col], r[row, col + 1]))
    if brackets:
        row, t, a, b = (np.concatenate(parts) for parts in zip(*brackets))
        x = levels[row]
        a_below = np.signbit(gap(a, x, t))
        for _ in range(an._BISECTIONS):
            mid = 0.5 * (a + b)
            left = np.signbit(gap(mid, x, t)) != a_below
            a, b = np.where(left, a, mid), np.where(left, mid, b)
        for i, root in zip(row.tolist(), (0.5 * (a + b)).tolist()):
            pts[i].append(root)
    return [an._merged(p, lo, h) for p, h in zip(pts, his.tolist())]


def test_kink_finder_stops_at_the_sixty_halving_roots(tmp_path, monkeypatch):
    # every cached table is rebuilt, so the presets make all of their kink-finder calls
    for value in vars(an).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    calls = []
    finder = an._breakpoints

    def recorded(*args):
        calls.append(args)
        return finder(*args)

    monkeypatch.setattr(an, "_breakpoints", recorded)
    for preset in ("fig2", "fig3"):
        assert cli.main(["analytic", "--preset", preset, "--set", "sweep.workers=1",
                         "--out", str(tmp_path / f"{preset}.csv")]) == 0
    monkeypatch.undo()
    moving = [args for args in calls if len(args) > 6 and args[6]]
    assert moving  # calls that bisect: with levels and corners
    for args in calls:
        assert finder(*args) == sixty_halvings(*args), args[2:]
