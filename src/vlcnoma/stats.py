"""Sampling bounds: every width that turns Monte Carlo noise into a number, in one place.

A Monte Carlo ``ci_halfwidth`` (``simulate``) is ``Z_CI`` standard errors
of a mean (``mean_halfwidth``).  A validate frequency check (``validation``)
allows ``CHECK_SIGMAS`` binomial standard deviations
(``binomial_tolerance``), and its ECDF check the DKW bound (``dkw_bound``).
The benchmark's curve check, ``perfbench/checks.py``, also reads the z of the
Monte Carlo CI: it divides ``ci_halfwidth`` by its own copy of 1.96 to
recover the per-trial variance.
"""

import math

import numpy as np

Z_CI = 1.96  # the z of every Monte Carlo ci_halfwidth: a two-sided normal interval at 95 %
CHECK_SIGMAS = 3.0  # the width of a validate frequency check, in binomial standard deviations


def mean_halfwidth(values, counts, mean, worst_variance):
    """``Z_CI`` standard errors of a mean at each of G points, from how often each sample value occurs.

    The samples take the V ``values`` (a (V, 1) column) as often as
    ``counts`` says (a (V, G) integer array; every column sums to the sample
    size n), and ``mean`` holds their mean at each point.  Under two samples
    there is no sample variance: ``worst_variance``, the largest variance the
    samples' law allows, stands in for it, over max(n, 1) samples.
    """
    n = int(counts[:, :1].sum())
    if n < 2:
        return np.full(counts.shape[1], Z_CI * np.sqrt(worst_variance / max(n, 1)))
    return Z_CI * np.sqrt((counts * (values - mean) ** 2).sum(axis=0) / (n - 1)) / np.sqrt(n)


def binomial_tolerance(p, n, var_floor=0.0, tol_floor=0.0):
    """``CHECK_SIGMAS`` binomial standard deviations of the frequency of n draws at probability p.

    ``var_floor`` keeps the deviation off zero at p = 0 or 1, and the
    tolerance is at least ``tol_floor``.
    """
    return max(CHECK_SIGMAS * math.sqrt(max(p * (1.0 - p), var_floor) / n), tol_floor)


def dkw_bound(n, alpha):
    """The Dvoretzky-Kiefer-Wolfowitz bound: the sup distance of an n-sample ECDF exceeds it with probability <= alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))
