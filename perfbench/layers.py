"""Per-layer spans for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
public functions a module calls are replaced, in the calling module's
namespace, by wrappers that note (name, parent span, start, end).  The
package imports names directly (``from .channel import channel_gain``), so a
wrapper must sit on the module that makes the call, for example
``vlcnoma.simulate.channel_gain``.  Spans stay in memory and are written when
the repetition ends; the per-layer metrics are computed from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types

import numpy as np

# (calling module, attribute, span name); several attributes may share a span name
BOUNDARIES = (
    ("vlcnoma.cli", "run_sweep", "simulate.run_sweep"),
    ("vlcnoma.simulate", "collect_records", "simulate.collect_records"),
    ("vlcnoma.simulate", "run_trial", "simulate.run_trial"),
    ("vlcnoma.simulate", "trial_rng", "simulate.trial_rng"),
    ("vlcnoma.simulate", "sample_user_arrays", "population.sample"),
    ("vlcnoma.simulate", "noisy_estimate_arrays", "population.noise"),
    ("vlcnoma.simulate", "channel_gain", "channel.gain"),
    ("vlcnoma.simulate", "mean_channel_gain", "channel.gain"),
    ("vlcnoma.simulate", "order_by_gain_arrays", "scheduling.rank"),
    ("vlcnoma.simulate", "order_by_distance_array", "scheduling.rank"),
    ("vlcnoma.simulate", "select_individual", "scheduling.rank"),
    ("vlcnoma.simulate", "two_bit_feedback", "scheduling.group"),
    ("vlcnoma.simulate", "one_bit_feedback", "scheduling.group"),
    ("vlcnoma.simulate", "group_users", "scheduling.group"),
    ("vlcnoma.simulate", "group_users_one_bit", "scheduling.group"),
    ("vlcnoma.simulate", "select_group_pair", "scheduling.group"),
    ("vlcnoma.analytic", "mean_angle_success_probability", "analytic.mean_angle"),
    ("vlcnoma.analytic", "ordered_gain_cdf", "analytic.ordered_cdf"),
    ("vlcnoma.analytic", "unordered_gain_cdf", "analytic.unordered_cdf"),
    ("vlcnoma.analytic", "group_success_probability", "analytic.group_success"),
    ("vlcnoma.analytic", "group_gain_cdf_instant", "analytic.group_cdf_instant"),
    ("vlcnoma.analytic", "group_gain_cdf_mean", "analytic.group_cdf_mean"),
    ("vlcnoma.cli", "sum_rate_sweep", "analytic.sweep"),
    ("vlcnoma.cli", "resolve_groups", "config.build"),
    ("vlcnoma.cli", "build_experiment", "config.build"),
    ("vlcnoma.cli", "run_validation", "validation.run"),
)
ANALYTIC_FAMILIES = ("mean_angle", "ordered_cdf", "unordered_cdf", "group_success", "group_cdf_instant",
                     "group_cdf_mean")

# per-layer metric name -> unit, in the order they are reported
UNITS = {
    "simulate.trial_us": "us", "simulate.trial_self_us": "us", "simulate.rng_us": "us",
    "simulate.curve_ms": "ms", "simulate.sup_distance_s": "s", "simulate.trials": "count",
    "population.sample_us": "us", "population.noise_us": "us",
    "channel.gain_us": "us", "channel.calls": "count",
    "scheduling.rank_us": "us", "scheduling.group_us": "us", "scheduling.calls": "count",
    **{f"analytic.{f}_{k}": u for f in ANALYTIC_FAMILIES for k, u in (("ms", "ms"), ("calls", "count"))},
    "analytic.sweep_s": "s",
    "quadrature.calls": "count", "quadrature.integrand_evals": "count", "quadrature.ms_per_call": "ms",
    "quadrature.retries": "count",
    "validation.cdf_eval_s": "s", "validation.oracle_s": "s",
    "config.build_ms": "ms",
}


class Tracer:
    """In-memory spans (name id, parent span, start ns, end ns) plus plain counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # (name id, parent span, start ns)
        self.ends = []  # end ns, by span
        self._open = [-1]
        self.counts = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, count_results=None):
        """``fn`` recording one span per call; optionally count len(result) under ``count_results``."""
        nid, spans, ends, stack, clock = self._id(name), self.spans, self.ends, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ends)
            spans.append((nid, stack[-1], clock()))
            ends.append(0)
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[i] = clock()
            if count_results:
                self.counts[count_results] = self.counts.get(count_results, 0) + len(out)
            return out

        return traced

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def table(self):
        """{span name: (calls, total s, time of direct child spans in s)}."""
        s = self.array()
        n = len(self.names)
        dur = (s[:, 3] - s[:, 2]) / 1e9
        calls = np.bincount(s[:, 0], minlength=n)
        total = np.bincount(s[:, 0], weights=dur, minlength=n)
        nested = s[:, 1] >= 0
        child = np.bincount(s[s[nested, 1], 0], weights=dur[nested], minlength=n)
        return {name: (int(calls[i]), float(total[i]), float(child[i])) for i, name in enumerate(self.names)}

    def array(self):
        """Spans as an int64 array of rows (name id, parent span, start ns, end ns)."""
        s = np.array(self.spans, dtype=np.int64).reshape(-1, 3)
        return np.column_stack([s, np.array(self.ends, dtype=np.int64)])

    def dump(self, path):
        """Write the spans and their names (``.npz``)."""
        np.savez(path, spans=self.array(), names=np.array(self.names))


def _traced_quadrature(tracer, integrate_adaptive, scipy_integrate):
    """integrate_adaptive counting integrand evaluations and second QUADPACK passes."""
    quad_calls = [0]

    def quad(*args, **kwargs):
        quad_calls[0] += 1
        return scipy_integrate.quad(*args, **kwargs)

    def counted(f, a, b, config, breakpoints=()):
        evals = [0]

        def integrand(x):
            evals[0] += 1
            return f(x)

        before = quad_calls[0]
        try:
            return integrate_adaptive(integrand, a, b, config, breakpoints)
        finally:
            tracer.add("quadrature.integrand_evals", evals[0])
            tracer.add("quadrature.retries", max(quad_calls[0] - before - 1, 0))

    proxy = types.SimpleNamespace(quad=quad, IntegrationWarning=scipy_integrate.IntegrationWarning)
    return tracer.wrap("quadrature.integrate", counted), proxy


def install(tracer):
    """Put the wrappers in place; call after ``import vlcnoma.cli`` and before any command."""
    modules = {}
    for module, attr, name in BOUNDARIES:
        mod = modules.setdefault(module, importlib.import_module(module))
        count = "simulate.curves" if attr == "run_sweep" else None
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), count))
    analytic, quadrature = modules["vlcnoma.analytic"], importlib.import_module("vlcnoma.quadrature")
    analytic.integrate_adaptive, quadrature.integrate = _traced_quadrature(
        tracer, analytic.integrate_adaptive, quadrature.integrate)
    simulate = modules["vlcnoma.simulate"]
    simulate.EmpiricalCdf.sup_distance = tracer.wrap("simulate.sup_distance", simulate.EmpiricalCdf.sup_distance)
    # validation reaches the closed-form engine through ``an.<function>``: give it a wrapped view
    validation = importlib.import_module("vlcnoma.validation")
    view = types.SimpleNamespace(**vars(analytic))
    for attr, value in vars(analytic).items():
        if inspect.isfunction(value):
            setattr(view, attr, tracer.wrap("validation.analytic", value))
    validation.an = view


def metrics(tracer, commands):
    """Per-layer metrics of one traced repetition of ``commands`` CLI calls."""
    table = tracer.table()
    row = lambda name: table.get(name, (0, 0.0, 0.0))  # noqa: E731  (calls, total s, child s)
    calls = lambda name: row(name)[0]  # noqa: E731
    total = lambda name: row(name)[1]  # noqa: E731
    trials = calls("simulate.run_trial")
    per_trial = lambda seconds: seconds / trials * 1e6 if trials else 0.0  # noqa: E731
    per_call_ms = lambda name: total(name) / calls(name) * 1e3 if calls(name) else 0.0  # noqa: E731
    curves = tracer.counts.get("simulate.curves", 0)
    out = {
        "simulate.trial_us": per_trial(total("simulate.run_trial")),
        "simulate.trial_self_us": per_trial(total("simulate.run_trial") - row("simulate.run_trial")[2]),
        "simulate.rng_us": per_trial(total("simulate.trial_rng")),
        "simulate.curve_ms": ((total("simulate.run_sweep") - total("simulate.collect_records")) / curves * 1e3
                              if curves else 0.0),
        "simulate.sup_distance_s": total("simulate.sup_distance"),
        "simulate.trials": trials,
        "population.sample_us": per_trial(total("population.sample")),
        "population.noise_us": per_trial(total("population.noise")),
        "channel.gain_us": per_trial(total("channel.gain")),
        "channel.calls": calls("channel.gain"),
        "scheduling.rank_us": per_trial(total("scheduling.rank")),
        "scheduling.group_us": per_trial(total("scheduling.group")),
        "scheduling.calls": calls("scheduling.rank") + calls("scheduling.group"),
        "analytic.sweep_s": total("analytic.sweep"),
        "quadrature.calls": calls("quadrature.integrate"),
        "quadrature.integrand_evals": tracer.counts.get("quadrature.integrand_evals", 0),
        "quadrature.ms_per_call": per_call_ms("quadrature.integrate"),
        "quadrature.retries": tracer.counts.get("quadrature.retries", 0),
        "validation.cdf_eval_s": total("validation.analytic"),
        "validation.oracle_s": total("validation.run") - total("validation.analytic"),
        "config.build_ms": total("config.build") / commands * 1e3 if commands else 0.0,
    }
    for family in ANALYTIC_FAMILIES:
        out[f"analytic.{family}_ms"] = per_call_ms(f"analytic.{family}")
        out[f"analytic.{family}_calls"] = calls(f"analytic.{family}")
    return {name: out[name] for name in UNITS}
