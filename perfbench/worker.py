"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 worker.py '<json spec>'

The spec holds the CLI argument lists to pass to ``vlcnoma.cli.main`` in
order, whether to trace, and where to put the command output and the spans.
The last line of standard output is a JSON object with the monotonic clock
reading right after ``import vlcnoma.cli``, each call's exit code, duration
and CPU speed, and the process's peak resident set.  A repetition with no
commands measures set-up alone.

CPU speed: the machine this runs on is shared, and the speed one thread gets
swings by up to 2x over tens of seconds.  A timer signal every PROBE_PERIOD_S
runs a fixed kernel between the program's bytecodes and records
how long it took; the mean kernel time over a call tells how fast the CPU
was during it.  Each sample runs the kernel twice and times the second run,
so what the program left in the caches does not count.  The probe costs
about 0.5 % of the run and touches no program state.
"""

import contextlib
import json
import math
import resource
import signal
import sys
import time
import traceback

import numpy as np

PROBE_PERIOD_S = 0.05
_PROBE_ARRAY = np.linspace(0.0, 1.0, 20)[::-1].copy()


def probe_kernel():
    """Fixed work, about 110 us at full speed: half interpreter arithmetic, half small NumPy calls.

    The two halves slow down differently when the machine is contended; the
    program's commands mix both kinds of work.
    """
    acc = 0.0
    for i in range(400):
        acc += math.cos(i * 1e-3) * (i % 7)
    for _ in range(12):
        acc += float(np.argsort(_PROBE_ARRAY)[3]) + float(np.cos(_PROBE_ARRAY).sum())
    return acc


class SpeedProbe:
    """Kernel timings (start, seconds) sampled on a wall-clock timer signal."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        probe_kernel()  # untimed: brings the kernel back into the caches the program has used
        start = time.perf_counter()
        probe_kernel()
        self.samples.append((start, time.perf_counter() - start))

    def now(self, count=20):
        """Mean kernel time over ``count`` samples taken right away."""
        for _ in range(count):
            self._sample(None, None)
        return sum(s for _, s in self.samples[-count:]) / count

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_between(self, start, end):
        """Mean kernel time sampled in [start, end]; the mean of all samples if none fell there."""
        inside = [s for t, s in self.samples if start <= t <= end] or [s for _, s in self.samples]
        return sum(inside) / len(inside)


def main():
    spec = json.loads(sys.argv[1])
    import vlcnoma.cli as cli

    imported = time.monotonic()
    probe = SpeedProbe()
    setup_kernel_s = probe.now()
    tracer = None
    if spec.get("trace"):
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    calls = []
    with open(spec["log"], "w") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log), probe:
        for argv in spec["commands"]:
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # the repetition reports the failure and goes on to the next command
                traceback.print_exc()
                code = -1
            end = time.perf_counter()
            calls.append({"argv": argv, "code": code, "seconds": end - start,
                          "kernel_s": probe.mean_between(start, end)})
    result = {
        "imported": imported,
        "setup_kernel_s": setup_kernel_s,
        "calls": calls,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "package": cli.__file__,
    }
    if tracer is not None:
        result["layers"] = layers.metrics(tracer, len(calls))
        result["layers_kernel_s"] = probe.mean_between(-math.inf, math.inf)
        tracer.dump(spec["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
