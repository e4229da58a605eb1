"""CPU-speed scaling keeps a program's own slow-down: twice the work reads about twice the time."""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

# A stand-in for vlcnoma.cli: ``main([kind, n])`` does n rounds of fixed work.
# "cpu" is interpreter arithmetic with a small NumPy call now and then;
# "memory" gathers from a 16 MB array, so it also evicts what the probe kernel
# left in the caches between its samples.
FAKE_CLI = '''
import numpy as np

_BIG = np.random.default_rng(0).random(2_000_000)
_IDX = np.random.default_rng(1).integers(0, _BIG.size, 20_000)
_SMALL = np.arange(64.0)


def main(argv):
    kind, n = argv[0], int(argv[1])
    acc = 0.0
    for i in range(n):
        if kind == "cpu":
            acc += (i % 13) * 0.5
            if i % 64 == 0:
                acc += float(np.sort(_SMALL)[3])
        else:
            acc += float(_BIG[(_IDX + i) % _BIG.size].sum())
    return 0
'''
ROUNDS = {"cpu": 1_200_000, "memory": 800}  # about 0.2 s each on a 2-core machine


@pytest.mark.parametrize("kind", sorted(ROUNDS))
def test_doubled_work_reads_about_double_time(tmp_path, kind):
    package = tmp_path / "vlcnoma"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI)
    n = ROUNDS[kind]
    commands = [[kind, str(n * k)] for _ in range(3) for k in (1, 2)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), str(run.HERE)])}
    spec = {"commands": commands, "log": str(tmp_path / "log")}
    proc = subprocess.run([sys.executable, str(run.HERE / "worker.py"), json.dumps(spec)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    calls = json.loads(proc.stdout.splitlines()[-1])["calls"]
    assert [c["code"] for c in calls] == [0] * len(commands)
    scaled = [c["seconds"] * run.KERNEL_REF_S / c["kernel_s"] for c in calls]
    ratio = statistics.median(scaled[1::2]) / statistics.median(scaled[0::2])
    assert 1.6 <= ratio <= 2.5, (ratio, scaled)
