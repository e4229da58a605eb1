"""Golden hashes: the bytes the CLI writes for fixed presets, seeds and grids.

A refactor that claims to keep results identical must keep these hashes.  A
change that alters results on purpose (a new random-stream version, a new
quadrature rule) updates the hashes in the same commit and says why.  The
simulate hashes are those of random-stream version 2 (one stream per chunk of
trials, ``simulate.STREAM_VERSION``) and of points built from summed success
counts (``simulate._curve``).  Both commands write each run group's
rows sorted by curve label; the analytic hashes are those of that order.
``VALIDATE_QUICK`` is the hash of the ``validate --quick --out`` JSON report
(32 checks, all passing), which holds every check's measured value to the
last digit: the closed-form values of ``validation`` are pinned through it.
"""

import hashlib
from pathlib import Path

import pytest

from vlcnoma.cli import main

GOLDEN = {
    ("simulate", "fig2"): "139c92006a8509bea1a383096ff0e1b78d8ee862ff81da01243d379b1be8bcf2",
    ("simulate", "fig3"): "565c057d099d73322fece48bedefcc4f60319244710c8508a58a77b7892c521c",
    ("simulate", "fig4"): "6a66d5c160af9b501c89adf2c83c0b1a7b678a819799767e66a3031c7cbba4fb",
    ("analytic", "fig2"): "7642da7fef05e596afc329c5d6fc5f34d100a43a71c6e6927cb01e78d67c0d13",
    ("analytic", "fig3"): "827fb0b5ab833b160f3210ecf67993339f46ab46b7aed892b0e9699f0f38d643",
}
VALIDATE_QUICK = "8611f1767f60464dd2c46d087ea7fa4b02e5f9f8c2b542a57bb144207e8e39cd"
ARGS = {
    "simulate": ["--trials", "300", "--seed", "9"],
    "analytic": ["--set", "sweep.gamma_db=150,185,215"],
}


def csv_sha256(directory, command, preset):
    """sha256 of the CSV that ``command --preset preset`` with ARGS writes into ``directory``."""
    out = Path(directory) / f"{preset}-{command}.csv"
    assert main([command, "--preset", preset, *ARGS[command], "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def validate_quick_sha256(directory):
    """sha256 of the report that ``validate --quick --out`` writes into ``directory``; the run must pass."""
    out = Path(directory) / "validate-quick.json"
    assert main(["validate", "--quick", "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("command,preset", sorted(GOLDEN))
def test_csv_bytes_match_golden_hash(tmp_path, command, preset):
    assert csv_sha256(tmp_path, command, preset) == GOLDEN[(command, preset)]


def test_validate_quick_report_matches_golden_hash(tmp_path):
    assert validate_quick_sha256(tmp_path) == VALIDATE_QUICK


if __name__ == "__main__":
    # prints GOLDEN and VALIDATE_QUICK for the current code; paste them over the pins after a deliberate change
    import contextlib
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(sys.stderr):
            hashes = {key: csv_sha256(tmp, *key) for key in GOLDEN}
            validate_quick = validate_quick_sha256(tmp)
    print("GOLDEN = {")
    for (command, preset), digest in hashes.items():
        print(f'    ("{command}", "{preset}"): "{digest}",')
    print("}")
    print(f'VALIDATE_QUICK = "{validate_quick}"')
