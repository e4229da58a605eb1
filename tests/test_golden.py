"""Golden hashes: the bytes the CLI writes for fixed presets, seeds and grids.

A refactor that claims to keep results identical must keep these hashes.  A
change that alters results on purpose (a new random-stream version, a new
quadrature rule) updates the hashes in the same commit and says why.  The
simulate hashes are those of random-stream version 2 (one stream per chunk of
trials, ``simulate.STREAM_VERSION``).  Both commands write each run group's
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
    ("simulate", "fig2"): "5ce190141531f7f1aca1ba352e4366ae2141c78a60ff0976beaea64090667e29",
    ("simulate", "fig3"): "3853191a854f7d5abea81518d393b84539b3cbee7682c2004723910058c65ff3",
    ("simulate", "fig4"): "5f92074ab095c4cc24a29c38223caf3cfe112cbc805305878985080762da053d",
    ("analytic", "fig2"): "165f36787b82911a7b02e62e5ddb905de84daecb0c1911fdaf68ed334197929f",
    ("analytic", "fig3"): "827fb0b5ab833b160f3210ecf67993339f46ab46b7aed892b0e9699f0f38d643",
}
VALIDATE_QUICK = "214057ecc9356646541480ab0692dee18b5e4ab2bebe020d8e787c3f84afb4b5"
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
