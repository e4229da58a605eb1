"""Golden CSV hashes: the bytes the CLI writes for fixed presets, seeds and grids.

A refactor that claims to keep results identical must keep these hashes.  A
change that alters results on purpose (a new random-stream version, a new
quadrature rule) updates the hashes in the same commit and says why.  The
simulate hashes are those of random-stream version 2 (one stream per chunk of
trials, ``simulate.STREAM_VERSION``).  Both commands write each run group's
rows sorted by curve label; the analytic hashes are those of that order.
"""

import hashlib
from pathlib import Path

import pytest

from vlcnoma.cli import main

GOLDEN = {
    ("simulate", "fig2"): "5ce190141531f7f1aca1ba352e4366ae2141c78a60ff0976beaea64090667e29",
    ("simulate", "fig3"): "3853191a854f7d5abea81518d393b84539b3cbee7682c2004723910058c65ff3",
    ("simulate", "fig4"): "5f92074ab095c4cc24a29c38223caf3cfe112cbc805305878985080762da053d",
    ("analytic", "fig2"): "0d37637d8ea9f778fa9e1bb3823a97cc3a5dc19a4f93ad598bba24c433e943eb",
    ("analytic", "fig3"): "c56f910a873cfa7ca5da6a45e06920eb8e8a824645984215ec46e418ea0f941e",
}
ARGS = {
    "simulate": ["--trials", "300", "--seed", "9"],
    "analytic": ["--set", "sweep.gamma_db=150,185,215"],
}


def csv_sha256(directory, command, preset):
    """sha256 of the CSV that ``command --preset preset`` with ARGS writes into ``directory``."""
    out = Path(directory) / f"{preset}-{command}.csv"
    assert main([command, "--preset", preset, *ARGS[command], "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("command,preset", sorted(GOLDEN))
def test_csv_bytes_match_golden_hash(tmp_path, command, preset):
    assert csv_sha256(tmp_path, command, preset) == GOLDEN[(command, preset)]


if __name__ == "__main__":
    # prints the GOLDEN dict for the current code; paste it over GOLDEN after a deliberate change
    import contextlib
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(sys.stderr):
            hashes = {key: csv_sha256(tmp, *key) for key in GOLDEN}
    print("GOLDEN = {")
    for (command, preset), digest in hashes.items():
        print(f'    ("{command}", "{preset}"): "{digest}",')
    print("}")
