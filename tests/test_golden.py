"""Golden CSV hashes: the bytes the CLI writes for fixed presets, seeds and grids.

A refactor that claims to keep results identical must keep these hashes.  A
change that alters results on purpose (a new random-stream version, a new
quadrature rule) updates the hashes in the same commit and says why.  The
simulate hashes are those of random-stream version 2 (one stream per chunk of
trials, ``simulate.STREAM_VERSION``).  Both commands write each run group's
rows sorted by curve label; the analytic hashes are those of that order.
"""

import hashlib

import pytest

from vlcnoma.cli import main

GOLDEN = {
    ("simulate", "fig2"): "5ce190141531f7f1aca1ba352e4366ae2141c78a60ff0976beaea64090667e29",
    ("simulate", "fig3"): "3853191a854f7d5abea81518d393b84539b3cbee7682c2004723910058c65ff3",
    ("simulate", "fig4"): "5f92074ab095c4cc24a29c38223caf3cfe112cbc805305878985080762da053d",
    ("analytic", "fig2"): "55c4217c22767588b5a9492ed0dcc0486cddd9812f72bf0b056106744d74e44f",
    ("analytic", "fig3"): "767aba9136cead00cc69f50eb2f6e79e607d7bb97974a625f954f0d87056b1c9",
}
ARGS = {
    "simulate": ["--trials", "300", "--seed", "9"],
    "analytic": ["--set", "sweep.gamma_db=150,185,215"],
}


@pytest.mark.parametrize("command,preset", sorted(GOLDEN))
def test_csv_bytes_match_golden_hash(tmp_path, command, preset):
    out = tmp_path / f"{preset}-{command}.csv"
    assert main([command, "--preset", preset, *ARGS[command], "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[(command, preset)]
