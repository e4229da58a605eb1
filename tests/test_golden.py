"""Golden CSV hashes: the bytes the CLI writes for fixed presets, seeds and grids.

A refactor that claims to keep results identical must keep these hashes.  A
change that alters results on purpose (a new random-stream version, a new
quadrature rule) updates the hashes in the same commit and says why.
"""

import hashlib

import pytest

from vlcnoma.cli import main

GOLDEN = {
    ("simulate", "fig2"): "86bd6401f47bad4fcef2c186e7967d15c0a7a8356b8a7f1fcabc3ece7edd3f19",
    ("simulate", "fig3"): "f4f35e43464bc913f13cd5008ce2c9402789aac7fa8538037f9baf049f56f3b5",
    ("simulate", "fig4"): "bb3c3f2a229efe222c0453930c16598243ce498c4dda85bf13d0d07a1ca52472",
    ("analytic", "fig2"): "d8e2c96b890e65cd45deb53d4552f48925c2d9470a54fae1881943d47e62ff79",
    ("analytic", "fig3"): "a4c15223a59bab6129d17a20d68de4b7c66b15f5d16422852d8098879506e334",
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
