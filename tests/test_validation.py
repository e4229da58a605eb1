"""The bulk oracles of ``validation`` evaluated in row blocks give the bits of their whole-array forms.

Each case shrinks the draw batch and the block through the module constants,
so the blocks split a batch unevenly, the kept-snapshot quota is met partway
through a batch, and the pool fills before or after the quota.
"""

import numpy as np
import pytest

from vlcnoma import validation
from vlcnoma.channel import channel_gain, incidence_angle
from vlcnoma.population import sample_user_arrays
from vlcnoma.validation import ValidationSizes, paper_config


def whole_array_rank_gains(config, rng, wanted, batch, pool_cap):
    """The whole-array ``_conditioned_rank_gains`` the blocked one replaced, with its batch and pool cap as arguments.

    An empty pool concatenates to an empty array instead of raising.
    """
    geom, mob, rank_weak, rank_strong = config.geom, config.mobility, config.rank_weak, config.rank_strong
    K = mob.num_users
    out_w, out_s, pooled = [], [], []
    got = 0
    pooled_n = 0
    while got < wanted:
        d, _, phi = sample_user_arrays(mob, rng, batch * K)
        g2 = channel_gain(geom, d.reshape(batch, K), phi.reshape(batch, K)) ** 2
        if pooled_n < pool_cap:
            nz = g2[g2 > 0.0]
            pooled.append(nz)
            pooled_n += nz.size
        masked = np.where(g2 > 0.0, g2, np.inf)
        masked.sort(axis=1)
        keep = (g2 > 0.0).sum(axis=1) >= rank_strong
        out_w.append(masked[keep, rank_weak - 1])
        out_s.append(masked[keep, rank_strong - 1])
        got += int(keep.sum())
    w = np.concatenate(out_w)[:wanted]
    s = np.concatenate(out_s)[:wanted]
    return w, s, (np.concatenate(pooled) if pooled else np.empty(0))[:pool_cap]


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


BATCH = 500  # snapshots per draw: about 150 of them hold 10 nonzero gains, and about 4200 gains are nonzero


class TestConditionedRankGains:
    @pytest.mark.parametrize("rows_per_block", [7, 64, BATCH, 2 * BATCH])
    @pytest.mark.parametrize("wanted,pool_size", [
        (30, 0),  # the quota is met in the first fifth of the first batch; no pool
        (30, 2000),  # the quota is met early, the pool about halfway through the first batch
        (30, 10**6),  # the pool cannot fill: it holds every nonzero gain of the one batch drawn
        (200, 500),  # the pool fills in the first rows, the quota in the second batch
        (200, 0),
    ])
    def test_bitwise_the_whole_array_oracle(self, monkeypatch, rows_per_block, wanted, pool_size):
        config = paper_config()
        K = config.mobility.num_users
        monkeypatch.setattr(validation, "_RANK_BATCH", BATCH)
        monkeypatch.setattr(validation, "_BLOCK_VALUES", rows_per_block * K)
        rng, oracle_rng = np.random.default_rng(7), np.random.default_rng(7)
        w, s, pool = validation._conditioned_rank_gains(config, rng, wanted, pool_size)
        ow, os_, opool = whole_array_rank_gains(config, oracle_rng, wanted, BATCH, pool_size)
        assert w.size == wanted and pool.size <= pool_size
        for got, expected in ((w, ow), (s, os_), (pool, opool)):
            assert_same_bits(got, expected)
        # rows past the quota are still drawn: both streams stand at the same position
        assert rng.random() == oracle_rng.random()

    def test_block_rows_cover_the_batch_with_an_uneven_last_block(self, monkeypatch):
        monkeypatch.setattr(validation, "_BLOCK_VALUES", 7 * 20)
        blocks = validation._row_blocks(BATCH, 20)
        covered = np.concatenate([np.arange(BATCH)[rows] for rows in blocks])
        assert covered.tolist() == list(range(BATCH))
        assert BATCH % 7 and blocks[-1].stop > BATCH


class TestBlockedCountsAndFractions:
    N, K = 3001, 20  # rows; 3001 splits into no whole number of the blocks below

    @pytest.fixture
    def users(self):
        config = paper_config()
        d, _, phi = sample_user_arrays(config.mobility, np.random.default_rng(11), self.N * self.K)
        return config.geom, d, phi

    @pytest.mark.parametrize("block_values", [13, 7 * 20, 1 << 17])
    def test_nonzero_counts_per_snapshot(self, monkeypatch, users, block_values):
        geom, d, phi = users
        monkeypatch.setattr(validation, "_BLOCK_VALUES", block_values)
        counts = validation._nonzero_counts(geom, d.reshape(self.N, self.K), phi.reshape(self.N, self.K))
        assert_same_bits(counts, (channel_gain(geom, d, phi).reshape(self.N, self.K) > 0.0).sum(axis=1))

    @pytest.mark.parametrize("block_values", [13, 7 * 20, 1 << 17])
    def test_nonzero_indicator_per_user(self, monkeypatch, users, block_values):
        geom, d, phi = users
        monkeypatch.setattr(validation, "_BLOCK_VALUES", block_values)
        nonzero = validation._nonzero_counts(geom, d[:, None], phi[:, None])
        whole = channel_gain(geom, d, phi) > 0.0
        assert_same_bits(nonzero, whole.astype(nonzero.dtype))
        assert float(nonzero.mean()) == float(whole.mean())

    def test_both_groups_fraction(self, monkeypatch):
        # the check's fraction at blocks of 13 rows is that of the whole-array expression it replaced
        sizes = ValidationSizes(population_draws=self.N)
        monkeypatch.setattr(validation, "_BLOCK_VALUES", 13 * self.K)
        result = validation.check_group_conditioning(sizes, np.random.default_rng(5))
        model = validation.paper_model(kind=validation.FeedbackKind.TWO_BIT_INSTANT)
        geom, scheme = model.geom, model.scheme
        d, _, phi = sample_user_arrays(model.mobility, np.random.default_rng(5), self.N * self.K)
        d = d.reshape(self.N, self.K)
        theta = incidence_angle(d, phi.reshape(self.N, self.K), geom.ell)
        weak = (d > scheme.d_threshold) & (np.abs(theta) > scheme.theta_threshold)
        strong = (d <= scheme.d_threshold) & (np.abs(theta) <= scheme.theta_threshold)
        frac = float((weak.any(axis=1) & strong.any(axis=1)).mean())
        pred = validation.an.both_groups_probability(model)
        assert result.measured == abs(frac - pred)
