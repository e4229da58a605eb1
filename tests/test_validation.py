"""The bulk oracles of ``validation`` drawn and evaluated in row blocks give the bits of their whole-array forms.

Each case shrinks the draw batch and the block through the module constants,
so the blocks split a batch unevenly, the kept-snapshot quota is met partway
through a batch, and the pool fills before or after the quota.  The block
draws are compared with the whole draw, and the stream must stand where the
whole draw leaves it however many blocks are drawn.  The oracles' traced
memory must stay a few blocks, not whole draws.
"""

import tracemalloc

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

    @pytest.mark.parametrize("rows_per_block", [7, 64])
    def test_a_pool_cut_inside_a_block_is_the_whole_array_prefix(self, monkeypatch, rows_per_block):
        config = paper_config()
        K = config.mobility.num_users
        monkeypatch.setattr(validation, "_RANK_BATCH", BATCH)
        monkeypatch.setattr(validation, "_BLOCK_VALUES", rows_per_block * K)
        d, _, phi = sample_user_arrays(config.mobility, np.random.default_rng(7), BATCH * K)
        nonzero = channel_gain(config.geom, d, phi)[:4 * rows_per_block * K] > 0.0
        per_block = nonzero.reshape(4, -1).sum(axis=1)  # in the first four blocks
        pool_size = int(per_block[:3].sum()) + int(per_block[3]) // 2  # cut halfway through the fourth block
        _, _, pool = validation._conditioned_rank_gains(config, np.random.default_rng(7), 30, pool_size)
        _, _, opool = whole_array_rank_gains(config, np.random.default_rng(7), 30, BATCH, pool_size)
        assert 0 < int(per_block[3]) // 2 < int(per_block[3]) and pool.size == pool_size
        assert_same_bits(pool, opool)

    def test_block_rows_cover_the_batch_with_an_uneven_last_block(self, monkeypatch):
        monkeypatch.setattr(validation, "_BLOCK_VALUES", 7 * 20)
        blocks = validation._row_blocks(BATCH, 20)
        covered = np.concatenate([np.arange(BATCH)[rows] for rows in blocks])
        assert covered.tolist() == list(range(BATCH))
        assert BATCH % 7 and blocks[-1].stop > BATCH

    def test_a_block_plan_that_covers_no_row_fails_naming_the_batch_and_the_plan(self, monkeypatch):
        plans = []

        def no_blocks(rows, width):
            plans.append((rows, width))
            assert len(plans) <= 3, "the oracle kept drawing batches that no block covers"
            return []

        monkeypatch.setattr(validation, "_RANK_BATCH", BATCH)
        monkeypatch.setattr(validation, "_row_blocks", no_blocks)
        with pytest.raises(RuntimeError, match=r"batch 1 of 500 snapshots: the block plan \[\] covers none"):
            validation._conditioned_rank_gains(paper_config(), np.random.default_rng(7), 30, 0)


ROWS = 3001  # splits into no whole number of the blocks below


class TestUserBlocks:
    @pytest.fixture
    def mob(self):
        return paper_config().mobility

    @pytest.mark.parametrize("width", [1, 20])
    @pytest.mark.parametrize("block_values", [13, 7 * 20, 1 << 17])
    def test_blocks_are_the_whole_draw_bit_for_bit(self, monkeypatch, mob, width, block_values):
        monkeypatch.setattr(validation, "_BLOCK_VALUES", block_values)
        blocks = list(validation._user_blocks(mob, np.random.default_rng(11), ROWS, width))
        d, _, phi = sample_user_arrays(mob, np.random.default_rng(11), ROWS * width)
        assert len(blocks) == len(validation._row_blocks(ROWS, width))
        assert_same_bits(np.concatenate([block_d for block_d, _ in blocks]), d.reshape(ROWS, width))
        assert_same_bits(np.concatenate([block_phi for _, block_phi in blocks]), phi.reshape(ROWS, width))

    @pytest.mark.parametrize("drawn", ["all", "one", "none"])
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM])
    def test_the_stream_stands_where_the_whole_draw_leaves_it(self, monkeypatch, mob, drawn, bit_generator):
        monkeypatch.setattr(validation, "_BLOCK_VALUES", 7 * 20)
        rng, whole_rng = np.random.Generator(bit_generator(11)), np.random.Generator(bit_generator(11))
        for g in (rng, whole_rng):  # leaves a 32-bit half-word buffered, which the whole draw keeps
            g.integers(0, 10, dtype=np.uint32)
        blocks = validation._user_blocks(mob, rng, ROWS, 20)
        first = None
        if drawn == "all":
            first = list(blocks)[0]
        elif drawn == "one":
            first = next(blocks)
        d, _, phi = sample_user_arrays(mob, whole_rng, ROWS * 20)
        if first is not None:
            assert_same_bits(first[0], d.reshape(ROWS, 20)[:7])
            assert_same_bits(first[1], phi.reshape(ROWS, 20)[:7])
        assert rng.integers(0, 2**32, 4, dtype=np.uint32).tolist() == \
            whole_rng.integers(0, 2**32, 4, dtype=np.uint32).tolist()
        assert rng.random() == whole_rng.random()

    def test_a_stream_without_a_counting_advance_is_refused_by_name(self, mob):
        with pytest.raises(TypeError, match="MT19937"):
            validation._user_blocks(mob, np.random.Generator(np.random.MT19937(1)), ROWS, 20)


class TestBlockedCountsAndFractions:
    N, K = ROWS, 20

    @pytest.fixture
    def users(self):
        config = paper_config()
        d, _, phi = sample_user_arrays(config.mobility, np.random.default_rng(11), self.N * self.K)
        return config, d, phi

    @pytest.mark.parametrize("block_values", [13, 7 * 20, 1 << 17])
    def test_nonzero_counts_per_snapshot(self, monkeypatch, users, block_values):
        config, d, phi = users
        monkeypatch.setattr(validation, "_BLOCK_VALUES", block_values)
        histogram = validation._count_histogram(config.geom, config.mobility, np.random.default_rng(11), self.N, self.K)
        counts = (channel_gain(config.geom, d, phi).reshape(self.N, self.K) > 0.0).sum(axis=1)
        assert_same_bits(histogram, np.bincount(counts, minlength=self.K + 1))

    @pytest.mark.parametrize("block_values", [13, 7 * 20, 1 << 17])
    def test_nonzero_indicator_per_user(self, monkeypatch, users, block_values):
        config, d, phi = users
        n = self.N * self.K
        monkeypatch.setattr(validation, "_BLOCK_VALUES", block_values)
        histogram = validation._count_histogram(config.geom, config.mobility, np.random.default_rng(11), n, 1)
        whole = channel_gain(config.geom, d, phi) > 0.0
        assert histogram.tolist() == [n - int(whole.sum()), int(whole.sum())]
        assert int(histogram[1]) / n == float(whole.mean())

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


QUICK = ValidationSizes.quick()
MIB = 1 << 20
POOL_BYTES = 5_000_000 * 8  # the unordered-CDF pool of check_individual_cdfs: 38.1 MiB of float64


@pytest.mark.parametrize("oracle,bound", [
    pytest.param(lambda: validation._conditioned_rank_gains(paper_config(), np.random.default_rng(7), 30, 0),
                 32 * MIB, id="conditioned-rank-gains"),
    pytest.param(lambda: validation.check_count_pmf(QUICK, np.random.default_rng(7)), 32 * MIB, id="count-pmf"),
    pytest.param(lambda: validation.check_group_conditioning(QUICK, np.random.default_rng(7)), 32 * MIB,
                 id="group-conditioning"),
    pytest.param(lambda: validation.check_nonzero_probability(QUICK, np.random.default_rng(7)), 32 * MIB,
                 id="nonzero-probability"),
    # the pool is held once, from draw to ECDF; block pieces, their concatenation and a sorted copy traced 84.6 MiB
    pytest.param(lambda: validation.check_individual_cdfs(QUICK, np.random.default_rng(7)), POOL_BYTES + 16 * MIB,
                 id="individual-cdfs"),
])
def test_bulk_oracle_memory_is_a_few_blocks_not_the_whole_draw(oracle, bound):
    # tracemalloc sees NumPy's data buffers; a whole-array draw of any of these oracles traces 38-187 MiB
    tracemalloc.start()
    try:
        oracle()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"traced peak {peak / MIB:.1f} MiB"
