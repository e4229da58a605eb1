"""The bulk oracles of ``validation`` drawn and evaluated in row blocks give the bits of their whole-array forms.

Each block is its own draw from the stream, taken in turn, so the reference
of each case concatenates the same sequential block draws and evaluates the
concatenation as whole arrays.  The cases shrink the block through
``_BLOCK_VALUES``, so the last block is short, the kept-snapshot quota is
met partway through a block, and the pool fills before or after the quota.
The stream must stand after the last block the oracle needs.  The oracles'
traced memory must stay a few blocks, not whole draws.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from vlcnoma import validation
from vlcnoma.channel import channel_gain, incidence_angle
from vlcnoma.population import sample_user_arrays
from vlcnoma.validation import ValidationSizes, paper_config


def sequential_draw(mob, rng, block_sizes, width):
    """The (d, phi) of one ``sample_user_arrays`` draw per block, in turn, concatenated as (rows, width)."""
    blocks = [sample_user_arrays(mob, rng, (rows, width)) for rows in block_sizes]
    return np.concatenate([d for d, _, _ in blocks]), np.concatenate([phi for _, _, phi in blocks])


def whole_array_rank_gains(config, seed, wanted, pool_size, rows_per_block):
    """``_conditioned_rank_gains`` as whole arrays over the fewest sequential blocks that hold its quota and pool.

    Also returns the stream at ``seed`` standing after those blocks, how many
    snapshots their concatenation keeps and how many nonzero gains it holds.
    """
    geom, mob, rank_weak, rank_strong = config.geom, config.mobility, config.rank_weak, config.rank_strong
    for blocks in itertools.count(1):
        rng = np.random.default_rng(seed)
        d, phi = sequential_draw(mob, rng, [rows_per_block] * blocks, mob.num_users)
        g2 = channel_gain(geom, d, phi) ** 2
        nonzero = g2 > 0.0
        keep = nonzero.sum(axis=1) >= rank_strong
        if keep.sum() >= wanted and nonzero.sum() >= pool_size:
            break
    masked = np.sort(np.where(nonzero, g2, np.inf), axis=1)
    w, s = masked[keep, rank_weak - 1][:wanted], masked[keep, rank_strong - 1][:wanted]
    return w, s, g2[nonzero][:pool_size], rng, int(keep.sum()), int(nonzero.sum())


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestConditionedRankGains:
    # about 30 % of snapshots keep 10 nonzero gains, and a snapshot holds about 8.4 nonzero gains
    @pytest.mark.parametrize("rows_per_block", [1, 7, 64, 1000])
    @pytest.mark.parametrize("wanted,pool_size", [
        (30, 0),  # no pool: the quota alone decides the blocks drawn
        (30, 2000),  # the quota is met in about 100 snapshots, the pool after it in about 240
        (200, 500),  # the pool fills in about 60 snapshots, the quota after it in about 670
        (200, 0),
    ])
    def test_bitwise_the_whole_array_oracle(self, monkeypatch, rows_per_block, wanted, pool_size):
        config = paper_config()
        monkeypatch.setattr(validation, "_BLOCK_VALUES", rows_per_block * config.mobility.num_users)
        rng = np.random.default_rng(7)
        w, s, pool = validation._conditioned_rank_gains(config, rng, wanted, pool_size)
        ow, os_, opool, oracle_rng, _, _ = whole_array_rank_gains(config, 7, wanted, pool_size, rows_per_block)
        assert w.size == wanted and pool.size == pool_size
        for got, expected in ((w, ow), (s, os_), (pool, opool)):
            assert_same_bits(got, expected)
        # no block past the last one needed is drawn: both streams stand at the same position
        assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("rows_per_block", [7, 64])
    def test_the_quota_and_the_pool_are_cut_inside_a_block(self, monkeypatch, rows_per_block):
        config = paper_config()
        monkeypatch.setattr(validation, "_BLOCK_VALUES", rows_per_block * config.mobility.num_users)
        wanted, pool_size = 31, 1999  # odd, so neither falls on a block edge here
        w, s, pool = validation._conditioned_rank_gains(config, np.random.default_rng(7), wanted, pool_size)
        ow, os_, opool, _, kept, nonzero = whole_array_rank_gains(config, 7, wanted, pool_size, rows_per_block)
        assert kept > wanted and nonzero > pool_size
        for got, expected in ((w, ow), (s, os_), (pool, opool)):
            assert_same_bits(got, expected)


ROWS = 3001  # splits into no whole number of the blocks below


def block_sizes(rows, width, block_values):
    """Rows per block of ``_user_blocks`` over ``rows`` rows, written out: whole blocks, then the short rest."""
    step = max(block_values // width, 1)
    return [step] * (rows // step) + ([rows % step] if rows % step else [])


class TestUserBlocks:
    @pytest.fixture
    def mob(self):
        return paper_config().mobility

    @pytest.mark.parametrize("width", [1, 20])
    @pytest.mark.parametrize("block_values", [13, 7 * 20, 1 << 17])
    def test_blocks_are_sequential_draws_with_a_short_last_block(self, monkeypatch, mob, width, block_values):
        monkeypatch.setattr(validation, "_BLOCK_VALUES", block_values)
        rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        blocks = list(validation._user_blocks(mob, rng, width, ROWS))
        sizes = block_sizes(ROWS, width, block_values)
        d, phi = sequential_draw(mob, oracle_rng, sizes, width)
        assert [len(block_d) for block_d, _ in blocks] == sizes
        assert_same_bits(np.concatenate([block_d for block_d, _ in blocks]), d)
        assert_same_bits(np.concatenate([block_phi for _, block_phi in blocks]), phi)
        assert rng.random() == oracle_rng.random()

    def test_without_rows_the_blocks_go_on_until_the_caller_stops(self, monkeypatch, mob):
        monkeypatch.setattr(validation, "_BLOCK_VALUES", 7 * 20)
        rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        blocks = list(itertools.islice(validation._user_blocks(mob, rng, 20), 5))
        d, phi = sequential_draw(mob, oracle_rng, [7] * 5, 20)
        assert_same_bits(np.concatenate([block_d for block_d, _ in blocks]), d)
        assert_same_bits(np.concatenate([block_phi for _, block_phi in blocks]), phi)
        assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("drawn", ["all", "one", "none"])
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM])
    def test_the_stream_stands_where_the_whole_draw_leaves_it(self, monkeypatch, mob, drawn, bit_generator):
        # the whole draw here is the sequential draw of just the blocks taken: none is drawn ahead
        monkeypatch.setattr(validation, "_BLOCK_VALUES", 7 * 20)
        rng, whole_rng = np.random.Generator(bit_generator(11)), np.random.Generator(bit_generator(11))
        for g in (rng, whole_rng):  # leaves a 32-bit half-word buffered, which the block draws keep
            g.integers(0, 10, dtype=np.uint32)
        blocks = validation._user_blocks(mob, rng, 20, ROWS)
        taken, sizes = [], []
        if drawn == "all":
            taken, sizes = list(blocks), block_sizes(ROWS, 20, 7 * 20)
        elif drawn == "one":
            taken, sizes = [next(blocks)], [7]
        assert [len(block_d) for block_d, _ in taken] == sizes
        if taken:
            d, phi = sequential_draw(mob, whole_rng, sizes, 20)
            assert_same_bits(np.concatenate([block_d for block_d, _ in taken]), d)
            assert_same_bits(np.concatenate([block_phi for _, block_phi in taken]), phi)
        assert rng.integers(0, 2**32, 4, dtype=np.uint32).tolist() == \
            whole_rng.integers(0, 2**32, 4, dtype=np.uint32).tolist()
        assert rng.random() == whole_rng.random()


class TestBlockedCountsAndFractions:
    N, K = ROWS, 20

    @pytest.mark.parametrize("block_values", [13, 7 * 20, 1 << 17])
    def test_nonzero_counts_per_snapshot(self, monkeypatch, block_values):
        config = paper_config()
        monkeypatch.setattr(validation, "_BLOCK_VALUES", block_values)
        histogram = validation._count_histogram(config.geom, config.mobility, np.random.default_rng(11), self.N, self.K)
        d, phi = sequential_draw(config.mobility, np.random.default_rng(11), block_sizes(self.N, self.K, block_values),
                                 self.K)
        counts = (channel_gain(config.geom, d, phi) > 0.0).sum(axis=1)
        assert_same_bits(histogram, np.bincount(counts, minlength=self.K + 1))

    @pytest.mark.parametrize("block_values", [13, 7 * 20, 1 << 17])
    def test_nonzero_indicator_per_user(self, monkeypatch, block_values):
        config = paper_config()
        n = self.N * self.K
        monkeypatch.setattr(validation, "_BLOCK_VALUES", block_values)
        histogram = validation._count_histogram(config.geom, config.mobility, np.random.default_rng(11), n, 1)
        d, phi = sequential_draw(config.mobility, np.random.default_rng(11), block_sizes(n, 1, block_values), 1)
        whole = channel_gain(config.geom, d, phi) > 0.0
        assert histogram.tolist() == [n - int(whole.sum()), int(whole.sum())]
        assert int(histogram[1]) / n == float(whole.mean())

    def test_both_groups_fraction(self, monkeypatch):
        # the check's fraction at blocks of 13 rows is that of the whole-array expression over the same blocks
        sizes = ValidationSizes(population_draws=self.N)
        monkeypatch.setattr(validation, "_BLOCK_VALUES", 13 * self.K)
        result = validation.check_group_conditioning(sizes, np.random.default_rng(5))
        model = validation.paper_model(kind=validation.FeedbackKind.TWO_BIT_INSTANT)
        geom, scheme = model.geom, model.scheme
        d, phi = sequential_draw(model.mobility, np.random.default_rng(5), block_sizes(self.N, self.K, 13 * self.K),
                                 self.K)
        theta = incidence_angle(d, phi, geom.ell)
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
