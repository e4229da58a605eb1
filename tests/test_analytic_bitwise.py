"""Bitwise pin of the closed-form families.

Every value below is ``float.hex()`` of what the closed-form engine returns,
error estimates included, for the paper geometry at delta_phi = 0 and 25
degrees.  The golden CSVs reach only the outage pairs of the sweeps; this pin
also reaches the weak-role group CDFs, the success probabilities of both roles,
the count laws and every error term.  A refactor of ``analytic`` that claims
to keep its numbers must keep these values to the last bit.
"""

import itertools

import pytest

from vlcnoma import analytic as an
from vlcnoma.scheduling import FeedbackKind, FeedbackScheme
from vlcnoma.validation import paper_model

DELTA_PHI_DEG = (0.0, 25.0)
# squared-gain levels: zero, inside the support (the last one inside the paper
# scheme's strong group), and above g(d_min)^2 = 6.3e-11
LEVELS = (0.0, 5e-15, 4e-13, 2e-11, 4.5e-11, 1e-10)
# (d_threshold m, theta_threshold as a fraction of the half FOV) besides the paper scheme's
WIDE_THRESHOLDS = (4.0, 0.5)


def _group_models(geom, mob, name):
    def scheme(kind):
        if name == "paper":
            return paper_model(kind=kind).scheme
        d_th, th = WIDE_THRESHOLDS
        return FeedbackScheme(kind, d_threshold=d_th, theta_threshold=th * geom.half_fov)

    return tuple(an.AnalyticModel(geom=geom, mobility=mob, scheme=scheme(kind))
                 for kind in (FeedbackKind.TWO_BIT_INSTANT, FeedbackKind.TWO_BIT_MEAN))


def cases():
    """(family, key, thunk) of every pinned evaluation; each thunk binds its own deviation's models."""
    out = []
    for dphi in DELTA_PHI_DEG:
        base = paper_model(dphi)
        geom, mob = base.geom, base.mobility
        tag = f"dphi={dphi:g}"

        def add(family, key, thunk):
            out.append((family, f"{family}|{tag}|{key}", thunk))

        for x in LEVELS:
            add("unordered", f"instant|x={x!r}", lambda x=x, b=base: an.unordered_gain_cdf(b, x))
            add("unordered", f"mean|x={x!r}",
                lambda x=x, b=base: an.unordered_gain_cdf(an._mean_model(b), x))
            for rank, min_count in ((1, 10), (10, 10), (3, 5)):
                add("ordered", f"r={rank},k={min_count}|x={x!r}",
                    lambda x=x, r=rank, k=min_count, b=base: an.ordered_gain_cdf(b, x, r, k))
            for role, scheme in itertools.product((an.WEAK, an.STRONG), ("paper", "wide")):
                instant, mean = _group_models(geom, mob, scheme)
                add("group_cdf_instant", f"{scheme}|{role}|x={x!r}",
                    lambda x=x, role=role, m=instant: an.group_gain_cdf_instant(m, x, role))
                add("group_cdf_mean", f"{scheme}|{role}|x={x!r}",
                    lambda x=x, role=role, m=mean: an.group_gain_cdf_mean(m, x, role))
                for name, model in (("instant", instant), ("mean", mean)):
                    add("group_success", f"{scheme}|{name}|{role}|x={x!r}",
                        lambda x=x, role=role, m=model: an.group_success_probability(m, x, role))
        for x in (5e-15, 4e-13, 2e-11):
            for rank, min_count in ((1, 10), (10, 10)):
                add("mean_angle", f"r={rank},k={min_count}|x={x!r}",
                    lambda x=x, r=rank, k=min_count, b=base: an.mean_angle_success_probability(b, x, r, k))
        for scheme in ("paper", "wide"):
            for name, model in zip(("instant", "mean"), _group_models(geom, mob, scheme)):
                add("group_probabilities", f"{scheme}|{name}",
                    lambda m=model: an.both_groups_probability(m))
        for use_mean, law in ((False, base), (True, an._mean_model(base))):
            add("nonzero", f"p|use_mean={use_mean}",
                lambda m=law: an.nonzero_gain_probability(m))
            for k_min in (0, 1, 10, 20):
                add("nonzero", f"tail|use_mean={use_mean}|k_min={k_min}",
                    lambda m=law, k=k_min: an.nonzero_count_tail(m, k))
        for k, k_min in ((0, 0), (3, 0), (5, 10), (10, 10), (20, 10), (14, 1)):
            add("nonzero", f"pmf|k={k},k_min={k_min}", lambda k=k, m=k_min, b=base: an.nonzero_count_pmf(b, k, m))
    return out


PINNED = {
    'unordered|dphi=0|instant|x=0.0': ('0x0.0p+0', '0x1.01d333a4449e9p-36'),
    'unordered|dphi=0|mean|x=0.0': ('0x0.0p+0', '0x1.01d333a4449e9p-36'),
    'ordered|dphi=0|r=1,k=10|x=0.0': ('0x0.0p+0', '0x1.4248008d55c63p-32'),
    'ordered|dphi=0|r=10,k=10|x=0.0': ('0x0.0p+0', '0x1.4248008d55c63p-32'),
    'ordered|dphi=0|r=3,k=5|x=0.0': ('0x0.0p+0', '0x1.4248008d55c63p-32'),
    'group_cdf_instant|dphi=0|paper|weak|x=0.0': ('0x0.0p+0', '0x1.5653433f9fb4bp-36'),
    'group_cdf_mean|dphi=0|paper|weak|x=0.0': ('0x1.0000000000000p-53', '0x1.565318070324ap-36'),
    'group_success|dphi=0|paper|instant|weak|x=0.0': ('0x1.83aba0bd9e703p-2', '0x1.037e6721beaecp-38'),
    'group_success|dphi=0|paper|mean|weak|x=0.0': ('0x1.83aba0bd937afp-2', '0x1.2783ce71f591ap-33'),
    'group_cdf_instant|dphi=0|wide|weak|x=0.0': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'group_cdf_mean|dphi=0|wide|weak|x=0.0': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=0|wide|instant|weak|x=0.0': ('0x1.732675c0b0c9dp-3', '0x1.21f60bfe8a1dbp-48'),
    'group_success|dphi=0|wide|mean|weak|x=0.0': ('0x1.732675c0b0c9dp-3', '0x1.21f60bfe8a1dbp-48'),
    'group_cdf_instant|dphi=0|paper|strong|x=0.0': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'group_cdf_mean|dphi=0|paper|strong|x=0.0': ('0x1.0000000000000p-52', '0x1.8ffffffffffffp-46'),
    'group_success|dphi=0|paper|instant|strong|x=0.0': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=0|paper|mean|strong|x=0.0': ('0x1.ffffffffffffep-1', '0x1.8ffffffffffffp-46'),
    'group_cdf_instant|dphi=0|wide|strong|x=0.0': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'group_cdf_mean|dphi=0|wide|strong|x=0.0': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=0|wide|instant|strong|x=0.0': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=0|wide|mean|strong|x=0.0': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'unordered|dphi=0|instant|x=5e-15': ('0x1.2b7a623dacb58p-4', '0x1.e99340f994dbep-38'),
    'unordered|dphi=0|mean|x=5e-15': ('0x1.2b7a623dacb58p-4', '0x1.e99340f994dbep-38'),
    'ordered|dphi=0|r=1,k=10|x=5e-15': ('0x1.2147c25738fc6p-1', '0x1.31fc089bfd097p-33'),
    'ordered|dphi=0|r=10,k=10|x=5e-15': ('0x1.98b686978da3cp-32', '0x1.31fc089bfd097p-33'),
    'ordered|dphi=0|r=3,k=5|x=5e-15': ('0x1.8a1aca4c1b755p-6', '0x1.31fc089bfd097p-33'),
    'group_cdf_instant|dphi=0|paper|weak|x=5e-15': ('0x1.6649445ab8770p-4', '0x1.56a302cebd2fdp-34'),
    'group_cdf_mean|dphi=0|paper|weak|x=5e-15': ('0x1.6649445bc9148p-4', '0x1.215ee0e1984d5p-33'),
    'group_success|dphi=0|paper|instant|weak|x=5e-15': ('0x1.61c29159cecffp-2', '0x1.cbcdc99f0ee29p-36'),
    'group_success|dphi=0|paper|mean|weak|x=5e-15': ('0x1.61c2915901db9p-2', '0x1.4dd80ed18bc55p-30'),
    'group_cdf_instant|dphi=0|wide|weak|x=5e-15': ('0x1.c28e90a047ba0p-3', '0x1.baa4692d6576ap-46'),
    'group_cdf_mean|dphi=0|wide|weak|x=5e-15': ('0x1.c28e90a047ba4p-3', '0x1.baa5cdbd55902p-46'),
    'group_success|dphi=0|wide|instant|weak|x=5e-15': ('0x1.217f6c40af8cdp-3', '0x1.40df62375beb5p-48'),
    'group_success|dphi=0|wide|mean|weak|x=5e-15': ('0x1.217f6c40af8ccp-3', '0x1.40e064b07115bp-48'),
    'group_cdf_instant|dphi=0|paper|strong|x=5e-15': ('0x1.0000000000000p-52', '0x1.8ffffffffffffp-46'),
    'group_cdf_mean|dphi=0|paper|strong|x=5e-15': ('0x1.0000000000000p-52', '0x1.8ffffffffffffp-46'),
    'group_success|dphi=0|paper|instant|strong|x=5e-15': ('0x1.ffffffffffffep-1', '0x1.8ffffffffffffp-46'),
    'group_success|dphi=0|paper|mean|strong|x=5e-15': ('0x1.ffffffffffffep-1', '0x1.8ffffffffffffp-46'),
    'group_cdf_instant|dphi=0|wide|strong|x=5e-15': ('0x0.0p+0', '0x1.9000000000001p-46'),
    'group_cdf_mean|dphi=0|wide|strong|x=5e-15': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=0|wide|instant|strong|x=5e-15': ('0x1.0000000000000p+0', '0x1.9000000000001p-46'),
    'group_success|dphi=0|wide|mean|strong|x=5e-15': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'unordered|dphi=0|instant|x=4e-13': ('0x1.09adae7c445d0p-1', '0x1.f54d9898dfc3dp-39'),
    'unordered|dphi=0|mean|x=4e-13': ('0x1.09adae7c445d0p-1', '0x1.f54d9898dfc3dp-39'),
    'ordered|dphi=0|r=1,k=10|x=4e-13': ('0x1.ffca1a4855817p-1', '0x1.39507f5f8bda6p-34'),
    'ordered|dphi=0|r=10,k=10|x=4e-13': ('0x1.1c7bc3d50554ep-6', '0x1.39507f5f8bda6p-34'),
    'ordered|dphi=0|r=3,k=5|x=4e-13': ('0x1.bdf19eb7686ccp-1', '0x1.39507f5f8bda6p-34'),
    'group_cdf_instant|dphi=0|paper|weak|x=4e-13': ('0x1.2d89b31644987p-1', '0x1.991113921975fp-32'),
    'group_cdf_mean|dphi=0|paper|weak|x=4e-13': ('0x1.2d89b314c98d0p-1', '0x1.d6022b18100bdp-29'),
    'group_success|dphi=0|paper|instant|weak|x=4e-13': ('0x1.3eb5ef708a17dp-3', '0x1.3268237cc480ep-33'),
    'group_success|dphi=0|paper|mean|weak|x=4e-13': ('0x1.3eb5ef70b1d51p-3', '0x1.46ab00a7ccb24p-30'),
    'group_cdf_instant|dphi=0|wide|weak|x=4e-13': ('0x1.ffc069d03c03ep-1', '0x1.8d6aaa88e7befp-57'),
    'group_cdf_mean|dphi=0|wide|weak|x=4e-13': ('0x1.ffc069d03c5aap-1', '0x1.b3ff8cbc7cc0ap-36'),
    'group_success|dphi=0|wide|instant|weak|x=4e-13': ('0x1.70c0d30e7765fp-14', '0x1.2016a4e34d47bp-59'),
    'group_success|dphi=0|wide|mean|weak|x=4e-13': ('0x1.70c0d30c802d5p-14', '0x1.3c0e6cb8026c5p-38'),
    'group_cdf_instant|dphi=0|paper|strong|x=4e-13': ('0x1.0000000000000p-52', '0x1.8ffffffffffffp-46'),
    'group_cdf_mean|dphi=0|paper|strong|x=4e-13': ('0x1.0000000000000p-52', '0x1.8ffffffffffffp-46'),
    'group_success|dphi=0|paper|instant|strong|x=4e-13': ('0x1.ffffffffffffep-1', '0x1.8ffffffffffffp-46'),
    'group_success|dphi=0|paper|mean|strong|x=4e-13': ('0x1.ffffffffffffep-1', '0x1.8ffffffffffffp-46'),
    'group_cdf_instant|dphi=0|wide|strong|x=4e-13': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'group_cdf_mean|dphi=0|wide|strong|x=4e-13': ('0x0.0p+0', '0x1.8ffffffffffffp-46'),
    'group_success|dphi=0|wide|instant|strong|x=4e-13': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=0|wide|mean|strong|x=4e-13': ('0x1.0000000000000p+0', '0x1.8ffffffffffffp-46'),
    'unordered|dphi=0|instant|x=2e-11': ('0x1.b3305244c6306p-1', '0x1.67044e1776fcdp-38'),
    'unordered|dphi=0|mean|x=2e-11': ('0x1.b3305244c6306p-1', '0x1.67044e1776fcdp-38'),
    'ordered|dphi=0|r=1,k=10|x=2e-11': ('0x1.ffffffe84552dp-1', '0x1.c0c5619d54bc0p-34'),
    'ordered|dphi=0|r=10,k=10|x=2e-11': ('0x1.cf208915aae0bp-2', '0x1.c0c5619d54bc0p-34'),
    'ordered|dphi=0|r=3,k=5|x=2e-11': ('0x1.fedaf94d7872ap-1', '0x1.c0c5619d54bc0p-34'),
    'group_cdf_instant|dphi=0|paper|weak|x=2e-11': ('0x1.f21b2b981682fp-1', '0x1.7a687ccb4ba22p-39'),
    'group_cdf_mean|dphi=0|paper|weak|x=2e-11': ('0x1.f21b2b981682fp-1', '0x1.7a6879c2bdc80p-39'),
    'group_success|dphi=0|paper|instant|weak|x=2e-11': ('0x1.50a3dac46ac26p-7', '0x1.026a84c92c78cp-40'),
    'group_success|dphi=0|paper|mean|weak|x=2e-11': ('0x1.50a3dac46ac26p-7', '0x1.026a827d30f14p-40'),
    'group_cdf_instant|dphi=0|wide|weak|x=2e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|wide|weak|x=2e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|instant|weak|x=2e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|mean|weak|x=2e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|paper|strong|x=2e-11': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'group_cdf_mean|dphi=0|paper|strong|x=2e-11': ('0x0.0p+0', '0x1.8ffffffffffffp-46'),
    'group_success|dphi=0|paper|instant|strong|x=2e-11': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=0|paper|mean|strong|x=2e-11': ('0x1.0000000000000p+0', '0x1.8ffffffffffffp-46'),
    'group_cdf_instant|dphi=0|wide|strong|x=2e-11': ('0x1.56c9b01bf873ep-1', '0x1.14c660401dfc0p-42'),
    'group_cdf_mean|dphi=0|wide|strong|x=2e-11': ('0x1.56c9b01bf873ep-1', '0x1.14c660401dfc0p-42'),
    'group_success|dphi=0|wide|instant|strong|x=2e-11': ('0x1.526c9fc80f184p-2', '0x1.14c660401dfc0p-42'),
    'group_success|dphi=0|wide|mean|strong|x=2e-11': ('0x1.526c9fc80f185p-2', '0x1.14c660401dfc0p-42'),
    'unordered|dphi=0|instant|x=4.5e-11': ('0x1.e85ccf41a0303p-1', '0x1.85524f0229c3fp-38'),
    'unordered|dphi=0|mean|x=4.5e-11': ('0x1.e85ccf41a0303p-1', '0x1.85524f0229c3fp-38'),
    'ordered|dphi=0|r=1,k=10|x=4.5e-11': ('0x1.fffffffffff58p-1', '0x1.e6a6e2c2b434fp-34'),
    'ordered|dphi=0|r=10,k=10|x=4.5e-11': ('0x1.9e405b3c8b673p-1', '0x1.e6a6e2c2b434fp-34'),
    'ordered|dphi=0|r=3,k=5|x=4.5e-11': ('0x1.fff8b22d6baafp-1', '0x1.e6a6e2c2b434fp-34'),
    'group_cdf_instant|dphi=0|paper|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|paper|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|instant|weak|x=4.5e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|mean|weak|x=4.5e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|wide|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|wide|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|instant|weak|x=4.5e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|mean|weak|x=4.5e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|paper|strong|x=4.5e-11': ('0x1.3b8bc9bfb416ep-2', '0x1.df3d65311da70p-47'),
    'group_cdf_mean|dphi=0|paper|strong|x=4.5e-11': ('0x1.3b8bc9bfb4176p-2', '0x1.df3d65311da6cp-47'),
    'group_success|dphi=0|paper|instant|strong|x=4.5e-11': ('0x1.623a1b2025f49p-1', '0x1.df3d65311da70p-47'),
    'group_success|dphi=0|paper|mean|strong|x=4.5e-11': ('0x1.623a1b2025f45p-1', '0x1.df3d65311da6cp-47'),
    'group_cdf_instant|dphi=0|wide|strong|x=4.5e-11': ('0x1.b0d6bd3dbb038p-1', '0x1.b40e16deb5f24p-40'),
    'group_cdf_mean|dphi=0|wide|strong|x=4.5e-11': ('0x1.b0d6bd3dbb038p-1', '0x1.b40e16deb5f24p-40'),
    'group_success|dphi=0|wide|instant|strong|x=4.5e-11': ('0x1.3ca50b0913f1ep-3', '0x1.b40e16deb5f24p-40'),
    'group_success|dphi=0|wide|mean|strong|x=4.5e-11': ('0x1.3ca50b0913f1ep-3', '0x1.b40e16deb5f24p-40'),
    'unordered|dphi=0|instant|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'unordered|dphi=0|mean|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'ordered|dphi=0|r=1,k=10|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'ordered|dphi=0|r=10,k=10|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'ordered|dphi=0|r=3,k=5|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|paper|weak|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|paper|weak|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|instant|weak|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|mean|weak|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|wide|weak|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|wide|weak|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|instant|weak|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|mean|weak|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|paper|strong|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|paper|strong|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|instant|strong|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|mean|strong|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|wide|strong|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|wide|strong|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|instant|strong|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|mean|strong|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'mean_angle|dphi=0|r=1,k=10|x=5e-15': ('0x1.bd708d63b8ca1p-2', '0x1.2e18bcee2382ep-20'),
    'mean_angle|dphi=0|r=10,k=10|x=5e-15': ('0x1.fffffec6a53d0p-1', '0x1.055e5f1804162p-20'),
    'mean_angle|dphi=0|r=1,k=10|x=4e-13': ('0x1.af2e75317c1dfp-12', '0x1.2e180231b8532p-20'),
    'mean_angle|dphi=0|r=10,k=10|x=4e-13': ('0x1.f71c2452bc24bp-1', '0x1.e15f97627693ep-21'),
    'mean_angle|dphi=0|r=1,k=10|x=2e-11': ('0x1.7baca239798c8p-29', '0x1.2e18001cfc1a4p-20'),
    'mean_angle|dphi=0|r=10,k=10|x=2e-11': ('0x1.186fd74b42c81p-1', '0x1.278f238d6f534p-20'),
    'group_probabilities|dphi=0|paper|instant': ('0x1.afdf99fe10421p-4',),
    'group_probabilities|dphi=0|paper|mean': ('0x1.afdf99fe10421p-4',),
    'group_probabilities|dphi=0|wide|instant': ('0x1.cf71c47933453p-1',),
    'group_probabilities|dphi=0|wide|mean': ('0x1.cf71c47933453p-1',),
    'nonzero|dphi=0|p|use_mean=False': ('0x1.b59bd6da10a0ap-2', '0x1.b8ba7a69d95c8p-39'),
    'nonzero|dphi=0|tail|use_mean=False|k_min=0': ('0x1.0000000000000p+0',),
    'nonzero|dphi=0|tail|use_mean=False|k_min=1': ('0x1.fffe1d7f1dad8p-1',),
    'nonzero|dphi=0|tail|use_mean=False|k_min=10': ('0x1.5284e919d0d80p-2',),
    'nonzero|dphi=0|tail|use_mean=False|k_min=20': ('0x1.6293b8e197645p-25',),
    'nonzero|dphi=0|p|use_mean=True': ('0x1.b59bd6da10a0ap-2', '0x1.b8ba7a69d95c8p-39'),
    'nonzero|dphi=0|tail|use_mean=True|k_min=0': ('0x1.0000000000000p+0',),
    'nonzero|dphi=0|tail|use_mean=True|k_min=1': ('0x1.fffe1d7f1dad8p-1',),
    'nonzero|dphi=0|tail|use_mean=True|k_min=10': ('0x1.5284e919d0d80p-2',),
    'nonzero|dphi=0|tail|use_mean=True|k_min=20': ('0x1.6293b8e197645p-25',),
    'nonzero|dphi=0|pmf|k=0,k_min=0': ('0x1.e280e25278d27p-17',),
    'nonzero|dphi=0|pmf|k=3,k_min=0': ('0x1.be827869efe08p-8',),
    'nonzero|dphi=0|pmf|k=5,k_min=10': ('0x0.0p+0',),
    'nonzero|dphi=0|pmf|k=10,k_min=10': ('0x1.b8e93017599a3p-2',),
    'nonzero|dphi=0|pmf|k=20,k_min=10': ('0x1.0c24bd2ea1311p-23',),
    'nonzero|dphi=0|pmf|k=14,k_min=1': ('0x1.2f81f5116d41fp-7',),
    'unordered|dphi=25|instant|x=0.0': ('0x0.0p+0', '0x1.6e0830b3d9522p-36'),
    'unordered|dphi=25|mean|x=0.0': ('0x0.0p+0', '0x1.9b1bcf79ed48ap-40'),
    'ordered|dphi=25|r=1,k=10|x=0.0': ('0x0.0p+0', '0x1.c98a3ce0cfa6ap-32'),
    'ordered|dphi=25|r=10,k=10|x=0.0': ('0x0.0p+0', '0x1.c98a3ce0cfa6ap-32'),
    'ordered|dphi=25|r=3,k=5|x=0.0': ('0x0.0p+0', '0x1.c98a3ce0cfa6ap-32'),
    'group_cdf_instant|dphi=25|paper|weak|x=0.0': ('0x0.0p+0', '0x1.bf87d652ae475p-39'),
    'group_cdf_mean|dphi=25|paper|weak|x=0.0': ('0x1.176cee798bb40p-3', '0x1.936bb3382993bp-28'),
    'group_success|dphi=25|paper|instant|weak|x=0.0': ('0x1.6faeb8a66b01dp-2', '0x1.5e70a199762b3p-41'),
    'group_success|dphi=25|paper|mean|weak|x=0.0': ('0x1.759eda37ec050p-2', '0x1.26a7bb0e31b49p-29'),
    'group_cdf_instant|dphi=25|wide|weak|x=0.0': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'group_cdf_mean|dphi=25|wide|weak|x=0.0': ('0x1.ffffffffffffcp-3', '0x1.2c00000000001p-46'),
    'group_success|dphi=25|wide|instant|weak|x=0.0': ('0x1.b8c040c3fefc8p-3', '0x1.585632991f355p-48'),
    'group_success|dphi=25|wide|mean|weak|x=0.0': ('0x1.c4a156ad1e549p-3', '0x1.619e0bb73fb21p-48'),
    'group_cdf_instant|dphi=25|paper|strong|x=0.0': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'group_cdf_mean|dphi=25|paper|strong|x=0.0': ('0x1.0000000000000p-52', '0x1.8fffffffffffep-46'),
    'group_success|dphi=25|paper|instant|strong|x=0.0': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=25|paper|mean|strong|x=0.0': ('0x1.ffffffffffffep-1', '0x1.8fffffffffffep-46'),
    'group_cdf_instant|dphi=25|wide|strong|x=0.0': ('0x0.0p+0', '0x1.4c7819e2a3138p-44'),
    'group_cdf_mean|dphi=25|wide|strong|x=0.0': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=25|wide|instant|strong|x=0.0': ('0x1.0000000000000p+0', '0x1.4c7819e2a3138p-44'),
    'group_success|dphi=25|wide|mean|strong|x=0.0': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'unordered|dphi=25|instant|x=5e-15': ('0x1.317d421e54b20p-4', '0x1.52cfaaa33a200p-37'),
    'unordered|dphi=25|mean|x=5e-15': ('0x1.3953801805db0p-4', '0x1.432497fbdb7f1p-34'),
    'ordered|dphi=25|r=1,k=10|x=5e-15': ('0x1.2430a5a7667c8p-1', '0x1.a783954c08a80p-33'),
    'ordered|dphi=25|r=10,k=10|x=5e-15': ('0x1.b1f41ac1c45ebp-32', '0x1.a783954c08a80p-33'),
    'ordered|dphi=25|r=3,k=5|x=5e-15': ('0x1.8775b820ffad0p-6', '0x1.a783954c08a80p-33'),
    'group_cdf_instant|dphi=25|paper|weak|x=5e-15': ('0x1.8c2d35a8939c0p-4', '0x1.0c973ee6f9027p-36'),
    'group_cdf_mean|dphi=25|paper|weak|x=5e-15': ('0x1.b0bfe8b92de3cp-3', '0x1.d9a79b1baaa4fp-28'),
    'group_success|dphi=25|paper|instant|weak|x=5e-15': ('0x1.4c1e855fd8270p-2', '0x1.60c25f0cfba00p-38'),
    'group_success|dphi=25|paper|mean|weak|x=5e-15': ('0x1.5135ec92ff3d0p-2', '0x1.bbeb2ff39a2b3p-29'),
    'group_cdf_instant|dphi=25|wide|weak|x=5e-15': ('0x1.babaf9582e168p-3', '0x1.39877b4cc6ffap-46'),
    'group_cdf_mean|dphi=25|wide|weak|x=5e-15': ('0x1.8f2ca04a0bf46p-2', '0x1.2cd7119e7f1b3p-46'),
    'group_success|dphi=25|wide|instant|weak|x=5e-15': ('0x1.597885aa7659ep-3', '0x1.0de6286d2c764p-48'),
    'group_success|dphi=25|wide|mean|weak|x=5e-15': ('0x1.692b0bb9c1ddcp-3', '0x1.1a29a1291f754p-48'),
    'group_cdf_instant|dphi=25|paper|strong|x=5e-15': ('0x0.0p+0', '0x1.9000000000003p-46'),
    'group_cdf_mean|dphi=25|paper|strong|x=5e-15': ('0x1.0000000000000p-52', '0x1.8fffffffffffep-46'),
    'group_success|dphi=25|paper|instant|strong|x=5e-15': ('0x1.0000000000000p+0', '0x1.9000000000003p-46'),
    'group_success|dphi=25|paper|mean|strong|x=5e-15': ('0x1.ffffffffffffep-1', '0x1.8fffffffffffep-46'),
    'group_cdf_instant|dphi=25|wide|strong|x=5e-15': ('0x1.8000000000000p-52', '0x1.b07819e2a3135p-45'),
    'group_cdf_mean|dphi=25|wide|strong|x=5e-15': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=25|wide|instant|strong|x=5e-15': ('0x1.ffffffffffffdp-1', '0x1.b07819e2a3135p-45'),
    'group_success|dphi=25|wide|mean|strong|x=5e-15': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'unordered|dphi=25|instant|x=4e-13': ('0x1.dd7f43c41678cp-2', '0x1.895c3001fc14ap-38'),
    'unordered|dphi=25|mean|x=4e-13': ('0x1.d9edb96b20698p-2', '0x1.d1c6bc93fb959p-29'),
    'ordered|dphi=25|r=1,k=10|x=4e-13': ('0x1.ff5d36444b93fp-1', '0x1.ebb33c027b19cp-34'),
    'ordered|dphi=25|r=10,k=10|x=4e-13': ('0x1.ca60fbd2c6211p-8', '0x1.ebb33c027b19cp-34'),
    'ordered|dphi=25|r=3,k=5|x=4e-13': ('0x1.987886511278ap-1', '0x1.ebb33c027b19cp-34'),
    'group_cdf_instant|dphi=25|paper|weak|x=4e-13': ('0x1.2789cd0c41047p-1', '0x1.21f34f512e3a2p-35'),
    'group_cdf_mean|dphi=25|paper|weak|x=4e-13': ('0x1.488ba6483e88ap-1', '0x1.79c7258184595p-29'),
    'group_success|dphi=25|paper|instant|weak|x=4e-13': ('0x1.36e52f83bc359p-3', '0x1.98b840bfece91p-37'),
    'group_success|dphi=25|paper|mean|weak|x=4e-13': ('0x1.2a6fc6a59a470p-3', '0x1.4eb12598ecbcep-30'),
    'group_cdf_instant|dphi=25|wide|weak|x=4e-13': ('0x1.ffdc85463d479p-1', '0x1.bb7e120201c3ap-58'),
    'group_cdf_mean|dphi=25|wide|weak|x=4e-13': ('0x1.fd701328b511ap-1', '0x1.00388419451dfp-53'),
    'group_success|dphi=25|wide|instant|weak|x=4e-13': ('0x1.e8aca25ebac17p-15', '0x1.7dc6deda01e73p-60'),
    'group_success|dphi=25|wide|mean|weak|x=4e-13': ('0x1.222a19c125fa2p-10', '0x1.c561c83dcb56ep-56'),
    'group_cdf_instant|dphi=25|paper|strong|x=4e-13': ('0x1.8000000000000p-52', '0x1.8fffffffffffdp-46'),
    'group_cdf_mean|dphi=25|paper|strong|x=4e-13': ('0x1.0000000000000p-52', '0x1.8fffffffffffep-46'),
    'group_success|dphi=25|paper|instant|strong|x=4e-13': ('0x1.ffffffffffffdp-1', '0x1.8fffffffffffdp-46'),
    'group_success|dphi=25|paper|mean|strong|x=4e-13': ('0x1.ffffffffffffep-1', '0x1.8fffffffffffep-46'),
    'group_cdf_instant|dphi=25|wide|strong|x=4e-13': ('0x1.8000000000000p-52', '0x1.b07819e2a3135p-45'),
    'group_cdf_mean|dphi=25|wide|strong|x=4e-13': ('0x1.1ca4328f79280p-8', '0x1.8e433f70ffd2ap-46'),
    'group_success|dphi=25|wide|instant|strong|x=4e-13': ('0x1.ffffffffffffdp-1', '0x1.b07819e2a3135p-45'),
    'group_success|dphi=25|wide|mean|strong|x=4e-13': ('0x1.fdc6b79ae10dbp-1', '0x1.8e433f70ffd2ap-46'),
    'unordered|dphi=25|instant|x=2e-11': ('0x1.98fb5e349f543p-1', '0x1.65772d2687ccep-33'),
    'unordered|dphi=25|mean|x=2e-11': ('0x1.94754480e25cap-1', '0x1.43d999aef76cep-40'),
    'ordered|dphi=25|r=1,k=10|x=2e-11': ('0x1.fffffe1ee2299p-1', '0x1.bed4f87029c02p-29'),
    'ordered|dphi=25|r=10,k=10|x=2e-11': ('0x1.3b802e0059595p-2', '0x1.bed4f87029c02p-29'),
    'ordered|dphi=25|r=3,k=5|x=2e-11': ('0x1.fc976f3e7ec20p-1', '0x1.bed4f87029c02p-29'),
    'group_cdf_instant|dphi=25|paper|weak|x=2e-11': ('0x1.eda32b1a5909cp-1', '0x1.5609989c05e97p-32'),
    'group_cdf_mean|dphi=25|paper|weak|x=2e-11': ('0x1.edb7674068b02p-1', '0x1.6ee2ff8e2cbe7p-32'),
    'group_success|dphi=25|paper|instant|weak|x=2e-11': ('0x1.a5f9d8c975690p-7', '0x1.eb2c3b0f52e61p-34'),
    'group_success|dphi=25|paper|mean|weak|x=2e-11': ('0x1.afbacc56a19a2p-7', '0x1.d8a892a4ab6c9p-35'),
    'group_cdf_instant|dphi=25|wide|weak|x=2e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|wide|weak|x=2e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|instant|weak|x=2e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|mean|weak|x=2e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|paper|strong|x=2e-11': ('0x1.8000000000000p-52', '0x1.8fffffffffffep-46'),
    'group_cdf_mean|dphi=25|paper|strong|x=2e-11': ('0x1.8000000000000p-52', '0x1.8fffffffffffep-46'),
    'group_success|dphi=25|paper|instant|strong|x=2e-11': ('0x1.ffffffffffffdp-1', '0x1.8fffffffffffep-46'),
    'group_success|dphi=25|paper|mean|strong|x=2e-11': ('0x1.ffffffffffffdp-1', '0x1.8fffffffffffep-46'),
    'group_cdf_instant|dphi=25|wide|strong|x=2e-11': ('0x1.30e209602c434p-1', '0x1.71414e5ec8947p-43'),
    'group_cdf_mean|dphi=25|wide|strong|x=2e-11': ('0x1.3ea772b2c7cf4p-1', '0x1.49382e7af20a5p-42'),
    'group_success|dphi=25|wide|instant|strong|x=2e-11': ('0x1.9e3bed3fa7798p-2', '0x1.71414e5ec8947p-43'),
    'group_success|dphi=25|wide|mean|strong|x=2e-11': ('0x1.82b11a9a70618p-2', '0x1.49382e7af20a5p-42'),
    'unordered|dphi=25|instant|x=4.5e-11': ('0x1.de70d4235f6f6p-1', '0x1.1061d227be5b8p-39'),
    'unordered|dphi=25|mean|x=4.5e-11': ('0x1.deafa99490178p-1', '0x1.030c9a6271932p-42'),
    'ordered|dphi=25|r=1,k=10|x=4.5e-11': ('0x1.fffffffffe7d4p-1', '0x1.547a46b1adf26p-35'),
    'ordered|dphi=25|r=10,k=10|x=4.5e-11': ('0x1.73669eacae6b5p-1', '0x1.547a46b1adf26p-35'),
    'ordered|dphi=25|r=3,k=5|x=4.5e-11': ('0x1.ffe7163bb2a4cp-1', '0x1.547a46b1adf26p-35'),
    'group_cdf_instant|dphi=25|paper|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|paper|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|instant|weak|x=4.5e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|mean|weak|x=4.5e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|wide|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|wide|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|instant|weak|x=4.5e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|mean|weak|x=4.5e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|paper|strong|x=4.5e-11': ('0x1.3b8bc9bfb4178p-2', '0x1.ee7d65311da6bp-47'),
    'group_cdf_mean|dphi=25|paper|strong|x=4.5e-11': ('0x1.8b2e7f2d37de2p-2', '0x1.0fa37da43aca3p-28'),
    'group_success|dphi=25|paper|instant|strong|x=4.5e-11': ('0x1.623a1b2025f44p-1', '0x1.ee7d65311da6bp-47'),
    'group_success|dphi=25|paper|mean|strong|x=4.5e-11': ('0x1.3a68c0696410fp-1', '0x1.0fa37da43aca3p-28'),
    'group_cdf_instant|dphi=25|wide|strong|x=4.5e-11': ('0x1.9ddc16bb8501ap-1', '0x1.5fa0878f08577p-41'),
    'group_cdf_mean|dphi=25|wide|strong|x=4.5e-11': ('0x1.b1a3c2c82984ap-1', '0x1.0397778b88c37p-39'),
    'group_success|dphi=25|wide|instant|strong|x=4.5e-11': ('0x1.888fa511ebf96p-3', '0x1.5fa0878f08577p-41'),
    'group_success|dphi=25|wide|mean|strong|x=4.5e-11': ('0x1.3970f4df59ed6p-3', '0x1.0397778b88c37p-39'),
    'unordered|dphi=25|instant|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'unordered|dphi=25|mean|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'ordered|dphi=25|r=1,k=10|x=1e-10': ('0x1.ffffffffffffbp-1', '0x0.0p+0'),
    'ordered|dphi=25|r=10,k=10|x=1e-10': ('0x1.ffffffffffffbp-1', '0x0.0p+0'),
    'ordered|dphi=25|r=3,k=5|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|paper|weak|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|paper|weak|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|instant|weak|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|mean|weak|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|wide|weak|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|wide|weak|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|instant|weak|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|mean|weak|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|paper|strong|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|paper|strong|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|instant|strong|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|mean|strong|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|wide|strong|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|wide|strong|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|instant|strong|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|mean|strong|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'mean_angle|dphi=25|r=1,k=10|x=5e-15': ('0x1.88d2cd970e947p-2', '0x1.374db2dae7ad5p-20'),
    'mean_angle|dphi=25|r=10,k=10|x=5e-15': ('0x1.d405fa229272ep-1', '0x1.fddb0cd491f8dp-21'),
    'mean_angle|dphi=25|r=1,k=10|x=4e-13': ('0x1.428b9d00f0fc7p-10', '0x1.37223c88d7261p-20'),
    'mean_angle|dphi=25|r=10,k=10|x=4e-13': ('0x1.d0e1d57181029p-1', '0x1.017c484a18894p-20'),
    'mean_angle|dphi=25|r=1,k=10|x=2e-11': ('0x1.00ef1dff6f973p-23', '0x1.3722391f443e0p-20'),
    'mean_angle|dphi=25|r=10,k=10|x=2e-11': ('0x1.46ef430831181p-1', '0x1.0357585cda071p-20'),
    'group_probabilities|dphi=25|paper|instant': ('0x1.2514b2d624bb8p-3',),
    'group_probabilities|dphi=25|paper|mean': ('0x1.2514b2d624bb8p-3',),
    'group_probabilities|dphi=25|wide|instant': ('0x1.dbd2f1fed3073p-1',),
    'group_probabilities|dphi=25|wide|mean': ('0x1.dfcd10d84adb0p-1',),
    'nonzero|dphi=25|p|use_mean=False': ('0x1.aac78f90f1078p-2', '0x1.311b7b5779f07p-38'),
    'nonzero|dphi=25|tail|use_mean=False|k_min=0': ('0x1.0000000000000p+0',),
    'nonzero|dphi=25|tail|use_mean=False|k_min=1': ('0x1.fffd48439e218p-1',),
    'nonzero|dphi=25|tail|use_mean=False|k_min=10': ('0x1.2f2dd3b899e1cp-2',),
    'nonzero|dphi=25|tail|use_mean=False|k_min=20': ('0x1.ada0babaa38e8p-26',),
    'nonzero|dphi=25|p|use_mean=True': ('0x1.adec84551afe6p-2', '0x1.5934b66accccdp-42'),
    'nonzero|dphi=25|tail|use_mean=True|k_min=0': ('0x1.0000000000000p+0',),
    'nonzero|dphi=25|tail|use_mean=True|k_min=1': ('0x1.fffd8df94fa68p-1',),
    'nonzero|dphi=25|tail|use_mean=True|k_min=10': ('0x1.3948a307da1c6p-2',),
    'nonzero|dphi=25|tail|use_mean=True|k_min=20': ('0x1.f19163ad7c692p-26',),
    'nonzero|dphi=25|pmf|k=0,k_min=0': ('0x1.5bde30ef409d4p-16',),
    'nonzero|dphi=25|pmf|k=3,k_min=0': ('0x1.1aa7915dbfcfcp-7',),
    'nonzero|dphi=25|pmf|k=5,k_min=10': ('0x0.0p+0',),
    'nonzero|dphi=25|pmf|k=10,k_min=10': ('0x1.cc21e8b35c7e8p-2',),
    'nonzero|dphi=25|pmf|k=20,k_min=10': ('0x1.6ac586527c775p-24',),
    'nonzero|dphi=25|pmf|k=14,k_min=1': ('0x1.dd03ca102503ep-8',),
}


def recorded(family=None):
    """{key: hex tuple} of what the closed-form engine returns now for ``family`` (default all), in case order."""
    out = {}
    for fam, key, thunk in cases():
        if family not in (None, fam):
            continue
        value = thunk()
        out[key] = tuple(float(v).hex() for v in (value if isinstance(value, tuple) else (value,)))
    return out


@pytest.mark.parametrize("family", sorted({family for family, _, _ in cases()}))
def test_values_match_pin_bit_for_bit(family):
    got = recorded(family)
    want = {key: value for key, value in PINNED.items() if key.split("|", 1)[0] == family}
    assert got.keys() == want.keys()
    moved = {key: (want[key], got[key]) for key in want if got[key] != want[key]}
    assert not moved


if __name__ == "__main__":
    # prints the PINNED dict for the current engine; paste it over PINNED after a deliberate change
    print("PINNED = {")
    for key, value in recorded().items():
        print(f"    {key!r}: {value!r},")
    print("}")
