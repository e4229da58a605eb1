"""Bitwise pin of the closed-form families.

Every value below is ``float.hex()`` of what the closed-form engine returns,
error estimates included, for the paper geometry at delta_phi = 0 and 25
degrees.  The golden CSVs reach only the outage pairs of the sweeps; this pin
also reaches the weak-role group CDFs, the success probabilities of both roles,
the count laws and every error term.  A refactor of ``analytic`` that claims
to keep its numbers must keep these values to the last bit.
"""

import itertools

import numpy as np
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
    """(family, keys, thunk) of every pinned evaluation; each thunk returns one value tuple per key.

    A level family is one call over all of LEVELS.  Each thunk binds its own
    deviation's models.
    """
    out = []
    levels = np.array(LEVELS)
    for dphi in DELTA_PHI_DEG:
        base = paper_model(dphi)
        geom, mob = base.geom, base.mobility
        tag = f"dphi={dphi:g}"

        def add(family, key, thunk):
            out.append((family, [f"{family}|{tag}|{key}"], lambda thunk=thunk: [thunk()]))

        def add_levels(family, key, thunk):
            keys = [f"{family}|{tag}|{key}|x={x!r}" for x in LEVELS]
            out.append((family, keys, lambda thunk=thunk: list(zip(*thunk(levels)))))

        add_levels("unordered", "instant", lambda x, b=base: an.unordered_gain_cdf(b, x))
        add_levels("unordered", "mean", lambda x, b=base: an.unordered_gain_cdf(an._mean_model(b), x))
        for rank, min_count in ((1, 10), (10, 10), (3, 5)):
            add_levels("ordered", f"r={rank},k={min_count}",
                       lambda x, r=rank, k=min_count, b=base: an.ordered_gain_cdf(b, x, r, k))
        for role, scheme in itertools.product((an.WEAK, an.STRONG), ("paper", "wide")):
            instant, mean = _group_models(geom, mob, scheme)
            add_levels("group_cdf_instant", f"{scheme}|{role}",
                       lambda x, role=role, m=instant: an.group_gain_cdf_instant(m, x, role))
            add_levels("group_cdf_mean", f"{scheme}|{role}",
                       lambda x, role=role, m=mean: an.group_gain_cdf_mean(m, x, role))
            for name, model in (("instant", instant), ("mean", mean)):
                add_levels("group_success", f"{scheme}|{name}|{role}",
                           lambda x, role=role, m=model: an.group_success_probability(m, x, role))
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
    'unordered|dphi=0|instant|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'unordered|dphi=0|instant|x=5e-15': ('0x1.2b7a623dacb50p-4', '0x1.5f2d7edeeeb92p-35'),
    'unordered|dphi=0|instant|x=4e-13': ('0x1.09adae7c445d2p-1', '0x1.f0e7e86c1f05fp-39'),
    'unordered|dphi=0|instant|x=2e-11': ('0x1.b3305244c6306p-1', '0x1.35e74dbf3dae3p-40'),
    'unordered|dphi=0|instant|x=4.5e-11': ('0x1.e85ccf41a0303p-1', '0x1.7d78cf2b7b569p-42'),
    'unordered|dphi=0|instant|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'unordered|dphi=0|mean|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'unordered|dphi=0|mean|x=5e-15': ('0x1.2b7a623dacb50p-4', '0x1.5f2d7edeeeb92p-35'),
    'unordered|dphi=0|mean|x=4e-13': ('0x1.09adae7c445d2p-1', '0x1.f0e7e86c1f05fp-39'),
    'unordered|dphi=0|mean|x=2e-11': ('0x1.b3305244c6306p-1', '0x1.35e74dbf3dae3p-40'),
    'unordered|dphi=0|mean|x=4.5e-11': ('0x1.e85ccf41a0303p-1', '0x1.7d78cf2b7b569p-42'),
    'unordered|dphi=0|mean|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'ordered|dphi=0|r=1,k=10|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'ordered|dphi=0|r=1,k=10|x=5e-15': ('0x1.2147c25738fc1p-1', '0x1.b6f8de96aa676p-31'),
    'ordered|dphi=0|r=1,k=10|x=4e-13': ('0x1.ffca1a4855817p-1', '0x1.3690f1439363bp-34'),
    'ordered|dphi=0|r=1,k=10|x=2e-11': ('0x1.ffffffe84552dp-1', '0x1.8361212f0d19cp-36'),
    'ordered|dphi=0|r=1,k=10|x=4.5e-11': ('0x1.fffffffffff58p-1', '0x1.dcd702f65a2c3p-38'),
    'ordered|dphi=0|r=1,k=10|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'ordered|dphi=0|r=10,k=10|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'ordered|dphi=0|r=10,k=10|x=5e-15': ('0x1.98b686978d9ccp-32', '0x1.b6f8de96aa676p-31'),
    'ordered|dphi=0|r=10,k=10|x=4e-13': ('0x1.1c7bc3d50555dp-6', '0x1.3690f1439363bp-34'),
    'ordered|dphi=0|r=10,k=10|x=2e-11': ('0x1.cf208915aae0bp-2', '0x1.8361212f0d19cp-36'),
    'ordered|dphi=0|r=10,k=10|x=4.5e-11': ('0x1.9e405b3c8b673p-1', '0x1.dcd702f65a2c3p-38'),
    'ordered|dphi=0|r=10,k=10|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'ordered|dphi=0|r=3,k=5|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'ordered|dphi=0|r=3,k=5|x=5e-15': ('0x1.8a1aca4c1b73ep-6', '0x1.b6f8de96aa676p-31'),
    'ordered|dphi=0|r=3,k=5|x=4e-13': ('0x1.bdf19eb7686cep-1', '0x1.3690f1439363bp-34'),
    'ordered|dphi=0|r=3,k=5|x=2e-11': ('0x1.fedaf94d7872ap-1', '0x1.8361212f0d19cp-36'),
    'ordered|dphi=0|r=3,k=5|x=4.5e-11': ('0x1.fff8b22d6baafp-1', '0x1.dcd702f65a2c3p-38'),
    'ordered|dphi=0|r=3,k=5|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|paper|weak|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|paper|weak|x=5e-15': ('0x1.6649445ab8748p-4', '0x1.e3de29328380bp-35'),
    'group_cdf_instant|dphi=0|paper|weak|x=4e-13': ('0x1.2d89b31644954p-1', '0x1.19c0911215bdap-38'),
    'group_cdf_instant|dphi=0|paper|weak|x=2e-11': ('0x1.f21b2b981682ep-1', '0x1.299a3a47d7fa1p-42'),
    'group_cdf_instant|dphi=0|paper|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|paper|weak|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|paper|weak|x=0.0': ('0x0.0p+0', '0x1.56531807023bep-36'),
    'group_cdf_mean|dphi=0|paper|weak|x=5e-15': ('0x1.6649445bc9140p-4', '0x1.215ede32ca7a7p-33'),
    'group_cdf_mean|dphi=0|paper|weak|x=4e-13': ('0x1.2d89b3164073cp-1', '0x1.371d527a1202dp-29'),
    'group_cdf_mean|dphi=0|paper|weak|x=2e-11': ('0x1.f21b2b981682ep-1', '0x1.7a68720bd6a03p-39'),
    'group_cdf_mean|dphi=0|paper|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|paper|weak|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|instant|weak|x=0.0': ('0x1.83aba0bd9e702p-2', '0x1.037e4667f6ad8p-38'),
    'group_success|dphi=0|paper|instant|weak|x=5e-15': ('0x1.61c29159ced02p-2', '0x1.334e4c9048d6bp-36'),
    'group_success|dphi=0|paper|instant|weak|x=4e-13': ('0x1.3eb5ef708a1c9p-3', '0x1.f1fc461fd7cc9p-49'),
    'group_success|dphi=0|paper|instant|weak|x=2e-11': ('0x1.50a3dac46ac2bp-7', '0x1.070002e973682p-52'),
    'group_success|dphi=0|paper|instant|weak|x=4.5e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|instant|weak|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|mean|weak|x=0.0': ('0x1.83aba0bd937afp-2', '0x1.2783cec44b645p-33'),
    'group_success|dphi=0|paper|mean|weak|x=5e-15': ('0x1.61c2915901db8p-2', '0x1.4dd80ed5a6e74p-30'),
    'group_success|dphi=0|paper|mean|weak|x=4e-13': ('0x1.3eb5ef708ba2ap-3', '0x1.3cfa2a08bbe9ep-30'),
    'group_success|dphi=0|paper|mean|weak|x=2e-11': ('0x1.50a3dac46ac28p-7', '0x1.026a80333ac11p-40'),
    'group_success|dphi=0|paper|mean|weak|x=4.5e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|mean|weak|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|wide|weak|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|wide|weak|x=5e-15': ('0x1.c28e90a047bb4p-3', '0x1.380027c0b1fd8p-46'),
    'group_cdf_instant|dphi=0|wide|weak|x=4e-13': ('0x1.ffc069d03c03ep-1', '0x1.8d6aaa88e7c2fp-57'),
    'group_cdf_instant|dphi=0|wide|weak|x=2e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|wide|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|wide|weak|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|wide|weak|x=0.0': ('0x1.4000000000000p-51', '0x1.8fffffffffffcp-46'),
    'group_cdf_mean|dphi=0|wide|weak|x=5e-15': ('0x1.c28e90a047bb4p-3', '0x1.baa3049e8f785p-46'),
    'group_cdf_mean|dphi=0|wide|weak|x=4e-13': ('0x1.ffc069d03c5aap-1', '0x1.b3ff8c8ad3523p-36'),
    'group_cdf_mean|dphi=0|wide|weak|x=2e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|wide|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|wide|weak|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|instant|weak|x=0.0': ('0x1.732675c0b0c9ep-3', '0x1.21f60bfe8a1dcp-48'),
    'group_success|dphi=0|wide|instant|weak|x=5e-15': ('0x1.217f6c40af8cap-3', '0x1.c4571925124bcp-49'),
    'group_success|dphi=0|wide|instant|weak|x=4e-13': ('0x1.70c0d30e7769cp-14', '0x1.2016a4e34d4aap-59'),
    'group_success|dphi=0|wide|instant|weak|x=2e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|instant|weak|x=4.5e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|instant|weak|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|mean|weak|x=0.0': ('0x1.732675c0b0c9ap-3', '0x1.21f60bfe8a1d8p-48'),
    'group_success|dphi=0|wide|mean|weak|x=5e-15': ('0x1.217f6c40af8cap-3', '0x1.40de5fbf1340ep-48'),
    'group_success|dphi=0|wide|mean|weak|x=4e-13': ('0x1.70c0d30c802dbp-14', '0x1.3c0e6c94026bfp-38'),
    'group_success|dphi=0|wide|mean|weak|x=2e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|mean|weak|x=4.5e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|mean|weak|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|paper|strong|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|paper|strong|x=5e-15': ('0x1.0000000000000p-52', '0x1.8fffffffffffep-46'),
    'group_cdf_instant|dphi=0|paper|strong|x=4e-13': ('0x1.0000000000000p-51', '0x1.8fffffffffffcp-46'),
    'group_cdf_instant|dphi=0|paper|strong|x=2e-11': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'group_cdf_instant|dphi=0|paper|strong|x=4.5e-11': ('0x1.3b8bc9bfb417cp-2', '0x1.14bd65311da6cp-46'),
    'group_cdf_instant|dphi=0|paper|strong|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|paper|strong|x=0.0': ('0x1.0000000000000p-53', '0x1.8fffffffffffep-46'),
    'group_cdf_mean|dphi=0|paper|strong|x=5e-15': ('0x1.0000000000000p-53', '0x1.8fffffffffffep-46'),
    'group_cdf_mean|dphi=0|paper|strong|x=4e-13': ('0x1.0000000000000p-53', '0x1.8fffffffffffep-46'),
    'group_cdf_mean|dphi=0|paper|strong|x=2e-11': ('0x1.0000000000000p-52', '0x1.8fffffffffffep-46'),
    'group_cdf_mean|dphi=0|paper|strong|x=4.5e-11': ('0x1.3b8bc9bfa510cp-2', '0x1.e549aa15e0b4ap-29'),
    'group_cdf_mean|dphi=0|paper|strong|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|instant|strong|x=0.0': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=0|paper|instant|strong|x=5e-15': ('0x1.ffffffffffffep-1', '0x1.8fffffffffffep-46'),
    'group_success|dphi=0|paper|instant|strong|x=4e-13': ('0x1.ffffffffffffcp-1', '0x1.8fffffffffffcp-46'),
    'group_success|dphi=0|paper|instant|strong|x=2e-11': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=0|paper|instant|strong|x=4.5e-11': ('0x1.623a1b2025f42p-1', '0x1.14bd65311da6cp-46'),
    'group_success|dphi=0|paper|instant|strong|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|mean|strong|x=0.0': ('0x1.fffffffffffffp-1', '0x1.8fffffffffffep-46'),
    'group_success|dphi=0|paper|mean|strong|x=5e-15': ('0x1.fffffffffffffp-1', '0x1.8fffffffffffep-46'),
    'group_success|dphi=0|paper|mean|strong|x=4e-13': ('0x1.fffffffffffffp-1', '0x1.8fffffffffffep-46'),
    'group_success|dphi=0|paper|mean|strong|x=2e-11': ('0x1.ffffffffffffep-1', '0x1.8fffffffffffep-46'),
    'group_success|dphi=0|paper|mean|strong|x=4.5e-11': ('0x1.623a1b202d77ap-1', '0x1.e549aa15e0b4ap-29'),
    'group_success|dphi=0|paper|mean|strong|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|wide|strong|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|wide|strong|x=5e-15': ('0x0.0p+0', '0x1.8ffffffffffffp-46'),
    'group_cdf_instant|dphi=0|wide|strong|x=4e-13': ('0x0.0p+0', '0x1.8ffffffffffffp-46'),
    'group_cdf_instant|dphi=0|wide|strong|x=2e-11': ('0x1.56c9b01bf873ep-1', '0x1.0864dcd44bcafp-47'),
    'group_cdf_instant|dphi=0|wide|strong|x=4.5e-11': ('0x1.b0d6bd3dbb038p-1', '0x1.eec1e13e2f29dp-49'),
    'group_cdf_instant|dphi=0|wide|strong|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|wide|strong|x=0.0': ('0x1.0000000000000p-52', '0x1.8ffffffffffffp-46'),
    'group_cdf_mean|dphi=0|wide|strong|x=5e-15': ('0x1.0000000000000p-52', '0x1.8ffffffffffffp-46'),
    'group_cdf_mean|dphi=0|wide|strong|x=4e-13': ('0x1.0000000000000p-52', '0x1.8fffffffffffep-46'),
    'group_cdf_mean|dphi=0|wide|strong|x=2e-11': ('0x1.56c9b01bf441dp-1', '0x1.0f066b2eb9e2bp-29'),
    'group_cdf_mean|dphi=0|wide|strong|x=4.5e-11': ('0x1.b0d6bd3db83e8p-1', '0x1.65d410dbff747p-30'),
    'group_cdf_mean|dphi=0|wide|strong|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|instant|strong|x=0.0': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=0|wide|instant|strong|x=5e-15': ('0x1.0000000000000p+0', '0x1.8ffffffffffffp-46'),
    'group_success|dphi=0|wide|instant|strong|x=4e-13': ('0x1.0000000000000p+0', '0x1.8ffffffffffffp-46'),
    'group_success|dphi=0|wide|instant|strong|x=2e-11': ('0x1.526c9fc80f184p-2', '0x1.0864dcd44bcafp-47'),
    'group_success|dphi=0|wide|instant|strong|x=4.5e-11': ('0x1.3ca50b0913f1ep-3', '0x1.eec1e13e2f29dp-49'),
    'group_success|dphi=0|wide|instant|strong|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|mean|strong|x=0.0': ('0x1.ffffffffffffep-1', '0x1.8ffffffffffffp-46'),
    'group_success|dphi=0|wide|mean|strong|x=5e-15': ('0x1.ffffffffffffep-1', '0x1.8ffffffffffffp-46'),
    'group_success|dphi=0|wide|mean|strong|x=4e-13': ('0x1.ffffffffffffep-1', '0x1.8fffffffffffep-46'),
    'group_success|dphi=0|wide|mean|strong|x=2e-11': ('0x1.526c9fc8177c6p-2', '0x1.0f066b2eb9e2bp-29'),
    'group_success|dphi=0|wide|mean|strong|x=4.5e-11': ('0x1.3ca50b091f061p-3', '0x1.65d410dbff747p-30'),
    'group_success|dphi=0|wide|mean|strong|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'mean_angle|dphi=0|r=1,k=10|x=5e-15': ('0x1.bd708d6605285p-2', '0x1.2e183a4aff627p-20'),
    'mean_angle|dphi=0|r=10,k=10|x=5e-15': ('0x1.fffffec6a35e7p-1', '0x1.055e5bb5c53dbp-20'),
    'mean_angle|dphi=0|r=1,k=10|x=4e-13': ('0x1.af2e75317c1dcp-12', '0x1.2e180223b4d7ap-20'),
    'mean_angle|dphi=0|r=10,k=10|x=4e-13': ('0x1.f71c2452bc2bcp-1', '0x1.e15f976195346p-21'),
    'mean_angle|dphi=0|r=1,k=10|x=2e-11': ('0x1.7baca239798c8p-29', '0x1.2e18000ef88d6p-20'),
    'mean_angle|dphi=0|r=10,k=10|x=2e-11': ('0x1.186fd74b42c81p-1', '0x1.278f2381ffa8ap-20'),
    'group_probabilities|dphi=0|paper|instant': ('0x1.afdf99fe10421p-4',),
    'group_probabilities|dphi=0|paper|mean': ('0x1.afdf99fe10421p-4',),
    'group_probabilities|dphi=0|wide|instant': ('0x1.cf71c47933453p-1',),
    'group_probabilities|dphi=0|wide|mean': ('0x1.cf71c47933453p-1',),
    'nonzero|dphi=0|p|use_mean=False': ('0x1.b59bd6da10a0ap-2', '0x1.b8ba42c7a14b8p-39'),
    'nonzero|dphi=0|tail|use_mean=False|k_min=0': ('0x1.0000000000000p+0',),
    'nonzero|dphi=0|tail|use_mean=False|k_min=1': ('0x1.fffe1d7f1dad8p-1',),
    'nonzero|dphi=0|tail|use_mean=False|k_min=10': ('0x1.5284e919d0d80p-2',),
    'nonzero|dphi=0|tail|use_mean=False|k_min=20': ('0x1.6293b8e197645p-25',),
    'nonzero|dphi=0|p|use_mean=True': ('0x1.b59bd6da10a0ap-2', '0x1.b8ba42c7a14b8p-39'),
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
    'unordered|dphi=25|instant|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'unordered|dphi=25|instant|x=5e-15': ('0x1.317d421e54b38p-4', '0x1.53182c9debe7bp-37'),
    'unordered|dphi=25|instant|x=4e-13': ('0x1.dd7f43c416790p-2', '0x1.871da55158488p-38'),
    'unordered|dphi=25|instant|x=2e-11': ('0x1.98fb5e349f51fp-1', '0x1.26e86c983da1ap-39'),
    'unordered|dphi=25|instant|x=4.5e-11': ('0x1.de70d4235f6f6p-1', '0x1.80471ef22ca82p-41'),
    'unordered|dphi=25|instant|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'unordered|dphi=25|mean|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'unordered|dphi=25|mean|x=5e-15': ('0x1.3953801805c60p-4', '0x1.362ce82daa5e8p-28'),
    'unordered|dphi=25|mean|x=4e-13': ('0x1.d9edb96af0702p-2', '0x1.c065112dbfd86p-42'),
    'unordered|dphi=25|mean|x=2e-11': ('0x1.94754480e25c9p-1', '0x1.5ea786e39ef93p-43'),
    'unordered|dphi=25|mean|x=4.5e-11': ('0x1.deafa99490178p-1', '0x1.b27f01d0b7d27p-45'),
    'unordered|dphi=25|mean|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'ordered|dphi=25|r=1,k=10|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'ordered|dphi=25|r=1,k=10|x=5e-15': ('0x1.2430a5a7667ddp-1', '0x1.a7de37c566e1ap-33'),
    'ordered|dphi=25|r=1,k=10|x=4e-13': ('0x1.ff5d36444b947p-1', '0x1.e8e50ea5ae5aap-34'),
    'ordered|dphi=25|r=1,k=10|x=2e-11': ('0x1.fffffe1ee22a1p-1', '0x1.70a287be4d0a0p-35'),
    'ordered|dphi=25|r=1,k=10|x=4.5e-11': ('0x1.fffffffffe7dcp-1', '0x1.e058e6aeb7d22p-37'),
    'ordered|dphi=25|r=1,k=10|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'ordered|dphi=25|r=10,k=10|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'ordered|dphi=25|r=10,k=10|x=5e-15': ('0x1.b1f41ac1c4750p-32', '0x1.a7de37c566e1ap-33'),
    'ordered|dphi=25|r=10,k=10|x=4e-13': ('0x1.ca60fbd2c6237p-8', '0x1.e8e50ea5ae5aap-34'),
    'ordered|dphi=25|r=10,k=10|x=2e-11': ('0x1.3b802e00594f7p-2', '0x1.70a287be4d0a0p-35'),
    'ordered|dphi=25|r=10,k=10|x=4.5e-11': ('0x1.73669eacae6bcp-1', '0x1.e058e6aeb7d22p-37'),
    'ordered|dphi=25|r=10,k=10|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'ordered|dphi=25|r=3,k=5|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'ordered|dphi=25|r=3,k=5|x=5e-15': ('0x1.8775b820ffb22p-6', '0x1.a7de37c566e1ap-33'),
    'ordered|dphi=25|r=3,k=5|x=4e-13': ('0x1.987886511278ap-1', '0x1.e8e50ea5ae5aap-34'),
    'ordered|dphi=25|r=3,k=5|x=2e-11': ('0x1.fc976f3e7ec17p-1', '0x1.70a287be4d0a0p-35'),
    'ordered|dphi=25|r=3,k=5|x=4.5e-11': ('0x1.ffe7163bb2a47p-1', '0x1.e058e6aeb7d22p-37'),
    'ordered|dphi=25|r=3,k=5|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|paper|weak|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|paper|weak|x=5e-15': ('0x1.8c2d35a8939a0p-4', '0x1.970fccbd4098cp-40'),
    'group_cdf_instant|dphi=25|paper|weak|x=4e-13': ('0x1.2789cd0c41043p-1', '0x1.7d0c6f85c816bp-41'),
    'group_cdf_instant|dphi=25|paper|weak|x=2e-11': ('0x1.eda32b1a5907ap-1', '0x1.0298e7e5da014p-44'),
    'group_cdf_instant|dphi=25|paper|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|paper|weak|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|paper|weak|x=0.0': ('0x1.176cee798bb40p-3', '0x1.936bb35326256p-28'),
    'group_cdf_mean|dphi=25|paper|weak|x=5e-15': ('0x1.b0bfe8bc8f674p-3', '0x1.6568984ebfb83p-29'),
    'group_cdf_mean|dphi=25|paper|weak|x=4e-13': ('0x1.488ba6472f4b2p-1', '0x1.5b71ccde01a16p-29'),
    'group_cdf_mean|dphi=25|paper|weak|x=2e-11': ('0x1.edb76741982d7p-1', '0x1.681e74e6bc420p-33'),
    'group_cdf_mean|dphi=25|paper|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|paper|weak|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|instant|weak|x=0.0': ('0x1.6faeb8a66b01cp-2', '0x1.5e6ff335400cbp-41'),
    'group_success|dphi=25|paper|instant|weak|x=5e-15': ('0x1.4c1e855fd8272p-2', '0x1.c45e53251a63cp-45'),
    'group_success|dphi=25|paper|instant|weak|x=4e-13': ('0x1.36e52f83bc35fp-3', '0x1.a775c2c6d5380p-46'),
    'group_success|dphi=25|paper|instant|weak|x=2e-11': ('0x1.a5f9d8c975995p-7', '0x1.1f6131176fa47p-49'),
    'group_success|dphi=25|paper|instant|weak|x=4.5e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|instant|weak|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|mean|weak|x=0.0': ('0x1.759eda37ec04fp-2', '0x1.26a7bafa7b84ap-29'),
    'group_success|dphi=25|paper|mean|weak|x=5e-15': ('0x1.5135ec92cd3f3p-2', '0x1.f4ab12cd24061p-31'),
    'group_success|dphi=25|paper|mean|weak|x=4e-13': ('0x1.2a6fc6a726802p-3', '0x1.39511ddff2905p-30'),
    'group_success|dphi=25|paper|mean|weak|x=2e-11': ('0x1.afbacc3a3cd14p-7', '0x1.0746eec8316b9p-34'),
    'group_success|dphi=25|paper|mean|weak|x=4.5e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|mean|weak|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|wide|weak|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|wide|weak|x=5e-15': ('0x1.babaf9582e164p-3', '0x1.39877b4cc6ffbp-46'),
    'group_cdf_instant|dphi=25|wide|weak|x=4e-13': ('0x1.ffdc85463d479p-1', '0x1.bb7e120201c98p-58'),
    'group_cdf_instant|dphi=25|wide|weak|x=2e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|wide|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|wide|weak|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|wide|weak|x=0.0': ('0x1.ffffffffffffcp-3', '0x1.2c00000000001p-46'),
    'group_cdf_mean|dphi=25|wide|weak|x=5e-15': ('0x1.8f2ca04a0bf46p-2', '0x1.2cd60fb91b085p-46'),
    'group_cdf_mean|dphi=25|wide|weak|x=4e-13': ('0x1.fd701328b511ap-1', '0x1.00388419451dfp-53'),
    'group_cdf_mean|dphi=25|wide|weak|x=2e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|wide|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|wide|weak|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|instant|weak|x=0.0': ('0x1.b8c040c3fefc8p-3', '0x1.585632991f355p-48'),
    'group_success|dphi=25|wide|instant|weak|x=5e-15': ('0x1.597885aa7659ep-3', '0x1.0de6286d2c764p-48'),
    'group_success|dphi=25|wide|instant|weak|x=4e-13': ('0x1.e8aca25ebac80p-15', '0x1.7dc6deda01ec3p-60'),
    'group_success|dphi=25|wide|instant|weak|x=2e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|instant|weak|x=4.5e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|instant|weak|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|mean|weak|x=0.0': ('0x1.c4a156ad1e549p-3', '0x1.619e0bb73fb21p-48'),
    'group_success|dphi=25|wide|mean|weak|x=5e-15': ('0x1.692b0bb9c1ddcp-3', '0x1.1a29a1291f754p-48'),
    'group_success|dphi=25|wide|mean|weak|x=4e-13': ('0x1.222a19c125fa3p-10', '0x1.c561c83dcb56fp-56'),
    'group_success|dphi=25|wide|mean|weak|x=2e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|mean|weak|x=4.5e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|mean|weak|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|paper|strong|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|paper|strong|x=5e-15': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'group_cdf_instant|dphi=25|paper|strong|x=4e-13': ('0x1.4000000000000p-51', '0x1.8fffffffffffcp-46'),
    'group_cdf_instant|dphi=25|paper|strong|x=2e-11': ('0x1.8000000000000p-52', '0x1.8fffffffffffdp-46'),
    'group_cdf_instant|dphi=25|paper|strong|x=4.5e-11': ('0x1.3b8bc9bfb417ep-2', '0x1.14bd65311da6bp-46'),
    'group_cdf_instant|dphi=25|paper|strong|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|paper|strong|x=0.0': ('0x1.0000000000000p-52', '0x1.8ffffffffffffp-46'),
    'group_cdf_mean|dphi=25|paper|strong|x=5e-15': ('0x1.0000000000000p-52', '0x1.8ffffffffffffp-46'),
    'group_cdf_mean|dphi=25|paper|strong|x=4e-13': ('0x1.0000000000000p-52', '0x1.8ffffffffffffp-46'),
    'group_cdf_mean|dphi=25|paper|strong|x=2e-11': ('0x1.0000000000000p-52', '0x1.8ffffffffffffp-46'),
    'group_cdf_mean|dphi=25|paper|strong|x=4.5e-11': ('0x1.8b2e7f30e6376p-2', '0x1.568d7f8055a87p-29'),
    'group_cdf_mean|dphi=25|paper|strong|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|instant|strong|x=0.0': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=25|paper|instant|strong|x=5e-15': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=25|paper|instant|strong|x=4e-13': ('0x1.ffffffffffffbp-1', '0x1.8fffffffffffcp-46'),
    'group_success|dphi=25|paper|instant|strong|x=2e-11': ('0x1.ffffffffffffdp-1', '0x1.8fffffffffffdp-46'),
    'group_success|dphi=25|paper|instant|strong|x=4.5e-11': ('0x1.623a1b2025f41p-1', '0x1.14bd65311da6bp-46'),
    'group_success|dphi=25|paper|instant|strong|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|mean|strong|x=0.0': ('0x1.ffffffffffffep-1', '0x1.8ffffffffffffp-46'),
    'group_success|dphi=25|paper|mean|strong|x=5e-15': ('0x1.ffffffffffffep-1', '0x1.8ffffffffffffp-46'),
    'group_success|dphi=25|paper|mean|strong|x=4e-13': ('0x1.ffffffffffffep-1', '0x1.8ffffffffffffp-46'),
    'group_success|dphi=25|paper|mean|strong|x=2e-11': ('0x1.ffffffffffffep-1', '0x1.8ffffffffffffp-46'),
    'group_success|dphi=25|paper|mean|strong|x=4.5e-11': ('0x1.3a68c0678ce45p-1', '0x1.568d7f8055a87p-29'),
    'group_success|dphi=25|paper|mean|strong|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|wide|strong|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|wide|strong|x=5e-15': ('0x0.0p+0', '0x1.b07ed300e4a9bp-45'),
    'group_cdf_instant|dphi=25|wide|strong|x=4e-13': ('0x0.0p+0', '0x1.b07ed300e4a9bp-45'),
    'group_cdf_instant|dphi=25|wide|strong|x=2e-11': ('0x1.30e209602c42ep-1', '0x1.5de92ba3833f2p-46'),
    'group_cdf_instant|dphi=25|wide|strong|x=4.5e-11': ('0x1.9ddc16bb8501ap-1', '0x1.4b9a7068a05c9p-47'),
    'group_cdf_instant|dphi=25|wide|strong|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|wide|strong|x=0.0': ('0x0.0p+0', '0x1.9000000000001p-46'),
    'group_cdf_mean|dphi=25|wide|strong|x=5e-15': ('0x0.0p+0', '0x1.9000000000001p-46'),
    'group_cdf_mean|dphi=25|wide|strong|x=4e-13': ('0x1.1ca4328f79180p-8', '0x1.8e433f70ffd2dp-46'),
    'group_cdf_mean|dphi=25|wide|strong|x=2e-11': ('0x1.3ea772b2c2d00p-1', '0x1.440c838a02192p-29'),
    'group_cdf_mean|dphi=25|wide|strong|x=4.5e-11': ('0x1.b1a3c2c8285a2p-1', '0x1.2dea8c386ed68p-31'),
    'group_cdf_mean|dphi=25|wide|strong|x=1e-10': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|instant|strong|x=0.0': ('0x1.0000000000000p+0', '0x1.4c7ed300e4a9bp-44'),
    'group_success|dphi=25|wide|instant|strong|x=5e-15': ('0x1.0000000000000p+0', '0x1.b07ed300e4a9bp-45'),
    'group_success|dphi=25|wide|instant|strong|x=4e-13': ('0x1.0000000000000p+0', '0x1.b07ed300e4a9bp-45'),
    'group_success|dphi=25|wide|instant|strong|x=2e-11': ('0x1.9e3bed3fa77a5p-2', '0x1.5de92ba3833f2p-46'),
    'group_success|dphi=25|wide|instant|strong|x=4.5e-11': ('0x1.888fa511ebf99p-3', '0x1.4b9a7068a05c9p-47'),
    'group_success|dphi=25|wide|instant|strong|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|mean|strong|x=0.0': ('0x1.0000000000000p+0', '0x1.9000000000001p-46'),
    'group_success|dphi=25|wide|mean|strong|x=5e-15': ('0x1.0000000000000p+0', '0x1.9000000000001p-46'),
    'group_success|dphi=25|wide|mean|strong|x=4e-13': ('0x1.fdc6b79ae10ddp-1', '0x1.8e433f70ffd2dp-46'),
    'group_success|dphi=25|wide|mean|strong|x=2e-11': ('0x1.82b11a9a7a600p-2', '0x1.440c838a02192p-29'),
    'group_success|dphi=25|wide|mean|strong|x=4.5e-11': ('0x1.3970f4df5e979p-3', '0x1.2dea8c386ed68p-31'),
    'group_success|dphi=25|wide|mean|strong|x=1e-10': ('0x0.0p+0', '0x0.0p+0'),
    'mean_angle|dphi=25|r=1,k=10|x=5e-15': ('0x1.88d2cd970be2dp-2', '0x1.3ceb622e68ee3p-20'),
    'mean_angle|dphi=25|r=10,k=10|x=5e-15': ('0x1.d405fa228b9e0p-1', '0x1.036a5a3d0d83ap-20'),
    'mean_angle|dphi=25|r=1,k=10|x=4e-13': ('0x1.428b9d001db5ap-10', '0x1.3cbfe97a33644p-20'),
    'mean_angle|dphi=25|r=10,k=10|x=4e-13': ('0x1.d0e1d57177b3bp-1', '0x1.05f8e4483fbc6p-20'),
    'mean_angle|dphi=25|r=1,k=10|x=2e-11': ('0x1.00ef1dff6f973p-23', '0x1.3cbfe652c8603p-20'),
    'mean_angle|dphi=25|r=10,k=10|x=2e-11': ('0x1.46ef4308311f2p-1', '0x1.07d424e882d71p-20'),
    'group_probabilities|dphi=25|paper|instant': ('0x1.2514b2d624bb8p-3',),
    'group_probabilities|dphi=25|paper|mean': ('0x1.2514b2d624bb8p-3',),
    'group_probabilities|dphi=25|wide|instant': ('0x1.dbd2f1fed3071p-1',),
    'group_probabilities|dphi=25|wide|mean': ('0x1.dfcd10d84adb0p-1',),
    'nonzero|dphi=25|p|use_mean=False': ('0x1.aac78f90f107ap-2', '0x1.311b9728959d4p-38'),
    'nonzero|dphi=25|tail|use_mean=False|k_min=0': ('0x1.0000000000000p+0',),
    'nonzero|dphi=25|tail|use_mean=False|k_min=1': ('0x1.fffd48439e218p-1',),
    'nonzero|dphi=25|tail|use_mean=False|k_min=10': ('0x1.2f2dd3b899e1dp-2',),
    'nonzero|dphi=25|tail|use_mean=False|k_min=20': ('0x1.ada0babaa3906p-26',),
    'nonzero|dphi=25|p|use_mean=True': ('0x1.adec84551afe6p-2', '0x1.5935237860497p-42'),
    'nonzero|dphi=25|tail|use_mean=True|k_min=0': ('0x1.0000000000000p+0',),
    'nonzero|dphi=25|tail|use_mean=True|k_min=1': ('0x1.fffd8df94fa68p-1',),
    'nonzero|dphi=25|tail|use_mean=True|k_min=10': ('0x1.3948a307da1c6p-2',),
    'nonzero|dphi=25|tail|use_mean=True|k_min=20': ('0x1.f19163ad7c692p-26',),
    'nonzero|dphi=25|pmf|k=0,k_min=0': ('0x1.5bde30ef409bfp-16',),
    'nonzero|dphi=25|pmf|k=3,k_min=0': ('0x1.1aa7915dbfcebp-7',),
    'nonzero|dphi=25|pmf|k=5,k_min=10': ('0x0.0p+0',),
    'nonzero|dphi=25|pmf|k=10,k_min=10': ('0x1.cc21e8b35c7e7p-2',),
    'nonzero|dphi=25|pmf|k=20,k_min=10': ('0x1.6ac586527c78ap-24',),
    'nonzero|dphi=25|pmf|k=14,k_min=1': ('0x1.dd03ca102504dp-8',),
}


def recorded(family=None):
    """{key: hex tuple} of what the closed-form engine returns now for ``family`` (default all), in case order."""
    out = {}
    for fam, keys, thunk in cases():
        if family not in (None, fam):
            continue
        for key, value in zip(keys, thunk(), strict=True):
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
