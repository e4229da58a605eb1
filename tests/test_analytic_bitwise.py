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
from vlcnoma.validation import paper_geometry, paper_mobility, paper_scheme

DELTA_PHI_DEG = (0.0, 25.0)
# squared-gain levels: zero, inside the support (the last one inside the paper
# scheme's strong group), and above g(d_min)^2 = 6.3e-11
LEVELS = (0.0, 5e-15, 4e-13, 2e-11, 4.5e-11, 1e-10)
# (d_threshold m, theta_threshold as a fraction of the half FOV) besides the paper scheme's
WIDE_THRESHOLDS = (4.0, 0.5)


def _group_models(geom, mob, name):
    def scheme(kind):
        if name == "paper":
            return paper_scheme(kind, geom)
        d_th, th = WIDE_THRESHOLDS
        return FeedbackScheme(kind, d_threshold=d_th, theta_threshold=th * geom.half_fov)

    return tuple(an.AnalyticModel(geom=geom, mobility=mob, scheme=scheme(kind))
                 for kind in (FeedbackKind.TWO_BIT_INSTANT, FeedbackKind.TWO_BIT_MEAN))


def cases():
    """(family, key, thunk) of every pinned evaluation."""
    out = []
    for dphi in DELTA_PHI_DEG:
        geom, mob = paper_geometry(), paper_mobility(dphi)
        base = an.AnalyticModel(geom=geom, mobility=mob)
        tag = f"dphi={dphi:g}"

        def add(family, key, thunk):
            out.append((family, f"{family}|{tag}|{key}", thunk))

        for x in LEVELS:
            add("unordered", f"instant|x={x!r}", lambda x=x: an.unordered_gain_cdf(base, x, with_error=True))
            add("unordered", f"mean|x={x!r}",
                lambda x=x: an.unordered_gain_cdf(base, x, with_error=True, use_mean=True))
            for rank, min_count in ((1, 10), (10, 10), (3, 5)):
                add("ordered", f"r={rank},k={min_count}|x={x!r}",
                    lambda x=x, r=rank, k=min_count: an.ordered_gain_cdf(base, x, r, k, with_error=True))
            for role, scheme in itertools.product((an.WEAK, an.STRONG), ("paper", "wide")):
                instant, mean = _group_models(geom, mob, scheme)
                add("group_cdf_instant", f"{scheme}|{role}|x={x!r}",
                    lambda x=x, role=role, m=instant: an.group_gain_cdf_instant(m, x, role, with_error=True))
                add("group_cdf_mean", f"{scheme}|{role}|x={x!r}",
                    lambda x=x, role=role, m=mean: an.group_gain_cdf_mean(m, x, role, with_error=True))
                for name, model in (("instant", instant), ("mean", mean)):
                    add("group_success", f"{scheme}|{name}|{role}|x={x!r}",
                        lambda x=x, role=role, m=model: an.group_success_probability(m, x, role, with_error=True))
        for x in (5e-15, 4e-13, 2e-11):
            for rank, min_count in ((1, 10), (10, 10)):
                add("mean_angle", f"r={rank},k={min_count}|x={x!r}",
                    lambda x=x, r=rank, k=min_count: an.mean_angle_success_probability(
                        base, x, r, k, with_error=True))
        for scheme in ("paper", "wide"):
            for name, model in zip(("instant", "mean"), _group_models(geom, mob, scheme)):
                add("group_probabilities", f"{scheme}|{name}",
                    lambda m=model: tuple(vars(an.group_probabilities(m)).values()))
        for use_mean in (False, True):
            add("nonzero", f"p|use_mean={use_mean}",
                lambda u=use_mean: an.nonzero_gain_probability(base, with_error=True, use_mean=u))
            for k_min in (0, 1, 10, 20):
                add("nonzero", f"tail|use_mean={use_mean}|k_min={k_min}",
                    lambda u=use_mean, k=k_min: an.nonzero_count_tail(base, k, use_mean=u))
        for k, k_min in ((0, 0), (3, 0), (5, 10), (10, 10), (20, 10), (14, 1)):
            add("nonzero", f"pmf|k={k},k_min={k_min}", lambda k=k, m=k_min: an.nonzero_count_pmf(base, k, m))
    return out


PINNED = {
    'unordered|dphi=0|instant|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'unordered|dphi=0|mean|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'ordered|dphi=0|r=1,k=10|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'ordered|dphi=0|r=10,k=10|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'ordered|dphi=0|r=3,k=5|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|paper|weak|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|paper|weak|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|instant|weak|x=0.0': ('0x1.83aba0bd9e703p-2', '0x1.037e6721beaecp-38'),
    'group_success|dphi=0|paper|mean|weak|x=0.0': ('0x1.83aba0bd937afp-2', '0x1.2783ce71f591ap-33'),
    'group_cdf_instant|dphi=0|wide|weak|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|wide|weak|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|instant|weak|x=0.0': ('0x1.732675c0b0c9dp-3', '0x1.21f60bfe8a1dbp-48'),
    'group_success|dphi=0|wide|mean|weak|x=0.0': ('0x1.732675c0b0c9dp-3', '0x1.21f60bfe8a1dbp-48'),
    'group_cdf_instant|dphi=0|paper|strong|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|paper|strong|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|instant|strong|x=0.0': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|mean|strong|x=0.0': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|wide|strong|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=0|wide|strong|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|instant|strong|x=0.0': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|mean|strong|x=0.0': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'unordered|dphi=0|instant|x=5e-15': ('0x1.317d421c68c30p-4', '0x1.596b03154923bp-32'),
    'unordered|dphi=0|mean|x=5e-15': ('0x1.3953808045030p-4', '0x1.59fde0432e1a4p-28'),
    'ordered|dphi=0|r=1,k=10|x=5e-15': ('0x1.2430a5a630950p-1', '0x1.afc5c3da9b6cap-28'),
    'ordered|dphi=0|r=10,k=10|x=5e-15': ('0x1.b1f41aa7431b6p-32', '0x1.afc5c3da9b6cap-28'),
    'ordered|dphi=0|r=3,k=5|x=5e-15': ('0x1.8775b81a95d76p-6', '0x1.afc5c3da9b6cap-28'),
    'group_cdf_instant|dphi=0|paper|weak|x=5e-15': ('0x1.6649445bc9138p-4', '0x1.11bf3099a036fp-33'),
    'group_cdf_mean|dphi=0|paper|weak|x=5e-15': ('0x1.6649445bc9138p-4', '0x1.11bf30a0032ccp-33'),
    'group_success|dphi=0|paper|instant|weak|x=5e-15': ('0x1.61c29159b502ap-2', '0x1.98ac40a3fb7fbp-35'),
    'group_success|dphi=0|paper|mean|weak|x=5e-15': ('0x1.61c2915901db9p-2', '0x1.4dd80ed18bc55p-30'),
    'group_cdf_instant|dphi=0|wide|weak|x=5e-15': ('0x1.c28e90a047ba3p-3', '0x1.be7eb3c91cbc9p-47'),
    'group_cdf_mean|dphi=0|wide|weak|x=5e-15': ('0x1.c28e90a047ba4p-3', '0x1.be7eb3c91cbc8p-47'),
    'group_success|dphi=0|wide|instant|weak|x=5e-15': ('0x1.217f6c40af8cdp-3', '0x1.40df62375beb5p-48'),
    'group_success|dphi=0|wide|mean|weak|x=5e-15': ('0x1.217f6c40af8ccp-3', '0x1.40e064b07115bp-48'),
    'group_cdf_instant|dphi=0|paper|strong|x=5e-15': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_cdf_mean|dphi=0|paper|strong|x=5e-15': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|instant|strong|x=5e-15': ('0x1.0000000000000p+0', '0x1.9000000000000p-47'),
    'group_success|dphi=0|paper|mean|strong|x=5e-15': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|wide|strong|x=5e-15': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_cdf_mean|dphi=0|wide|strong|x=5e-15': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|instant|strong|x=5e-15': ('0x1.0000000000000p+0', '0x1.9000000000000p-47'),
    'group_success|dphi=0|wide|mean|strong|x=5e-15': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'unordered|dphi=0|instant|x=4e-13': ('0x1.dd7f43c3abdf2p-2', '0x1.074ab1a6d4f2dp-29'),
    'unordered|dphi=0|mean|x=4e-13': ('0x1.d9edb96e34f80p-2', '0x1.92b49a7fede54p-31'),
    'ordered|dphi=0|r=1,k=10|x=4e-13': ('0x1.ff5d36444a48ep-1', '0x1.491d5e108a2f8p-25'),
    'ordered|dphi=0|r=10,k=10|x=4e-13': ('0x1.ca60fbcf9d97cp-8', '0x1.491d5e108a2f8p-25'),
    'ordered|dphi=0|r=3,k=5|x=4e-13': ('0x1.98788650c927dp-1', '0x1.491d5e108a2f8p-25'),
    'group_cdf_instant|dphi=0|paper|weak|x=4e-13': ('0x1.2d89b314c98cap-1', '0x1.d63f0b832a1f3p-29'),
    'group_cdf_mean|dphi=0|paper|weak|x=4e-13': ('0x1.2d89b31639205p-1', '0x1.b78de0f61088dp-33'),
    'group_success|dphi=0|paper|instant|weak|x=4e-13': ('0x1.3eb5ef72c8185p-3', '0x1.6375c44cf18f7p-30'),
    'group_success|dphi=0|paper|mean|weak|x=4e-13': ('0x1.3eb5ef70b1d51p-3', '0x1.46ab00a7ccb24p-30'),
    'group_cdf_instant|dphi=0|wide|weak|x=4e-13': ('0x1.ffc069d03f7f6p-1', '0x1.052bfbd83311ep-28'),
    'group_cdf_mean|dphi=0|wide|weak|x=4e-13': ('0x1.ffc069d03c5aap-1', '0x1.bdf9d3d595097p-36'),
    'group_success|dphi=0|wide|instant|weak|x=4e-13': ('0x1.70c0d30c802d4p-14', '0x1.3c0e6cacaaf4ep-38'),
    'group_success|dphi=0|wide|mean|weak|x=4e-13': ('0x1.70c0d30c802d5p-14', '0x1.3c0e6cb8026c5p-38'),
    'group_cdf_instant|dphi=0|paper|strong|x=4e-13': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_cdf_mean|dphi=0|paper|strong|x=4e-13': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|instant|strong|x=4e-13': ('0x1.0000000000000p+0', '0x1.9000000000000p-47'),
    'group_success|dphi=0|paper|mean|strong|x=4e-13': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|wide|strong|x=4e-13': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_cdf_mean|dphi=0|wide|strong|x=4e-13': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|wide|instant|strong|x=4e-13': ('0x1.0000000000000p+0', '0x1.9000000000000p-47'),
    'group_success|dphi=0|wide|mean|strong|x=4e-13': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'unordered|dphi=0|instant|x=2e-11': ('0x1.98fb5e34a3b19p-1', '0x1.ae349792e1a36p-30'),
    'unordered|dphi=0|mean|x=2e-11': ('0x1.94754480c850ap-1', '0x1.bb025dbd72ecap-40'),
    'ordered|dphi=0|r=1,k=10|x=2e-11': ('0x1.fffffe1ee229dp-1', '0x1.0ce0debbcd062p-25'),
    'ordered|dphi=0|r=10,k=10|x=2e-11': ('0x1.3b802e006d40ap-2', '0x1.0ce0debbcd062p-25'),
    'ordered|dphi=0|r=3,k=5|x=2e-11': ('0x1.fc976f3e7f3b9p-1', '0x1.0ce0debbcd062p-25'),
    'group_cdf_instant|dphi=0|paper|weak|x=2e-11': ('0x1.f21b2b9816926p-1', '0x1.82e837336cd7cp-30'),
    'group_cdf_mean|dphi=0|paper|weak|x=2e-11': ('0x1.f21b2b981682fp-1', '0x1.7c533da64066ap-36'),
    'group_success|dphi=0|paper|instant|weak|x=2e-11': ('0x1.50a3dac46ac26p-7', '0x1.026a84c92c78cp-40'),
    'group_success|dphi=0|paper|mean|weak|x=2e-11': ('0x1.50a3dac46ac26p-7', '0x1.026a827d30f14p-40'),
    'group_cdf_instant|dphi=0|wide|weak|x=2e-11': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_cdf_mean|dphi=0|wide|weak|x=2e-11': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=0|wide|instant|weak|x=2e-11': ('0x0.0p+0', '0x1.9000000000001p-47'),
    'group_success|dphi=0|wide|mean|weak|x=2e-11': ('0x0.0p+0', '0x1.9000000000001p-47'),
    'group_cdf_instant|dphi=0|paper|strong|x=2e-11': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_cdf_mean|dphi=0|paper|strong|x=2e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=0|paper|instant|strong|x=2e-11': ('0x1.0000000000000p+0', '0x1.9000000000000p-47'),
    'group_success|dphi=0|paper|mean|strong|x=2e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=0|wide|strong|x=2e-11': ('0x1.56c9b01bf873ep-1', '0x1.190339597b9dbp-42'),
    'group_cdf_mean|dphi=0|wide|strong|x=2e-11': ('0x1.56c9b01bf873fp-1', '0x1.212a2a54db3b4p-42'),
    'group_success|dphi=0|wide|instant|strong|x=2e-11': ('0x1.526c9fc80f184p-2', '0x1.190339597b9dbp-42'),
    'group_success|dphi=0|wide|mean|strong|x=2e-11': ('0x1.526c9fc80f182p-2', '0x1.212a2a54db3b4p-42'),
    'unordered|dphi=0|instant|x=4.5e-11': ('0x1.de70d4235f6f6p-1', '0x1.8224e1ac90a32p-37'),
    'unordered|dphi=0|mean|x=4.5e-11': ('0x1.deafa99490178p-1', '0x1.e7228373b8589p-41'),
    'ordered|dphi=0|r=1,k=10|x=4.5e-11': ('0x1.fffffffffe7d5p-1', '0x1.e2ae1a17b4cbep-33'),
    'ordered|dphi=0|r=10,k=10|x=4.5e-11': ('0x1.73669eacae6b9p-1', '0x1.e2ae1a17b4cbep-33'),
    'ordered|dphi=0|r=3,k=5|x=4.5e-11': ('0x1.ffe7163bb2a41p-1', '0x1.e2ae1a17b4cbep-33'),
    'group_cdf_instant|dphi=0|paper|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x1.5653433f9fb4bp-36'),
    'group_cdf_mean|dphi=0|paper|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x1.5653433f9fb4bp-36'),
    'group_success|dphi=0|paper|instant|weak|x=4.5e-11': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_success|dphi=0|paper|mean|weak|x=4.5e-11': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_cdf_instant|dphi=0|wide|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_cdf_mean|dphi=0|wide|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=0|wide|instant|weak|x=4.5e-11': ('0x0.0p+0', '0x1.9000000000001p-47'),
    'group_success|dphi=0|wide|mean|weak|x=4.5e-11': ('0x0.0p+0', '0x1.9000000000001p-47'),
    'group_cdf_instant|dphi=0|paper|strong|x=4.5e-11': ('0x1.3b8bc9bfb416ep-2', '0x1.45c29acee258dp-47'),
    'group_cdf_mean|dphi=0|paper|strong|x=4.5e-11': ('0x1.3b8bc9bfb4173p-2', '0x1.d52d21252345bp-47'),
    'group_success|dphi=0|paper|instant|strong|x=4.5e-11': ('0x1.623a1b2025f49p-1', '0x1.45c29acee258dp-47'),
    'group_success|dphi=0|paper|mean|strong|x=4.5e-11': ('0x1.623a1b2025f46p-1', '0x1.d52d21252345bp-47'),
    'group_cdf_instant|dphi=0|wide|strong|x=4.5e-11': ('0x1.b0d6bd3dbb038p-1', '0x1.b636b5ee16dabp-40'),
    'group_cdf_mean|dphi=0|wide|strong|x=4.5e-11': ('0x1.b0d6bd3dbb039p-1', '0x1.b8c9c48adb94cp-40'),
    'group_success|dphi=0|wide|instant|strong|x=4.5e-11': ('0x1.3ca50b0913f20p-3', '0x1.b636b5ee16dabp-40'),
    'group_success|dphi=0|wide|mean|strong|x=4.5e-11': ('0x1.3ca50b0913f1cp-3', '0x1.b8c9c48adb94cp-40'),
    'unordered|dphi=0|instant|x=1e-10': ('0x1.0000000000000p+0', '0x1.6e0830b3d9522p-37'),
    'unordered|dphi=0|mean|x=1e-10': ('0x1.0000000000000p+0', '0x1.9b1bcf79ed48ap-41'),
    'ordered|dphi=0|r=1,k=10|x=1e-10': ('0x1.ffffffffffffep-1', '0x1.c98a3ce0cfa6ap-33'),
    'ordered|dphi=0|r=10,k=10|x=1e-10': ('0x1.ffffffffffffep-1', '0x1.c98a3ce0cfa6ap-33'),
    'ordered|dphi=0|r=3,k=5|x=1e-10': ('0x1.ffffffffffffbp-1', '0x1.c98a3ce0cfa6ap-33'),
    'group_cdf_instant|dphi=0|paper|weak|x=1e-10': ('0x1.0000000000000p+0', '0x1.5653433f9fb4bp-36'),
    'group_cdf_mean|dphi=0|paper|weak|x=1e-10': ('0x1.0000000000000p+0', '0x1.5653433f9fb4bp-36'),
    'group_success|dphi=0|paper|instant|weak|x=1e-10': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_success|dphi=0|paper|mean|weak|x=1e-10': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_cdf_instant|dphi=0|wide|weak|x=1e-10': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_cdf_mean|dphi=0|wide|weak|x=1e-10': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=0|wide|instant|weak|x=1e-10': ('0x0.0p+0', '0x1.9000000000001p-47'),
    'group_success|dphi=0|wide|mean|weak|x=1e-10': ('0x0.0p+0', '0x1.9000000000001p-47'),
    'group_cdf_instant|dphi=0|paper|strong|x=1e-10': ('0x1.0000000000000p+0', '0x1.9000000000000p-47'),
    'group_cdf_mean|dphi=0|paper|strong|x=1e-10': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=0|paper|instant|strong|x=1e-10': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_success|dphi=0|paper|mean|strong|x=1e-10': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'group_cdf_instant|dphi=0|wide|strong|x=1e-10': ('0x1.0000000000000p+0', '0x1.9000000000000p-47'),
    'group_cdf_mean|dphi=0|wide|strong|x=1e-10': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=0|wide|instant|strong|x=1e-10': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_success|dphi=0|wide|mean|strong|x=1e-10': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'mean_angle|dphi=0|r=1,k=10|x=5e-15': ('0x1.88d2c719fef12p-2', '0x1.431daa44f8a26p-20'),
    'mean_angle|dphi=0|r=10,k=10|x=5e-15': ('0x1.d405f7532cd4ap-1', '0x1.01544faab1bd3p-20'),
    'mean_angle|dphi=0|r=1,k=10|x=4e-13': ('0x1.428b52ddd2350p-10', '0x1.3df1d68208ae0p-20'),
    'mean_angle|dphi=0|r=10,k=10|x=4e-13': ('0x1.d0e1d4cb032f2p-1', '0x1.fcd5edf110953p-21'),
    'mean_angle|dphi=0|r=1,k=10|x=2e-11': ('0x1.00ef354972532p-23', '0x1.3df13b57d3805p-20'),
    'mean_angle|dphi=0|r=10,k=10|x=2e-11': ('0x1.46ef42c009cf8p-1', '0x1.02e4fe3e294e3p-20'),
    'group_probabilities|dphi=0|paper|instant': ('0x1.b333333333333p-1', '0x1.6c16c16c16c1ap-8', '0x1.afdf99fe10421p-4'),
    'group_probabilities|dphi=0|paper|mean': ('0x1.b333333333333p-1', '0x1.6c16c16c16c1ap-8', '0x1.afdf99fe10421p-4'),
    'group_probabilities|dphi=0|wide|instant': ('0x1.d7907502f8f2ep-2', '0x1.c71c71c71c71bp-4', '0x1.cf71c47933453p-1'),
    'group_probabilities|dphi=0|wide|mean': ('0x1.d7907502f8f2ep-2', '0x1.c71c71c71c71bp-4', '0x1.cf71c47933453p-1'),
    'nonzero|dphi=0|p|use_mean=False': ('0x1.aac78f90f1078p-2', '0x1.311b7b5779f07p-38'),
    'nonzero|dphi=0|tail|use_mean=False|k_min=0': ('0x1.0000000000000p+0',),
    'nonzero|dphi=0|tail|use_mean=False|k_min=1': ('0x1.fffd48439e218p-1',),
    'nonzero|dphi=0|tail|use_mean=False|k_min=10': ('0x1.2f2dd3b899e18p-2',),
    'nonzero|dphi=0|tail|use_mean=False|k_min=20': ('0x1.ada0babaa38ecp-26',),
    'nonzero|dphi=0|p|use_mean=True': ('0x1.adec84551afe6p-2', '0x1.5934b66accccdp-42'),
    'nonzero|dphi=0|tail|use_mean=True|k_min=0': ('0x1.0000000000000p+0',),
    'nonzero|dphi=0|tail|use_mean=True|k_min=1': ('0x1.fffd8df94fa67p-1',),
    'nonzero|dphi=0|tail|use_mean=True|k_min=10': ('0x1.3948a307da1c8p-2',),
    'nonzero|dphi=0|tail|use_mean=True|k_min=20': ('0x1.f19163ad7c688p-26',),
    'nonzero|dphi=0|pmf|k=0,k_min=0': ('0x1.5bde30ef409d8p-16',),
    'nonzero|dphi=0|pmf|k=3,k_min=0': ('0x1.1aa7915dbfcebp-7',),
    'nonzero|dphi=0|pmf|k=5,k_min=10': ('0x0.0p+0',),
    'nonzero|dphi=0|pmf|k=10,k_min=10': ('0x1.cc21e8b35c7dcp-2',),
    'nonzero|dphi=0|pmf|k=20,k_min=10': ('0x1.6ac586527c76fp-24',),
    'nonzero|dphi=0|pmf|k=14,k_min=1': ('0x1.dd03ca1025037p-8',),
    'unordered|dphi=25|instant|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'unordered|dphi=25|mean|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'ordered|dphi=25|r=1,k=10|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'ordered|dphi=25|r=10,k=10|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'ordered|dphi=25|r=3,k=5|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|paper|weak|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|paper|weak|x=0.0': ('0x1.176cee74bc673p-3', '0x1.5c29866cc3958p-30'),
    'group_success|dphi=25|paper|instant|weak|x=0.0': ('0x1.6faeb8a66b01dp-2', '0x1.5e70a199762b3p-41'),
    'group_success|dphi=25|paper|mean|weak|x=0.0': ('0x1.759eda37ec050p-2', '0x1.26a7bb0e31b49p-29'),
    'group_cdf_instant|dphi=25|wide|weak|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|wide|weak|x=0.0': ('0x1.0000000000000p-2', '0x1.9000000000000p-48'),
    'group_success|dphi=25|wide|instant|weak|x=0.0': ('0x1.b8c040c3fefc8p-3', '0x1.585632991f355p-48'),
    'group_success|dphi=25|wide|mean|weak|x=0.0': ('0x1.c4a156ad1e549p-3', '0x1.619e0bb73fb21p-48'),
    'group_cdf_instant|dphi=25|paper|strong|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|paper|strong|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|instant|strong|x=0.0': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|mean|strong|x=0.0': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|wide|strong|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_cdf_mean|dphi=25|wide|strong|x=0.0': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|instant|strong|x=0.0': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|mean|strong|x=0.0': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'unordered|dphi=25|instant|x=5e-15': ('0x1.317d421c68c30p-4', '0x1.596b03154923bp-32'),
    'unordered|dphi=25|mean|x=5e-15': ('0x1.3953808045030p-4', '0x1.59fde0432e1a4p-28'),
    'ordered|dphi=25|r=1,k=10|x=5e-15': ('0x1.2430a5a630950p-1', '0x1.afc5c3da9b6cap-28'),
    'ordered|dphi=25|r=10,k=10|x=5e-15': ('0x1.b1f41aa7431b6p-32', '0x1.afc5c3da9b6cap-28'),
    'ordered|dphi=25|r=3,k=5|x=5e-15': ('0x1.8775b81a95d76p-6', '0x1.afc5c3da9b6cap-28'),
    'group_cdf_instant|dphi=25|paper|weak|x=5e-15': ('0x1.8c2d35a0186b1p-4', '0x1.46dc3d5225ba1p-32'),
    'group_cdf_mean|dphi=25|paper|weak|x=5e-15': ('0x1.b0bfe8bcc0beep-3', '0x1.623b2d8537ef0p-30'),
    'group_success|dphi=25|paper|instant|weak|x=5e-15': ('0x1.4c1e8560c7d60p-2', '0x1.3411273d9a9abp-30'),
    'group_success|dphi=25|paper|mean|weak|x=5e-15': ('0x1.5135ec92ff3d0p-2', '0x1.bbeb2ff39a2b3p-29'),
    'group_cdf_instant|dphi=25|wide|weak|x=5e-15': ('0x1.babaf95738f74p-3', '0x1.1303ff413f4bep-33'),
    'group_cdf_mean|dphi=25|wide|weak|x=5e-15': ('0x1.8f2ca04a0bf48p-2', '0x1.ae0029f40ff01p-47'),
    'group_success|dphi=25|wide|instant|weak|x=5e-15': ('0x1.597885a9b051bp-3', '0x1.1b601b5c75b40p-31'),
    'group_success|dphi=25|wide|mean|weak|x=5e-15': ('0x1.692b0bb9c1ddcp-3', '0x1.1a29a1291f754p-48'),
    'group_cdf_instant|dphi=25|paper|strong|x=5e-15': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_cdf_mean|dphi=25|paper|strong|x=5e-15': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|instant|strong|x=5e-15': ('0x1.0000000000000p+0', '0x1.9000000000000p-47'),
    'group_success|dphi=25|paper|mean|strong|x=5e-15': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|wide|strong|x=5e-15': ('0x0.0p+0', '0x1.4c7819e2a3138p-45'),
    'group_cdf_mean|dphi=25|wide|strong|x=5e-15': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|wide|instant|strong|x=5e-15': ('0x1.0000000000000p+0', '0x1.4c7819e2a3138p-45'),
    'group_success|dphi=25|wide|mean|strong|x=5e-15': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'unordered|dphi=25|instant|x=4e-13': ('0x1.dd7f43c3abdf2p-2', '0x1.074ab1a6d4f2dp-29'),
    'unordered|dphi=25|mean|x=4e-13': ('0x1.d9edb96e34f80p-2', '0x1.92b49a7fede54p-31'),
    'ordered|dphi=25|r=1,k=10|x=4e-13': ('0x1.ff5d36444a48ep-1', '0x1.491d5e108a2f8p-25'),
    'ordered|dphi=25|r=10,k=10|x=4e-13': ('0x1.ca60fbcf9d97cp-8', '0x1.491d5e108a2f8p-25'),
    'ordered|dphi=25|r=3,k=5|x=4e-13': ('0x1.98788650c927dp-1', '0x1.491d5e108a2f8p-25'),
    'group_cdf_instant|dphi=25|paper|weak|x=4e-13': ('0x1.2789cd0bfc24cp-1', '0x1.daf480c022dd9p-30'),
    'group_cdf_mean|dphi=25|paper|weak|x=4e-13': ('0x1.488ba6473c7a2p-1', '0x1.13cad5da2b90ap-31'),
    'group_success|dphi=25|paper|instant|weak|x=4e-13': ('0x1.36e52f841f212p-3', '0x1.4948f72764bc1p-31'),
    'group_success|dphi=25|paper|mean|weak|x=4e-13': ('0x1.2a6fc6a59a470p-3', '0x1.4eb12598ecbcep-30'),
    'group_cdf_instant|dphi=25|wide|weak|x=4e-13': ('0x1.ffdc8546af3bfp-1', '0x1.001b486064e73p-30'),
    'group_cdf_mean|dphi=25|wide|weak|x=4e-13': ('0x1.fd701328b511bp-1', '0x1.8dff8ef7cd75dp-46'),
    'group_success|dphi=25|wide|instant|weak|x=4e-13': ('0x1.e8aca1e304de4p-15', '0x1.ea4bdd02e4238p-39'),
    'group_success|dphi=25|wide|mean|weak|x=4e-13': ('0x1.222a19c125fa2p-10', '0x1.c561c83dcb56ep-56'),
    'group_cdf_instant|dphi=25|paper|strong|x=4e-13': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_cdf_mean|dphi=25|paper|strong|x=4e-13': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|instant|strong|x=4e-13': ('0x1.0000000000000p+0', '0x1.9000000000000p-47'),
    'group_success|dphi=25|paper|mean|strong|x=4e-13': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|wide|strong|x=4e-13': ('0x0.0p+0', '0x1.4c7819e2a3138p-45'),
    'group_cdf_mean|dphi=25|wide|strong|x=4e-13': ('0x1.1ca4328f793ccp-8', '0x1.91d3a807d4b4ep-52'),
    'group_success|dphi=25|wide|instant|strong|x=4e-13': ('0x1.0000000000000p+0', '0x1.4c7819e2a3138p-45'),
    'group_success|dphi=25|wide|mean|strong|x=4e-13': ('0x1.fdc6b79ae10d8p-1', '0x1.91d3a807d4b4ep-52'),
    'unordered|dphi=25|instant|x=2e-11': ('0x1.98fb5e34a3b19p-1', '0x1.ae349792e1a36p-30'),
    'unordered|dphi=25|mean|x=2e-11': ('0x1.94754480c850ap-1', '0x1.bb025dbd72ecap-40'),
    'ordered|dphi=25|r=1,k=10|x=2e-11': ('0x1.fffffe1ee229dp-1', '0x1.0ce0debbcd062p-25'),
    'ordered|dphi=25|r=10,k=10|x=2e-11': ('0x1.3b802e006d40ap-2', '0x1.0ce0debbcd062p-25'),
    'ordered|dphi=25|r=3,k=5|x=2e-11': ('0x1.fc976f3e7f3b9p-1', '0x1.0ce0debbcd062p-25'),
    'group_cdf_instant|dphi=25|paper|weak|x=2e-11': ('0x1.eda32b1b68c3bp-1', '0x1.1fae020502552p-27'),
    'group_cdf_mean|dphi=25|paper|weak|x=2e-11': ('0x1.edb76741a5187p-1', '0x1.a06c45af44944p-33'),
    'group_success|dphi=25|paper|instant|weak|x=2e-11': ('0x1.a5f9d8cacdb5cp-7', '0x1.cffbce49b06fap-40'),
    'group_success|dphi=25|paper|mean|weak|x=2e-11': ('0x1.afbacc56a19a2p-7', '0x1.d8a892a4ab6c9p-35'),
    'group_cdf_instant|dphi=25|wide|weak|x=2e-11': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_cdf_mean|dphi=25|wide|weak|x=2e-11': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=25|wide|instant|weak|x=2e-11': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_success|dphi=25|wide|mean|weak|x=2e-11': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_cdf_instant|dphi=25|paper|strong|x=2e-11': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_cdf_mean|dphi=25|paper|strong|x=2e-11': ('0x0.0p+0', '0x0.0p+0'),
    'group_success|dphi=25|paper|instant|strong|x=2e-11': ('0x1.0000000000000p+0', '0x1.9000000000000p-47'),
    'group_success|dphi=25|paper|mean|strong|x=2e-11': ('0x1.0000000000000p+0', '0x0.0p+0'),
    'group_cdf_instant|dphi=25|wide|strong|x=2e-11': ('0x1.30e2095fe99cap-1', '0x1.348b194ca1cc6p-31'),
    'group_cdf_mean|dphi=25|wide|strong|x=2e-11': ('0x1.3ea772b2c7cf5p-1', '0x1.53d143884a6a2p-42'),
    'group_success|dphi=25|wide|instant|strong|x=2e-11': ('0x1.9e3bed402cc6cp-2', '0x1.348b194ca1cc6p-31'),
    'group_success|dphi=25|wide|mean|strong|x=2e-11': ('0x1.82b11a9a70616p-2', '0x1.53d143884a6a2p-42'),
    'unordered|dphi=25|instant|x=4.5e-11': ('0x1.de70d4235f6f6p-1', '0x1.8224e1ac90a32p-37'),
    'unordered|dphi=25|mean|x=4.5e-11': ('0x1.deafa99490178p-1', '0x1.e7228373b8589p-41'),
    'ordered|dphi=25|r=1,k=10|x=4.5e-11': ('0x1.fffffffffe7d5p-1', '0x1.e2ae1a17b4cbep-33'),
    'ordered|dphi=25|r=10,k=10|x=4.5e-11': ('0x1.73669eacae6b9p-1', '0x1.e2ae1a17b4cbep-33'),
    'ordered|dphi=25|r=3,k=5|x=4.5e-11': ('0x1.ffe7163bb2a41p-1', '0x1.e2ae1a17b4cbep-33'),
    'group_cdf_instant|dphi=25|paper|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x1.bf87d652ae475p-39'),
    'group_cdf_mean|dphi=25|paper|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x1.9000000000001p-46'),
    'group_success|dphi=25|paper|instant|weak|x=4.5e-11': ('0x0.0p+0', '0x1.43ac22f3b83efp-43'),
    'group_success|dphi=25|paper|mean|weak|x=4.5e-11': ('0x0.0p+0', '0x1.8ffffffffffffp-47'),
    'group_cdf_instant|dphi=25|wide|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_cdf_mean|dphi=25|wide|weak|x=4.5e-11': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=25|wide|instant|weak|x=4.5e-11': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_success|dphi=25|wide|mean|weak|x=4.5e-11': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_cdf_instant|dphi=25|paper|strong|x=4.5e-11': ('0x1.3b8bc9bfb4178p-2', '0x1.55029acee2592p-47'),
    'group_cdf_mean|dphi=25|paper|strong|x=4.5e-11': ('0x1.8b2e7f30eeb6ep-2', '0x1.5e45ec4818028p-30'),
    'group_success|dphi=25|paper|instant|strong|x=4.5e-11': ('0x1.623a1b2025f44p-1', '0x1.55029acee2592p-47'),
    'group_success|dphi=25|paper|mean|strong|x=4.5e-11': ('0x1.3a68c06788a49p-1', '0x1.5e45ec4818028p-30'),
    'group_cdf_instant|dphi=25|wide|strong|x=4.5e-11': ('0x1.9ddc16bb8501ap-1', '0x1.6c70bf58c9cefp-41'),
    'group_cdf_mean|dphi=25|wide|strong|x=4.5e-11': ('0x1.b1a3c2c82984ap-1', '0x1.05ed6753fa5d7p-39'),
    'group_success|dphi=25|wide|instant|strong|x=4.5e-11': ('0x1.888fa511ebf98p-3', '0x1.6c70bf58c9cefp-41'),
    'group_success|dphi=25|wide|mean|strong|x=4.5e-11': ('0x1.3970f4df59ed8p-3', '0x1.05ed6753fa5d7p-39'),
    'unordered|dphi=25|instant|x=1e-10': ('0x1.0000000000000p+0', '0x1.6e0830b3d9522p-37'),
    'unordered|dphi=25|mean|x=1e-10': ('0x1.0000000000000p+0', '0x1.9b1bcf79ed48ap-41'),
    'ordered|dphi=25|r=1,k=10|x=1e-10': ('0x1.ffffffffffffep-1', '0x1.c98a3ce0cfa6ap-33'),
    'ordered|dphi=25|r=10,k=10|x=1e-10': ('0x1.ffffffffffffep-1', '0x1.c98a3ce0cfa6ap-33'),
    'ordered|dphi=25|r=3,k=5|x=1e-10': ('0x1.ffffffffffffbp-1', '0x1.c98a3ce0cfa6ap-33'),
    'group_cdf_instant|dphi=25|paper|weak|x=1e-10': ('0x1.0000000000000p+0', '0x1.bf87d652ae475p-39'),
    'group_cdf_mean|dphi=25|paper|weak|x=1e-10': ('0x1.0000000000000p+0', '0x1.9000000000001p-46'),
    'group_success|dphi=25|paper|instant|weak|x=1e-10': ('0x0.0p+0', '0x1.43ac22f3b83efp-43'),
    'group_success|dphi=25|paper|mean|weak|x=1e-10': ('0x0.0p+0', '0x1.8ffffffffffffp-47'),
    'group_cdf_instant|dphi=25|wide|weak|x=1e-10': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_cdf_mean|dphi=25|wide|weak|x=1e-10': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=25|wide|instant|weak|x=1e-10': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_success|dphi=25|wide|mean|weak|x=1e-10': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_cdf_instant|dphi=25|paper|strong|x=1e-10': ('0x1.0000000000000p+0', '0x1.9000000000000p-47'),
    'group_cdf_mean|dphi=25|paper|strong|x=1e-10': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=25|paper|instant|strong|x=1e-10': ('0x0.0p+0', '0x1.9000000000000p-47'),
    'group_success|dphi=25|paper|mean|strong|x=1e-10': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'group_cdf_instant|dphi=25|wide|strong|x=1e-10': ('0x1.0000000000000p+0', '0x1.4c7819e2a3138p-45'),
    'group_cdf_mean|dphi=25|wide|strong|x=1e-10': ('0x1.0000000000000p+0', '0x1.9000000000000p-46'),
    'group_success|dphi=25|wide|instant|strong|x=1e-10': ('0x0.0p+0', '0x1.4c7819e2a3138p-45'),
    'group_success|dphi=25|wide|mean|strong|x=1e-10': ('0x0.0p+0', '0x1.9000000000000p-46'),
    'mean_angle|dphi=25|r=1,k=10|x=5e-15': ('0x1.88d2c719fef12p-2', '0x1.431daa44f8a26p-20'),
    'mean_angle|dphi=25|r=10,k=10|x=5e-15': ('0x1.d405f7532cd4ap-1', '0x1.01544faab1bd3p-20'),
    'mean_angle|dphi=25|r=1,k=10|x=4e-13': ('0x1.428b52ddd2350p-10', '0x1.3df1d68208ae0p-20'),
    'mean_angle|dphi=25|r=10,k=10|x=4e-13': ('0x1.d0e1d4cb032f2p-1', '0x1.fcd5edf110953p-21'),
    'mean_angle|dphi=25|r=1,k=10|x=2e-11': ('0x1.00ef354972532p-23', '0x1.3df13b57d3805p-20'),
    'mean_angle|dphi=25|r=10,k=10|x=2e-11': ('0x1.46ef42c009cf8p-1', '0x1.02e4fe3e294e3p-20'),
    'group_probabilities|dphi=25|paper|instant': ('0x1.bb8cf871c51ddp-1', '0x1.f81f81f81f823p-8', '0x1.2514b2d624bb8p-3'),
    'group_probabilities|dphi=25|paper|mean': ('0x1.bf99ae4f20f3ap-1', '0x1.f81f81f81f823p-8', '0x1.2514b2d624bb8p-3'),
    'group_probabilities|dphi=25|wide|instant': ('0x1.0953deb66f9c6p-1', '0x1.fc4a3b58a9f45p-4', '0x1.dbd2f1fed3073p-1'),
    'group_probabilities|dphi=25|wide|mean': ('0x1.0b4da2d76cddbp-1', '0x1.088f7400772bap-3', '0x1.dfcd10d84adb0p-1'),
    'nonzero|dphi=25|p|use_mean=False': ('0x1.aac78f90f1078p-2', '0x1.311b7b5779f07p-38'),
    'nonzero|dphi=25|tail|use_mean=False|k_min=0': ('0x1.0000000000000p+0',),
    'nonzero|dphi=25|tail|use_mean=False|k_min=1': ('0x1.fffd48439e218p-1',),
    'nonzero|dphi=25|tail|use_mean=False|k_min=10': ('0x1.2f2dd3b899e18p-2',),
    'nonzero|dphi=25|tail|use_mean=False|k_min=20': ('0x1.ada0babaa38ecp-26',),
    'nonzero|dphi=25|p|use_mean=True': ('0x1.adec84551afe6p-2', '0x1.5934b66accccdp-42'),
    'nonzero|dphi=25|tail|use_mean=True|k_min=0': ('0x1.0000000000000p+0',),
    'nonzero|dphi=25|tail|use_mean=True|k_min=1': ('0x1.fffd8df94fa67p-1',),
    'nonzero|dphi=25|tail|use_mean=True|k_min=10': ('0x1.3948a307da1c8p-2',),
    'nonzero|dphi=25|tail|use_mean=True|k_min=20': ('0x1.f19163ad7c688p-26',),
    'nonzero|dphi=25|pmf|k=0,k_min=0': ('0x1.5bde30ef409d8p-16',),
    'nonzero|dphi=25|pmf|k=3,k_min=0': ('0x1.1aa7915dbfcebp-7',),
    'nonzero|dphi=25|pmf|k=5,k_min=10': ('0x0.0p+0',),
    'nonzero|dphi=25|pmf|k=10,k_min=10': ('0x1.cc21e8b35c7dcp-2',),
    'nonzero|dphi=25|pmf|k=20,k_min=10': ('0x1.6ac586527c76fp-24',),
    'nonzero|dphi=25|pmf|k=14,k_min=1': ('0x1.dd03ca1025037p-8',),
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
