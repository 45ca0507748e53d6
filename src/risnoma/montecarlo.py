"""Monte-Carlo outage estimation, SINR and link-term sampling, and Gamma fits.

Trials are processed in fixed-size blocks; block b draws its channels from
the dedicated substream (seed, b), so results are bit-identical for any
worker count: the per-block partials are combined in block order and the
block layout depends only on the configuration, never on the scheduler.
Outage estimation maps one block worker, `_outage_counts_worker`, over a
process pool; sampling runs the same block draw and scaling in process.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from ._kernels import link_terms_block, scale_terms
from .channel import RandomStream, _draw_block, link_variances, resolve_alpha
from .config import SystemConfig, rate_to_threshold
from .sinr import LinkTerms, OutageResult, sinr

# fixes the block plan, hence every bit of an estimate: blocks of
# BLOCK_FLOAT_BUDGET / (6 (M + N)) trials, each from its own substream
BLOCK_FLOAT_BUDGET = 2_000_000
# floats per chunk of a block's draw; a block is drawn and reduced chunk by
# chunk into one buffer, so its memory does not grow with the block
CHUNK_FLOATS = 1 << 17


@dataclass(frozen=True)
class GammaFit:
    shape: float     # k
    scale: float     # theta, same unit as the data
    ks_stat: float   # Kolmogorov-Smirnov distance against the fitted CDF


def block_size(m_active: int, n_passive: int) -> int:
    """Trials per block; a pure function of the RIS size."""
    return max(128, BLOCK_FLOAT_BUDGET // (6 * (m_active + n_passive)))


def _block_terms(config: SystemConfig, block_id: int, nb: int):
    """Unit-scale row sums (4, nb) and leakage normals (nb, 4) of one block.

    The block's Exp(1) draw is made and reduced CHUNK_FLOATS at a time in one
    reused buffer; the sums and normals are bit-identical to those of the
    whole draw at once."""
    m, n = config.m_active, config.n_passive
    rows = min(nb, max(1, CHUNK_FLOATS // (2 * m + 2 * n)))
    rng = RandomStream(config.seed, block_id).generator()
    buf = np.empty((rows, 2 * m + 2 * n))
    tmp = np.empty((rows, max(m, n)))
    sums = np.empty((4, nb))
    for lo in range(0, nb, rows):
        k = min(rows, nb - lo)
        link_terms_block(*_draw_block(config, rng, buf[:k]), tmp, sums[:, lo:lo + k])
    return sums, rng.standard_normal((nb, 4))


def _link_terms(config: SystemConfig, sums, z, alpha: float) -> LinkTerms:
    """The LinkTerms of config at gain alpha from a block's unit-scale sums."""
    var = link_variances(config)
    s_a, s_p = var.active_passive(config.active_user)
    a, b, c, d, ang = scale_terms(sums, z, s_a, s_p, var.bs, math.sqrt(alpha))
    return LinkTerms(a=a, b=b, c=c, d=d, active_noise_gain=ang, alpha=alpha)


def _outage_counts_worker(args):
    """(user-1, user-2, either) outage counts in one block for each
    (config, alpha, threshold) member; the members share the block's draw."""
    members, block_id, nb = args
    sums, z = _block_terms(members[0][0], block_id, nb)
    counts = []
    for config, alpha, v in members:
        pair = sinr(_link_terms(config, sums, z, alpha), config)
        out1 = pair.gamma1 < v
        out2 = pair.gamma2 < v
        counts.append((int(out1.sum()), int(out2.sum()), int((out1 | out2).sum())))
    return counts


def _map_blocks(argses, workers: int):
    """`_outage_counts_worker` over blocks in order, which fixes the reduction order.

    A fork pool starts all its workers at the first submit, so it gets no
    more workers than there are blocks."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, len(argses))
    if workers <= 1:
        return [_outage_counts_worker(a) for a in argses]
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=get_context("fork")
    ) as pool:
        return list(pool.map(_outage_counts_worker, argses, chunksize=1))


def _block_plan(config: SystemConfig, n_trials: int):
    nb = block_size(config.m_active, config.n_passive)
    full, rest = divmod(n_trials, nb)
    sizes = [nb] * full + ([rest] if rest else [])
    return list(enumerate(sizes))


def estimate_outage_pairs(configs, *, workers: int = 1):
    """Both users' outage estimates at each config, each from one shared pass
    of its config.mc_trials trials.

    Configs with the same (seed, m_active, n_passive, mc_trials) draw the
    same channels, so each of their blocks is drawn once and every one of
    them is scaled and thresholded on it in the same block worker."""
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        key = (config.seed, config.m_active, config.n_passive, config.mc_trials)
        groups.setdefault(key, []).append(i)
    argses, owners = [], []
    for idx in groups.values():
        members = tuple((configs[i], resolve_alpha(configs[i]),
                         rate_to_threshold(configs[i].rate_threshold_bps_hz)) for i in idx)
        for b, sz in _block_plan(configs[idx[0]], configs[idx[0]].mc_trials):
            argses.append((members, b, sz))
            owners.append(idx)
    totals = [(0, 0, 0)] * len(configs)
    for idx, counts in zip(owners, _map_blocks(argses, workers)):
        for i, c in zip(idx, counts):
            totals[i] = tuple(map(sum, zip(totals[i], c)))
    return [_outage_pair(config, *totals[i]) for i, config in enumerate(configs)]


def _outage_pair(config: SystemConfig, c1: int, c2: int, cj: int):
    n = config.mc_trials

    def _result(count, user):
        op = count / n
        return OutageResult(op=op, trials=n, std_err=math.sqrt(op * (1.0 - op) / n),
                            method="mc", user=user)

    passive_count = cj if config.joint_outage_u2 else c2
    if config.active_user == 1:
        return _result(c1, 1), _result(passive_count, 2)
    return _result(passive_count, 1), _result(c1, 2)


def estimate_outage_pair(config: SystemConfig, *,
                         workers: int = 1) -> tuple[OutageResult, OutageResult]:
    """`estimate_outage_pairs` at one config."""
    return estimate_outage_pairs([config], workers=workers)[0]


def _sampled_blocks(config: SystemConfig, n: int) -> list[LinkTerms]:
    """The LinkTerms of n realizations, one per block of the plan, in order."""
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    alpha = resolve_alpha(config)
    return [_link_terms(config, *_block_terms(config, b, sz), alpha)
            for b, sz in _block_plan(config, n)]


def sample_sinr(config: SystemConfig, user: int, n: int) -> np.ndarray:
    """n i.i.d. linear SINR samples for one user, deterministic given seed."""
    if user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user}")
    pairs = [sinr(terms, config) for terms in _sampled_blocks(config, n)]
    return np.concatenate([p.gamma1 if user == config.active_user else p.gamma2
                           for p in pairs])


def sample_link_terms(config: SystemConfig, n: int) -> dict:
    """Arrays of the five effective link scalars over n realizations."""
    parts = _sampled_blocks(config, n)
    return {key: np.concatenate([getattr(p, name) for p in parts]) for key, name in
            zip(("a", "b", "c", "d", "ang"), ("a", "b", "c", "d", "active_noise_gain"))}


def fit_gamma(samples) -> GammaFit:
    """Moment-matched Gamma fit: k = mean^2/var, theta = var/mean."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 100:
        raise ValueError(f"need at least 100 one-dimensional samples, got shape {x.shape}")
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("samples must be positive and finite")
    mean = float(np.mean(x))
    var = float(np.var(x))
    if var <= 0.0:
        raise ValueError("samples are degenerate (zero variance)")
    shape = mean * mean / var
    scale = var / mean
    # deferred: scipy.stats takes about a second to import, and only this needs it
    from scipy import stats as sstats

    ks = sstats.kstest(x, sstats.gamma(a=shape, scale=scale).cdf).statistic
    return GammaFit(shape=shape, scale=scale, ks_stat=float(ks))
