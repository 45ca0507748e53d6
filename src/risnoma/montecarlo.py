"""Monte-Carlo outage estimation, SINR sampling, and Gamma fits.

Trials are processed in fixed-size blocks; block b draws its channels from
the dedicated substream (seed, b), so results are bit-identical for any
worker count: the per-block partials are combined in block order and the
block layout depends only on the configuration, never on the scheduler.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from ._kernels import link_terms_block
from .channel import RandomStream, _draw_block, link_variances
from .config import SystemConfig
from .ris import resolve_alpha
from .sinr import LinkTerms, sinr

# fixes the block size at BLOCK_FLOAT_BUDGET / (6 (M + N)) trials; blocks
# sized for the reduced draw's 2 (M + N) + 4 floats per trial ran no
# faster and raised the peak memory
BLOCK_FLOAT_BUDGET = 2_000_000


@dataclass(frozen=True)
class OutageResult:
    op: float          # outage probability estimate
    trials: int        # 0 for analytic results
    std_err: float     # binomial SE (MC); analytic: inversion error estimate or Chernoff bound
    method: str        # "mc" | "analytic"
    user: int


@dataclass(frozen=True)
class GammaFit:
    shape: float     # k
    scale: float     # theta, same unit as the data
    ks_stat: float   # Kolmogorov-Smirnov distance against the fitted CDF


def rate_to_threshold(rate_bps_hz: float) -> float:
    """SINR threshold v = 2^r - 1 for a target rate r."""
    return 2.0 ** rate_bps_hz - 1.0


def block_size(m_active: int, n_passive: int) -> int:
    """Trials per block; a pure function of the RIS size."""
    return max(128, BLOCK_FLOAT_BUDGET // (6 * (m_active + n_passive)))


def _block_terms(config: SystemConfig, block_id: int, nb: int, alpha: float):
    qa, qhb, qgp, qgb, z = _draw_block(config, RandomStream(config.seed, block_id), nb)
    var = link_variances(config)
    s_a, s_p = var.active_passive(config.active_user)
    return link_terms_block(qa, qhb, qgp, qgb, z, s_a, s_p, var.bs, math.sqrt(alpha))


def _outage_counts_worker(args):
    config, block_id, nb, alpha, v = args
    a, b, c, d, ang = _block_terms(config, block_id, nb, alpha)
    pair = sinr(LinkTerms(a=a, b=b, c=c, d=d, active_noise_gain=ang, alpha=alpha), config)
    out1 = pair.gamma1 < v
    out2 = pair.gamma2 < v
    return int(out1.sum()), int(out2.sum()), int((out1 | out2).sum())


def _terms_worker(args):
    config, block_id, nb, alpha = args
    return _block_terms(config, block_id, nb, alpha)


def _map_blocks(worker, argses, workers: int):
    """Ordered map over blocks; block order fixes the reduction order.

    A fork pool starts all its workers at the first submit, so it gets no
    more workers than there are blocks."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, len(argses))
    if workers <= 1:
        return [worker(a) for a in argses]
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=get_context("fork")
    ) as pool:
        return list(pool.map(worker, argses, chunksize=1))


def _block_plan(config: SystemConfig, n_trials: int):
    nb = block_size(config.m_active, config.n_passive)
    full, rest = divmod(n_trials, nb)
    sizes = [nb] * full + ([rest] if rest else [])
    return list(enumerate(sizes))


def estimate_outage_pair(config: SystemConfig, *,
                         workers: int = 1) -> tuple[OutageResult, OutageResult]:
    """Both users' outage estimates from one shared pass of config.mc_trials trials."""
    n = config.mc_trials
    alpha = resolve_alpha(config)
    v = rate_to_threshold(config.rate_threshold_bps_hz)
    argses = [(config, b, sz, alpha, v) for b, sz in _block_plan(config, n)]
    counts = _map_blocks(_outage_counts_worker, argses, workers)
    c1 = sum(c[0] for c in counts)
    c2 = sum(c[1] for c in counts)
    cj = sum(c[2] for c in counts)

    def _result(count, user):
        op = count / n
        return OutageResult(op=op, trials=n, std_err=math.sqrt(op * (1.0 - op) / n),
                            method="mc", user=user)

    passive_count = cj if config.joint_outage_u2 else c2
    if config.active_user == 1:
        return _result(c1, 1), _result(passive_count, 2)
    return _result(passive_count, 1), _result(c1, 2)


def sample_sinr(config: SystemConfig, user: int, n: int, *,
                workers: int = 1) -> np.ndarray:
    """n i.i.d. linear SINR samples for one user, deterministic given seed."""
    if user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user}")
    t = sample_link_terms(config, n, workers=workers)
    pair = sinr(LinkTerms(a=t["a"], b=t["b"], c=t["c"], d=t["d"],
                          active_noise_gain=t["ang"], alpha=resolve_alpha(config)), config)
    return pair.gamma1 if user == config.active_user else pair.gamma2


def sample_link_terms(config: SystemConfig, n: int, *, workers: int = 1) -> dict:
    """Arrays of the five effective link scalars over n realizations."""
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    alpha = resolve_alpha(config)
    argses = [(config, b, sz, alpha) for b, sz in _block_plan(config, n)]
    parts = _map_blocks(_terms_worker, argses, workers)
    keys = ("a", "b", "c", "d", "ang")
    return {k: np.concatenate([p[i] for p in parts]) for i, k in enumerate(keys)}


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
