"""UMi NLOS path loss and i.i.d. Rayleigh channel generation.

Channel entries are circularly-symmetric complex Gaussians whose total
variance per link is the inverse linear path loss; real and imaginary
parts carry half of it each.  Randomness comes from counter-based Philox
substreams so that draws are bit-reproducible and order-independent.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .config import DISTANCE_RANGE_M, FC_RANGE_GHZ, SystemConfig


def path_loss_db(d_m: float, fc_ghz: float) -> float:
    """Urban-micro NLOS path loss in dB: 36.7 log10(d) + 22.7 + 26 log10(fc).

    Valid for fc in 2-6 GHz and d in 10-2000 m; fc is taken in GHz.
    """
    dlo, dhi = DISTANCE_RANGE_M
    flo, fhi = FC_RANGE_GHZ
    if not (dlo <= d_m <= dhi):
        raise ValueError(f"distance {d_m} m outside model range [{dlo}, {dhi}]")
    if not (flo <= fc_ghz <= fhi):
        raise ValueError(f"carrier {fc_ghz} GHz outside model range [{flo}, {fhi}]")
    return 36.7 * np.log10(d_m) + 22.7 + 26.0 * np.log10(fc_ghz)


def channel_variance(d_m: float, fc_ghz: float) -> float:
    """Per-element channel variance sigma^2 = 1 / L(d, fc) (linear)."""
    return 10.0 ** (-path_loss_db(d_m, fc_ghz) / 10.0)


@dataclass(frozen=True)
class LinkVariances:
    """Total per-element variances of the three hop types."""

    u1: float  # user 1 -> RIS element
    u2: float  # user 2 -> RIS element
    bs: float  # RIS element -> BS


def link_variances(config: SystemConfig) -> LinkVariances:
    """Per-link variances from geometry, honoring explicit overrides."""
    u1 = config.sigma2_u1
    if u1 is None:
        u1 = channel_variance(config.d_u1_ris_m, config.fc_ghz)
    u2 = config.sigma2_u2
    if u2 is None:
        u2 = channel_variance(config.d_u2_ris_m, config.fc_ghz)
    bs = config.sigma2_bs
    if bs is None:
        bs = channel_variance(config.d_ris_bs_m, config.fc_ghz)
    return LinkVariances(u1=u1, u2=u2, bs=bs)


@dataclass(frozen=True)
class RandomStream:
    """A (seed, stream id) pair naming one independent random substream.

    Distinct pairs yield statistically independent sequences; a given pair
    is bit-reproducible across runs and thread counts.
    """

    seed: int
    stream_id: int

    def generator(self) -> Generator:
        # each stream owns a disjoint 2^128-counter block of the Philox cycle
        return Generator(Philox(key=self.seed, counter=self.stream_id << 128))


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of all six fading vectors."""

    h1: np.ndarray    # user 1 -> active part, length M
    h2: np.ndarray    # user 2 -> active part, length M
    h_bs: np.ndarray  # active part -> BS, length M
    g1: np.ndarray    # user 1 -> passive part, length N
    g2: np.ndarray    # user 2 -> passive part, length N
    g_bs: np.ndarray  # passive part -> BS, length N


def _draw_block(config: SystemConfig, stream: RandomStream, nb: int):
    """Channel matrices (nb, M) x3 and (nb, N) x3 for a block of nb trials.

    The one draw layout: a flat standard-normal draw viewed as complex,
    each trial's row split as [h1 | h2 | h_bs | g1 | g2 | g_bs].
    """
    m, n = config.m_active, config.n_passive
    var = link_variances(config)
    rng = stream.generator()
    raw = rng.standard_normal(nb * 2 * (3 * m + 3 * n)).view(np.complex128)
    raw = raw.reshape(nb, 3 * m + 3 * n)
    h1 = raw[:, 0:m] * np.sqrt(var.u1 / 2.0)
    h2 = raw[:, m:2 * m] * np.sqrt(var.u2 / 2.0)
    h_bs = raw[:, 2 * m:3 * m] * np.sqrt(var.bs / 2.0)
    g1 = raw[:, 3 * m:3 * m + n] * np.sqrt(var.u1 / 2.0)
    g2 = raw[:, 3 * m + n:3 * m + 2 * n] * np.sqrt(var.u2 / 2.0)
    g_bs = raw[:, 3 * m + 2 * n:] * np.sqrt(var.bs / 2.0)
    return h1, h2, h_bs, g1, g2, g_bs


def draw_realization(config: SystemConfig, stream: RandomStream) -> ChannelRealization:
    """Draw one channel realization, deterministic given (seed, stream_id)."""
    return ChannelRealization(*(x[0] for x in _draw_block(config, stream, 1)))
