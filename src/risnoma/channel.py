"""UMi NLOS path loss, per-link variances, the RIS gain rule, and i.i.d.
Rayleigh channel generation.

Channel entries are circularly-symmetric complex Gaussians whose total
variance per link is the inverse linear path loss; real and imaginary
parts carry half of it each.  Randomness comes from SFC64 substreams seeded
by SeedSequence(seed, spawn_key=(stream id,)): bit-reproducible and order-independent.

The gain alpha of the active RIS part is a per-element POWER gain (the
signal scales by sqrt(alpha), and the 0-30 dB cap applies to alpha); it
follows from the RIS power budget (`alpha_from_power`, `at_budget`).

The Monte-Carlo block draw `_draw_block` draws only what the
phase-aligned link terms depend on (see `_kernels`); the draw of all six
fading vectors of one trial is the test oracle in `tests/oracle.py`.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .config import (DISTANCE_RANGE_M, FC_RANGE_GHZ, SystemConfig, clamp_alpha,
                     dbm_to_watt)


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

    def active_passive(self, active_user: int) -> tuple[float, float]:
        """(s_a, s_p): uplink-hop variances of the actively and passively served user."""
        return (self.u1, self.u2) if active_user == 1 else (self.u2, self.u1)


def link_variances(config: SystemConfig) -> LinkVariances:
    """Per-link variances from geometry, honoring overrides; kept on the config."""
    return config._memo("_link_variances", _link_variances)


def _link_variances(config: SystemConfig) -> LinkVariances:
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


def alpha_from_power(config: SystemConfig) -> float:
    """Power amplification implied by the RIS power budget, clamped to 0-30 dB.

    Uses the per-element average channel power of the amplified user's
    uplink hop as the reference input power.
    """
    return _alpha_at_budget(config, config.pt_ris_dbm)


def _alpha_at_budget(config: SystemConfig, pt_ris_dbm: float) -> float:
    """`alpha_from_power` at another budget, without copying the config."""
    s_a, _ = link_variances(config).active_passive(config.active_user)
    p_o = dbm_to_watt(pt_ris_dbm) / config.m_active  # split evenly per element
    pt = dbm_to_watt(config.pt_user_dbm)
    g = math.sqrt(p_o / (pt * s_a))
    return clamp_alpha(g * g)


def resolve_alpha(config: SystemConfig) -> float:
    """The power gain this config implies.  `optimized` needs the optimizer."""
    if config.alpha_mode == "fixed":
        return clamp_alpha(config.alpha_linear)
    if config.alpha_mode == "from_power":
        return alpha_from_power(config)
    raise ValueError(
        "alpha_mode='optimized' has no direct value; run the gain optimizer "
        "or evaluate at its chosen pt_ris_dbm"
    )


def at_budget(config: SystemConfig, pt_ris_dbm: float) -> SystemConfig:
    """The config evaluated at one RIS power budget: the gain follows from
    the budget, and the seed stays, so the mc objective is deterministic.
    It is replace(config, pt_ris_dbm=..., alpha_mode="from_power") built without
    __init__ (SystemConfig has no __post_init__), keeping config's link
    variances, which do not depend on the budget, and no other memo."""
    out = object.__new__(type(config))
    out.__dict__.update({f: config.__dict__[f] for f in config.__dataclass_fields__},
                        pt_ris_dbm=pt_ris_dbm, alpha_mode="from_power",
                        _link_variances=link_variances(config))
    return out


@dataclass(frozen=True)
class RandomStream:
    """A (seed, stream id) pair naming one independent random substream.

    Distinct pairs give independent sequences with overwhelming probability;
    a given pair is bit-reproducible across runs and thread counts.
    """

    seed: int
    stream_id: int

    def generator(self) -> Generator:
        # SeedSequence hashes the pair into SFC64's initial state
        return Generator(SFC64(SeedSequence(self.seed, spawn_key=(self.stream_id,))))


def _draw_block(config: SystemConfig, rng: Generator, buf: np.ndarray):
    """Fill buf, one chunk of k phase-aligned trials, with unit-scale draws.

    buf has shape (k, 2M + 2N) and is filled in place with Exp(1) squared
    magnitudes from rng; returns its views (|h_a|^2, |h_bs|^2) of shape
    (k, M) and (|g_p|^2, |g_bs|^2) of shape (k, N).  A block's chunks come
    one after another from its one substream, which then gives the block's
    standard normals for the two leakage sums, so a block's draw does not
    depend on its chunking; `_kernels` says why these determine a trial's
    link terms.
    """
    m, n = config.m_active, config.n_passive
    rng.standard_exponential(out=buf)
    return buf[:, :m], buf[:, m:2 * m], buf[:, 2 * m:2 * m + n], buf[:, 2 * m + n:]
