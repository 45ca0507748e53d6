"""The paper's signal model, one channel realization at a time, and the
closed-form moments of its link sums.

A full draw of the six fading vectors, each partition's phase alignment
and amplifier gain, the five link terms and the received sample assembled
term by term.  No route runs this: it is the paper-faithful oracle that
the reduced Monte-Carlo block draw (`risnoma.channel`, `risnoma._kernels`)
and the SINR formula (`risnoma.sinr`) are tested against.  The link sums'
means and variances, in Python floats, are the reference for the
analytic route's outage forms (`risnoma.analytic.outage_forms`).
"""

import math
from dataclasses import dataclass

import numpy as np

from risnoma import (LinkTerms, RandomStream, SystemConfig, dbm_to_watt,
                     link_variances, resolve_alpha)


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of all six fading vectors."""

    h1: np.ndarray    # user 1 -> active part, length M
    h2: np.ndarray    # user 2 -> active part, length M
    h_bs: np.ndarray  # active part -> BS, length M
    g1: np.ndarray    # user 1 -> passive part, length N
    g2: np.ndarray    # user 2 -> passive part, length N
    g_bs: np.ndarray  # passive part -> BS, length N


def draw_realization(config: SystemConfig, stream: RandomStream) -> ChannelRealization:
    """Draw one full channel realization, deterministic given (seed, stream_id).

    A flat standard-normal draw viewed as complex, split as
    [h1 | h2 | h_bs | g1 | g2 | g_bs]; the paper-faithful oracle that the
    reduced block draw is tested against.
    """
    m, n = config.m_active, config.n_passive
    var = link_variances(config)
    raw = stream.generator().standard_normal(2 * (3 * m + 3 * n)).view(np.complex128)
    return ChannelRealization(
        h1=raw[0:m] * np.sqrt(var.u1 / 2.0),
        h2=raw[m:2 * m] * np.sqrt(var.u2 / 2.0),
        h_bs=raw[2 * m:3 * m] * np.sqrt(var.bs / 2.0),
        g1=raw[3 * m:3 * m + n] * np.sqrt(var.u1 / 2.0),
        g2=raw[3 * m + n:3 * m + 2 * n] * np.sqrt(var.u2 / 2.0),
        g_bs=raw[3 * m + 2 * n:] * np.sqrt(var.bs / 2.0),
    )


@dataclass(frozen=True)
class HybridRisState:
    theta: np.ndarray  # unit-modulus phases of the active part, length M
    beta: np.ndarray   # unit-modulus phases of the passive part, length N
    alpha: float       # per-element power gain of the active part


def align_phases(ch: ChannelRealization, active_user: int = 1,
                 alpha: float = 1.0) -> HybridRisState:
    """Coherently align each partition for its served user.

    The active part cancels the phase of the active user's cascaded
    channel, the passive part that of the other user.  A zero channel
    product (probability zero) gets phase 0; the element contributes
    nothing either way.
    """
    if active_user not in (1, 2):
        raise ValueError(f"active_user must be 1 or 2, got {active_user}")
    h_a = ch.h1 if active_user == 1 else ch.h2
    g_p = ch.g2 if active_user == 1 else ch.g1
    theta = np.exp(-1j * np.angle(h_a * ch.h_bs))  # angle(0) = 0 handles zeros
    beta = np.exp(-1j * np.angle(g_p * ch.g_bs))
    return HybridRisState(theta=theta, beta=beta, alpha=alpha)


def ris_state(ch: ChannelRealization, config: SystemConfig) -> HybridRisState:
    """Aligned phases plus the resolved amplification for one realization."""
    return align_phases(ch, active_user=config.active_user,
                        alpha=resolve_alpha(config))


def compute_link_terms(ch: ChannelRealization, ris: HybridRisState,
                       config: SystemConfig) -> LinkTerms:
    """Collapse one realization into the five effective scalars."""
    m, n = config.m_active, config.n_passive
    if not (ch.h1.shape == ch.h2.shape == ch.h_bs.shape == (m,)):
        raise ValueError(f"active-part vectors must have length {m}")
    if not (ch.g1.shape == ch.g2.shape == ch.g_bs.shape == (n,)):
        raise ValueError(f"passive-part vectors must have length {n}")
    if config.active_user == 1:
        h_a, h_p, g_a, g_p = ch.h1, ch.h2, ch.g1, ch.g2
    else:
        h_a, h_p, g_a, g_p = ch.h2, ch.h1, ch.g2, ch.g1
    sqrt_alpha = np.sqrt(ris.alpha)
    a = sqrt_alpha * float(np.sum(np.abs(h_a) * np.abs(ch.h_bs)))
    b = complex(np.sum(g_a * ris.beta * ch.g_bs))
    c = sqrt_alpha * complex(np.sum(h_p * ris.theta * ch.h_bs))
    d = float(np.sum(np.abs(g_p) * np.abs(ch.g_bs)))
    ang = float(np.sum(np.abs(ch.h_bs) ** 2))
    return LinkTerms(a=a, b=b, c=c, d=d, active_noise_gain=ang, alpha=ris.alpha)


def synthesize_received(ch: ChannelRealization, ris: HybridRisState,
                        config: SystemConfig, x1: complex, x2: complex,
                        z: np.ndarray, w0_sample: complex) -> complex:
    """One received sample assembled term by term from the signal model.

    Used to validate that the per-user coefficients match the link terms;
    z is the vector of amplifier noise samples at the active elements.
    """
    sqrt_pt = np.sqrt(dbm_to_watt(config.pt_user_dbm))
    sqrt_alpha = np.sqrt(ris.alpha)
    y = 0.0 + 0.0j
    for h_k, g_k, x_k in ((ch.h1, ch.g1, x1), (ch.h2, ch.g2, x2)):
        through_active = sqrt_alpha * np.sum(h_k * ris.theta * ch.h_bs) * x_k
        through_passive = np.sum(g_k * ris.beta * ch.g_bs) * x_k
        y += sqrt_pt * (through_active + through_passive)
    y += sqrt_alpha * np.sum(z * ris.theta * ch.h_bs)
    y += w0_sample
    return complex(y)


def link_sum_moments(config: SystemConfig) -> tuple:
    """The (mean, variance) of each link sum a, b, c, d at a config.

    A coherent sum (a, d) adds count phase-aligned Rayleigh products
    |h||g|, each of mean sigma_h sigma_g pi/4 and variance
    sigma_h^2 sigma_g^2 (1 - pi^2/16); a leakage sum (b, c) adds count
    zero-mean complex products of variance sigma_h^2 sigma_g^2.  The active
    part's sums (a, c) carry the gain alpha.
    """
    var = link_variances(config)
    alpha = resolve_alpha(config)
    s_act, s_pas = (math.sqrt(x) for x in var.active_passive(config.active_user))
    s_bs = math.sqrt(var.bs)

    def coherent(gain, count, s):
        return (math.sqrt(gain) * count * (math.pi / 4.0) * s * s_bs,
                gain * count * s**2 * s_bs**2 * (1.0 - math.pi**2 / 16.0))

    def leakage(gain, count, s):
        return 0.0, gain * count * s**2 * s_bs**2

    m, n = config.m_active, config.n_passive
    return (coherent(alpha, m, s_act), leakage(1.0, n, s_act),
            leakage(alpha, m, s_pas), coherent(1.0, n, s_pas))
