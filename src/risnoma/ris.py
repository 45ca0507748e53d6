"""Hybrid RIS state: per-partition phase alignment and amplifier gain.

The active partition (M elements) is phase-aligned and amplified for one
user; the passive partition (N elements) is phase-aligned, without gain,
for the other.  The power amplification factor alpha is a per-element
POWER gain (the signal is scaled by sqrt(alpha)); the amplitude gain G of
the amplifier satisfies alpha = G^2 and the 0-30 dB cap applies to alpha.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, clamp_alpha, dbm_to_watt
from .channel import ChannelRealization, link_variances


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


def ris_state(ch: ChannelRealization, config: SystemConfig) -> HybridRisState:
    """Aligned phases plus the resolved amplification for one realization."""
    return align_phases(ch, active_user=config.active_user,
                        alpha=resolve_alpha(config))
