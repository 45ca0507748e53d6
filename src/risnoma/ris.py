"""Amplifier gain of the active RIS partition from its power budget.

The power amplification factor alpha is a per-element POWER gain (the
signal is scaled by sqrt(alpha)); the amplitude gain G of the amplifier
satisfies alpha = G^2 and the 0-30 dB cap applies to alpha.  The phase
alignment of both partitions is folded into the link terms (`_kernels`).
"""

import math

from .config import SystemConfig, clamp_alpha, dbm_to_watt
from .channel import link_variances


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
