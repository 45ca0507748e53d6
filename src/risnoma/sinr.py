"""Per-realization effective link terms and user SINRs.

The received signal collapses, per user, into a coherent amplified sum
through the active partition plus an unaligned sum through the passive
one (or vice versa).  Five scalars fully determine both SINRs:

    a    coherent active-part sum of the amplified user (real, >= 0)
    b    that user's leakage through the passive part (complex)
    c    the other user's leakage through the active part (complex)
    d    coherent passive-part sum of the other user (real, >= 0)
    ang  sum of squared magnitudes of the active-part BS hops, which
         scales the forwarded amplifier noise

The BS decodes the amplified user first, treating the other as
interference, then the passively served user after SIC; a residual
fraction epsilon of the cancelled power remains as interference.
"""

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, dbm_to_watt
from .channel import ChannelRealization
from .ris import HybridRisState


@dataclass(frozen=True)
class LinkTerms:
    a: float                  # sqrt(alpha) * sum |h_active| |h_bs|
    b: complex                # sum g_active beta g_bs
    c: complex                # sqrt(alpha) * sum h_passive theta h_bs
    d: float                  # sum |g_passive| |g_bs|
    active_noise_gain: float  # sum |h_bs|^2 (phases are unit modulus)
    alpha: float              # per-element power gain of the active part


@dataclass(frozen=True)
class SinrPair:
    gamma1: float  # amplified (first-decoded) user
    gamma2: float  # passively served user, post SIC


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


def sinr(lt: LinkTerms, config: SystemConfig) -> SinrPair:
    """Both users' SINRs from one set of link terms.

    The terms may be scalars or equal-length arrays over a block of trials;
    the transmit power, noise powers and SIC residue come from the config.
    """
    pt = dbm_to_watt(config.pt_user_dbm)
    w0 = dbm_to_watt(config.w0_dbm)
    s_ab = abs(lt.a + lt.b) ** 2
    s_cd = abs(lt.c + lt.d) ** 2
    forwarded = dbm_to_watt(config.namp_dbm) * lt.alpha * lt.active_noise_gain
    gamma1 = pt * s_ab / (pt * s_cd + forwarded + w0)
    gamma2 = pt * s_cd / (config.epsilon_sic * pt * s_ab + forwarded + w0)
    return SinrPair(gamma1=gamma1, gamma2=gamma2)


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
