"""Effective link terms, both users' SINRs, and the outage result type.

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

A user is in outage when its SINR is below 2^r - 1 for its target rate r
(`config.rate_to_threshold`); both routes report it as an `OutageResult`.
"""

from dataclasses import dataclass

from .config import SystemConfig, dbm_to_watt


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


@dataclass(frozen=True)
class OutageResult:
    op: float          # outage probability estimate
    trials: int        # 0 for analytic results
    std_err: float     # binomial SE (MC); analytic: inversion error estimate or Chernoff bound
    method: str        # "mc" | "analytic"
    user: int
