"""Analytic outage: link-term statistics, characteristic functions, inversion.

For large partitions the four effective link sums are asymptotically
Gaussian.  The coherent sums (a, d) are real with a Rayleigh-product mean;
the leakage sums (b, c) are zero-mean complex.  Squared magnitudes are
then noncentral / central chi-square variables, and the outage event is a
sign test on a weighted sum G of them.  The tail of G on the threshold's
side of its mean (a lower tail is the upper tail of -G) comes from the
moment generating function M by adaptive Gauss-Kronrod (G7/K15) quadrature
along Re z = c, c the saddle point of M(z) e^{-z g} / z, where a tail costs
few nodes and has relative accuracy (Rice, SIAM J. Sci. Stat. Comput. 1 (1980)):

    P(G >= g) = (1/pi) * integral_0^inf Re[M(c + jw) e^{-(c + jw) g} / (c + jw)] dw

It is skipped where a Chernoff bound proves the tail below 1e-3 quad_tol.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import link_variances
from .config import SystemConfig, dbm_to_watt
from .montecarlo import OutageResult, rate_to_threshold
from .ris import resolve_alpha

RAYLEIGH_MEAN_FACTOR = math.pi / 4.0          # E|h||g| = sigma_h sigma_g * pi/4
RAYLEIGH_VAR_FACTOR = 1.0 - math.pi**2 / 16.0


class AccuracyError(RuntimeError):
    """The CDF integral failed to converge below the requested tolerance."""


@dataclass(frozen=True)
class TermStats:
    mu: float    # mean (complex terms have mu = 0 here)
    var: float   # total variance


def term_statistics(config: SystemConfig):
    """The TermStats of (a, b, c, d) implied by a config's geometry and gain;
    the active part carries a and c, the passive part b and d."""
    var = link_variances(config)
    alpha = resolve_alpha(config)
    s_act, s_pas = (math.sqrt(s) for s in var.active_passive(config.active_user))
    s_bs = math.sqrt(var.bs)

    def coherent(gain, count, s):   # phase-aligned: real, Rayleigh-product mean
        mu = math.sqrt(gain) * count * RAYLEIGH_MEAN_FACTOR * s * s_bs
        return TermStats(mu=mu, var=gain * count * s**2 * s_bs**2 * RAYLEIGH_VAR_FACTOR)

    def leakage(gain, count, s):    # unaligned: zero-mean complex
        return TermStats(mu=0.0, var=gain * count * s**2 * s_bs**2)

    m, n = config.m_active, config.n_passive
    return (coherent(alpha, m, s_act), leakage(1.0, n, s_act),
            leakage(alpha, m, s_pas), coherent(1.0, n, s_pas))


@dataclass(frozen=True)
class QfComponent:
    """One weighted chi-square-like component: weight * sum_{i<dof} X_i^2.

    The X_i are independent Gaussians with common per-component variance
    `var` and common mean `mean` (0 for central components).
    """

    weight: float
    dof: int
    var: float
    mean: float = 0.0


@dataclass(frozen=True)
class QuadFormSpec:
    """A weighted sum of independent chi-square-like components."""

    components: tuple

    def mean(self) -> float:
        return sum(c.weight * c.dof * (c.var + c.mean**2) for c in self.components)

    def variance(self) -> float:
        return sum(
            c.weight**2 * c.dof * (2.0 * c.var**2 + 4.0 * c.mean**2 * c.var)
            for c in self.components
        )

    def scaled(self, factor: float) -> "QuadFormSpec":
        """The spec of (factor * G); rescaling weights only."""
        return QuadFormSpec(components=tuple(
            QfComponent(weight=c.weight * factor, dof=c.dof, var=c.var, mean=c.mean)
            for c in self.components))

    def tilted(self, s: float) -> "QuadFormSpec":
        """The exponentially tilted spec, whose CF at w is M(s + jw) / M(s):
        each component's var and mean divide by 1 - 2 s weight var (> 0)."""
        return QuadFormSpec(components=tuple(
            QfComponent(weight=c.weight, dof=c.dof, var=c.var / r, mean=c.mean / r)
            for c in self.components for r in (1.0 - 2.0 * s * c.weight * c.var,)))


def log_cf(spec: QuadFormSpec, omega):
    """Log characteristic function of the quadratic form: log|Psi| + j arg Psi.

    Each component contributes the standard chi-square CF evaluated at the
    weighted frequency (the CF scaling rule for cX), and independence turns
    the product into a sum of logs.  With t = 2 u s^2 the principal log of
    1 - j t is (1/2) log1p(t^2) - j atan(t), so the sum is formed in real
    arithmetic.  exp(log_cf(spec, omega)) is the CF itself.
    """
    w = np.asarray(omega, dtype=float)
    log_mag = np.zeros(w.shape)
    phase = np.zeros(w.shape)
    for comp in spec.components:
        u = comp.weight * w
        t = 2.0 * comp.var * u
        tt = t * t
        log_mag -= (comp.dof / 4.0) * np.log1p(tt)
        phase += (comp.dof / 2.0) * np.arctan(t)
        if comp.mean != 0.0:
            # j u lam / (1 - j t) = u lam (j - t) / (1 + t^2)
            q = (comp.dof * comp.mean**2) * u / (1.0 + tt)
            log_mag -= q * t
            phase += q
    out = log_mag.astype(np.complex128)
    out.imag = phase
    return complex(out) if w.ndim == 0 else out


# perfbench's `analytic.cf` span times the per-node evaluator under this
# older name; it returns the log-CF, and it is not exported
cf_eval = log_cf


def build_quadform(config: SystemConfig, user: int) -> QuadFormSpec:
    """Assemble the outage quadratic form of one user's decode.

    The squared magnitude of a real-plus-complex sum splits into a
    noncentral 1-dof part (real axis) and a central 1-dof part (imaginary
    axis of the complex term); the complex term's variance divides evenly
    between the two.  The forwarded amplifier noise enters as a central
    2M-dof component.  Components with zero weight are dropped.
    """
    if user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user}")
    sa, sb, sc, sd = term_statistics(config)
    pt = dbm_to_watt(config.pt_user_dbm)
    v = rate_to_threshold(config.rate_threshold_bps_hz)

    def part(weight, real, cplx):
        """weight |real + cplx|^2: its noncentral and its central component."""
        return [QfComponent(weight, 1, real.var + cplx.var / 2.0, real.mu),
                QfComponent(weight, 1, cplx.var / 2.0)]

    if user == config.active_user:
        comps = part(pt, sa, sb) + part(-pt * v, sd, sc)
    else:
        comps = part(pt, sd, sc)
        if config.epsilon_sic > 0.0:
            comps += part(-config.epsilon_sic * pt * v, sa, sb)
    comps.append(QfComponent(-dbm_to_watt(config.namp_dbm) * resolve_alpha(config) * v,
                             2 * config.m_active, link_variances(config).bs / 2.0))
    return QuadFormSpec(components=tuple(c for c in comps if c.weight != 0.0))


_CHERNOFF_T = np.geomspace(1e-3, 1e12, 121)


def saddle_point(spec: QuadFormSpec, g: float) -> tuple[float, float, float]:
    """Chernoff bound on P(G >= g), and the tilt c with log M(c) to invert it.

    The bound (Chernoff, Ann. Math. Stat. 1952) is the least exp(log M(s) - s g)
    over s = t / (1 + t / s_max), t in _CHERNOFF_T, which spans (0, s_max), or
    (0, 1e12] where no component limits s; any such s gives a valid bound.
    log M(s) = sum -(dof/2) log(1 - 2 s w v) + dof mean^2 w s / (1 - 2 s w v)
    while all 2 s w v < 1.  On the same grid c minimizes log M(s) - s g - log s:
    the real saddle point of M(z) e^{-z g} / z.
    """
    w, var, dof, mean = np.array([(c.weight, c.var, c.dof, c.mean)
                                  for c in spec.components]).T
    wv = w * var
    s = _CHERNOFF_T / (1.0 + _CHERNOFF_T * max(0.0, float(np.max(2.0 * wv))))
    r = 1.0 - 2.0 * np.outer(s, wv)
    log_m = (-0.5 * dof * np.log(r) + dof * mean**2 * np.outer(s, w) / r).sum(axis=1)
    exponent = log_m - s * g
    k = int(np.argmin(exponent - np.log(s)))
    return float(np.exp(np.min(exponent))), float(s[k]), float(log_m[k])


def chernoff_bound(spec: QuadFormSpec, g: float, *, upper: bool) -> float:
    """Chernoff bound on P(G >= g) (upper) or P(G <= g), the upper tail of -G at -g."""
    return saddle_point(spec if upper else spec.scaled(-1.0), g if upper else -g)[0]


# ---------------------------------------------------------------------------
# Tail inversion along Re z = c with adaptive Gauss-Kronrod panels

_GK_X = np.array([0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
                  0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0])
_GK_WK = np.array([0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
                   0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728])
_GK_WG = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469])

_NODES = np.concatenate([-_GK_X[:-1], _GK_X[::-1]])          # 15 ascending
_W_KRONROD = np.concatenate([_GK_WK[:-1], _GK_WK[::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:15:2] = np.concatenate([_GK_WG[:-1], _GK_WG[::-1]])


def _gk15(f, lo, hi):
    """Vectorized G7/K15 on a batch of panels; returns estimates and errors."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    kron = half * (vals @ _W_KRONROD)
    gauss = half * (vals @ _W_GAUSS)
    return kron, np.abs(kron - gauss)


_LADDER = np.ldexp(1.0, np.arange(-40, 200))   # probed frequencies, in units of c
_LADDER_CHUNK = 80                             # divides _LADDER.size
_FIRST_PROBES = np.append(0.0, _LADDER[:_LADDER_CHUNK])
MAX_PANELS = 60_000         # each refinement adds a panel, so this bounds the loop


def _panel_ladder(log_m, g: float, c: float, tol: float) -> tuple[float, float, float]:
    """The first panel edge, the truncation limit and the tail gauge there,
    all frequencies c 2^k, probed in chunks of one `log_m` call each.  The
    edge is where the envelope |M(c + jw) / (c + jw)| has fallen by 1/32: at
    sigma/4 for a Gaussian of width sigma = (Var_c + 1/c^2)^(-1/2).  The limit
    is the first frequency past it where min(A, 2 A / (|g| w)) / pi, with
    A = |M(c + jw) e^{-(c + jw) g}|, is below tol / 8."""
    log_amp = np.real(log_m(c * _FIRST_PROBES)) - c * g
    drop = log_amp[0] - log_amp[1:] + 0.5 * np.log1p(_FIRST_PROBES[1:] ** 2)
    first = c * float(_FIRST_PROBES[1 + np.argmax(drop >= 1.0 / 32.0)])
    for start in range(0, _LADDER.size, _LADDER_CHUNK):
        omega = c * _LADDER[start:start + _LADDER_CHUNK]
        amp = np.exp(np.real(log_m(omega)) - c * g if start else log_amp[1:])
        tail = np.minimum(amp, 2.0 * amp / (max(abs(g), 1e-3) * omega)) / math.pi
        done = (omega > first) & (tail < tol / 8.0)
        if done.any():
            k = int(np.argmax(done))
            return first, float(omega[k]), float(tail[k])
    raise AccuracyError("could not find a finite truncation limit")


def gil_pelaez_cdf(log_m, g: float, c: float, *, tol: float = 1e-6) -> tuple[float, float]:
    """P(G >= g) by inversion along the line Re z = c, 0 < c < s_max, and an
    error estimate (not a bound: in a far tail it can understate the error).

    `log_m(w)` maps a float ndarray of frequencies to a complex log M(c + jw)
    on any branch, such as `np.log(cf(w - 1j * c))` of a closed-form CF.  The
    panels, [0, sigma/4] and dyadic above it up to the truncation limit
    (`_panel_ladder`), each cut to at most one period 2 pi / |g|, are bisected
    until the error estimate meets `tol`.  Raises :class:`AccuracyError`, not
    a degraded value, when the panels exceed `MAX_PANELS` or when no panel
    qualifies for a split (a nan in the integrand).
    """

    def integrand(w):
        log_w = log_m(w)
        theta = log_w.imag - w * g
        return (np.exp(log_w.real - c * g) * (c * np.cos(theta) + w * np.sin(theta))
                / (math.pi * (c * c + w * w)))

    first, omega_hi, tail = _panel_ladder(log_m, g, c, tol)
    doublings = np.arange(round(math.log2(omega_hi / first)) + 1)
    width = np.diff(np.append(0.0, first * np.ldexp(1.0, doublings)))
    pieces = np.ceil(width * (abs(g) / (2.0 * math.pi))).clip(1).astype(int)
    hi = np.cumsum(np.repeat(width / pieces, pieces))
    lo = np.append(0.0, hi[:-1])

    if lo.size > MAX_PANELS:
        raise AccuracyError(f"panel budget exceeded ({lo.size} initial panels)")
    vals, errs = _gk15(integrand, lo, hi)
    while not errs.sum() <= tol / 2.0:   # a nan error enters too, and raises below
        total_err = errs.sum()
        if lo.size > MAX_PANELS:
            raise AccuracyError(f"panel budget exceeded ({lo.size} panels, err~{total_err:.2e})")
        split = errs > max(total_err / (4.0 * lo.size), tol / (8.0 * lo.size))
        if not split.any():
            raise AccuracyError(f"quadrature error {total_err:.2e} above "
                                f"tolerance {tol:.2e}; no panel to split")
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_vals, new_errs = _gk15(integrand, new_lo, new_hi)
        lo = np.concatenate([lo[~split], new_lo])
        hi = np.concatenate([hi[~split], new_hi])
        vals = np.concatenate([vals[~split], new_vals])
        errs = np.concatenate([errs[~split], new_errs])
    return min(max(float(vals.sum()), 0.0), 1.0), float(errs.sum()) + tail


def analytic_outage(config: SystemConfig, user: int) -> OutageResult:
    """Outage probability of one user via characteristic-function inversion."""
    if user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user}")
    if config.joint_outage_u2 and user != config.active_user:
        raise NotImplementedError(
            "joint decode outage is simulation-only; unset joint_outage_u2"
        )
    digest = config.digest()
    v = rate_to_threshold(config.rate_threshold_bps_hz)
    if v <= 0.0:
        return OutageResult(op=0.0, trials=0, std_err=0.0, method="analytic",
                            user=user, config_digest=digest)

    spec = build_quadform(config, user)
    g = dbm_to_watt(config.w0_dbm) * v

    # normalized, the tail on the threshold's side of the mean is the upper
    # tail of G or of -G; far out, a proven bound pins it to 0 as its error
    upper = g > spec.mean()
    scale = math.sqrt(spec.variance())
    side = spec.scaled((1.0 if upper else -1.0) / scale)
    g_side = (g if upper else -g) / scale
    bound, c, log_mc = saddle_point(side, g_side)
    if bound <= 1e-3 * config.quad_tol:
        tail, err = 0.0, bound
    else:
        tilted = side.tilted(c)
        tail, err = gil_pelaez_cdf(lambda w: log_mc + log_cf(tilted, w), g_side, c,
                                   tol=min(config.quad_tol, 1e-4 * bound))
    p = 1.0 - tail if upper else tail
    return OutageResult(op=p, trials=0, std_err=err, method="analytic",
                        user=user, config_digest=digest)
