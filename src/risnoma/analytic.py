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

The integral is truncated where the oscillating tail past the limit comes
by parts from one term, or is negligible.  It is skipped where a Chernoff
bound proves the tail below 1e-3 quad_tol.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import link_variances, resolve_alpha
from .config import SystemConfig, dbm_to_watt, rate_to_threshold
from .sinr import OutageResult

RAYLEIGH_MEAN_FACTOR = math.pi / 4.0          # E|h||g| = sigma_h sigma_g * pi/4
RAYLEIGH_VAR_FACTOR = 1.0 - math.pi**2 / 16.0


class AccuracyError(RuntimeError):
    """The CDF integral failed to converge below the requested tolerance."""


def _form_rows(config: SystemConfig):
    """A config's inputs to the outage form of the passive (False) and the
    active (True) user's decode, kept on the config: the gains, element
    counts and uplink-hop variances of the decoded pair's terms, (d, c) or
    (a, b), and of the other pair's; the RIS-BS hop variance; the weights
    pt, -eps pt v or -pt v, and -sigma_z^2 alpha v; the dofs 1 and 2M; and
    the variance of the amplifier-noise component, half the RIS-BS hop's."""
    def rows(config):
        var = link_variances(config)
        alpha, (act, pas) = resolve_alpha(config), var.active_passive(config.active_user)
        m, n, pt = config.m_active, config.n_passive, dbm_to_watt(config.pt_user_dbm)
        v = rate_to_threshold(config.rate_threshold_bps_hz)
        tail = -dbm_to_watt(config.namp_dbm) * alpha * v, 1.0, 2 * m, var.bs / 2.0
        # the terms (d, c, a, b) and (a, b, d, c), with a = (alpha, m, act),
        # b = (1, n, act), c = (alpha, m, pas), d = (1, n, pas)
        return ((1.0, alpha, alpha, 1.0, n, m, m, n, pas, pas, act, act, var.bs, pt,
                 -config.epsilon_sic * pt * v, *tail),
                (alpha, 1.0, 1.0, alpha, m, n, n, m, act, act, pas, pas, var.bs, pt,
                 -pt * v, *tail))
    return config._memo("_form_rows", rows)


@dataclass(slots=True)
class QuadForm:
    """K quadratic forms, each a weighted sum of independent chi-square-like
    components, as (C, K) arrays of their C components' fields.  A form with
    fewer components is padded with zero-weight ones, which add exactly
    nothing; `central` flags the components whose mean is 0 in every form.
    Form k is forms[k], its fields (C,) arrays."""

    weight: np.ndarray
    dof: np.ndarray
    var: np.ndarray
    mean: np.ndarray
    central: tuple

    def __getitem__(self, k) -> "QuadForm":
        """Form k, or forms k (an index array or mask)."""
        return QuadForm(self.weight[:, k], self.dof[:, k], self.var[:, k], self.mean[:, k],
                        self.central)

    def moments(self):
        """The (K,) means and variances of the forms."""
        w, dof, var, mean = self.weight, self.dof, self.var, self.mean
        return (sum(w * dof * (var + mean**2)),
                sum(w**2 * dof * (2.0 * var**2 + 4.0 * mean**2 * var)))

    def scaled(self, factor) -> "QuadForm":
        """The forms of factor * G, one factor per form."""
        return QuadForm(self.weight * factor, self.dof, self.var, self.mean, self.central)

    def tilted(self, s) -> "QuadForm":
        """The exponentially tilted forms, whose CF at w is M(s + jw) / M(s),
        one s per form: each component's var and mean divide by
        1 - 2 s weight var (> 0)."""
        r = 1.0 - (2.0 * s) * self.weight * self.var
        return QuadForm(self.weight, self.dof, self.var / r, self.mean / r, self.central)


def log_cf(forms, omega):
    """Log characteristic function of quadratic forms: log|Psi| + j arg Psi.

    Each component contributes the standard chi-square CF evaluated at the
    weighted frequency (the CF scaling rule for cX), and independence turns
    the product into a sum of logs.  With t = 2 u s^2 the principal log of
    1 - j t is (1/2) log1p(t^2) - j atan(t), so the sum is formed in real
    arithmetic.  exp(log_cf(forms, omega)) is the CF itself.  The last axis
    of omega runs over the K forms (column i of an (m, K) omega is evaluated
    on form i); one form, forms[k], takes omega of any shape.
    """
    w = np.asarray(omega, dtype=float)
    log_mag = np.zeros(w.shape)
    phase = np.zeros(w.shape)
    for j, central in enumerate(forms.central):
        dof = forms.dof[j]
        u = forms.weight[j] * w
        t = 2.0 * forms.var[j] * u
        tt = t * t
        x = np.log1p(tt)
        x *= dof / 4.0
        log_mag -= x
        x = np.arctan(t)
        x *= dof / 2.0
        phase += x
        if not central:
            # j u lam / (1 - j t) = u lam (j - t) / (1 + t^2), lam = dof mean^2
            u *= dof * (forms.mean[j] * forms.mean[j])
            u /= tt + 1.0
            phase += u
            u *= t
            log_mag -= u
    out = log_mag.astype(np.complex128)
    out.imag = phase
    return complex(out) if out.ndim == 0 else out


# perfbench's `analytic.cf` span times the per-node evaluator under this
# older name; it returns the log-CF, and it is not exported
cf_eval = log_cf


# the terms of a form's two pairs: real (phase-aligned, with a
# Rayleigh-product mean), complex (unaligned, zero-mean), real, complex
_VAR_FACTOR = np.array([RAYLEIGH_VAR_FACTOR, 1.0, RAYLEIGH_VAR_FACTOR, 1.0])


def outage_forms(configs, users) -> QuadForm:
    """The outage quadratic forms of users[i]'s decode at configs[i], as the
    (C, K) fields of one QuadForm (users 1 or 2).

    The squared magnitude of a real-plus-complex sum splits into a
    noncentral 1-dof part (real axis) and a central 1-dof part (imaginary
    axis of the complex term); the complex term's variance divides evenly
    between the two.  The decoded user's pair, |a + b|^2 for the active
    user and |d + c|^2 for the passive one, has weight pt; the other pair
    has weight -pt v, or -eps pt v as the passive user's SIC residue.  The
    forwarded amplifier noise enters as a central 2M-dof component.
    Components with zero weight are dropped: each form keeps the rest in
    this order, padded at the end with zero-weight ones.
    """
    x = np.array([_form_rows(config)[user == config.active_user]
                  for config, user in zip(configs, users)])
    # the terms' means (of the real ones) and variances from their gains,
    # element counts and hop variances; squares are np.float_power, libm's
    # pow as Python's ** on floats
    gain, count, s, s_bs = x[:, 0:4], x[:, 4:8], np.sqrt(x[:, 8:12]), np.sqrt(x[:, 12:13])
    mu = np.sqrt(gain[:, 0::2]) * count[:, 0::2] * RAYLEIGH_MEAN_FACTOR * s[:, 0::2] * s_bs
    var = gain * count * np.float_power(s, 2) * np.float_power(s_bs, 2) * _VAR_FACTOR
    fields = np.zeros((len(x), 4, 5))   # per form: weight, dof, var, mean of 5 components
    fields[:, 0] = x[:, [13, 13, 14, 14, 15]]
    fields[:, 1] = x[:, [16, 16, 16, 16, 17]]
    fields[:, 2, 1:4:2] = var[:, 1::2] / 2.0
    fields[:, 2, 0:4:2] = var[:, 0::2] + fields[:, 2, 1:4:2]
    fields[:, 2, 4] = x[:, 18]
    fields[:, 3, 0:4:2] = mu
    fields = fields.transpose(1, 2, 0)
    keep = fields[0] != 0.0
    if not keep.all():
        slot = np.cumsum(keep, axis=0) - 1
        packed = np.zeros((4, slot[-1].max() + 1, len(x)))
        packed[:, slot[keep], np.nonzero(keep)[1]] = fields[:, keep]
        fields = packed
    weight, dof, var, mean = fields
    return QuadForm(weight, dof, var, mean, tuple((mean == 0.0).all(axis=1).tolist()))


_CHERNOFF_T = np.geomspace(1e-3, 1e12, 121)
SADDLE_BLOCK = 128   # forms per saddle_point pass: bounds its (K, 121) arrays


def saddle_point(forms: QuadForm, g):
    """Chernoff bound on P(G >= g), and the tilt c with log M(c) to invert it.

    The bound (Chernoff, Ann. Math. Stat. 1952) is the least exp(log M(s) - s g)
    over s = t / (1 + t / s_max), t in _CHERNOFF_T, which spans (0, s_max), or
    (0, 1e12] where no component limits s; any such s gives a valid bound.
    log M(s) = sum -(dof/2) log(1 - 2 s w v) + dof mean^2 w s / (1 - 2 s w v)
    while all 2 s w v < 1.  On the same grid c minimizes log M(s) - s g - log s:
    the real saddle point of M(z) e^{-z g} / z.  For (K,) g the three values
    are (K,) arrays, from one (K, 121) pass per component, summed in
    component order, over blocks of at most SADDLE_BLOCK forms (each row is
    its own); a lower tail P(G <= g) is the upper tail of forms.scaled(-1.0)
    at -g.
    """
    size = forms.weight.shape[1]
    if size > SADDLE_BLOCK:
        blocks = [saddle_point(forms[top:top + SADDLE_BLOCK], g[top:top + SADDLE_BLOCK])
                  for top in range(0, size, SADDLE_BLOCK)]
        return tuple(np.concatenate(x) for x in zip(*blocks))
    wv = forms.weight * forms.var
    s = _CHERNOFF_T / (1.0 + _CHERNOFF_T * np.maximum(0.0, np.max(2.0 * wv, axis=0))[:, None])
    half_dof, lam = -0.5 * forms.dof, forms.dof * forms.mean**2
    for j, central in enumerate(forms.central):
        r = 1.0 - 2.0 * (s * wv[j, :, None])
        term = half_dof[j, :, None] * np.log(r)
        if not central:
            term += lam[j, :, None] * (s * forms.weight[j, :, None]) / r
        log_m = term if j == 0 else log_m + term
    exponent = log_m - s * np.reshape(g, (-1, 1))
    at = np.arange(len(s)), np.argmin(exponent - np.log(s), axis=1)
    out = np.exp(np.min(exponent, axis=1)), s[at], log_m[at]
    return out if np.ndim(g) else tuple(float(x[0]) for x in out)


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
_W_NODE = np.stack([_W_KRONROD, _W_GAUSS], axis=1)[:, :, None]   # (15, 2, 1): K15, G7

PANEL_CHUNK = 1024   # panels per integrand call: bounds the node pass's memory


def _gk15(f, lo, hi, k):
    """The panels' G7/K15 Kronrod estimates and errors (`_gk15_sums`), panel
    i belonging to inversion k[i].  f(nodes, k) gets node j of panel i at
    [j, i], for at most PANEL_CHUNK panels at a time."""
    out = np.empty((2, lo.size))
    for start in range(0, lo.size, PANEL_CHUNK):
        cols = slice(start, start + PANEL_CHUNK)
        half = 0.5 * (hi[cols] - lo[cols])
        nodes = 0.5 * (lo[cols] + hi[cols]) + half * _NODES[:, None]
        out[:, cols] = _gk15_sums(half, f(nodes, k[cols]))
    return out


def _gk15_sums(half, vals):
    """The panels' Kronrod estimates and their errors, each panel's summed on its own in
    node order, so that they do not depend on the batch's other panels (a BLAS product's can)."""
    kron, gauss = half * sum(_W_NODE * vals[:, None])   # node after node, elementwise
    return kron, np.abs(kron - gauss)


_LADDER = np.ldexp(1.0, np.arange(-40, 200))   # probed frequencies, in units of c
_BAND = 28, 52             # _LADDER[28:52] = 2^-12 ... 2^11, the first frequencies probed
_LADDER_CHUNK = 24         # frequencies per probe call past the band
_EDGE_DROP = 0.5 * np.log1p(_LADDER[:_BAND[1], None] ** 2)
_STEP = 2.0**-12           # relative step of the central difference
_SHIFTS = np.array([1.0, 1.0 + _STEP, 1.0 - _STEP])[:, None, None]
_PANEL_WIDTHS = np.append(1.0, np.ldexp(1.0, np.arange(160)))   # [0, 1], then [2^k, 2^(k+1)]
MAX_PANELS = 60_000         # each refinement adds a panel, so this bounds the loop
_SUM_BLOCK = 1 << 18        # floats in a padded block of _first_panels' running sums


def _panel_ladder(log_m, g, c, tol):
    """Per member: the first panel edge, the truncation limit W, the tail
    past W and its error estimate, all frequencies c 2^k.  With the
    integrand Re[H(w) e^{-jwg}], H(w) = M(c + jw) e^{-cg} / (pi (c + jw)):

    the edge is the first frequency where |H| has fallen by 1/32 (the
    drop), at sigma/4 for a Gaussian of width sigma = (Var_c + 1/c^2)^(-1/2).
    For a quadratic form the drop grows with w, is at most w^2 / (2 sigma^2)
    (log1p(t^2) <= t^2) and at least (1/2) log1p(1/4) > 1/32 at w = c/2, so
    the edge lies in [sigma/4, c/2].  The ladder is probed from c 2^-12, and
    from c 2^-40 for a member whose drop reaches 1/32 already there (or
    nowhere up to c 2^11), so that the first probe that does is the edge.
    The limit is the first frequency past it where the by-parts remainder
    2 |H'(W)| / g^2 (Bleistein & Handelsman, Asymptotic Expansions of
    Integrals (1975), ch. 3) or, for small |g|, the envelope estimate
    min(A, 2 A / (|g| w)) / pi, with A = pi |c + jw| |H| and |g| at least
    1e-3, is below tol / 8.  The smaller of the two is the error; where it
    is the remainder, the tail is the leading term Re[H(W) e^{-jWg} / (jg)].
    H'/H = L' - j / (c + jw), L' a central difference of log_m at relative
    step _STEP with its imaginary part wrapped into [-pi, pi]."""
    out = np.zeros((4, g.size))
    redo = _climb(log_m, np.arange(g.size), g, c, tol, out, _BAND[0])
    if redo.size:
        _climb(log_m, redo, g, c, tol, out, 0)
    return tuple(out)


def _climb(log_m, members, g, c, tol, out, start):
    """_panel_ladder's search for `members` from _LADDER[start], writing
    their (first, limit, past, gauge) into out; each `log_m` call probes up
    to PANEL_CHUNK * 15 nodes.  From the band (start > 0) it returns the
    members it could not place an edge for, and skips them."""
    first, limit, past, gauge = out
    chunks = [(start, _BAND[1]),
              *((lo, lo + _LADDER_CHUNK) for lo in range(_BAND[1], _LADDER.size, _LADDER_CHUNK))]
    group = max(1, PANEL_CHUNK * _NODES.size // (3 * (_BAND[1] - start) + 1))
    redo = []
    for at_member in range(0, members.size, group):
        k = members[at_member:at_member + group]
        cc, gg, tol8 = c[k], g[k], tol[k] / 8.0
        edge = None
        for lo, hi in chunks:
            ladder = _LADDER[lo:hi, None]
            omega = cc * ladder
            probes = (omega * _SHIFTS).reshape(-1, k.size)
            if edge is None:
                probes = np.vstack([np.zeros_like(cc), probes])
            lm = log_m(probes, k)
            placed = True
            if edge is None:
                log_zero, lm = np.real(lm[0]), lm[1:]
                drop = log_zero - np.real(lm[:ladder.size]) + _EDGE_DROP[lo:hi]
                at_edge = (drop >= 1.0 / 32.0).argmax(axis=0)
                edge = cc * _LADDER[lo + at_edge]
                first[k] = edge
                if start:
                    placed = at_edge > 0
                    redo.append(k[~placed])
            lw, lp, lq = lm.reshape(3, ladder.size, k.size)
            # a closed-form CF's log is -inf where it underflows: L' is taken as 0 there
            both = np.isfinite(lp.real) & np.isfinite(lq.real)
            dl = np.subtract(lp, lq, out=np.zeros_like(lw), where=both)
            dl.imag -= (2.0 * math.pi) * np.round(dl.imag / (2.0 * math.pi))
            z = cc + 1j * omega
            amp = np.exp(lw.real - cc * gg)
            dh2 = 2.0 * amp / (math.pi * np.abs(z)) * np.abs(dl / (2.0 * _STEP * omega) - 1j / z)
            env = np.minimum(amp, 2.0 * amp / (np.maximum(np.abs(gg), 1e-3) * omega)) / math.pi
            g2 = gg * gg
            by_parts = dh2 < env * g2          # the remainder 2 |H'| / g^2 is the smaller
            done = (omega > edge) & ((dh2 < tol8 * g2) | (env < tol8)) & placed
            at = done.argmax(axis=0), np.arange(k.size)
            hit = done[at]
            use = hit & by_parts[at]           # never at g = 0
            limit[k[hit]], gauge[k[hit]] = omega[at][hit], env[at][hit]
            w, gu = omega[at][use], gg[use]
            h = amp[at][use] * np.exp(1j * (lw.imag[at][use] - w * gu)) / (math.pi * z[at][use])
            past[k[use]], gauge[k[use]] = (h / (1j * gu)).real, dh2[at][use] / g2[use]
            climbing = ~hit & placed
            if not climbing.any():
                break
            k, cc, gg, tol8, edge = (x[climbing] for x in (k, cc, gg, tol8, edge))
        else:
            raise AccuracyError("could not find a finite truncation limit")
    return np.concatenate(redo) if redo else np.zeros(0, dtype=int)


def _first_panels(first, omega_hi, g):
    """Every member's initial panels, [0, first] and dyadic up to omega_hi,
    each cut to at most one period 2 pi / |g|, as one (lo, hi) pair of
    arrays: member by member, each member's panels starting at its one lo
    of 0."""
    spans = np.rint(np.log2(omega_hi / first)).astype(int) + 1   # dyadic pieces per member
    width = first[:, None] * _PANEL_WIDTHS[:spans.max()]
    cuts = np.maximum(np.ceil(width * (np.abs(g) / (2.0 * math.pi))[:, None]), 1.0)
    steps = width / cuts
    cuts *= np.arange(width.shape[1]) < spans[:, None]
    sizes = cuts.sum(axis=1)
    if sizes.max() > MAX_PANELS:
        over = sizes[sizes > MAX_PANELS][0]
        raise AccuracyError(f"panel budget exceeded ({int(over)} initial panels)")
    # a member's panel ends are the running sum of its panel widths: np.cumsum
    # along the rows of a block of members, each row padded at its end
    sizes, cuts = sizes.astype(int), cuts.astype(int)
    most, starts = sizes.max(), np.cumsum(sizes) - sizes
    cuts[:, -1] += most - sizes
    rows = max(1, _SUM_BLOCK // most)   # members per padded block
    hi = np.empty(sizes.sum())
    for top in range(0, sizes.size, rows):
        block = slice(top, top + rows)
        sums = np.cumsum(np.repeat(steps[block], cuts[block].ravel()).reshape(-1, most), axis=1)
        hi[starts[top]:starts[top] + sizes[block].sum()] = sums[np.arange(most) < sizes[block, None]]
    lo = np.empty_like(hi)
    lo[1:] = hi[:-1]
    lo[starts] = 0.0
    return lo, hi


def gil_pelaez_cdf(log_m, g, c, *, tol=1e-6):
    """P(G >= g) by inversion along the line Re z = c, 0 < c < s_max, and an
    error estimate (not a bound: in a far tail it can understate the error).

    `log_m(w)` maps a float ndarray of frequencies to a complex log M(c + jw)
    on any branch, such as `np.log(cf(w - 1j * c))` of a closed-form CF.  The
    panels, [0, sigma/4] and dyadic above it up to the truncation limit W
    (`_panel_ladder`), each cut to at most one period 2 pi / |g|, are bisected
    until the error estimate meets `tol`.  The tail past W is the leading
    term of its integration by parts, Re[H(W) e^{-jWg} / (jg)] with
    H(w) = M(c + jw) e^{-cg} / (pi (c + jw)), whose remainder, estimated as
    2 |H'(W)| / g^2, joins the error; near g = 0, where that fails, W lies
    where the integrand's envelope is negligible.  Raises
    :class:`AccuracyError`, not a degraded value, when the panels exceed
    `MAX_PANELS` or when no panel qualifies for a split (a nan in the
    integrand).

    A batch of K inversions takes (K,) arrays g, c and tol and returns (K,)
    arrays; `log_m(w, k)` then gets the inversions k (an (n,) int array, one
    per column of w) the frequencies w belong to.
    The truncation probes of all inversions are evaluated together, and so
    are their panels, in one loop: each step totals every open inversion's
    panels and errors (one np.add.reduceat segment each), retires the
    inversions whose error total meets tol / 2 and bisects the others'
    panels in one node pass (`_gk15`), each inversion's panels kept in the
    order kept, left halves, right halves.  A panel's node sums
    (`_gk15_sums`) and an inversion's segments depend on nothing else in
    the batch, so each result is the one its inversion gives alone.  An
    empty batch gives empty arrays.
    """
    if np.ndim(g) == 0:
        tail, err = gil_pelaez_cdf(lambda w, k: log_m(w), np.array([g], dtype=float),
                                   np.array([c], dtype=float), tol=np.array([tol], dtype=float))
        return float(tail[0]), float(err[0])
    if not g.size:
        return np.zeros(0), np.zeros(0)

    def integrand(w, k):
        log_w = log_m(w, k)
        gk, ck = g[k], c[k]
        theta = log_w.imag - w * gk
        return (np.exp(log_w.real - ck * gk) * (ck * np.cos(theta) + w * np.sin(theta))
                / (math.pi * (ck * ck + w * w)))

    first, omega_hi, past, gauge = _panel_ladder(log_m, g, c, tol)
    lo, hi = _first_panels(first, omega_hi, g)
    k = np.cumsum(lo == 0.0) - 1          # each panel's inversion
    vals, errs = _gk15(integrand, lo, hi, k)
    tail, err = np.empty((2, g.size))
    while True:   # a step bisects every open inversion's panels, each inversion's in a row
        heads = np.flatnonzero(np.diff(k, prepend=-1))
        inv, n = k[heads], np.diff(heads, append=k.size)
        tail[inv], err[inv] = np.add.reduceat(vals, heads), np.add.reduceat(errs, heads)
        unmet = ~(err[inv] <= tol[inv] / 2.0)   # a nan error too, which raises below
        if not unmet.any():
            break
        if (over := unmet & (n > MAX_PANELS)).any():
            i = over.argmax()
            raise AccuracyError(f"panel budget exceeded ({n[i]} panels, err~{err[inv[i]]:.2e})")
        cut = np.where(unmet, np.maximum(err[inv] / (4.0 * n), tol[inv] / (8.0 * n)), np.inf)
        split = errs > np.repeat(cut, n)
        if (stuck := unmet & ~np.logical_or.reduceat(split, heads)).any():
            i = stuck.argmax()
            raise AccuracyError(f"quadrature error {err[inv[i]]:.2e} above "
                                f"tolerance {tol[inv[i]]:.2e}; no panel to split")
        # an inversion's panels are its kept ones, then the left halves, then the right,
        # in any batch: so its segment sums are the ones it gives alone
        keep, mid = np.repeat(unmet, n) & ~split, 0.5 * (lo[split] + hi[split])
        halves = (np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]]),
                  np.tile(k[split], 2))
        parts = zip((lo, hi, k, vals, errs), (*halves, *_gk15(integrand, *halves)))
        order = np.argsort(np.concatenate([k[keep], halves[2]]), kind="stable")
        lo, hi, k, vals, errs = (np.concatenate([x[keep], y])[order] for x, y in parts)
    tail = np.clip(tail + past, 0.0, 1.0)
    return tail, err + gauge


def analytic_outage(config: SystemConfig, user: int) -> OutageResult:
    """Outage probability of one user via characteristic-function inversion
    (`analytic_outages`, a batch of one)."""
    return analytic_outages([config], [user])[0]


def analytic_outages(configs, users) -> list[OutageResult]:
    """The OutageResult of users[i] (1 or 2) at configs[i] for every i, in
    one pass: one saddle-point grid for all, the Chernoff shortcut decided
    per member, and one batched inversion (`gil_pelaez_cdf`) of the rest.
    A failure of any member raises."""
    if len(configs) != len(users):
        raise ValueError(f"need one user per config, got {len(users)} for {len(configs)}")
    if bad := [u for u in users if u not in (1, 2)]:
        raise ValueError(f"user must be 1 or 2, got {bad[0]}")
    if any(c.joint_outage_u2 and u != c.active_user for c, u in zip(configs, users)):
        raise NotImplementedError(
            "joint decode outage is simulation-only; unset joint_outage_u2"
        )
    v, w0, quad_tol = np.array([(rate_to_threshold(c.rate_threshold_bps_hz), dbm_to_watt(c.w0_dbm),
                                 c.quad_tol) for c in configs]).reshape(-1, 3).T
    live = np.flatnonzero(v > 0.0)       # a threshold of 0 is never missed
    op, err = np.zeros((2, len(configs)))
    if live.size:
        forms = outage_forms([configs[i] for i in live], [users[i] for i in live])
        # a form with no nonzero weight is G = 0, so P(G < g) is 1 for g > 0, and 0 for g = 0
        lost = ~forms.weight.any(axis=0)
        op[live[lost]] = w0[live[lost]] > 0.0
        live, forms = live[~lost], forms[~lost]
    if live.size:
        quad_tol = quad_tol[live]
        # G < g is scale-free: each form and its g are scaled, exactly, by the power of two
        # 2^-e, e the binary exponent of the form's largest |w| (var + mean^2) (the factor
        # at most 2^1022), so finite weights give finite moments.
        # Normalized, the tail on the threshold's side of the mean is the upper tail of G
        # or of -G; far out (g_side = +inf past a double) a proven bound pins it to 0 as its error
        with np.errstate(over="ignore"):
            g = w0[live] * v[live]
            size = np.max(np.abs(forms.weight) * (forms.var + forms.mean**2), axis=0, initial=0.0)
            factor = np.ldexp(1.0, -np.frexp(size)[1].clip(-1022))
            forms, g = forms.scaled(factor), g * factor
            mean, var = forms.moments()
            if not np.isfinite([mean, var]).all():
                raise AccuracyError("an outage form's weight overflows a double; "
                                    "the powers or the rate are too large for the analytic route")
            upper = g > mean
            sign, scale = np.where(upper, 1.0, -1.0), np.sqrt(var)
            side, g_side = forms.scaled(sign / scale), sign * g / scale
        bound, c, log_mc = saddle_point(side, g_side)
        tail, tail_err = np.zeros(live.size), bound.copy()
        inv = ~(bound <= 1e-3 * quad_tol)
        if inv.any():
            tilted, log_mc = side[inv].tilted(c[inv]), log_mc[inv]
            tail[inv], tail_err[inv] = gil_pelaez_cdf(
                lambda w, k: log_mc[k] + log_cf(tilted[k], w), g_side[inv], c[inv],
                tol=np.minimum(quad_tol, 1e-4 * bound)[inv])
        op[live] = np.where(upper, 1.0 - tail, tail)
        # 1 - tail is rounded to a double: err is no less than that rounding
        err[live] = np.maximum(tail_err, np.spacing(op[live]), out=tail_err,
                               where=upper & (tail > 0.0))
    return [OutageResult(op=p, trials=0, std_err=e, method="analytic", user=u)
            for p, e, u in zip(op.tolist(), err.tolist(), users)]
