"""Correctness checks of workload outputs against separate computations.

Each check returns a list of failure messages; an empty list is a pass.
The reference computations here (UMi path loss, Rayleigh draws, phase
alignment, SINRs, the 1-D outage integral) are written from the paper's
model and share no code with risnoma.

MC is compared with the analytic route within 5 standard errors, not 3:
at 3 SE a correct program fails 0.27 % of comparisons, and a benchmark
evaluation makes a dozen or more per run over dozens of fresh seeds.  At
5 SE the false-alarm rate is 5.7e-7 per comparison.  The reference
sampler is compared within 4 SE (6.3e-5 per comparison, two per run).
"""

import math

import numpy as np
from scipy import integrate, special

Z_MC_ANALYTIC = 5.0    # standard errors allowed, MC vs the analytic route
Z_REFERENCE = 4.0      # standard errors allowed, MC vs the reference sampler
CLT_ALLOWANCE = 0.01   # absolute MC-vs-analytic allowance for the CLT bias
MODERATE_OP = (0.01, 0.99)
OPT_SLACK_REL = 0.05   # the optimizer's documented near-optimality slack
OPT_SLACK_ABS = 1e-9
DEFAULT_OPT_DBM = (-49.0, -45.0)
DEFAULT_OPT_ALPHA = (6.0, 11.0)
GAIN_MIN, GAIN_MAX = 1.0, 1000.0   # the amplifier's 0-30 dB range
GAIN_REL_TOL = 1e-8                # the CSV prints ten significant digits


# ---------------------------------------------------------------------------
# independent physics


def dbm_w(p_dbm):
    return 1e-3 * 10.0 ** (p_dbm / 10.0)


def umi_variance(d_m, fc_ghz):
    """1 / L for the UMi NLOS model L[dB] = 36.7 log10 d + 22.7 + 26 log10 fc."""
    return 10.0 ** (-(36.7 * math.log10(d_m) + 22.7 + 26.0 * math.log10(fc_ghz)) / 10.0)


def _rayleigh(rng, var, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(var / 2.0)


def reference_outage_counts(scn, m, n, alpha, trials, seed, chunk=1000):
    """Outage counts of both users from a from-scratch simulation.

    Draws all six Rayleigh vectors per trial, aligns the active part to
    user 1's cascaded channel and the passive part to user 2's, forms the
    received coefficients and thresholds both SINRs (user 2 after SIC).
    """
    rng = np.random.default_rng(seed)
    s_u1 = umi_variance(scn["d_u1_ris_m"], scn["fc_ghz"])
    s_u2 = umi_variance(scn["d_u2_ris_m"], scn["fc_ghz"])
    s_bs = umi_variance(scn["d_ris_bs_m"], scn["fc_ghz"])
    pt, w0 = dbm_w(scn["pt_user_dbm"]), dbm_w(scn["w0_dbm"])
    sz2 = dbm_w(scn["namp_dbm"])
    eps = scn["epsilon_sic"]
    v = 2.0 ** scn["rate_threshold_bps_hz"] - 1.0
    out1 = out2 = 0
    done = 0
    while done < trials:
        k = min(chunk, trials - done)
        h1, h2, hb = (_rayleigh(rng, s, (k, m)) for s in (s_u1, s_u2, s_bs))
        g1, g2, gb = (_rayleigh(rng, s, (k, n)) for s in (s_u1, s_u2, s_bs))
        theta = np.exp(-1j * np.angle(h1 * hb))
        beta = np.exp(-1j * np.angle(g2 * gb))
        y1 = math.sqrt(alpha) * np.sum(h1 * theta * hb, 1) + np.sum(g1 * beta * gb, 1)
        y2 = math.sqrt(alpha) * np.sum(h2 * theta * hb, 1) + np.sum(g2 * beta * gb, 1)
        amp_noise = sz2 * alpha * np.sum(np.abs(theta * hb) ** 2, 1)
        p1, p2 = pt * np.abs(y1) ** 2, pt * np.abs(y2) ** 2
        out1 += int(np.sum(p1 / (p2 + amp_noise + w0) < v))
        out2 += int(np.sum(p2 / (eps * p1 + amp_noise + w0) < v))
        done += k
    return out1, out2


def quad_outage_u2(scn, m, n, alpha):
    """User 2's outage with eps = 0 and no amplifier noise, by 1-D quadrature.

    Under the Gaussian approximation c + d has a noncentral real axis
    X ~ N(mu_d, var_d + var_c / 2) and a central imaginary axis
    Y ~ N(0, var_c / 2); outage is X^2 + Y^2 < r^2 with r^2 = W0 v / Pt.
    Returns (probability, quadrature error estimate).
    """
    s_u2 = umi_variance(scn["d_u2_ris_m"], scn["fc_ghz"])
    s_bs = umi_variance(scn["d_ris_bs_m"], scn["fc_ghz"])
    var_c = alpha * m * s_u2 * s_bs
    mu_d = n * (math.pi / 4.0) * math.sqrt(s_u2 * s_bs)
    var_d = n * s_u2 * s_bs * (1.0 - math.pi ** 2 / 16.0)
    sx = math.sqrt(var_d + var_c / 2.0)
    sy = math.sqrt(var_c / 2.0)
    v = 2.0 ** scn["rate_threshold_bps_hz"] - 1.0
    r = math.sqrt(dbm_w(scn["w0_dbm"]) * v / dbm_w(scn["pt_user_dbm"]))

    def integrand(y):
        s = math.sqrt(max(r * r - y * y, 0.0))
        band = special.ndtr((s - mu_d) / sx) - special.ndtr((-s - mu_d) / sx)
        return band * math.exp(-0.5 * (y / sy) ** 2) / (sy * math.sqrt(2.0 * math.pi))

    p, err = integrate.quad(integrand, -r, r, epsabs=1e-14, epsrel=1e-10, limit=200)
    return p, err


def optimum_budget_dbm(scn, m, alpha):
    """RIS budget implying an uncapped gain alpha: P = alpha * M * Pt * sigma_u1^2."""
    s_u1 = umi_variance(scn["d_u1_ris_m"], scn["fc_ghz"])
    p_w = alpha * m * dbm_w(scn["pt_user_dbm"]) * s_u1
    return 10.0 * math.log10(p_w * 1e3)


def gain_from_budget(scn, m, p_dbm):
    """Power gain a budget buys user 1's amplified hop, clamped to 0-30 dB."""
    s_u1 = umi_variance(scn["d_u1_ris_m"], scn["fc_ghz"])
    alpha = dbm_w(p_dbm) / (m * dbm_w(scn["pt_user_dbm"]) * s_u1)
    return min(max(alpha, GAIN_MIN), GAIN_MAX)


# ---------------------------------------------------------------------------
# checks


def check_reference(label, k_prog, n_prog, k_ref, n_ref, z=Z_REFERENCE):
    """Two-proportion z-test: program MC against the reference sampler."""
    p1, p2 = k_prog / n_prog, k_ref / n_ref
    pooled = (k_prog + k_ref) / (n_prog + n_ref)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_prog + 1.0 / n_ref))
    if abs(p1 - p2) > z * se:
        return [f"{label}: program MC {p1:.5g} vs reference {p2:.5g} "
                f"differ by more than {z:g} SE ({se:.3g})"]
    return []


def check_mc_vs_analytic(label, op_mc, trials, op_an, z=Z_MC_ANALYTIC):
    """MC within max(CLT allowance, z SE) of the analytic route at moderate OP."""
    lo, hi = MODERATE_OP
    if not lo <= op_an <= hi:
        return []
    tol = max(CLT_ALLOWANCE, z * math.sqrt(op_an * (1.0 - op_an) / trials))
    if abs(op_mc - op_an) > tol:
        return [f"{label}: MC {op_mc:.5g} vs analytic {op_an:.5g} (tol {tol:.3g})"]
    return []


def check_quad(label, p_prog, err_prog, p_quad, err_quad, quad_tol):
    """Gil-Pelaez result within its own error bound plus quad_tol of quadrature."""
    gap = abs(p_prog - p_quad)
    if not gap <= err_prog + quad_tol + err_quad:
        return [f"{label}: Gil-Pelaez {p_prog:.8g} vs quadrature {p_quad:.8g} "
                f"(gap {gap:.3g} > {err_prog + quad_tol + err_quad:.3g})"]
    return []


def check_optimum(label, mode, op1, op2, grid_pairs, fixed_pair, tau):
    """The optimizer's outcome against a 1 dB grid and the fixed default gain.

    `grid_pairs` are the analytic (OP1, OP2) on the 1 dB budget grid,
    computed apart from the optimizer; `fixed_pair` is the pair at the
    config's fixed gain.
    """
    g1 = [p[0] for p in grid_pairs]
    g2 = [p[1] for p in grid_pairs]
    if all(p >= tau for p in g2):
        expected = "fallback_user1"
    elif all(p >= tau for p in g1):
        expected = "fallback_user2"
    else:
        expected = "balanced"
    fails = []
    if mode != expected:
        fails.append(f"{label}: mode {mode}, grid implies {expected}")
    if expected == "balanced":
        value = max(op1, op2)
        best = min(max(p) for p in grid_pairs)
        fixed = max(fixed_pair)
        what = "max outage"
    else:
        user = 0 if expected == "fallback_user1" else 1
        value = (op1, op2)[user]
        best = min(p[user] for p in grid_pairs)
        fixed = fixed_pair[user]
        what = f"user {user + 1} outage"
    slack = max(OPT_SLACK_ABS, OPT_SLACK_REL * best)
    if value > best + slack:
        fails.append(f"{label}: {what} {value:.5g} worse than 1 dB grid best "
                     f"{best:.5g} + slack {slack:.2g}")
    if value > fixed + slack:
        fails.append(f"{label}: {what} {value:.5g} worse than fixed gain {fixed:.5g}")
    return fails


def check_gain(label, got, want):
    if not math.isclose(got, want, rel_tol=GAIN_REL_TOL):
        return [f"{label}: gain {got:.10g}, budget implies {want:.10g}"]
    return []


def check_default_optimum(label, pt_ris_dbm, alpha):
    lo, hi = DEFAULT_OPT_DBM
    alo, ahi = DEFAULT_OPT_ALPHA
    if lo <= pt_ris_dbm <= hi and alo <= alpha <= ahi:
        return []
    return [f"{label}: default optimum at {pt_ris_dbm:.3f} dBm, alpha {alpha:.3f}; "
            f"expected [{lo}, {hi}] dBm and alpha in [{alo}, {ahi}]"]


def check_preset_csv(label, exit_code, columns, rows, expected_columns, expected_rows):
    """CLI preset output: exit code, exact columns, row count, no error rows."""
    fails = []
    if exit_code != 0:
        fails.append(f"{label}: exit code {exit_code}")
    if tuple(columns) != tuple(expected_columns):
        fails.append(f"{label}: columns {list(columns)}")
    if len(rows) != expected_rows:
        fails.append(f"{label}: {len(rows)} rows, expected {expected_rows}")
    mode_at = list(expected_columns).index("mode")
    errors = [r for r in rows if len(r) <= mode_at or r[mode_at].startswith("error")]
    if errors:
        fails.append(f"{label}: {len(errors)} error rows")
    return fails


def check_same(label, got, want):
    if got != want:
        return [f"{label}: {got!r} != {want!r}"]
    return []
