"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
the whole suite is also part of the default `pytest` run.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sstats

import risnoma as rn
from risnoma.analytic import saddle_point
from oracle import link_sum_moments
from test_analytic import form, ncx2_cdf_series, upper_tail

PI = np.pi


def _verdict(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def _unit64() -> rn.SystemConfig:
    return rn.validate(rn.SystemConfig(
        m_active=64, n_passive=64, alpha_mode="fixed", alpha_linear=1.0,
        sigma2_u1=1.0, sigma2_u2=1.0, sigma2_bs=1.0,
        pt_user_dbm=0.0, w0_dbm=0.0, namp_dbm=-300.0, seed=20601,
    ))


@pytest.fixture(scope="module")
def unit64_terms():
    t0 = time.perf_counter()
    terms = rn.sample_link_terms(_unit64(), 1_000_000)
    return terms, time.perf_counter() - t0


def test_c01_link_term_moments(unit64_terms):
    """Closed-form means/variances of the four link sums vs 1e6 samples."""
    terms, elapsed = unit64_terms
    checks = []

    def moments(x):
        mu = x.mean()
        return mu, float(np.mean(np.abs(x - mu) ** 2))

    for key, (mu, sigma2) in zip("abcd", link_sum_moments(_unit64())):
        mean, var = moments(terms[key])
        if mu != 0.0:
            mean_ok = abs(mean.real - mu) <= 0.01 * mu and abs(mean.imag) < 1e-9
        else:
            # zero-mean terms: 1% of the term's own standard deviation
            mean_ok = abs(mean) <= 0.01 * math.sqrt(sigma2)
        var_ok = abs(var - sigma2) <= 0.02 * sigma2
        checks.append((key, mean_ok, var_ok))
    ok = all(m and v for _, m, v in checks) and elapsed < 60.0
    _verdict(1, ok, f"moments of A,B,C,D at 1e6 realizations within 1%/2% "
                    f"(sampling took {elapsed:.0f}s < 60s)")


def test_c02_term_decorrelation(unit64_terms):
    """The shared BS hops leave the coherent and leakage sums uncorrelated."""
    terms, _ = unit64_terms

    def corr(x, y):
        xc = x - x.mean()
        yc = y - y.mean()
        num = np.mean(xc * np.conj(yc))
        return abs(num) / math.sqrt(np.mean(np.abs(xc) ** 2) * np.mean(np.abs(yc) ** 2))

    rho_ac = corr(terms["a"].astype(complex), terms["c"])
    rho_bd = corr(terms["b"], terms["d"].astype(complex))
    ok = rho_ac <= 0.005 and rho_bd <= 0.005
    _verdict(2, ok, f"|rho(A,C)|={rho_ac:.5f}, |rho(B,D)|={rho_bd:.5f} <= 0.005 at 1e6")


def test_c03_gil_pelaez_oracles():
    """CF inversion along Re z = c against closed-form CDFs, 1e-4 absolute."""
    failures = []
    cf_norm = lambda w: np.exp(-w**2 / 2.0)
    for q in (-2.0, -1.0, 0.0, 1.0, 2.0):
        p = 1.0 - upper_tail(cf_norm, q, 1.0)[0]
        if abs(p - sstats.norm.cdf(q)) > 1e-4:
            failures.append(f"normal@{q}")
    cf_exp = lambda w: 1.0 / (1.0 - 1j * w)
    for g in (0.5, 1.0, 2.0):
        p = 1.0 - upper_tail(cf_exp, g, 0.5)[0]
        if abs(p - (1.0 - math.exp(-g))) > 1e-4:
            failures.append(f"exp@{g}")
    p = 1.0 - upper_tail(lambda w: 1.0 / (1.0 - 2j * w), 2.0, 0.25)[0]
    if abs(p - (1.0 - math.exp(-1.0))) > 1e-4:
        failures.append("chi2(2)@2")
    spec = form((1.0, 1, 1.0, 1.0))
    for g in (0.5, 1.0, 3.0):
        _, c, log_mc = saddle_point(spec, g)
        tilted = spec.tilted(c)
        p = 1.0 - rn.gil_pelaez_cdf(lambda w: log_mc + rn.log_cf(tilted, w), g, c)[0]
        if abs(p - ncx2_cdf_series(g, 1, 1.0)) > 1e-4:
            failures.append(f"ncx2@{g}")
    _verdict(3, not failures,
             "normal/exponential/chi-square/noncentral CDFs within 1e-4"
             + (f"; failed: {failures}" if failures else ""))


# five configurations spanning sizes 32-128, gains 1-100, SIC residues 0/0.01,
# with noise chosen so the outage probabilities are informative
_AGREEMENT_CONFIGS = (
    ("A", dict(m_active=32, n_passive=32, alpha_linear=1.0, epsilon_sic=0.0,
               w0_dbm=53.0, namp_dbm=-300.0)),
    ("B", dict(m_active=64, n_passive=64, alpha_linear=8.5, epsilon_sic=0.0,
               w0_dbm=64.3, namp_dbm=-300.0)),
    ("C", dict(m_active=128, n_passive=128, alpha_linear=100.0, epsilon_sic=0.0,
               w0_dbm=62.0, namp_dbm=20.0)),
    ("D", dict(m_active=64, n_passive=64, alpha_linear=100.0, epsilon_sic=0.01,
               w0_dbm=60.0, namp_dbm=20.0)),
    ("E", dict(m_active=128, n_passive=128, alpha_linear=1.0, epsilon_sic=0.01,
               w0_dbm=65.0, namp_dbm=-300.0)),
)


def test_c04_analytic_vs_mc_agreement():
    """CF-inversion outage against direct simulation, 1e6 trials each."""
    t_start = time.perf_counter()
    worst = 0.0
    failures = []
    for name, overrides in _AGREEMENT_CONFIGS:
        cfg = rn.validate(rn.SystemConfig(
            alpha_mode="fixed", rate_threshold_bps_hz=2.0,
            sigma2_u1=1.0, sigma2_u2=1.0, sigma2_bs=1.0,
            pt_user_dbm=30.0, mc_trials=1_000_000, seed=424242, **overrides))
        mc1, mc2 = rn.estimate_outage_pair(cfg)
        for mc in (mc1, mc2):
            an = rn.analytic_outage(cfg, mc.user)
            diff = abs(mc.op - an.op)
            tol = max(0.01, 3.0 * mc.std_err)
            worst = max(worst, diff)
            if diff > tol:
                failures.append(f"{name}/u{mc.user}: |{mc.op:.4f}-{an.op:.4f}|={diff:.4f}>{tol:.4f}")
    elapsed = time.perf_counter() - t_start
    ok = not failures and elapsed < 600.0
    _verdict(4, ok, f"5 configs x 2 users within max(0.01, 3 SE); worst diff "
                    f"{worst:.4f}; took {elapsed:.0f}s < 600s"
                    + (f"; failed: {failures}" if failures else ""))


def test_c05_optimizer_anchor():
    """Budget optimizer lands at the balanced point of the default setup."""
    out = rn.optimize(rn.validate(rn.SystemConfig()))
    ok = (-49.0 <= out.pt_ris_dbm <= -45.0) and (6.0 <= out.alpha <= 11.0)
    _verdict(5, ok, f"optimum at {out.pt_ris_dbm:.2f} dBm (target -47 +- 2), "
                    f"alpha={out.alpha:.2f} (target [6, 11]), mode={out.mode}")


def test_c06_min_ris_size():
    """Fixed-gain size sweep: smallest size serving user 2, and monotonicity."""
    base = rn.validate(rn.SystemConfig())  # fixed alpha 8.5
    sizes = list(range(200, 401, 20))
    ops = []
    for size in sizes:
        cfg = rn.validate(replace(base, m_active=size, n_passive=size))
        ops.append(rn.analytic_outage(cfg, 2).op)
    smallest = next((s for s, o in zip(sizes, ops) if o < 0.5), None)
    in_band = smallest is not None and 240 <= smallest <= 360
    # monotone non-increasing beyond the crossing, out to large sizes
    tail_sizes = list(range(smallest, 641, 40)) if smallest else []
    tail = []
    for size in tail_sizes:
        cfg = rn.validate(replace(base, m_active=size, n_passive=size))
        res = rn.analytic_outage(cfg, 2)
        tail.append((res.op, res.std_err))
    mono = all(b[0] <= a[0] + a[1] + b[1] + 1e-9
               for a, b in zip(tail, tail[1:]))
    _verdict(6, in_band and mono,
             f"smallest size with OP2<0.5 is {smallest} (target [240, 360]); "
             f"monotone beyond: {mono}")


def test_c07_orderings():
    """Transmit-power and SIC-residual orderings, optimized vs fixed gain."""
    base = rn.validate(rn.SystemConfig())
    problems = []

    # outage non-increasing in user transmit power, both users, M=N=512
    results = []
    for pt in range(0, 24, 2):
        cfg = replace(base, pt_user_dbm=float(pt))
        results.append((rn.analytic_outage(cfg, 1), rn.analytic_outage(cfg, 2)))
    for u in (0, 1):
        for prev, cur in zip(results, results[1:]):
            slack = prev[u].std_err + cur[u].std_err + 1e-9
            if cur[u].op > prev[u].op + slack:
                problems.append(f"P_t ordering u{u+1}")
                break

    # user-2 outage non-decreasing in the SIC residual
    eps_ops = []
    for eps in (0.0, 1e-3, 1e-2, 0.1):
        eps_ops.append(rn.analytic_outage(replace(base, epsilon_sic=eps), 2))
    for prev, cur in zip(eps_ops, eps_ops[1:]):
        if cur.op < prev.op - (prev.std_err + cur.std_err + 1e-9):
            problems.append("eps ordering")
            break

    # optimized gain never worse than the fixed default for the worst user
    for pt in (6.0, 9.0, 12.0, 15.0):
        cfg = replace(base, pt_user_dbm=pt)
        fixed_delta = max(rn.analytic_outage(cfg, 1).op,
                          rn.analytic_outage(cfg, 2).op)
        opt = rn.optimize(cfg)
        if opt.delta > fixed_delta + 1e-4:
            problems.append(f"optimized>fixed at P_t={pt}")
    _verdict(7, not problems, "P_t and eps orderings plus optimized<=fixed hold"
             + (f"; failed: {problems}" if problems else ""))


def test_c08_path_loss_values():
    """Loss model against direct high-precision evaluation, 1e-3 dB."""
    oracle = {20.22: 88.79538836379434, 35.51: 97.77108978620578,
              55.73: 104.95468799289904}
    worst = max(abs(rn.path_loss_db(d, 5.0) - v) for d, v in oracle.items())
    _verdict(8, worst <= 1e-3,
             f"losses at 20.22/35.51/55.73 m, 5 GHz within 1e-3 dB "
             f"(worst {worst:.2e})")


def test_c09_gamma_fit():
    """First user's SINR is Gamma-like at the default operating point."""
    samples = rn.sample_sinr(rn.validate(rn.SystemConfig()), 1, 100_000)
    fit = rn.fit_gamma(samples)
    _verdict(9, fit.ks_stat < 0.05,
             f"moment-matched Gamma fit of 1e5 SINR samples: KS={fit.ks_stat:.4f} < 0.05 "
             f"(k={fit.shape:.1f}, theta={fit.scale:.3f})")


def test_c10_preset_determinism(tmp_path):
    """Identical seed, different worker counts: identical CSV bodies.

    Wall-time (the ms column) and the commented timestamp line are the
    only volatile fields and are excluded from the comparison.
    """
    base = rn.validate(rn.SystemConfig(mc_trials=1500))
    dir1, dir2 = tmp_path / "w1", tmp_path / "w2"
    res1 = rn.run_preset("fig3", base, dir1, workers=1)
    res2 = rn.run_preset("fig3", base, dir2, workers=2)
    sigs1 = [rn.determinism_signature(p) for p, _, _ in res1]
    sigs2 = [rn.determinism_signature(p) for p, _, _ in res2]
    _verdict(10, sigs1 == sigs2 and len(sigs1) > 0,
             f"fig3 preset run twice (1 vs 2 workers): CSV bodies identical "
             f"({len(sigs1)} file(s))")
