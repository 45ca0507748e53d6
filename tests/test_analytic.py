import ast
import cmath
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sstats

import risnoma as rn
from risnoma.analytic import QuadForm, _panel_ladder, outage_forms, saddle_point
from risnoma.optimizer import at_budget
from conftest import mc_outage, unit_config
from oracle import link_sum_moments

PI = np.pi


def forms_of(batch):
    """The batch of forms, each a sequence of (weight, dof, var, mean)
    components, padded with zero-weight ones to (C, K) arrays."""
    size = max(len(f) for f in batch)
    pad = ((0.0, 0, 0.0, 0.0),)
    rows = np.array([c for f in batch for c in (*f, *pad * (size - len(f)))], dtype=float)
    weight, dof, var, mean = rows.reshape(len(batch), size, 4).T
    return QuadForm(weight, dof, var, mean, tuple((mean == 0.0).all(axis=1).tolist()))


def form(*components):
    """One quadratic form of (weight, dof, var, mean) components, as a batch
    of one."""
    return forms_of([components])


def moments(forms):
    """The mean and variance of a batch of one form, as numbers."""
    return forms[0].moments()


def log_of(cf):
    """np.log of a closed-form CF on any branch.

    The cast to complex keeps a real CF that turns negative, such as
    sin(w)/w, on a complex branch instead of giving nan.
    """
    def log_psi(w):
        with np.errstate(divide="ignore"):     # log(0) = -inf where cf underflows
            return np.log(np.asarray(cf(w), dtype=complex))
    return log_psi


def upper_tail(cf, g, c, **kwargs):
    """P(G >= g) of a closed-form CF by inversion along Re z = c.

    cf(w - jc) = E e^{(c + jw) G} = M(c + jw), the log of which is what
    gil_pelaez_cdf takes.
    """
    return rn.gil_pelaez_cdf(log_of(lambda w: cf(w - 1j * c)), g, c, **kwargs)


def real_axis_cdf(cfg, user):
    """Independent reference for analytic_outage: the real-axis Gil-Pelaez
    integral F(g) = 1/2 - (1/pi) int_0^inf Im[psi(w) e^{-jwg}] / w dw of the
    normalized form, by scipy quad on [0, a] and QAWF (quad's Fourier-integral
    mode, weight cos / sin) on [a, inf), a the first power of two with
    |psi(a)| <= 1e-2.  Returns the CDF and quad's summed error estimate."""
    norm, g = _normalized(cfg, user)
    psi = lambda w: np.exp(rn.log_cf(norm[0], w))
    a = 1.0
    while abs(psi(a)) > 1e-2:
        a *= 2.0
    near = integrate.quad(lambda w: (np.exp(-1j * w * g) * psi(w)).imag / w, 0.0, a,
                          epsabs=1e-15, epsrel=1e-13, limit=1000)
    far = [integrate.quad(f, a, np.inf, weight=weight, wvar=g, epsabs=1e-15,
                          limlst=400, limit=1000)
           for f, weight in ((lambda w: psi(w).imag / w, "cos"),
                             (lambda w: -psi(w).real / w, "sin"))]
    total = near[0] + far[0][0] + far[1][0]
    return 0.5 - total / math.pi, (near[1] + far[0][1] + far[1][1]) / math.pi


def cf_of(spec):
    """The CF itself, through the log-CF."""
    return lambda w: np.exp(rn.log_cf(spec, w))


def ncx2_cdf_series(x: float, dof: int, lam: float, terms: int = 200) -> float:
    """Poisson-weighted central chi-square mixture; independent oracle."""
    total = 0.0
    log_w = -lam / 2.0
    for j in range(terms):
        w = math.exp(log_w + j * math.log(lam / 2.0) - math.lgamma(j + 1)) if j else math.exp(log_w)
        total += w * sstats.chi2.cdf(x, dof + 2 * j)
        if j > 10 and w < 1e-16:
            break
    return total


class TestTermStats:
    """The closed-form link-sum moments that the outage forms are built from."""

    def test_stats_a_unit(self):
        # one unit-variance element per partition
        sa, _, _, sd = link_sum_moments(unit_config(m_active=1, n_passive=1))
        assert sa == pytest.approx((PI / 4, 1 - PI**2 / 16), rel=1e-12)
        assert sd == pytest.approx((PI / 4, 1 - PI**2 / 16), rel=1e-12)

    def test_stats_a_alpha_scaling(self):
        # the gain scales the active part's sums (a, c), not the passive part's
        kw = dict(m_active=37, n_passive=29, sigma2_u1=0.49, sigma2_u2=1.21,
                  sigma2_bs=1.69)
        base = link_sum_moments(unit_config(alpha_linear=1.0, **kw))
        quad = link_sum_moments(unit_config(alpha_linear=4.0, **kw))
        assert quad[0][0] == pytest.approx(2 * base[0][0], rel=1e-12)
        assert quad[0][1] == pytest.approx(4 * base[0][1], rel=1e-12)
        assert quad[2][1] == pytest.approx(4 * base[2][1], rel=1e-12)
        assert quad[1] == base[1] and quad[3] == base[3]

    def test_stats_a_m100(self):
        mu_a, _ = link_sum_moments(unit_config(m_active=100))[0]
        assert mu_a == pytest.approx(25 * PI, rel=1e-12)

    def test_stats_b_c_d(self):
        _, b, c, _ = link_sum_moments(unit_config(m_active=1, n_passive=1))
        assert b == (0.0, 1.0)
        assert c == (0.0, 1.0)
        mu_d, _ = link_sum_moments(unit_config(n_passive=4))[3]
        assert mu_d == pytest.approx(PI, rel=1e-12)

    def test_moments_against_simulation(self):
        # the Gaussian surrogate must carry the empirical mean and variance
        cfg = unit_config(m_active=64, n_passive=64, alpha_linear=2.0)
        (mu_a, var_a), (_, var_b), (_, var_c), (mu_d, _) = link_sum_moments(cfg)
        terms = rn.sample_link_terms(cfg, 40_000)
        assert np.mean(terms["a"]) == pytest.approx(mu_a, rel=0.01)
        assert np.var(terms["a"]) == pytest.approx(var_a, rel=0.05)
        assert np.mean(np.abs(terms["b"] - terms["b"].mean())**2) == pytest.approx(var_b, rel=0.05)
        assert np.mean(np.abs(terms["c"] - terms["c"].mean())**2) == pytest.approx(var_c, rel=0.05)
        assert np.mean(terms["d"]) == pytest.approx(mu_d, rel=0.01)

    def test_role_swap(self):
        cfg1 = unit_config(sigma2_u1=2.0, sigma2_u2=0.5, active_user=1)
        cfg2 = unit_config(sigma2_u1=2.0, sigma2_u2=0.5, active_user=2)
        mu_a1, _ = link_sum_moments(cfg1)[0]
        mu_a2, _ = link_sum_moments(cfg2)[0]
        # a's mean is M (pi/4) sigma_h sigma_bs with the active user's sigma_h
        assert mu_a1 == pytest.approx(64 * PI / 4 * np.sqrt(2.0))
        assert mu_a2 == pytest.approx(64 * PI / 4 * np.sqrt(0.5))


class TestQuadForm:
    def _spec(self, cfg, user):
        # one user's outage form, its fields (C,) arrays
        return outage_forms([cfg], [user])[0]

    def test_user_other_than_1_or_2_rejected(self):
        with pytest.raises(ValueError, match="user must be 1 or 2"):
            rn.analytic_outage(unit_config(), 3)

    def test_active_user_structure_at_defaults(self):
        cfg = rn.validate(rn.SystemConfig())
        spec = self._spec(cfg, 1)
        assert sorted(spec.dof.tolist()) == [1, 1, 1, 1, 2 * 512]
        # exactly the threshold-scaled terms are negative
        assert (spec.weight < 0).sum() == 3

    def test_passive_user_zero_threshold(self):
        cfg = unit_config(rate_threshold_bps_hz=0.0)
        spec = self._spec(cfg, 2)
        assert (spec.weight > 0).all()

    def test_epsilon_adds_components(self):
        cfg0 = unit_config(epsilon_sic=0.0)
        cfg1 = unit_config(epsilon_sic=0.01)
        assert self._spec(cfg1, 2).weight.size == self._spec(cfg0, 2).weight.size + 2

    def test_variance_bookkeeping(self):
        # the two quadrature components recompose each complex term's variance
        cfg = unit_config(alpha_linear=3.0)
        (_, var_a), (_, var_b), _, _ = link_sum_moments(cfg)
        spec = self._spec(cfg, 1)
        assert spec.var[spec.weight > 0].sum() == pytest.approx(var_a + var_b, rel=1e-12)

    def test_moment_formulas_against_sampling(self, rng):
        mean, var = moments(form((0.8, 1, 1.3, 2.0), (-0.5, 4, 0.6, 0.0)))
        draws = (0.8 * (rng.normal(2.0, np.sqrt(1.3), 200_000) ** 2)
                 - 0.5 * np.sum(rng.normal(0, np.sqrt(0.6), (200_000, 4)) ** 2, axis=1))
        assert draws.mean() == pytest.approx(mean, rel=0.01)
        assert draws.var() == pytest.approx(var, rel=0.02)


class TestCfEval:
    def test_normalized_at_zero(self):
        cfg = rn.validate(rn.SystemConfig())
        spec = outage_forms([cfg], [1])
        assert np.exp(rn.log_cf(spec[0], 0.0)) == pytest.approx(1.0 + 0j)

    def test_unit_exponential(self):
        # one central 2-dof component with per-component variance 1/2
        spec = form((1.0, 2, 0.5, 0.0))
        assert np.exp(rn.log_cf(spec[0], 1.0)) == pytest.approx(0.5 + 0.5j, rel=1e-12)

    def test_conjugate_symmetry_and_bound(self, rng):
        for _ in range(10):
            spec = form(*((rng.normal(), int(rng.integers(1, 6)), rng.uniform(0.1, 2.0),
                           rng.normal()) for _ in range(4)))
            w = rng.uniform(-50, 50, 64)
            psi = cf_of(spec)(w)
            psi_neg = cf_of(spec)(-w)
            assert np.allclose(psi_neg, np.conj(psi), rtol=1e-12)
            assert np.all(np.abs(psi) <= 1.0 + 1e-12)

    def test_matches_noncentral_chisq_cf(self):
        # weight 1, dof 1, unit variance, mean 1 vs the textbook form
        spec = form((1.0, 1, 1.0, 1.0))
        w = np.linspace(-5, 5, 11)
        denom = 1 - 2j * w
        expected = denom**-0.5 * np.exp(1j * w / denom)
        assert np.allclose(cf_of(spec)(w), expected, rtol=1e-12)

    def test_matches_complex_log_form(self):
        # the textbook log-CF summed in complex arithmetic, per component:
        # -(k/2) log(1 - 2j u s^2) + j u k m^2 / (1 - 2j u s^2), u = weight w
        components = ((1.0, 1, 0.7, 1.3), (-0.6, 1, 0.4, -0.9), (-0.25, 6, 0.5, 0.0),
                      (0.4, 2, 1.1, 0.5))   # (weight, dof, var, mean)
        spec = form(*components)
        mag = np.logspace(-8, 6, 500)
        w = np.concatenate([-mag[::-1], mag])
        log_psi = np.zeros(w.shape, dtype=complex)
        for weight, dof, var, mean in components:
            u = weight * w
            denom = 1.0 - 2.0j * u * var
            log_psi += -(dof / 2.0) * np.log(denom) + 1.0j * u * dof * mean**2 / denom
        expected = np.exp(log_psi)
        psi = cf_of(spec)(w)
        assert np.all(np.abs(psi - expected) <= 1e-13 * np.abs(expected))
        assert isinstance(rn.log_cf(spec[0], 2.5), complex)

    def test_polar_integrand_matches_complex_form(self, rng):
        # on the line Re z = c, exp(log M(c) + log_cf(tilted spec)) is M(c + jw),
        # and the real-arithmetic integrand A (c cos t + w sin t) / (c^2 + w^2)
        # with t = Im L - w g is Re[M(z) e^{-z g} / z], the textbook form
        for _ in range(10):
            components = tuple((rng.normal(), int(rng.integers(1, 6)), rng.uniform(0.1, 2.0),
                                rng.normal()) for _ in range(4))
            spec = form(*components)
            mean, var = moments(spec)
            g = mean + rng.uniform(0.5, 3.0) * math.sqrt(var)
            _, c, log_mc = saddle_point(spec, g)
            w = np.logspace(-6, 3, 400)
            log_m = log_mc + rn.log_cf(spec.tilted(c), w)
            theta = log_m.imag - w * g
            polar = (np.exp(log_m.real - c * g) * (c * np.cos(theta) + w * np.sin(theta))
                     / (c * c + w * w))
            z = c + 1j * w
            log_mz = sum(-(dof / 2.0) * np.log(1.0 - 2.0 * z * weight * var)
                         + dof * mean**2 * weight * z / (1.0 - 2.0 * z * weight * var)
                         for weight, dof, var, mean in components)
            expected = np.real(np.exp(log_mz - z * g) / z)
            assert np.allclose(polar, expected, rtol=1e-9, atol=1e-14)


class TestGilPelaez:
    def test_standard_normal_quantiles(self):
        cf = lambda w: np.exp(-w**2 / 2.0)
        for q in (-2.0, -1.0, 0.0, 1.0, 2.0):
            p_up, err = upper_tail(cf, q, 1.0)
            assert 1.0 - p_up == pytest.approx(sstats.norm.cdf(q), abs=1e-4)

    def test_unit_exponential(self):
        cf = lambda w: 1.0 / (1.0 - 1j * w)
        for g in (0.5, 1.0, 2.0):
            p_up, err = upper_tail(cf, g, 0.5)
            assert 1.0 - p_up == pytest.approx(1.0 - np.exp(-g), abs=1e-4)

    def test_central_chi2_2dof(self):
        cf = lambda w: 1.0 / (1.0 - 2j * w)
        p_up, err = upper_tail(cf, 2.0, 0.25)
        assert 1.0 - p_up == pytest.approx(1.0 - np.exp(-1.0), abs=1e-4)

    @pytest.mark.parametrize("g", [40.0, 60.0])
    def test_central_chi2_2dof_far_upper_tail(self, g):
        # P(chi2_2 >= g) = e^{-g/2}: 2e-9 and 9e-14, with relative accuracy
        # at a tolerance tied to the Chernoff bound, as analytic_outage sets it
        bound, c, _ = saddle_point(form((1.0, 2, 1.0, 0.0)), g)
        p_up, err = upper_tail(lambda w: 1.0 / (1.0 - 2j * w), g, c, tol=1e-4 * bound)
        assert p_up == pytest.approx(math.exp(-g / 2.0), rel=0.02)

    def test_any_line_inside_the_strip_gives_the_same_tail(self):
        # the contour may cross the real axis anywhere in 0 < c < 1/2
        cf = lambda w: 1.0 / (1.0 - 2j * w)
        for c in (0.05, 0.2, 0.4, 0.49):
            p_up, err = upper_tail(cf, 3.0, c, tol=1e-9)
            assert p_up == pytest.approx(math.exp(-1.5), abs=1e-8)

    def test_noncentral_chi2_series_oracle(self):
        spec = form((1.0, 1, 1.0, 1.0))
        for g in (0.5, 1.0, 3.0):
            expected = ncx2_cdf_series(g, 1, 1.0)
            # oracle sanity: the series must agree with scipy's ncx2
            assert expected == pytest.approx(sstats.ncx2.cdf(g, 1, 1.0), abs=1e-10)
            _, c, log_mc = saddle_point(spec, g)
            tilted = spec.tilted(c)
            p_up, err = rn.gil_pelaez_cdf(lambda w: log_mc + rn.log_cf(tilted, w), g, c)
            assert 1.0 - p_up == pytest.approx(expected, abs=1e-4)

    def test_monotone_in_g(self):
        cf = lambda w: np.exp(-w**2 / 2.0)
        ps = [1.0 - upper_tail(cf, g, 1.0)[0] for g in np.linspace(-3, 3, 13)]
        assert all(a <= b + 1e-9 for a, b in zip(ps, ps[1:]))

    def test_truncation_limit_matches_doubling_search(self):
        # the first panel edge, the limit and the tail past it are the ones
        # a search over the ladder c 2^k, one frequency at a time from
        # k = -40, would find: the limit is the first frequency past the edge
        # where the by-parts remainder 2 |H'| / g^2 or the envelope estimate
        # is below tol / 8, H(w) = M(c + jw) e^{-cg} / (pi (c + jw))
        step = 2.0**-12

        def one_at_a_time(log_m, g, c, tol=1e-6):
            log_at = lambda w: complex(log_m(np.array([w]))[0])
            first = None
            for k in range(-40, 200):
                w = c * 2.0**k
                if first is None:
                    drop = log_at(0.0).real - log_at(w).real + 0.5 * math.log1p((w / c) ** 2)
                    if drop >= 1 / 32:
                        first = w
                    continue
                z = c + 1j * w
                h = cmath.exp(log_at(w) - c * g) / (PI * z)
                d = log_at(w * (1.0 + step)) - log_at(w * (1.0 - step))
                d = complex(d.real, math.remainder(d.imag, 2.0 * PI))
                remainder = (2.0 * abs(h * (d / (2.0 * step * w) - 1j / z)) / g**2
                             if g else math.inf)
                amp = abs(h * z) * PI
                envelope = min(amp, 2.0 * amp / (max(abs(g), 1e-3) * w)) / PI
                if min(remainder, envelope) < tol / 8.0:
                    if remainder < envelope:
                        return first, w, (h * cmath.exp(-1j * w * g) / (1j * g)).real, remainder
                    return first, w, 0.0, envelope
            raise AssertionError("no limit below c 2^200")

        def ladder(log_m, g, c, tol):
            # _panel_ladder on a batch of one inversion
            out = _panel_ladder(lambda w, k: log_m(w), *(np.array([x]) for x in (g, c, tol)))
            return tuple(float(x[0]) for x in out)

        spans, by_parts = set(), 0
        cases = ladder_cases()
        for log_m, g, c in cases:
            first, limit, past, gauge = one_at_a_time(log_m, g, c)
            spans.add(round(math.log2(limit / first)))
            by_parts += past != 0.0
            found = ladder(log_m, g, c, 1e-6)
            assert found[:2] == (first, limit)
            assert found[2:] == pytest.approx((past, gauge), rel=1e-9, abs=1e-300)
        # short and long ladders, and both tail estimates, are covered
        assert min(spans) <= 4 and max(spans) >= 14
        assert 0 < by_parts < len(cases)
        # an undamped CF (a point mass at 0.3) at g = 0, where no tail comes
        # by parts, runs on the envelope estimate at a tight tolerance to
        # 2^43, past the first chunk of probed frequencies
        point_mass = lambda w: 0.3 * (1.0 + 1j * w)
        assert one_at_a_time(point_mass, 0.0, 1.0, tol=1e-9)[1] == 2.0**43
        assert ladder(point_mass, 0.0, 1.0, 1e-9)[1] == 2.0**43

    def test_banded_ladder_is_the_full_ladder_bit_for_bit(self):
        # probed from c 2^-12, and from c 2^-40 only where the drop reaches
        # 1/32 already at c 2^-12, the search finds what the whole ladder,
        # 80 frequencies a call from c 2^-40, finds; the last two cases
        # have their edge below the band
        huge = 2.0**30    # a Gaussian of variance 2^30 at c = 1: sigma ~ 2^-15
        cases = ladder_cases() + [
            at_saddle(form((1.0, 1, 1.0, 0.0)), 5000.0),
            (lambda w: huge * (1.0 + 1j * w) ** 2 / 2.0 + huge / 2.0, huge, 1.0)]
        for i, (log_m, g, c) in enumerate(cases):
            args = (lambda w, k: log_m(w), *(np.array([x]) for x in (g, c, 1e-6)))
            banded = _panel_ladder(*args)
            assert [x.tobytes() for x in banded] == [x.tobytes() for x in full_ladder(*args)]
            assert (banded[0][0] < c * 2.0**-12) == (i >= len(cases) - 2)
        # members that need the whole ladder and members that do not share a batch
        specs = forms_of([[(1.0, 1, 1.0, 0.0)], [(1.0, 1, 1.0, 0.0)],
                          [(0.5, 3, 1.0, 1.0), (-0.2, 2, 1.0, 0.0)]])
        g = np.array([5000.0, 3.0, 4.0])
        _, c, log_mc = saddle_point(specs, g)
        tilted = specs.tilted(c)
        args = (lambda w, k: log_mc[k] + rn.log_cf(tilted[k], w), g, c, np.full(3, 1e-6))
        banded = _panel_ladder(*args)
        assert [x.tobytes() for x in banded] == [x.tobytes() for x in full_ladder(*args)]
        assert (banded[0] < c * 2.0**-12).tolist() == [True, False, False]

    def test_accuracy_error_is_loud(self, monkeypatch):
        monkeypatch.setattr(rn.analytic, "MAX_PANELS", 2)
        with pytest.raises(rn.AccuracyError, match="panel budget"):
            upper_tail(lambda w: 1.0 / (1.0 - 1j * w), 1.0, 0.5)

    def test_nan_below_the_truncation_probes_is_loud(self):
        # a log-CF that is nan only below w = 1 gives the panel-edge search
        # no envelope drop to find, while the truncation probes above 1 pass;
        # the low panels' nan error must raise, not return a nan
        exact = log_of(lambda w: 1.0 / (1.0 - 1j * (w - 0.5j)))
        partly_nan = lambda w: np.where(w < 1.0, np.nan, exact(w))
        with pytest.raises(rn.AccuracyError, match="no panel"):
            rn.gil_pelaez_cdf(partly_nan, 1.0, 0.5)


class TestAnalyticOutage:
    def test_default_config_values_pinned(self):
        # OP1 and OP2 of the default point as the saddle-line inversion gives
        # them; scipy QAWF on the real axis (real_axis_cdf) gives
        # 9.94076790e-07 and 2.29667390e-05, inside each value's err
        # (1.0e-11 and 3.4e-10)
        cfg = rn.validate(rn.SystemConfig())
        assert rn.analytic_outage(cfg, 1).op == pytest.approx(9.940765219490504e-07, rel=1e-12)
        assert rn.analytic_outage(cfg, 2).op == pytest.approx(2.2966628538981072e-05, rel=1e-12)

    @pytest.mark.parametrize("user", [1, 2])
    def test_default_point_within_err_of_real_axis_reference(self, user):
        cfg = rn.validate(rn.SystemConfig())
        ref, ref_err = real_axis_cdf(cfg, user)
        res = rn.analytic_outage(cfg, user)
        assert abs(res.op - ref) <= res.std_err + ref_err

    def test_real_axis_miss_is_within_quad_tol(self):
        # the real-axis quadrature gave 0.96124231 +- 1.7e-7 here, off by
        # 2.3e-5 (22 quad_tol); the reference is 0.9612648566
        cfg = rn.validate(rn.SystemConfig(pt_user_dbm=4.0, pt_ris_dbm=-46.0,
                                          alpha_mode="from_power"))
        ref, ref_err = real_axis_cdf(cfg, 2)
        assert ref == pytest.approx(0.9612648566, abs=1e-10)
        res = rn.analytic_outage(cfg, 2)
        assert abs(res.op - ref) <= cfg.quad_tol
        assert abs(res.op - ref) <= res.std_err + ref_err

    def test_algebraic_tail_comes_by_parts(self, monkeypatch):
        # user 2's |M(c + jw)| falls only like 1/w here (a chi2_2-like
        # leakage component); cut to one period per panel, its tail took
        # 1296 first panels out to w ~ 1.3e4, and integrated by parts it
        # takes fewer than a fifth of them
        sizes = []
        first_panels = rn.analytic._first_panels

        def counted(*args):
            lo, hi = first_panels(*args)
            sizes.append(lo.size)
            return lo, hi

        monkeypatch.setattr(rn.analytic, "_first_panels", counted)
        cfg = rn.validate(rn.SystemConfig(m_active=128, n_passive=128, pt_user_dbm=12.0,
                                          alpha_mode="fixed", alpha_linear=1000.0))
        ref, ref_err = real_axis_cdf(cfg, 2)
        assert ref == pytest.approx(0.4622380975, abs=1e-10)
        res = rn.analytic_outage(cfg, 2)
        assert abs(res.op - ref) <= res.std_err + ref_err
        assert abs(res.op - ref) <= cfg.quad_tol
        assert len(sizes) == 1 and sizes[0] < 1296 / 5

    def test_far_tail_within_its_own_err(self):
        # 1 - op is 1.82e-10 here; the real-axis quadrature gave 6.77e-8
        # with err 2.5e-8, 371 times the tail and 2.7 times its own err
        cfg = rn.validate(rn.SystemConfig(m_active=128, n_passive=128, pt_ris_dbm=-56.0,
                                          alpha_mode="from_power"))
        ref, ref_err = real_axis_cdf(cfg, 2)
        assert 1.0 - ref == pytest.approx(1.8206e-10, rel=1e-4)
        res = rn.analytic_outage(cfg, 2)
        assert abs(res.op - ref) <= res.std_err + ref_err
        assert 1.0 - res.op == pytest.approx(1.0 - ref, rel=1e-3)

    def test_zero_rate_exact(self):
        cfg = unit_config(rate_threshold_bps_hz=0.0)
        res = rn.analytic_outage(cfg, 1)
        assert res.op == 0.0 and res.std_err == 0.0

    def test_matches_mc_small_config(self):
        cfg = unit_config(m_active=64, n_passive=64, alpha_linear=1.0,
                          pt_user_dbm=0.0, w0_dbm=30.0, namp_dbm=-300.0,
                          mc_trials=100_000, rate_threshold_bps_hz=2.0)
        mc = mc_outage(cfg, 2)
        an = rn.analytic_outage(cfg, 2)
        assert abs(mc.op - an.op) <= max(0.01, 3 * mc.std_err)

    def test_method_tag(self):
        cfg = unit_config(w0_dbm=30.0, pt_user_dbm=30.0)
        res = rn.analytic_outage(cfg, 2)
        assert res.method == "analytic"
        assert res.trials == 0

    def test_link_variances_computed_once(self, monkeypatch):
        # the path loss is evaluated once per hop and config object, however
        # many model functions ask for the variances and the gain
        calls = []
        original = rn.channel.channel_variance

        def counted(d_m, fc_ghz):
            calls.append(d_m)
            return original(d_m, fc_ghz)

        monkeypatch.setattr(rn.channel, "channel_variance", counted)
        cfg = rn.validate(rn.SystemConfig(alpha_mode="from_power"))
        rn.analytic_outage(cfg, 1)
        rn.analytic_outage(cfg, 2)
        outage_forms([cfg, cfg], [1, 2])
        rn.resolve_alpha(cfg)
        assert len(calls) == 3

    def test_joint_flag_not_supported(self):
        cfg = unit_config(joint_outage_u2=True)
        with pytest.raises(NotImplementedError):
            rn.analytic_outage(cfg, 2)

    def test_extreme_configs_pin_cleanly(self):
        # far from the threshold on either side, with a sane error bound
        low = unit_config(w0_dbm=-250.0, pt_user_dbm=30.0)
        assert rn.analytic_outage(low, 2).op == pytest.approx(0.0, abs=1e-4)
        high = unit_config(w0_dbm=250.0, pt_user_dbm=30.0)
        assert rn.analytic_outage(high, 2).op == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("name, value", [("pt_user_dbm", 2000.0), ("pt_user_dbm", 3000.0),
                                             ("rate_threshold_bps_hz", 600.0),
                                             ("rate_threshold_bps_hz", 1000.0),
                                             ("namp_dbm", 3000.0)])
    def test_overflowing_moments_raise(self, name, value):
        # valid configs whose form moments overflow a double in watts: the form
        # is scaled by a power of two first, so a huge transmit power gives the
        # interference-limited outages of a moderate one, and a huge rate or
        # amplifier noise the sure outage MC sees, with no warning.  Only a
        # weight past a double (pt v or sigma_z^2 alpha v, the case's own value
        # joined by pt_user_dbm=3000 and rate 600) still raises
        cfg = rn.validate(rn.SystemConfig(**{name: value}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = rn.analytic_outages([cfg, cfg], [1, 2])
        if name == "pt_user_dbm":
            moderate = rn.analytic_outages([rn.validate(rn.SystemConfig(pt_user_dbm=1000.0))], [1])
            assert res[0].op == pytest.approx(moderate[0].op, rel=1e-14)
            assert 0.0 < res[0].op < 1e-6 and res[1].op == 0.0
        else:
            assert [(r.op, r.std_err) for r in res] == [(1.0, 0.0)] * 2
        over = rn.validate(rn.SystemConfig(**{"pt_user_dbm": 3000.0,
                                              "rate_threshold_bps_hz": 600.0, name: value}))
        with pytest.raises(rn.AccuracyError, match="weight overflows a double"):
            rn.analytic_outages([over, over], [1, 2])

    @pytest.mark.parametrize("rate", [2.0, 100.0])
    def test_threshold_past_a_double_is_sure_outage(self, rate):
        # w0 = 1e297 W: the threshold over the form's spread, or w0 v itself at
        # rate 100, overflows to +inf, a sure outage with no warning on the way;
        # the batch's finite member keeps its own value
        cfg = rn.validate(rn.SystemConfig(w0_dbm=3000.0, rate_threshold_bps_hz=rate))
        plain = rn.validate(rn.SystemConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = rn.analytic_outages([cfg, cfg, plain], [1, 2, 1])
        assert [(r.op, r.std_err) for r in res[:2]] == [(1.0, 0.0)] * 2
        assert res[2] == rn.analytic_outage(plain, 1)

    def test_subnormal_form_is_scaled_up(self):
        # at pt_user_dbm=-3000 every |w| (var + mean^2) is subnormal (about
        # 2^-1048): scaled up by the largest factor, 2^1022, the form gives the
        # sure outage that MC sees, with no warning
        cfg = rn.validate(rn.SystemConfig(pt_user_dbm=-3000.0, namp_dbm=-3200.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = rn.analytic_outages([cfg, cfg], [1, 2])
        assert [(r.op, r.std_err) for r in res] == [(1.0, 0.0)] * 2

    def test_form_without_components_is_sure_outage(self):
        # both powers underflow to 0 W, so every weight is 0 and G = 0: below
        # g > 0 a sure outage with err 0, as MC sees, taken before the moments
        # and with no warning, alone or in a batch with a normal config; at
        # w0 = 0 W too, g = 0 and G < g never holds (MC's 0/0 SINR is no outage)
        cfg = rn.validate(rn.SystemConfig(pt_user_dbm=-4000.0, namp_dbm=-4000.0))
        silent = rn.validate(replace(cfg, w0_dbm=-4000.0))
        plain = rn.validate(rn.SystemConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = [rn.analytic_outage(c, u) for c in (cfg, silent) for u in (1, 2)]
            mixed = rn.analytic_outages([cfg, plain, silent, cfg], [1, 1, 2, 2])
        assert [(r.op, r.std_err) for r in alone] == [(1.0, 0.0)] * 2 + [(0.0, 0.0)] * 2
        assert mixed == [alone[0], rn.analytic_outage(plain, 1), alone[3], alone[1]]


class TestBatchedOutages:
    """analytic_outages over the 1 dB budget grid against one-config calls."""

    CASES = {
        "default": {},
        "gain cap plateau": dict(m_active=64, n_passive=64),
        "sic residue": dict(epsilon_sic=0.01),          # a five-component user-2 form
        "active user 2": dict(active_user=2),
        "zero rate": dict(rate_threshold_bps_hz=0.0),   # v <= 0: nothing to invert
        "refined": dict(rate_threshold_bps_hz=8.0),     # user 1 bisects its panels
    }

    @staticmethod
    def _grid(case):
        cfg = rn.validate(replace(rn.SystemConfig(), **TestBatchedOutages.CASES[case]))
        return [at_budget(cfg, float(x)) for x in range(-70, -9)]

    @pytest.mark.parametrize("user", [1, 2])
    @pytest.mark.parametrize("case", CASES)
    def test_batch_matches_one_config_calls(self, case, user):
        grid = self._grid(case)
        for config, res in zip(grid, rn.analytic_outages(grid, [user] * len(grid))):
            one = rn.analytic_outage(config, user)
            assert (res.user, res.method) == (user, "analytic")
            assert res.op == pytest.approx(one.op, rel=1e-12, abs=0.0)
            assert res.std_err == pytest.approx(one.std_err, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("user", [1, 2])
    @pytest.mark.parametrize("case", CASES)
    def test_batch_is_one_config_calls_exactly(self, case, user):
        # a member's node sums and panel totals are its own, so the 61-budget
        # batch gives every config exactly what that config gives alone
        grid = self._grid(case)
        batch = rn.analytic_outages(grid, [user] * len(grid))
        alone = [rn.analytic_outage(config, user) for config in grid]
        assert [(r.op, r.std_err) for r in batch] == [(r.op, r.std_err) for r in alone]

    def test_panel_sums_do_not_depend_on_the_batch(self, rng):
        # a slice of panels, as a view or a copy, sums to the same slice of
        # the whole batch's Kronrod estimates and errors
        half, vals = rng.random(3000), rng.standard_normal((15, 3000)) * 10.0 ** rng.integers(
            -300, 300, 3000)
        kron, err = rn.analytic._gk15_sums(half, vals)
        # the reference: a panel's weighted nodes added one by one in node order
        w_k, w_g = rn.analytic._W_KRONROD.tolist(), rn.analytic._W_GAUSS.tolist()
        for i in rng.integers(0, 3000, 50).tolist():
            col = vals[:, i].tolist()
            k = half[i] * sum(w * x for w, x in zip(w_k, col))
            assert (kron[i], err[i]) == (k, abs(k - half[i] * sum(w * x for w, x in zip(w_g, col))))
        cuts = np.sort(rng.integers(0, 3001, (200, 2)), axis=1)
        for a, b in [(0, 1), (2999, 3000), (0, 3000), *cuts[cuts[:, 0] < cuts[:, 1]].tolist()]:
            for part in (vals[:, a:b], np.ascontiguousarray(vals[:, a:b])):
                k, e = rn.analytic._gk15_sums(half[a:b], part)
                assert k.tolist() == kron[a:b].tolist() and e.tolist() == err[a:b].tolist()

    @pytest.mark.parametrize("case", CASES)
    def test_both_users_share_one_batch(self, case, monkeypatch):
        # outage_pairs inverts users 1 and 2 of every config in one batch,
        # with results equal to one batch per user
        grid = self._grid(case)
        ones, twos = [1] * len(grid), [2] * len(grid)
        per_user = list(zip(rn.analytic_outages(grid, ones), rn.analytic_outages(grid, twos)))
        batches = []
        gp = rn.analytic.gil_pelaez_cdf

        def counted(log_m, g, c, *, tol):
            batches.append(np.size(g))
            return gp(log_m, g, c, tol=tol)

        monkeypatch.setattr(rn.analytic, "gil_pelaez_cdf", counted)
        assert rn.outage_pairs(grid, "analytic") == per_user
        assert len(batches) == (case != "zero rate")

    def test_forms_of_different_sizes_share_a_batch(self):
        # user 2 has three components without a SIC residue and five with
        # one; the shorter form is padded with zero-weight components
        cfgs = [rn.validate(replace(rn.SystemConfig(), epsilon_sic=eps))
                for eps in (0.0, 0.01, 0.0)]
        assert [outage_forms([c], [2]).weight.size for c in cfgs] == [3, 5, 3]
        for config, res in zip(cfgs, rn.analytic_outages(cfgs, [2] * len(cfgs))):
            one = rn.analytic_outage(config, 2)
            assert res.op == pytest.approx(one.op, rel=1e-12, abs=0.0)
            assert res.std_err == pytest.approx(one.std_err, rel=1e-12, abs=0.0)

    def test_cases_reach_the_shortcut_and_refinement(self, monkeypatch):
        inverted, refined = [], []
        gp, gk15 = rn.analytic.gil_pelaez_cdf, rn.analytic._gk15

        def counted_gp(log_m, g, c, *, tol):
            inverted.append(np.size(g))
            return gp(log_m, g, c, tol=tol)

        def counted_gk15(f, lo, hi, k):
            refined.append(len(set(k.tolist())) == 1)   # one inversion's bisection
            return gk15(f, lo, hi, k)

        monkeypatch.setattr(rn.analytic, "gil_pelaez_cdf", counted_gp)
        monkeypatch.setattr(rn.analytic, "_gk15", counted_gk15)
        for case, user in (("default", 2), ("zero rate", 1), ("refined", 1)):
            inverted.clear()
            refined.clear()
            grid = self._grid(case)
            rn.analytic_outages(grid, [user] * len(grid))
            if case == "default":
                assert inverted == [42] and not any(refined)   # 19 far tails take the bound
            elif case == "zero rate":
                assert inverted == []
            else:
                assert sum(refined) > 0

    def test_mixed_shuffled_batch_is_one_config_calls_bit_for_bit(self, rng, monkeypatch):
        # every kind of member in one shuffled batch: each result is exactly
        # the one its config gives alone
        base = rn.validate(rn.SystemConfig())
        swapped = rn.validate(replace(base, active_user=2))
        members = [
            (base, 1), (base, 2), (swapped, 1), (swapped, 2),
            (rn.validate(replace(base, rate_threshold_bps_hz=0.0)), 2),   # zero rate
            (rn.validate(replace(base, rate_threshold_bps_hz=9.5)), 2),   # Chernoff shortcut
            (at_budget(replace(base, rate_threshold_bps_hz=8.0), -30.0), 1),   # refined
            (rn.validate(replace(base, epsilon_sic=0.01)), 2),            # five components
        ]
        configs, users = zip(*(members[i] for i in rng.permutation(len(members))))
        inverted, bisected = [], []
        gp, gk15 = rn.analytic.gil_pelaez_cdf, rn.analytic._gk15

        def counted_gp(log_m, g, c, *, tol):
            inverted.append(np.size(g))
            return gp(log_m, g, c, tol=tol)

        def counted_gk15(f, lo, hi, k):
            bisected.append(len(set(k.tolist())) == 1)
            return gk15(f, lo, hi, k)

        monkeypatch.setattr(rn.analytic, "gil_pelaez_cdf", counted_gp)
        monkeypatch.setattr(rn.analytic, "_gk15", counted_gk15)
        batch = rn.analytic_outages(list(configs), list(users))
        assert inverted == [len(members) - 2] and any(bisected)
        monkeypatch.undo()
        for config, user, res in zip(configs, users, batch):
            one = rn.analytic_outage(config, user)
            assert (res.user, res.op.hex(), res.std_err.hex()) == (
                user, one.op.hex(), one.std_err.hex())

    def test_empty_and_mismatched_batches(self):
        assert rn.analytic_outages([], []) == []
        cfg = rn.validate(rn.SystemConfig())
        with pytest.raises(ValueError, match="one user per config"):
            rn.analytic_outages([cfg, cfg], [1])


def at_saddle(spec, g):
    """A form's log M(c + jw) at its saddle point c for threshold g, as
    (log_m, g, c)."""
    _, c, log_mc = saddle_point(spec, g)
    tilted = spec.tilted(c)
    return lambda w: log_mc + rn.log_cf(tilted, w), g, c


def ladder_cases():
    """(log_m, g, c) of nine inversions: a normal, an exponential, a
    noncentral chi-square and the default point's user-2 form, the last two
    at their saddle points; short and long ladders, by parts and not."""
    norm, _ = _normalized(rn.validate(rn.SystemConfig()), 2)
    norm_mean, _ = moments(norm)
    slow = form((1.0, 1, 1.0, 1.0))
    normal = lambda w: np.exp(-w**2 / 2.0)
    expo = lambda w: 1.0 / (1.0 - 1j * w)
    cases = [(log_of(lambda w: normal(w - 1j)), g, 1.0) for g in (-2.0, 0.0, 1.5)]
    cases += [(log_of(lambda w: expo(w - 0.5j)), g, 0.5) for g in (0.5, 2.0)]
    cases += [at_saddle(slow, g) for g in (0.5, 3.0)]
    cases += [at_saddle(norm, g) for g in (norm_mean + 1.0, norm_mean + 2.0)]
    return cases


def full_ladder(log_m, g, c, tol):
    """The truncation search as it ran over the whole ladder c 2^-40 ...
    c 2^199, 80 frequencies (241 probes with the zero) per log_m call: the
    oracle of _panel_ladder's banded search."""
    ladder = np.ldexp(1.0, np.arange(-40, 200))
    chunk, step = 80, 2.0**-12
    edge_drop = 0.5 * np.log1p(ladder[:chunk, None] ** 2)
    shifts = np.repeat([1.0, 1.0 + step, 1.0 - step], chunk)[:, None]
    first, limit, past, gauge = np.zeros((4, g.size))
    k = np.arange(g.size)
    cc, gg, tol8 = c, g, tol / 8.0
    edge = None
    for start in range(0, ladder.size, chunk):
        omega = cc * ladder[start:start + chunk, None]
        probes = np.tile(omega, (3, 1)) * shifts
        if edge is None:
            probes = np.vstack([np.zeros_like(cc), probes])
        lm = log_m(probes, k)
        if edge is None:
            log_zero, lm = np.real(lm[0]), lm[1:]
            drop = log_zero - np.real(lm[:chunk]) + edge_drop
            edge = cc * ladder[(drop >= 1.0 / 32.0).argmax(axis=0)]
            first[k] = edge
        lw, lp, lq = lm.reshape(3, chunk, k.size)
        both = np.isfinite(lp.real) & np.isfinite(lq.real)
        dl = np.subtract(lp, lq, out=np.zeros_like(lw), where=both)
        dl.imag -= (2.0 * PI) * np.round(dl.imag / (2.0 * PI))
        z = cc + 1j * omega
        amp = np.exp(lw.real - cc * gg)
        dh2 = 2.0 * amp / (PI * np.abs(z)) * np.abs(dl / (2.0 * step * omega) - 1j / z)
        env = np.minimum(amp, 2.0 * amp / (np.maximum(np.abs(gg), 1e-3) * omega)) / PI
        g2 = gg * gg
        by_parts = dh2 < env * g2
        done = (omega > edge) & ((dh2 < tol8 * g2) | (env < tol8))
        at = done.argmax(axis=0), np.arange(k.size)
        hit = done[at]
        use = hit & by_parts[at]
        limit[k[hit]], gauge[k[hit]] = omega[at][hit], env[at][hit]
        w, gu = omega[at][use], gg[use]
        h = amp[at][use] * np.exp(1j * (lw.imag[at][use] - w * gu)) / (PI * z[at][use])
        past[k[use]], gauge[k[use]] = (h / (1j * gu)).real, dh2[at][use] / g2[use]
        if hit.all():
            return first, limit, past, gauge
        k, cc, gg, tol8, edge = (x[~hit] for x in (k, cc, gg, tol8, edge))
    raise AssertionError("no limit below c 2^200")


def _normalized(cfg, user):
    """The unit-variance form (a batch of one) and threshold that
    analytic_outage inverts."""
    spec = outage_forms([cfg], [user])
    g = rn.dbm_to_watt(cfg.w0_dbm) * rn.rate_to_threshold(cfg.rate_threshold_bps_hz)
    scale = math.sqrt(moments(spec)[1])
    return spec.scaled(1.0 / scale), g / scale


def tail_bound(forms, g, *, upper):
    """saddle_point's bound on P(G >= g) (upper) or P(G <= g), the upper
    tail of -G at -g."""
    sign = 1.0 if upper else -1.0
    return saddle_point(forms.scaled(sign), sign * g)[0]


class TestChernoffBound:
    @pytest.mark.parametrize("k", [1, 2, 5, 40])
    @pytest.mark.parametrize("c", [0.3, 7.0, -2.0])
    def test_scaled_central_chi2(self, k, c):
        # G = c X, X ~ chi2_k: the tail of G past c x is that of X on the far
        # side of x from k, and the least Chernoff bound of X there is
        # (x/k)^(k/2) exp((k - x)/2); the grid search must come close to it
        spec = form((c, k, 1.0, 0.0))
        for x in (0.02 * k, 0.3 * k, 3.0 * k, 20.0 * k):
            exact = sstats.chi2.sf(x, k) if x > k else sstats.chi2.cdf(x, k)
            optimum = (x / k) ** (k / 2.0) * math.exp((k - x) / 2.0)
            bound = tail_bound(spec, c * x, upper=(x > k) == (c > 0))
            assert exact <= bound <= 1.25 * optimum

    @pytest.mark.parametrize("mu", [0.5, 2.0, 4.0])
    def test_noncentral_chi2_1(self, mu):
        spec = form((1.0, 1, 1.0, mu))
        mean, _ = moments(spec)
        for g in (0.01, 0.2, mean + 8.0, mean + 30.0):
            cdf = ncx2_cdf_series(g, 1, mu**2)
            upper = g > mean
            assert (1.0 - cdf if upper else cdf) <= tail_bound(spec, g, upper=upper) < 1.0

    def test_lower_tail_of_a_positive_form_is_searched(self):
        # no component limits s below 0, so the bound comes from searching
        # that unbounded side; it is never taken as 0
        spec = form((0.5, 4, 1.0, 0.0), (2.0, 1, 0.7, 1.5))
        for g in (1e-3, 0.1, 0.5 * moments(spec)[0]):
            assert 0.0 < tail_bound(spec, g, upper=False) < 1.0

    def test_far_tails_take_the_shortcut(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("quadrature ran on a far-tail point")

        monkeypatch.setattr(rn.analytic, "gil_pelaez_cdf", unreachable)
        # |z| > 200 on the upper side: outage is certain
        cfg = rn.validate(rn.SystemConfig(rate_threshold_bps_hz=9.5))
        norm, g = _normalized(cfg, 2)
        assert g - moments(norm)[0] > 200.0
        res = rn.analytic_outage(cfg, 2)
        assert res.op == 1.0 and res.std_err == tail_bound(norm, g, upper=True)
        assert res.std_err <= 1e-3 * cfg.quad_tol
        # only 3.4 standard deviations below the mean, yet the lower tail of
        # this all-positive form is proven negligible: outage is impossible
        low = unit_config(w0_dbm=-250.0, pt_user_dbm=30.0)
        norm, g = _normalized(low, 2)
        assert -4.0 < g - moments(norm)[0] < -3.0
        res = rn.analytic_outage(low, 2)
        assert res.op == 0.0 and res.std_err == tail_bound(norm, g, upper=False)
        assert 0.0 < res.std_err <= 1e-3 * low.quad_tol

    def test_default_point_is_quadrature_bit_for_bit(self):
        # both default outages lie above the shortcut threshold, so they are
        # exactly what the inversion along the saddle line gives: the tail on
        # the threshold's side of the mean, as the upper tail of G or -G
        cfg = rn.validate(rn.SystemConfig())
        for user in (1, 2):
            norm, g = _normalized(cfg, user)
            upper = g > moments(norm)[0]
            side, g_side = (norm, g) if upper else (norm.scaled(-1.0), -g)
            bound, c, log_mc = saddle_point(side, g_side)
            assert bound == tail_bound(norm, g, upper=upper) > 1e-3 * cfg.quad_tol
            tilted = side.tilted(c)
            tail, err = rn.gil_pelaez_cdf(lambda w: log_mc + rn.log_cf(tilted, w), g_side, c,
                                          tol=min(cfg.quad_tol, 1e-4 * bound))
            res = rn.analytic_outage(cfg, user)
            assert (res.op, res.std_err) == (1.0 - tail if upper else tail, err)


class TestArrayPasses:
    """The array passes against the per-component and per-config formulas
    they replaced, bit for bit."""

    @staticmethod
    def stacked_saddle_point(forms, g):
        # every component at once: a (K, 121, C) pass summed over its last axis
        grid = np.geomspace(1e-3, 1e12, 121)
        w, var, dof, mean = forms.weight.T, forms.var.T, forms.dof.T, forms.mean.T
        wv = w * var
        s = grid / (1.0 + grid * np.maximum(0.0, np.max(2.0 * wv, axis=1))[:, None])
        r = 1.0 - 2.0 * (s[:, :, None] * wv[:, None, :])
        log_m = ((-0.5 * dof)[:, None, :] * np.log(r)
                 + (dof * mean**2)[:, None, :] * (s[:, :, None] * w[:, None, :]) / r).sum(axis=2)
        exponent = log_m - s * g[:, None]
        at = np.arange(len(s)), np.argmin(exponent - np.log(s), axis=1)
        return np.exp(np.min(exponent, axis=1)), s[at], log_m[at]

    def test_saddle_point_is_the_stacked_formula(self, rng):
        for _ in range(30):
            size = int(rng.integers(1, 7))
            batch = [[(float(rng.normal()), int(rng.integers(1, 6)), float(rng.uniform(0.05, 3.0)),
                       float(rng.normal(0.0, 2.0)) if rng.random() < 0.5 else 0.0)
                      for _ in range(int(rng.integers(1, size + 1)))]
                     for _ in range(int(rng.integers(1, 9)))]
            forms = forms_of(batch)
            g = rng.normal(0.0, 3.0, len(batch))
            assert ([x.tobytes() for x in saddle_point(forms, g)]
                    == [x.tobytes() for x in self.stacked_saddle_point(forms, g)])

    @pytest.mark.parametrize("block", [1 << 18, 1])
    def test_first_panels_are_the_one_member_panels(self, block, monkeypatch):
        # all members' first panels in one pass, their running sums in padded
        # blocks (of one member when block = 1), are each member's own
        def one_member(first, omega_hi, g):
            widths = np.append(1.0, 2.0 ** np.arange(160))
            width = first * widths[:round(math.log2(omega_hi / first)) + 1]
            pieces = np.ceil(width * (abs(g) / (2.0 * PI))).clip(1).astype(int)
            hi = np.cumsum(np.repeat(width / pieces, pieces))
            return np.append(0.0, hi[:-1]), hi

        monkeypatch.setattr(rn.analytic, "_SUM_BLOCK", block)
        first = np.array([0.013, 0.021, 0.37, 1.1e-5])
        omega_hi = first * np.array([2.0**3, 2.0**9, 2.0**5, 2.0**14])
        g = np.array([40.0, 0.0, -3.0, 7.5])
        expected = [one_member(*m) for m in zip(first, omega_hi, g)]
        got = rn.analytic._first_panels(first, omega_hi, g)
        assert [x.tobytes() for x in got] == [np.concatenate(x).tobytes() for x in zip(*expected)]

    @staticmethod
    def one_config_components(cfg, user):
        # the outage form of one user's decode, (weight, dof, var, mean) in Python floats
        alpha = rn.resolve_alpha(cfg)
        sa, sb, sc, sd = link_sum_moments(cfg)
        pt = rn.dbm_to_watt(cfg.pt_user_dbm)
        v = rn.rate_to_threshold(cfg.rate_threshold_bps_hz)

        def part(weight, real, cplx):
            return [(weight, 1, real[1] + cplx[1] / 2.0, real[0]), (weight, 1, cplx[1] / 2.0, 0.0)]

        if user == cfg.active_user:
            comps = part(pt, sa, sb) + part(-pt * v, sd, sc)
        else:
            comps = part(pt, sd, sc)
            if cfg.epsilon_sic > 0.0:
                comps += part(-cfg.epsilon_sic * pt * v, sa, sb)
        comps.append((-rn.dbm_to_watt(cfg.namp_dbm) * alpha * v, 2 * cfg.m_active,
                      rn.link_variances(cfg).bs / 2.0, 0.0))
        return tuple(c for c in comps if c[0] != 0.0)

    def test_outage_forms_are_the_one_config_forms(self, rng):
        base = rn.validate(rn.SystemConfig())
        configs = [at_budget(replace(base, **over), x)
                   for over in ({}, dict(active_user=2), dict(epsilon_sic=0.01),
                                dict(epsilon_sic=0.3, active_user=2, m_active=64),
                                dict(namp_dbm=-4000.0))     # the amplifier noise underflows
                   for x in (-60.0, -47.0, -20.0)]
        # hop variances whose square roots s have s**2 (libm's pow) != s * s
        odd = [x * x for x in rng.uniform(1e-5, 1e-3, 100_000).tolist()
               if x**2 != x * x and math.sqrt(x * x) == x]
        configs.append(rn.validate(replace(base, sigma2_u1=odd[0], sigma2_u2=odd[1],
                                           sigma2_bs=odd[2])))
        members = [(cfg, user) for cfg in configs for user in (1, 2)]
        members = [members[i] for i in rng.permutation(len(members))]
        oracle = [self.one_config_components(cfg, user) for cfg, user in members]
        assert {len(c) for c in oracle} == {2, 3, 4, 5}   # dropped components pad

        def raw(forms):
            return [np.asarray(getattr(forms, field)).tobytes()
                    for field in ("weight", "dof", "var", "mean", "central")]

        assert raw(outage_forms(*zip(*members))) == raw(forms_of(oracle))
        # a batch of one, with no padding, is the oracle's form too
        for (cfg, user), comps in zip(members, oracle):
            assert raw(outage_forms([cfg], [user])) == raw(form(*comps))


class TestActivePassiveRule:
    def test_swapping_roles_and_distances_swaps_users(self):
        # flipping active_user and swapping the two user distances gives the
        # same hybrid split with the users' labels exchanged: the gain, the
        # simulated and the analytic outages must follow exactly
        kw = dict(m_active=64, n_passive=64, alpha_mode="from_power",
                  rate_threshold_bps_hz=1.0, mc_trials=4000)
        one = rn.validate(rn.SystemConfig(active_user=1, d_u1_ris_m=60.0,
                                          d_u2_ris_m=20.0, **kw))
        two = rn.validate(rn.SystemConfig(active_user=2, d_u1_ris_m=20.0,
                                          d_u2_ris_m=60.0, **kw))
        assert rn.alpha_from_power(one) == rn.alpha_from_power(two)
        mc1, mc2 = rn.estimate_outage_pair(one), rn.estimate_outage_pair(two)
        an1 = (rn.analytic_outage(one, 1), rn.analytic_outage(one, 2))
        an2 = (rn.analytic_outage(two, 1), rn.analytic_outage(two, 2))
        for r in (*mc1, *an1):
            assert 0.0 < r.op < 1.0
        assert (mc1[0].op, mc1[1].op) == (mc2[1].op, mc2[0].op)
        assert (an1[0].op, an1[1].op) == (an2[1].op, an2[0].op)


def test_analytic_route_imports_nothing_from_montecarlo():
    # the two routes check each other, so they share the model (config,
    # channel, sinr) and not code of one another
    tree = ast.parse(Path(rn.analytic.__file__).read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or "", *(f"{node.module or ''}.{a.name}" for a in node.names)]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    assert names and not [n for n in names if "montecarlo" in n.split(".")]
