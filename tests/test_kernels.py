import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sstats

import risnoma as rn
from risnoma import _kernels
from conftest import mc_outage, unit_config
from oracle import compute_link_terms, draw_realization, ris_state


def _oracle_config():
    # unequal variances and active_user=2, so a swapped variance shows
    return unit_config(m_active=6, n_passive=5, alpha_linear=3.0, sigma2_u1=0.5,
                       sigma2_u2=2.0, sigma2_bs=1.5, active_user=2,
                       rate_threshold_bps_hz=3.0, seed=31)


def _link_terms(qa, qhb, qgp, qgb, z, s_a, s_p, s_bs, sqrt_alpha):
    """Row sums of one chunk by the block kernel, scaled to (a, b, c, d, ang)."""
    k, width = qa.shape[0], max(qa.shape[1], qgp.shape[1])
    sums = _kernels.link_terms_block(qa, qhb, qgp, qgb, np.empty((k, width)), np.empty((4, k)))
    return _kernels.scale_terms(sums, z, s_a, s_p, s_bs, sqrt_alpha)


class TestLinkTermsBlock:
    def test_closed_form_on_fixed_inputs(self):
        m, n, alpha = 4, 3, 2.5
        s_a, s_p, s_bs = 0.5, 2.0, 3.0
        z = np.array([[0.3, -1.2, 0.7, 2.0],
                      [-0.4, 0.1, -1.5, 0.25]])
        ones_m, ones_n = np.ones((2, m)), np.ones((2, n))
        a, b, c, d, ang = _link_terms(
            ones_m, ones_m, ones_n, ones_n, z, s_a, s_p, s_bs, math.sqrt(alpha))
        for t in range(2):
            assert a[t] == pytest.approx(math.sqrt(alpha * s_a * s_bs) * m, rel=1e-14)
            assert ang[t] == pytest.approx(s_bs * m, rel=1e-14)
            assert d[t] == pytest.approx(math.sqrt(s_p * s_bs) * n, rel=1e-14)
            assert c[t] == pytest.approx(
                math.sqrt(alpha * s_p * s_bs * m / 2.0) * complex(z[t, 0], z[t, 1]), rel=1e-14)
            assert b[t] == pytest.approx(
                math.sqrt(s_a * s_bs * n / 2.0) * complex(z[t, 2], z[t, 3]), rel=1e-14)

    def test_sums_of_magnitude_products(self):
        # sqrt(4*1) + sqrt(1*9) = 5 and sqrt(2*8) + sqrt(9*1) = 7
        qa, qhb = np.array([[4.0, 1.0]]), np.array([[1.0, 9.0]])
        qgp, qgb = np.array([[2.0, 9.0]]), np.array([[8.0, 1.0]])
        a, b, c, d, ang = _link_terms(
            qa, qhb, qgp, qgb, np.ones((1, 4)), 1.0, 1.0, 1.0, 2.0)
        assert a[0] == pytest.approx(10.0) and d[0] == pytest.approx(7.0)
        assert ang[0] == pytest.approx(10.0)
        assert c[0] == pytest.approx(2.0 * math.sqrt(5.0) * (1 + 1j))
        assert b[0] == pytest.approx(math.sqrt(4.5) * (1 + 1j))

    def test_zero_channels(self):
        zm, zn = np.zeros((3, 4)), np.zeros((3, 5))
        a, b, c, d, ang = _link_terms(
            zm, zm, zn, zn, np.ones((3, 4)), 1.0, 1.0, 1.0, 2.0)
        assert not a.any() and not d.any() and not ang.any()
        assert not b.any() and not c.any()


N_ORACLE = 4000


@pytest.fixture(scope="module")
def oracle_terms():
    """Link terms of N_ORACLE full-vector realizations, one at a time."""
    cfg = _oracle_config()
    rows = []
    for i in range(N_ORACLE):
        ch = draw_realization(cfg, rn.RandomStream(977, i))
        lt = compute_link_terms(ch, ris_state(ch, cfg), cfg)
        rows.append((lt.a, lt.b, lt.c, lt.d, lt.active_noise_gain))
    a, b, c, d, ang = (np.array(col) for col in zip(*rows))
    return dict(a=a, b=b, c=c, d=d, ang=ang)


class TestReducedSampler:
    """The MC block draw against the paper-faithful full-vector oracle."""

    @pytest.mark.parametrize("key, part", [
        ("a", np.real), ("b", np.real), ("c", np.imag), ("d", np.real), ("ang", np.real),
    ])
    def test_link_term_distributions(self, oracle_terms, key, part):
        sampled = rn.sample_link_terms(_oracle_config(), N_ORACLE)[key]
        p = sstats.ks_2samp(part(oracle_terms[key]), part(sampled)).pvalue
        assert p > 1e-3, f"{key}: KS p-value {p:.2g}"

    def test_outage_fraction(self, oracle_terms):
        cfg = _oracle_config()
        lt = rn.LinkTerms(a=oracle_terms["a"], b=oracle_terms["b"], c=oracle_terms["c"],
                          d=oracle_terms["d"], active_noise_gain=oracle_terms["ang"],
                          alpha=cfg.alpha_linear)
        v = rn.rate_to_threshold(cfg.rate_threshold_bps_hz)
        # active_user=2: gamma1 of the SINR pair belongs to user 2
        p_oracle = float(np.mean(rn.sinr(lt, cfg).gamma1 < v))
        p_mc = mc_outage(replace(cfg, mc_trials=N_ORACLE), 2).op
        pooled = (p_oracle + p_mc) / 2.0
        se = math.sqrt(pooled * (1.0 - pooled) * 2.0 / N_ORACLE)
        assert 0.1 < pooled < 0.9
        assert abs(p_oracle - p_mc) <= 4.0 * se
