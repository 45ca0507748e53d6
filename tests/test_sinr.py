import numpy as np
import pytest

import risnoma as rn
from conftest import unit_config
from oracle import (ChannelRealization, align_phases, compute_link_terms, ris_state,
                    synthesize_received)


def _ones_realization(m=1, n=1):
    one = lambda k: np.ones(k, dtype=complex)
    return ChannelRealization(h1=one(m), h2=one(m), h_bs=one(m),
                              g1=one(n), g2=one(n), g_bs=one(n))


def _random_realization(rng, m, n):
    mk = lambda k: rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return ChannelRealization(h1=mk(m), h2=mk(m), h_bs=mk(m),
                              g1=mk(n), g2=mk(n), g_bs=mk(n))


def _terms(lt_kwargs):
    base = dict(a=0.0, b=0j, c=0j, d=0.0, active_noise_gain=0.0, alpha=1.0)
    base.update(lt_kwargs)
    return rn.LinkTerms(**base)


class TestComputeLinkTerms:
    def test_single_element_alpha4(self):
        cfg = unit_config(m_active=1, n_passive=1, alpha_linear=4.0)
        ch = _ones_realization()
        state = ris_state(ch, cfg)
        lt = compute_link_terms(ch, state, cfg)
        assert lt.a == pytest.approx(2.0)
        assert lt.b == pytest.approx(state.beta[0])   # = 1 here
        assert lt.c == pytest.approx(2.0 * state.theta[0])
        assert lt.d == pytest.approx(1.0)
        assert lt.active_noise_gain == pytest.approx(1.0)

    def test_all_zero_channels(self):
        cfg = unit_config(m_active=2, n_passive=2)
        zero = lambda k: np.zeros(k, dtype=complex)
        ch = ChannelRealization(h1=zero(2), h2=zero(2), h_bs=zero(2),
                                g1=zero(2), g2=zero(2), g_bs=zero(2))
        lt = compute_link_terms(ch, ris_state(ch, cfg), cfg)
        assert lt.a == lt.d == 0.0
        assert lt.b == lt.c == 0j

    def test_coherent_sum_mean(self, rng):
        # a / M converges to the Rayleigh product mean pi/4 for unit variance
        cfg = unit_config(m_active=1_000_000, n_passive=1)
        ch = _random_realization(rng, 1_000_000, 1)
        # normalize to unit total variance per entry
        ch = ChannelRealization(
            h1=ch.h1 / np.sqrt(2), h2=ch.h2 / np.sqrt(2), h_bs=ch.h_bs / np.sqrt(2),
            g1=ch.g1, g2=ch.g2, g_bs=ch.g_bs)
        lt = compute_link_terms(ch, ris_state(ch, cfg), cfg)
        assert lt.a / cfg.m_active == pytest.approx(np.pi / 4.0, abs=0.002)

    def test_a_equals_aligned_magnitude(self, rng):
        cfg = unit_config(m_active=32, n_passive=16)
        ch = _random_realization(rng, 32, 16)
        state = ris_state(ch, cfg)
        lt = compute_link_terms(ch, state, cfg)
        aligned = np.abs(np.sum(ch.h1 * state.theta * ch.h_bs))
        assert lt.a == pytest.approx(np.sqrt(state.alpha) * aligned, rel=1e-10)

    def test_dimension_mismatch(self, rng):
        cfg = unit_config(m_active=8, n_passive=8)
        ch = _random_realization(rng, 4, 8)
        with pytest.raises(ValueError):
            compute_link_terms(ch, align_phases(ch), cfg)

    def test_active_user_swap(self, rng):
        ch = _random_realization(rng, 16, 16)
        cfg1 = unit_config(m_active=16, n_passive=16, active_user=1)
        cfg2 = unit_config(m_active=16, n_passive=16, active_user=2)
        lt1 = compute_link_terms(ch, ris_state(ch, cfg1), cfg1)
        lt2 = compute_link_terms(ch, ris_state(ch, cfg2), cfg2)
        assert lt1.a == pytest.approx(np.sum(np.abs(ch.h1) * np.abs(ch.h_bs)), rel=1e-12)
        assert lt2.a == pytest.approx(np.sum(np.abs(ch.h2) * np.abs(ch.h_bs)), rel=1e-12)


class TestSinr:
    def test_worked_example(self):
        # P_t = 1 W, |a+b|^2 = 4, |c+d|^2 = 1, total noise 1, perfect SIC
        cfg = unit_config(pt_user_dbm=30.0, w0_dbm=30.0)
        lt = _terms(dict(a=2.0, d=1.0))
        pair = rn.sinr(lt, cfg)
        assert pair.gamma1 == pytest.approx(2.0)
        assert pair.gamma2 == pytest.approx(1.0)

    def test_gamma2_zero_when_no_signal(self):
        cfg = unit_config(pt_user_dbm=30.0, w0_dbm=30.0)
        pair = rn.sinr(_terms(dict(a=2.0)), cfg)
        assert pair.gamma2 == 0.0

    def test_epsilon_monotonicity(self, rng):
        cfg0 = unit_config(m_active=16, n_passive=16, epsilon_sic=0.0,
                           pt_user_dbm=30.0, w0_dbm=0.0)
        cfg1 = unit_config(m_active=16, n_passive=16, epsilon_sic=1.0,
                           pt_user_dbm=30.0, w0_dbm=0.0)
        for _ in range(20):
            ch = _random_realization(rng, 16, 16)
            lt0 = compute_link_terms(ch, ris_state(ch, cfg0), cfg0)
            lt1 = compute_link_terms(ch, ris_state(ch, cfg1), cfg1)
            p0, p1 = rn.sinr(lt0, cfg0), rn.sinr(lt1, cfg1)
            assert p1.gamma2 <= p0.gamma2
            assert p1.gamma1 == pytest.approx(p0.gamma1, rel=1e-12)

    def test_common_scaling_invariance(self, rng):
        ch = _random_realization(rng, 16, 16)
        cfg = unit_config(m_active=16, n_passive=16, pt_user_dbm=0.0,
                          w0_dbm=-10.0, namp_dbm=-20.0)
        cfg_up = unit_config(m_active=16, n_passive=16, pt_user_dbm=10.0,
                             w0_dbm=0.0, namp_dbm=-10.0)
        lt = compute_link_terms(ch, ris_state(ch, cfg), cfg)
        lt_up = compute_link_terms(ch, ris_state(ch, cfg_up), cfg_up)
        p, p_up = rn.sinr(lt, cfg), rn.sinr(lt_up, cfg_up)
        assert p_up.gamma1 == pytest.approx(p.gamma1, rel=1e-10)
        assert p_up.gamma2 == pytest.approx(p.gamma2, rel=1e-10)


class TestSynthesizeReceived:
    def test_single_user_reduction(self, rng):
        cfg = unit_config(m_active=8, n_passive=8, alpha_linear=4.0, pt_user_dbm=7.0)
        ch = _random_realization(rng, 8, 8)
        state = ris_state(ch, cfg)
        lt = compute_link_terms(ch, state, cfg)
        z = np.zeros(8, dtype=complex)
        y1 = synthesize_received(ch, state, cfg, 1.0, 0.0, z, 0.0)
        sqrt_pt = np.sqrt(rn.dbm_to_watt(7.0))
        assert y1 == pytest.approx(sqrt_pt * (lt.a + lt.b), rel=1e-10)
        y2 = synthesize_received(ch, state, cfg, 0.0, 1.0, z, 0.0)
        assert y2 == pytest.approx(sqrt_pt * (lt.c + lt.d), rel=1e-10)

    def test_coefficient_consistency(self, rng):
        # |coefficient of each symbol|^2 matches the squared link sums
        cfg = unit_config(m_active=32, n_passive=24, alpha_linear=2.5)
        for _ in range(5):
            ch = _random_realization(rng, 32, 24)
            state = ris_state(ch, cfg)
            lt = compute_link_terms(ch, state, cfg)
            z = np.zeros(32, dtype=complex)
            c1 = synthesize_received(ch, state, cfg, 1.0, 0.0, z, 0.0)
            c2 = synthesize_received(ch, state, cfg, 0.0, 1.0, z, 0.0)
            pt = rn.dbm_to_watt(cfg.pt_user_dbm)
            assert abs(c1) ** 2 == pytest.approx(pt * abs(lt.a + lt.b) ** 2, rel=1e-10)
            assert abs(c2) ** 2 == pytest.approx(pt * abs(lt.c + lt.d) ** 2, rel=1e-10)

    def test_noise_only(self):
        cfg = unit_config(m_active=2, n_passive=2)
        zero = lambda k: np.zeros(k, dtype=complex)
        ch = ChannelRealization(h1=zero(2), h2=zero(2), h_bs=zero(2),
                                g1=zero(2), g2=zero(2), g_bs=zero(2))
        state = align_phases(ch)
        y = synthesize_received(ch, state, cfg, 1.0, 1.0,
                                np.zeros(2, dtype=complex), 0.25 + 0.5j)
        assert y == pytest.approx(0.25 + 0.5j)
