import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import risnoma as rn
from conftest import unit_config
from oracle import ChannelRealization, align_phases, ris_state


def _single_element(h=1.0 + 0j, h_bs=1.0 + 0j, g=1.0 + 0j, g_bs=1.0 + 0j):
    arr = lambda v: np.array([v], dtype=complex)
    return ChannelRealization(h1=arr(h), h2=arr(h), h_bs=arr(h_bs),
                              g1=arr(g), g2=arr(g), g_bs=arr(g_bs))


class TestAlignPhases:
    def test_identity(self):
        state = align_phases(_single_element())
        assert state.theta[0] == pytest.approx(1.0 + 0j)
        assert state.beta[0] == pytest.approx(1.0 + 0j)

    def test_quarter_turn(self):
        state = align_phases(_single_element(h=1j))
        assert state.theta[0] == pytest.approx(-1j, abs=1e-12)

    def test_zero_product_gets_zero_phase(self):
        state = align_phases(_single_element(h=0.0))
        assert state.theta[0] == pytest.approx(1.0 + 0j)

    def test_unit_modulus(self, rng):
        ch = _random_realization(rng, 64, 32)
        state = align_phases(ch)
        assert np.allclose(np.abs(state.theta), 1.0, atol=1e-12)
        assert np.allclose(np.abs(state.beta), 1.0, atol=1e-12)

    def test_coherent_combining_identity(self, rng):
        ch = _random_realization(rng, 64, 32)
        state = align_phases(ch, active_user=1)
        combined = np.sum(ch.h1 * state.theta * ch.h_bs)
        assert combined.imag == pytest.approx(0.0, abs=1e-12)
        assert combined.real == pytest.approx(
            np.sum(np.abs(ch.h1) * np.abs(ch.h_bs)), rel=1e-12)
        passive = np.sum(ch.g2 * state.beta * ch.g_bs)
        assert passive.imag == pytest.approx(0.0, abs=1e-12)

    def test_magnitudes_untouched(self, rng):
        ch = _random_realization(rng, 16, 16)
        state = align_phases(ch)
        assert np.allclose(np.abs(state.theta * ch.h_bs), np.abs(ch.h_bs), rtol=1e-12)

    def test_unknown_active_user_rejected(self):
        # the passive part always serves the other user of {1, 2}
        with pytest.raises(ValueError, match="active_user must be 1 or 2"):
            align_phases(_single_element(), active_user=3)


def _random_realization(rng, m, n):
    mk = lambda k: rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return ChannelRealization(h1=mk(m), h2=mk(m), h_bs=mk(m),
                              g1=mk(n), g2=mk(n), g_bs=mk(n))


def _from_power(**kw):
    return rn.validate(rn.SystemConfig(alpha_mode="from_power", **kw))


class TestPowerModel:
    def test_element_output_power(self):
        # the budget splits evenly over the M active elements
        cfg = _from_power()
        p_o = rn.alpha_from_power(cfg) * rn.dbm_to_watt(15.0) * rn.channel_variance(35.51, 5.0)
        assert p_o == pytest.approx(3.8970114238304883e-11, rel=1e-9)
        half = _from_power(m_active=256, n_passive=256)
        assert rn.alpha_from_power(half) == pytest.approx(2 * rn.alpha_from_power(cfg), rel=1e-12)

    def test_amplifier_gain_unit_ratio(self):
        # element output power equal to the mean input power: unit gain;
        # twice that doubles the power gain
        kw = dict(m_active=64, n_passive=64, pt_user_dbm=0.0, sigma2_u1=1.0 / 64)
        assert rn.alpha_from_power(_from_power(pt_ris_dbm=0.0, **kw)) == pytest.approx(1.0)
        doubled = _from_power(pt_ris_dbm=10.0 * np.log10(2.0), **kw)
        assert rn.alpha_from_power(doubled) == pytest.approx(2.0, rel=1e-12)

    def test_amplifier_gain_cap_binds(self):
        assert rn.alpha_from_power(_from_power(sigma2_u1=1e-30)) == rn.config.ALPHA_MAX

    def test_uncapped_square_identity(self):
        # the power gain is the output power over the amplified user's mean
        # input power; active_user=2 amplifies user 2's hop
        cfg = _from_power(active_user=2, sigma2_u1=1e-12, sigma2_u2=2e-10)
        p_o = rn.dbm_to_watt(-47.0) / 512
        assert rn.alpha_from_power(cfg) == pytest.approx(
            p_o / (rn.dbm_to_watt(15.0) * 2e-10), rel=1e-12)

    @given(st.floats(min_value=-80.0, max_value=0.0),
           st.floats(min_value=-10.0, max_value=30.0))
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, pt_ris_dbm, pt_user_dbm):
        # the gain does not fall with the budget nor rise with the user power
        base = rn.alpha_from_power(_from_power(pt_ris_dbm=pt_ris_dbm, pt_user_dbm=pt_user_dbm))
        assert rn.alpha_from_power(
            _from_power(pt_ris_dbm=pt_ris_dbm + 3.0, pt_user_dbm=pt_user_dbm)) >= base
        assert rn.alpha_from_power(
            _from_power(pt_ris_dbm=pt_ris_dbm, pt_user_dbm=pt_user_dbm + 3.0)) <= base


class TestAlphaFromPower:
    def test_default_anchor(self):
        cfg = rn.validate(rn.SystemConfig())
        alpha = rn.alpha_from_power(cfg)
        # per-element budget over the mean input power at one element
        p_o = rn.dbm_to_watt(-47.0) / 512
        expected = p_o / (rn.dbm_to_watt(15.0) * rn.channel_variance(35.51, 5.0))
        assert alpha == pytest.approx(expected, rel=1e-12)
        assert 6.0 <= alpha <= 11.0

    def test_cap_and_floor(self):
        cfg = rn.validate(rn.SystemConfig(pt_ris_dbm=-10.0))
        assert rn.alpha_from_power(cfg) == 1000.0
        cfg = rn.validate(rn.SystemConfig(pt_ris_dbm=-70.0))
        assert rn.alpha_from_power(cfg) == 1.0

    def test_resolve_alpha_fixed(self):
        cfg = unit_config(alpha_linear=8.5)
        assert rn.resolve_alpha(cfg) == 8.5

    def test_resolve_alpha_optimized_raises(self):
        cfg = unit_config(alpha_mode="optimized")
        with pytest.raises(ValueError, match="optimize"):
            rn.resolve_alpha(cfg)

    def test_ris_state_carries_alpha(self, rng):
        cfg = unit_config(m_active=8, n_passive=8, alpha_linear=4.0)
        ch = _random_realization(rng, 8, 8)
        state = ris_state(ch, cfg)
        assert state.alpha == 4.0
