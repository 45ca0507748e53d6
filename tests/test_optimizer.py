import numpy as np
import pytest
from dataclasses import replace

import risnoma as rn
from risnoma import optimizer
from risnoma.config import ALPHA_MAX
from risnoma.ris import alpha_from_power
from conftest import unit_config


def _fallback_config():
    # heavy noise on the passive route: user 2 unservable at every budget,
    # user 1 fine once the amplifier dominates the interference
    return rn.validate(rn.SystemConfig(
        m_active=128, n_passive=128, pt_user_dbm=30.0, w0_dbm=-100.0,
        alpha_mode="from_power",
    ))


class TestObjectiveGap:
    def test_symmetric_config_gap_vanishes(self):
        # identical statistics and full residual interference make both
        # decode problems the same distribution, so the gap is numerical zero
        cfg = unit_config(alpha_linear=1.0, epsilon_sic=1.0,
                          pt_user_dbm=0.0, w0_dbm=14.0)
        settings = rn.OptimizerSettings(evaluator="analytic")
        op1, op2 = optimizer._outage_pair_at(-47.0, replace(cfg, alpha_mode="fixed"),
                                             settings)
        assert abs(op1 - op2) < 1e-9

    def test_endpoints_bracket_a_crossing(self):
        cfg = rn.validate(rn.SystemConfig())
        settings = rn.OptimizerSettings()
        g_lo, g_mid = (abs(op1 - op2) for op1, op2 in
                       (optimizer._outage_pair_at(x, cfg, settings) for x in (-70.0, -47.0)))
        assert g_mid < g_lo  # the crossing sits near the default budget


class TestOutagePair:
    def test_each_method_is_its_engine(self):
        cfg = unit_config(mc_trials=3000, w0_dbm=62.0, pt_user_dbm=30.0, epsilon_sic=0.01,
                          alpha_linear=2.0, rate_threshold_bps_hz=1.0)
        mc = rn.estimate_outage_pair(cfg)
        assert 0.0 < mc[0].op < 1.0 and 0.0 < mc[1].op < 1.0
        assert rn.outage_pair(cfg, "mc") == mc
        assert rn.outage_pair(cfg, "mc", workers=2) == mc
        assert rn.outage_pair(cfg, "analytic") == (rn.analytic_outage(cfg, 1),
                                                   rn.analytic_outage(cfg, 2))
        assert optimizer.METHODS == ("mc", "analytic")

    def test_unknown_method_refused(self):
        with pytest.raises(ValueError, match="'newton'"):
            rn.outage_pair(unit_config(), "newton")


class TestOptimize:
    def test_default_anchor(self):
        out = rn.optimize(rn.validate(rn.SystemConfig()))
        assert -49.0 <= out.pt_ris_dbm <= -45.0
        assert 6.0 <= out.alpha <= 11.0
        assert out.mode == "balanced"
        assert out.gap == pytest.approx(abs(out.op1 - out.op2))
        assert out.delta == max(out.op1, out.op2)

    def test_descent_property(self):
        # the outcome is never dominated by an interval endpoint: it beats
        # each endpoint on the gap or on the worst-user outage
        cfg = rn.validate(rn.SystemConfig())
        settings = rn.OptimizerSettings()
        out = rn.optimize(cfg, settings)
        from risnoma.optimizer import _outage_pair_at
        for endpoint in settings.interval_dbm:
            p1, p2 = _outage_pair_at(endpoint, cfg, settings)
            assert (out.gap <= abs(p1 - p2) + 1e-12
                    or out.delta <= max(p1, p2) + 1e-12)

    def test_bathtub_regime_prefers_fair_optimum(self):
        # at low user power the gap vanishes where both users fail; the
        # optimizer must keep the worst-user outage near its achievable best
        cfg = replace(rn.validate(rn.SystemConfig()), pt_user_dbm=9.0)
        out = rn.optimize(cfg)
        fixed_delta = max(rn.analytic_outage(cfg, 1).op,
                          rn.analytic_outage(cfg, 2).op)
        assert out.delta <= fixed_delta + 1e-6
        assert out.delta < 0.5  # not the equal-misery plateau

    def test_fallback_to_user1(self):
        cfg = _fallback_config()
        settings = rn.OptimizerSettings()
        # the deterministic trigger: every 1-dB grid point has op2 >= tau
        grid = np.arange(*settings.interval_dbm, optimizer.GRID_STEP_DB)
        ops2 = [rn.analytic_outage(
            replace(cfg, pt_ris_dbm=float(x), alpha_mode="from_power"), 2).op
            for x in grid]
        assert all(p >= settings.tau for p in ops2)
        out = rn.optimize(cfg, settings)
        assert out.mode == "fallback_user1"
        assert out.op1 < 1e-3

    def test_flat_cap_region_terminates(self):
        # whole interval beyond the gain cap: objective constant, must finish
        cfg = _fallback_config()
        settings = rn.OptimizerSettings(interval_dbm=(-15.0, -10.0))
        out = rn.optimize(cfg, settings)
        assert out.alpha == 1000.0
        assert out.evaluations < 200

    def test_result_within_interval(self):
        settings = rn.OptimizerSettings(interval_dbm=(-60.0, -30.0))
        out = rn.optimize(rn.validate(rn.SystemConfig()), settings)
        assert -60.0 <= out.pt_ris_dbm <= -30.0

    def test_mc_evaluator_deterministic(self):
        cfg = rn.validate(rn.SystemConfig(
            m_active=64, n_passive=64, sigma2_u1=1.0, sigma2_u2=1.0,
            sigma2_bs=1.0, pt_user_dbm=30.0, w0_dbm=59.0, namp_dbm=-300.0,
            mc_trials=2000))
        settings = rn.OptimizerSettings(evaluator="mc", interval_dbm=(-50.0, -40.0))
        a = rn.optimize(cfg, settings)
        b = rn.optimize(cfg, settings)
        assert a == b  # common random numbers make the search reproducible

    @pytest.mark.parametrize("evaluator", ["analytic", "mc"])
    def test_one_evaluation_per_gain(self, evaluator, monkeypatch):
        # an interval straddling the 30 dB gain cap: every budget past the
        # cap implies the same gain, so it is evaluated once
        cfg = rn.validate(rn.SystemConfig(m_active=64, n_passive=64, mc_trials=2000))
        grid = np.arange(-80.0, 20.0, 0.5)
        gains = [alpha_from_power(replace(cfg, pt_ris_dbm=float(x))) for x in grid]
        x_cap = float(grid[gains.index(ALPHA_MAX)])
        settings = rn.OptimizerSettings(evaluator=evaluator,
                                        interval_dbm=(x_cap - 4.0, x_cap + 6.0))

        seen = []
        evaluate = optimizer._outage_pair_at

        def counted(x, config, s):
            seen.append(alpha_from_power(replace(config, pt_ris_dbm=x)))
            return evaluate(x, config, s)

        monkeypatch.setattr(optimizer, "_outage_pair_at", counted)
        out = rn.optimize(cfg, settings)
        monkeypatch.undo()

        assert len(seen) == len(set(seen)) == out.evaluations
        assert ALPHA_MAX in seen and min(seen) < ALPHA_MAX
        assert out.evaluations < 11  # the 11 grid budgets alone share gains
        # the cached pair is the one evaluated at the chosen budget itself
        assert (out.op1, out.op2) == evaluate(out.pt_ris_dbm, cfg, settings)
        assert rn.optimize(cfg, settings) == out

    def test_bad_settings(self):
        cfg = rn.validate(rn.SystemConfig())
        with pytest.raises(ValueError):
            rn.optimize(cfg, rn.OptimizerSettings(interval_dbm=(-10.0, -70.0)))
        with pytest.raises(ValueError):
            rn.optimize(cfg, rn.OptimizerSettings(tau=1.5))
