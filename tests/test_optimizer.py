import math
import signal
import numpy as np
import pytest
from dataclasses import replace

import risnoma as rn
from risnoma import optimizer
from risnoma.config import ALPHA_MAX, ALPHA_MIN
from risnoma.optimizer import at_budget
from risnoma import alpha_from_power
from conftest import unit_config

INTERVAL = (-70.0, -10.0)   # optimize()'s default search range


def _ops_at(config, pt_ris_dbm, evaluator="analytic"):
    r1, r2 = rn.outage_pairs([at_budget(config, pt_ris_dbm)], evaluator)[0]
    return r1.op, r2.op


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
        op1, op2 = _ops_at(replace(cfg, alpha_mode="fixed"), -47.0)
        assert abs(op1 - op2) < 1e-9

    def test_endpoints_bracket_a_crossing(self):
        cfg = rn.validate(rn.SystemConfig())
        g_lo, g_mid = (abs(op1 - op2) for op1, op2 in
                       (_ops_at(cfg, x) for x in (-70.0, -47.0)))
        assert g_mid < g_lo  # the crossing sits near the default budget


class TestOutagePair:
    def test_each_method_is_its_engine(self):
        cfg = unit_config(mc_trials=3000, w0_dbm=62.0, pt_user_dbm=30.0, epsilon_sic=0.01,
                          alpha_linear=2.0, rate_threshold_bps_hz=1.0)
        mc = rn.estimate_outage_pair(cfg)
        assert 0.0 < mc[0].op < 1.0 and 0.0 < mc[1].op < 1.0
        assert rn.outage_pairs([cfg], "mc")[0] == mc
        assert rn.outage_pairs([cfg], "mc", workers=2)[0] == mc
        assert rn.outage_pairs([cfg], "analytic")[0] == (rn.analytic_outage(cfg, 1),
                                                         rn.analytic_outage(cfg, 2))
        assert optimizer.METHODS == ("mc", "analytic")

    def test_unknown_method_refused(self):
        with pytest.raises(ValueError, match="'newton'"):
            rn.outage_pairs([unit_config()], "newton")


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
        out = rn.optimize(cfg, interval_dbm=INTERVAL)
        for endpoint in INTERVAL:
            p1, p2 = _ops_at(cfg, endpoint)
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
        # the deterministic trigger: every 1-dB grid point has op2 >= TAU
        grid = np.arange(*INTERVAL, optimizer.GRID_STEP_DB)
        ops2 = [rn.analytic_outage(at_budget(cfg, float(x)), 2).op for x in grid]
        assert optimizer.TAU == 0.9
        assert all(p >= optimizer.TAU for p in ops2)
        out = rn.optimize(cfg, interval_dbm=INTERVAL)
        assert out.mode == "fallback_user1"
        assert out.op1 < 1e-3

    def test_flat_cap_region_terminates(self):
        # whole interval beyond the gain cap: objective constant, must finish
        cfg = _fallback_config()
        out = rn.optimize(cfg, interval_dbm=(-15.0, -10.0))
        assert out.alpha == 1000.0
        assert out.evaluations < 200

    def test_result_within_interval(self):
        out = rn.optimize(rn.validate(rn.SystemConfig()), interval_dbm=(-60.0, -30.0))
        assert -60.0 <= out.pt_ris_dbm <= -30.0

    def test_mc_evaluator_deterministic(self):
        cfg = rn.validate(rn.SystemConfig(
            m_active=64, n_passive=64, sigma2_u1=1.0, sigma2_u2=1.0,
            sigma2_bs=1.0, pt_user_dbm=30.0, w0_dbm=59.0, namp_dbm=-300.0,
            mc_trials=2000))
        settings = dict(evaluator="mc", interval_dbm=(-50.0, -40.0))
        a = rn.optimize(cfg, **settings)
        b = rn.optimize(cfg, **settings)
        assert a == b  # common random numbers make the search reproducible

    @pytest.mark.parametrize("evaluator", ["analytic", "mc"])
    def test_one_evaluation_per_gain(self, evaluator, monkeypatch):
        # an interval straddling the 30 dB gain cap: every budget past the
        # cap implies the same gain, so it is evaluated once
        cfg = rn.validate(rn.SystemConfig(m_active=64, n_passive=64, mc_trials=2000))
        grid = np.arange(-80.0, 20.0, 0.5)
        gains = [alpha_from_power(replace(cfg, pt_ris_dbm=float(x))) for x in grid]
        x_cap = float(grid[gains.index(ALPHA_MAX)])
        settings = dict(evaluator=evaluator, interval_dbm=(x_cap - 4.0, x_cap + 6.0))

        seen = []
        evaluate = optimizer.outage_pairs

        def counted(configs, method, *, workers):
            seen.extend(alpha_from_power(config) for config in configs)
            return evaluate(configs, method, workers=workers)

        monkeypatch.setattr(optimizer, "outage_pairs", counted)
        out = rn.optimize(cfg, **settings)
        monkeypatch.undo()

        assert len(seen) == len(set(seen)) == out.evaluations
        assert ALPHA_MAX in seen and min(seen) < ALPHA_MAX
        assert out.evaluations < 11  # the 11 grid budgets alone share gains
        # the cached pair is the one evaluated at the chosen budget itself
        assert (out.op1, out.op2) == _ops_at(cfg, out.pt_ris_dbm, evaluator)
        assert rn.optimize(cfg, **settings) == out

    def test_bad_settings(self):
        cfg = rn.validate(rn.SystemConfig())
        with pytest.raises(ValueError):
            rn.optimize(cfg, interval_dbm=(-10.0, -70.0))
        with pytest.raises(TypeError):
            rn.optimize(cfg, tau=0.5)  # TAU is a constant, not a setting

    @pytest.mark.parametrize("tol_db", [0.0, -1.0, math.nan])
    def test_tol_db_must_be_positive(self, tol_db, monkeypatch):
        # golden-section never narrows its bracket below a width <= 0, and a
        # nan width would skip it; both are refused before any evaluation
        def unreachable(*args, **kwargs):
            raise AssertionError("evaluated before the settings were checked")

        monkeypatch.setattr(optimizer, "outage_pairs", unreachable)
        with pytest.raises(ValueError, match="tol_db must be a finite number > 0"):
            rn.optimize(rn.validate(rn.SystemConfig()), tol_db=tol_db)

    @pytest.mark.parametrize("interval", [(-70.0, math.inf), (-math.inf, -10.0),
                                          (math.nan, -10.0), (-70.0, math.nan),
                                          (-70.0, 4000.0)])
    def test_interval_must_be_finite(self, interval, monkeypatch):
        # the 1 dB grid of an unbounded interval cannot be allocated, and
        # 4000 dBm has no value in watts
        def unreachable(*args, **kwargs):
            raise AssertionError("evaluated before the interval was checked")

        monkeypatch.setattr(optimizer, "outage_pairs", unreachable)
        with pytest.raises(ValueError, match="search interval must be two finite"):
            rn.optimize(rn.validate(rn.SystemConfig()), interval_dbm=interval)

    @pytest.mark.parametrize("tol_db", [1e-16, 1e-300])
    def test_tolerance_finer_than_the_bracket_resolves(self, tol_db):
        # the bracket stops shrinking a few ulps wide; the search ends there
        # (an alarm turns a search that never ends into a failure)
        def timeout(signum, frame):
            raise TimeoutError(f"optimize at tol_db={tol_db} did not return")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(60)
        try:
            out = rn.optimize(rn.validate(rn.SystemConfig()), interval_dbm=(-50.0, -44.0),
                              tol_db=tol_db)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert -50.0 <= out.pt_ris_dbm <= -44.0
        assert out.mode == "balanced" and out.gap < 1e-12


class TestBatchedGrid:
    def test_accuracy_error_in_one_member_gives_error_rows(self, monkeypatch):
        # one default grid member needs 51 initial panels, the most of any:
        # below that budget it fails the batch, and run_point reports the point
        monkeypatch.setattr(rn.analytic, "MAX_PANELS", 50)
        cfg = rn.validate(rn.SystemConfig(alpha_mode="optimized"))
        with pytest.raises(rn.AccuracyError, match="51 initial panels"):
            rn.optimize(cfg)
        rows = rn.run_point(cfg, ("analytic",))
        assert [r.mode for r in rows] == ["error:AccuracyError"] * 2
        assert "51 initial panels" in rows[0].error

    def test_joint_outage_stays_simulation_only(self):
        cfg = rn.validate(rn.SystemConfig(joint_outage_u2=True))
        with pytest.raises(NotImplementedError, match="simulation-only"):
            rn.optimize(cfg, evaluator="analytic")
        with pytest.raises(NotImplementedError, match="simulation-only"):
            rn.analytic_outages([cfg, at_budget(cfg, -50.0)], [2, 2])

    def test_node_pass_is_cut_into_chunks(self, monkeypatch):
        # the default grid batch has about 800 panels; with chunks of 256 no
        # log-CF call may see more than PANEL_CHUNK of them (15 nodes each)
        monkeypatch.setattr(rn.analytic, "PANEL_CHUNK", 256)
        nodes = []
        log_cf = rn.analytic.log_cf

        def recorded(spec, omega):
            nodes.append(np.size(omega))
            return log_cf(spec, omega)

        monkeypatch.setattr(rn.analytic, "log_cf", recorded)
        rn.optimize(rn.validate(rn.SystemConfig()))
        assert max(nodes) == rn.analytic.PANEL_CHUNK * 15

    def test_golden_section_opens_with_one_batch(self, monkeypatch):
        # after the grid, golden-section's two opening budgets are evaluated
        # in one batch, then one budget at a time
        sizes = []
        evaluate = optimizer.outage_pairs

        def counted(configs, method, *, workers):
            sizes.append(len(configs))
            return evaluate(configs, method, workers=workers)

        monkeypatch.setattr(optimizer, "outage_pairs", counted)
        out = rn.optimize(rn.validate(rn.SystemConfig()))
        assert sizes[1] == 2 and set(sizes[2:]) == {1}
        assert sum(sizes) == out.evaluations

    def test_mc_batch_is_one_simulation(self, monkeypatch):
        calls = []
        simulate = optimizer.estimate_outage_pairs

        def counted(configs, *, workers):
            calls.append(len(configs))
            return simulate(configs, workers=workers)

        monkeypatch.setattr(optimizer, "estimate_outage_pairs", counted)
        cfg = rn.validate(rn.SystemConfig(mc_trials=3000, m_active=128, n_passive=128))
        configs = [at_budget(cfg, x) for x in (-60.0, -45.0, -30.0)]
        assert rn.outage_pairs(configs, "mc") == [rn.estimate_outage_pair(c) for c in configs]
        assert calls == [3]

    def test_optimize_hashes_no_config(self, monkeypatch):
        # neither the search's probes nor its outcome are hashed: a row's
        # digest comes from the config run_point evaluates
        hashed = []
        digest = rn.SystemConfig.digest

        def counted(config):
            hashed.append(config.pt_ris_dbm)
            return digest(config)

        monkeypatch.setattr(rn.SystemConfig, "digest", counted)
        cfg = rn.validate(rn.SystemConfig())
        out = rn.optimize(cfg)
        assert out.evaluations > 30 and hashed == []

    def test_run_point_rows_are_the_searched_pair(self, monkeypatch):
        # the analytic rows at an optimized point come from the search's own
        # evaluation, not from a second one
        cfg = rn.validate(rn.SystemConfig(alpha_mode="optimized"))
        out = rn.optimize(cfg)
        monkeypatch.setattr(rn.sweep, "outage_pairs", None)
        rows = rn.run_point(cfg, ("analytic",))
        assert [(r.user, r.op, r.err) for r in rows] == [
            (r.user, r.op, r.std_err) for r in out.results]
        assert out.results == rn.outage_pairs([at_budget(cfg, out.pt_ris_dbm)], "analytic")[0]


class TestLockstep:
    """optimize_batch runs one search per config side by side; the oracle of
    each search is optimize() at that config on its own."""

    @staticmethod
    def _counted(monkeypatch, sizes):
        evaluate = optimizer.outage_pairs

        def counted(configs, method, *, workers):
            sizes.append(len(configs))
            return evaluate(configs, method, workers=workers)

        monkeypatch.setattr(optimizer, "outage_pairs", counted)

    def test_mixed_batch_is_one_search_per_config(self, monkeypatch):
        configs = [
            # fig5 m128 and fig8 m512 optimized points
            rn.validate(rn.SystemConfig(m_active=128, n_passive=128, pt_user_dbm=10.0)),
            rn.validate(rn.SystemConfig(epsilon_sic=0.05)),
            _fallback_config(),
            rn.validate(rn.SystemConfig(active_user=2)),
        ]
        sizes = []
        self._counted(monkeypatch, sizes)
        alone = [rn.optimize(c) for c in configs]
        calls_alone = len(sizes)
        assert [o.mode for o in alone] == ["balanced", "balanced", "fallback_user1", "balanced"]
        sizes.clear()
        batch = rn.optimize_batch(configs)
        # equal in every field, evaluations and both users' results included
        assert batch == alone
        # one call holds every grid's distinct gains, and each later call
        # one step of each search still running
        grid = np.arange(INTERVAL[0], INTERVAL[1] + 0.5, optimizer.GRID_STEP_DB)
        assert sizes[0] == sum(len({alpha_from_power(at_budget(c, float(x))) for x in grid})
                               for c in configs)
        assert sum(sizes) == sum(o.evaluations for o in alone)
        assert len(sizes) < calls_alone / 2

    def test_mc_batch_sharing_a_seed(self):
        base = rn.validate(rn.SystemConfig(
            m_active=64, n_passive=64, sigma2_u1=1.0, sigma2_u2=1.0,
            sigma2_bs=1.0, pt_user_dbm=30.0, w0_dbm=59.0, namp_dbm=-300.0,
            mc_trials=2000))
        configs = [base, replace(base, pt_user_dbm=31.0)]
        settings = dict(evaluator="mc", interval_dbm=(-50.0, -40.0))
        assert rn.optimize_batch(configs, **settings) == [rn.optimize(c, **settings)
                                                          for c in configs]

    def test_failed_search_is_its_own_entry(self):
        # analytic_outages fails a whole call for one joint-outage member; the
        # lockstep call is then made request by request, and only the
        # failing search gets the exception
        ok = rn.validate(rn.SystemConfig())
        joint = replace(ok, joint_outage_u2=True)
        out = rn.optimize_batch([ok, joint, ok])
        assert out[0] == out[2] == rn.optimize(ok)
        assert isinstance(out[1], NotImplementedError)
        assert "simulation-only" in str(out[1])

    def test_settings_are_checked_before_any_evaluation(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("evaluated before the settings were checked")

        monkeypatch.setattr(optimizer, "outage_pairs", unreachable)
        cfg = rn.validate(rn.SystemConfig())
        with pytest.raises(ValueError, match="tol_db"):
            rn.optimize_batch([cfg, cfg], tol_db=0.0)
        with pytest.raises(ValueError, match="search interval"):
            rn.optimize_batch([cfg, cfg], interval_dbm=(-10.0, -70.0))
        assert rn.optimize_batch([]) == []


def _made_up_pair(op1, op2):
    """An optimizer.outage_pairs stand-in: made-up op curves of the budget."""
    def result(op, user):
        return rn.OutageResult(op=op, trials=0, std_err=0.0, method="analytic", user=user)

    def pairs(configs, method, *, workers):
        return [(result(op1(c.pt_ris_dbm), 1), result(op2(c.pt_ris_dbm), 2)) for c in configs]
    return pairs


class TestRefinementBranches:
    # every budget in this interval maps to its own gain, strictly inside
    # [ALPHA_MIN, ALPHA_MAX], so the gain memo keeps the made-up curves apart
    INTERVAL = (-54.0, -44.0)
    X0 = -50.0   # a grid point

    def test_interval_is_below_the_gain_cap(self):
        cfg = rn.validate(rn.SystemConfig())
        gains = [alpha_from_power(at_budget(cfg, x)) for x in self.INTERVAL]
        assert ALPHA_MIN < gains[0] < gains[1] < ALPHA_MAX

    def test_grid_point_beats_golden_section(self, monkeypatch):
        # the gap is zero only at the grid point X0; golden-section probes
        # around it but never at it, so the grid point is kept
        x0 = self.X0
        monkeypatch.setattr(optimizer, "outage_pairs", _made_up_pair(
            lambda x: 0.1, lambda x: 0.1 + 0.01 * abs(x - x0)))
        out = rn.optimize(rn.validate(rn.SystemConfig()), interval_dbm=self.INTERVAL)
        assert out.mode == "balanced"
        assert (out.pt_ris_dbm, out.gap, out.delta) == (x0, 0.0, 0.1)

    def test_balanced_guard_returns_to_grid_point(self, monkeypatch):
        # right of X0 the gap is smaller (0.02) but the worst user's outage
        # (0.22) is beyond delta* + slack = 0.21, so the refinement that finds
        # it is sent back to the grid point
        x0 = self.X0
        monkeypatch.setattr(optimizer, "outage_pairs", _made_up_pair(
            lambda x: 0.2, lambda x: 0.15 - 0.001 * (x0 - x) if x <= x0 else 0.22))
        out = rn.optimize(rn.validate(rn.SystemConfig()), interval_dbm=self.INTERVAL)
        assert out.mode == "balanced"
        assert (out.pt_ris_dbm, out.op1, out.op2) == (x0, 0.2, 0.15)
