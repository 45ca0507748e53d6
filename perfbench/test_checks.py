"""Each benchmark check fails when fed a deliberately wrong value.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import math
import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402

import risnoma  # noqa: E402

SCN = workload.SCENARIO


def test_reference_check_rejects_shifted_estimate():
    assert checks.check_reference("ok", 2150, 4000, 6480, 12000) == []
    assert checks.check_reference("zeros", 0, 4000, 0, 12000) == []
    assert checks.check_reference("bad", 2450, 4000, 6480, 12000)


def test_mc_vs_analytic_rejects_gap_beyond_tolerance():
    assert checks.check_mc_vs_analytic("ok", 0.545, 4000, 0.54) == []
    assert checks.check_mc_vs_analytic("bad", 0.62, 4000, 0.54)
    # the CLT allowance is the floor once the standard error is small
    assert checks.check_mc_vs_analytic("floor ok", 0.508, 10**7, 0.5) == []
    assert checks.check_mc_vs_analytic("floor bad", 0.52, 10**7, 0.5)
    # deep-tail points are outside the compared range
    assert checks.check_mc_vs_analytic("tail", 0.0, 4000, 2e-5) == []


def test_quad_check_rejects_gap_beyond_error_bounds():
    assert checks.check_quad("ok", 2.3e-5, 1e-7, 2.3e-5 + 5e-7, 1e-12, 1e-6) == []
    assert checks.check_quad("bad", 2.3e-5, 1e-7, 2.3e-5 + 5e-6, 1e-12, 1e-6)


def _grid(best):
    # max(OP1, OP2) is V-shaped with its minimum `best` mid-grid
    return [(best + 0.01 * abs(i - 30), best + 0.005 * abs(i - 30)) for i in range(61)]


def test_optimum_check_balanced():
    grid = _grid(0.1)
    assert checks.check_optimum("ok", "balanced", 0.1, 0.1, grid, (0.2, 0.3), 0.9) == []
    assert checks.check_optimum("worse than grid", "balanced", 0.2, 0.1, grid, (0.3, 0.3), 0.9)
    assert checks.check_optimum("worse than fixed", "balanced", 0.104, 0.1, grid,
                                (0.09, 0.09), 0.9)
    assert checks.check_optimum("wrong mode", "fallback_user1", 0.1, 0.1, grid,
                                (0.2, 0.3), 0.9)


def test_optimum_check_fallback():
    grid = [(1e-3 + 1e-4 * abs(i - 10), 0.95) for i in range(61)]
    assert checks.check_optimum("ok", "fallback_user1", 1e-3, 0.95, grid, (2e-3, 0.99), 0.9) == []
    assert checks.check_optimum("bad", "fallback_user1", 1.2e-3, 0.95, grid, (2e-3, 0.99), 0.9)
    assert checks.check_optimum("wrong mode", "balanced", 1e-3, 0.95, grid, (2e-3, 0.99), 0.9)


def test_default_optimum_check():
    assert checks.check_default_optimum("ok", -46.9, 7.6) == []
    assert checks.check_default_optimum("budget", -40.0, 7.6)
    assert checks.check_default_optimum("gain", -46.9, 20.0)


def test_preset_csv_check():
    cols = workload.CSV_COLUMNS
    row = ["pt_ris_dbm", "-70", "1", "mc", "0.5", "0.01", "1", "from_power", "3.0"]
    rows = [row] * 84
    assert checks.check_preset_csv("ok", 0, cols, rows, cols, 84) == []
    assert checks.check_preset_csv("exit", 1, cols, rows, cols, 84)
    assert checks.check_preset_csv("columns", 0, cols[:-1], rows, cols, 84)
    assert checks.check_preset_csv("rows", 0, cols, rows[:-1], cols, 84)
    bad = row[:7] + ["error:ValueError", "0.0"]
    assert checks.check_preset_csv("error row", 0, cols, rows[:-1] + [bad], cols, 84)


def test_same_check_rejects_other_signature():
    assert checks.check_same("sig", "ab12", "ab12") == []
    assert checks.check_same("sig", "ab12", "ab13")


def test_reference_sampler_agrees_with_program_and_catches_modest_errors():
    # the workload's own comparison: M = N = 192, program 4000 trials, reference 12000
    m, alpha = workload.McSizes.REF_SIZE, workload.McSizes.ALPHA
    trials, ref_trials = workload.McSizes.TRIALS, workload.McSizes.REF_TRIALS
    cfg = risnoma.validate(risnoma.SystemConfig(
        **SCN, alpha_mode="fixed", alpha_linear=alpha, m_active=m, n_passive=m,
        mc_trials=trials, seed=5))
    r1, r2 = risnoma.estimate_outage_pair(cfg)
    k_prog = (round(r1.op * trials), round(r2.op * trials))

    def fails(scn, gain):
        k_ref = checks.reference_outage_counts(scn, m, m, gain, ref_trials, seed=11)
        return [checks.check_reference(f"user {u + 1}", k_prog[u], trials, k_ref[u], ref_trials)
                for u in (0, 1)]

    assert fails(SCN, alpha) == [[], []]
    # a 1.2x error in the amplifier gain moves user 1 by about 10 SE
    assert fails(SCN, 1.2 * alpha)[0]
    # a 1.2x error in the received power (a variance or Pt) moves user 2 by about 14 SE
    louder = dict(SCN, pt_user_dbm=SCN["pt_user_dbm"] + 10.0 * math.log10(1.2))
    assert fails(louder, alpha)[1]


def _fig3_rows(gain_scale=1.0, mc_op=0.31, an_op=0.3):
    rows = []
    for budget in ("-52", "-46"):
        alpha = gain_scale * checks.gain_from_budget(SCN, workload.Fig3Cli.M, float(budget))
        for method, op in (("mc", mc_op), ("analytic", an_op)):
            for user in ("1", "2"):
                rows.append(["pt_ris_dbm", budget, user, method, str(op), "0.01",
                             f"{alpha:.10g}", "from_power", "3.0"])
    return rows


def test_fig3_value_checks():
    check = workload.Fig3Cli.check_values
    assert check(_fig3_rows()) == []
    assert check(_fig3_rows(gain_scale=1.01))
    assert check(_fig3_rows(mc_op=0.4))
    assert check([r for r in _fig3_rows() if r[3] == "mc"])
    assert check(_fig3_rows(mc_op=0.0, an_op=1e-4))   # nothing moderate to compare
    # the clamp: below 0 dB gain the budget buys gain 1, above 30 dB gain 1000
    assert checks.gain_from_budget(SCN, 512, -70.0) == 1.0
    assert checks.gain_from_budget(SCN, 512, -10.0) == 1000.0


def test_quadrature_matches_gil_pelaez_and_catches_wrong_gain():
    alpha = 7.6
    cfg = risnoma.validate(risnoma.SystemConfig(
        **SCN, alpha_mode="fixed", alpha_linear=alpha, m_active=256, n_passive=256))
    quiet = replace(cfg, namp_dbm=-300.0)
    res = risnoma.analytic_outage(quiet, 2)
    p_q, e_q = checks.quad_outage_u2(SCN, 256, 256, alpha)
    assert checks.check_quad("ok", res.op, res.std_err, p_q, e_q, quiet.quad_tol) == []
    p_w, e_w = checks.quad_outage_u2(SCN, 256, 256, 1.5 * alpha)
    assert checks.check_quad("wrong gain", res.op, res.std_err, p_w, e_w, quiet.quad_tol)


def test_optimum_budget_inverts_gain_from_power():
    cfg = risnoma.validate(risnoma.SystemConfig(alpha_mode="from_power", pt_ris_dbm=-47.0))
    alpha = risnoma.alpha_from_power(cfg)
    assert math.isclose(checks.optimum_budget_dbm(SCN, 512, alpha), -47.0, abs_tol=1e-9)


def test_tracer_restores_originals_and_counts_work():
    original = risnoma.montecarlo.estimate_outage_pair
    tracer = tracing.Tracer()
    tracer.install()
    assert risnoma.estimate_outage_pair is not original
    cfg = risnoma.validate(risnoma.SystemConfig(m_active=64, n_passive=64, mc_trials=3000))
    risnoma.estimate_outage_pair(cfg)
    serial_end = len(tracer.spans)
    risnoma.estimate_outage_pair(cfg, workers=2)   # two blocks: one pool
    tracer.uninstall()
    assert risnoma.estimate_outage_pair is original
    assert risnoma.montecarlo.estimate_outage_pair is original
    summary = tracing.summarize(tracer.spans, 0, serial_end)
    pooled = tracing.summarize(tracer.spans, serial_end, len(tracer.spans))
    metrics, absent = tracing.layer_metrics([summary], pooled, tracer.missing)
    assert absent == []
    assert metrics["montecarlo.trials"]["value"] == 3000
    assert metrics["montecarlo.blocks"]["value"] == 2
    assert metrics["channel.draw_us_per_trial"]["value"] > 0
    assert metrics["montecarlo.pools_started"]["value"] == 1
    assert metrics["montecarlo.pool_start_ms"]["value"] > 0


def test_missing_traced_function_marks_metric_absent(monkeypatch):
    targets = dict(tracing.TARGETS)
    targets["kernels.reduce"] = ("risnoma._no_such_module", "link_terms_block", None, None)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    assert "kernels.reduce" in tracer.missing
    tracer.install()
    tracer.uninstall()
    metrics, absent = tracing.layer_metrics([{}], {}, tracer.missing)
    assert absent == ["kernels.reduce_us_per_trial"]
    assert "kernels.reduce_us_per_trial" not in metrics
    assert "channel.draw_us_per_trial" in metrics


def test_child_past_its_timeout_is_killed_and_the_run_fails():
    import run
    with pytest.raises(SystemExit) as exc:
        run.run_child(["-c", "import time; time.sleep(30)"], dict(os.environ), 1.0)
    assert exc.value.code == 2
