import hashlib
import json
import math
import os
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import risnoma as rn
from risnoma.cli import main
from risnoma import resolve_alpha
from risnoma.sweep import CSV_COLUMNS, FLOOR_EVENTS, apply_param, fmt_value, is_noisy
from conftest import mc_outage


def _fast_base(**kw):
    # analytic-friendly unit config with mid-range outage
    defaults = dict(m_active=64, n_passive=64, alpha_mode="fixed",
                    alpha_linear=1.0, sigma2_u1=1.0, sigma2_u2=1.0,
                    sigma2_bs=1.0, pt_user_dbm=30.0, w0_dbm=59.0,
                    namp_dbm=-300.0, mc_trials=4000, seed=99)
    defaults.update(kw)
    return rn.validate(rn.SystemConfig(**defaults))


class TestParseValues:
    def test_list(self):
        assert rn.parse_values("1,2,3.5") == (1.0, 2.0, 3.5)

    def test_range(self):
        assert rn.parse_values("-70:-60:5") == (-70.0, -65.0, -60.0)

    def test_log(self):
        vals = rn.parse_values("log:0.001:0.1:3")
        assert vals == pytest.approx((0.001, 0.01, 0.1))
        # for an integer parameter log-spaced values round to the nearest integer
        assert rn.parse_values("log:1:10:3", as_int=True) == (1, 3, 10)

    def test_int_cast(self):
        assert rn.parse_values("64,128", as_int=True) == (64, 128)
        # 2^53 + 1 and + 3 are not floats; a float parse rounds them
        vals = rn.parse_values("9007199254740993,9007199254740995", as_int=True)
        assert vals == (9007199254740993, 9007199254740995)

    def test_int_range_exact(self):
        # a range of integer literals expands in integers, not through float
        vals = rn.parse_values("9007199254740993:9007199254740997:2", as_int=True)
        assert vals == (9007199254740993, 9007199254740995, 9007199254740997)
        # the same values as the float rule where floats are exact
        assert rn.parse_values("64:512:64", as_int=True) == tuple(range(64, 513, 64))
        assert rn.parse_values("1:4:4", as_int=True) == (1, 5)
        assert rn.parse_values("1:3:4", as_int=True) == (1,)
        # fractional parts are refused, as in a comma list, not rounded
        for spec in ("1.5:4:1", "64:66:0.5", "64.5,65"):
            with pytest.raises(ValueError):
                rn.parse_values(spec, as_int=True)
        # integral floats are integers, as in --set
        assert rn.parse_values("1e3,2e3", as_int=True) == (1000, 2000)
        assert rn.parse_values("1e3:3e3:1e3", as_int=True) == (1000, 2000, 3000)

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            rn.parse_values("1:2:0")
        with pytest.raises(ValueError):
            rn.parse_values("log:-1:1:3")


class TestApplyParam:
    def test_ris_size_sets_both(self):
        cfg = apply_param(rn.SystemConfig(), "ris_size", 320)
        assert cfg.m_active == 320 and cfg.n_passive == 320

    def test_scalar_param(self):
        cfg = apply_param(rn.SystemConfig(), "pt_user_dbm", 7.0)
        assert cfg.pt_user_dbm == 7.0

    def test_integer_param_refuses_fractions(self):
        cfg = apply_param(rn.SystemConfig(), "m_active", 64.0)
        assert cfg.m_active == 64 and type(cfg.m_active) is int
        for param in ("m_active", "ris_size"):
            with pytest.raises(rn.ConfigError, match=f"{param}: expected an integer"):
                apply_param(rn.SystemConfig(), param, 64.6)


class TestRunSweep:
    def test_rows_and_csv(self, tmp_path):
        out = tmp_path / "s.csv"
        spec = rn.SweepSpec(param="rate_threshold_bps_hz",
                            values=(1.0, 2.0, 3.0), methods=("analytic",))
        rows, noisy = rn.run_sweep(spec, _fast_base(), out)
        assert len(rows) == 3 * 2  # points x users
        text = out.read_text().splitlines()
        header = json.loads(text[0][2:])
        assert header["config"]["m_active"] == 64
        assert text[2] == ",".join(CSV_COLUMNS)
        assert len([l for l in text if not l.startswith("#")]) == 1 + 6

    def test_outage_monotone_in_rate(self, tmp_path):
        spec = rn.SweepSpec(param="rate_threshold_bps_hz",
                            values=(0.5, 1.0, 2.0, 3.0), methods=("analytic",))
        rows, _ = rn.run_sweep(spec, _fast_base(), tmp_path / "m.csv")
        ops = [r.op for r in rows if r.user == 2]
        assert all(a <= b + 1e-9 for a, b in zip(ops, ops[1:]))

    def test_invalid_point_becomes_error_rows(self, tmp_path):
        spec = rn.SweepSpec(param="fc_ghz", values=(3.0, 9.0), methods=("analytic",))
        base = rn.validate(rn.SystemConfig())
        rows, _ = rn.run_sweep(spec, base, tmp_path / "e.csv")
        bad = [r for r in rows if r.sweep_value == 9.0]
        assert bad and all(r.mode.startswith("error") for r in bad)
        assert all(np.isnan(r.op) for r in bad)

    def test_fractional_integer_point_is_error_rows(self, tmp_path):
        spec = rn.SweepSpec(param="m_active", values=(64, 64.5), methods=("analytic",))
        rows, _ = rn.run_sweep(spec, _fast_base(), tmp_path / "i.csv")
        assert [r.mode for r in rows if r.sweep_value == 64.5] == ["error:ConfigError"] * 2
        assert not any(r.mode.startswith("error") for r in rows if r.sweep_value == 64)

    def test_config_error_rows_are_method_major(self, tmp_path):
        spec = rn.SweepSpec(param="fc_ghz", values=(8.0, 9.0), methods=("mc", "analytic"))
        rows, _ = rn.run_sweep(spec, rn.validate(rn.SystemConfig()), tmp_path / "o.csv")
        assert [(r.sweep_value, r.method, r.user) for r in rows] == [
            (v, m, u) for v in (8.0, 9.0) for m in ("mc", "analytic") for u in (1, 2)]
        assert all(r.mode == "error:ConfigError" for r in rows)

    def test_floor_limited_uses_each_rows_trials(self, tmp_path):
        # user 2 is near 0.41 here: under 1000 events at 2000 trials, over at 3000
        out = tmp_path / "f.csv"
        spec = rn.SweepSpec(param="mc_trials", values=(2000, 3000), methods=("mc",))
        rows, _ = rn.run_sweep(spec, _fast_base(), out)
        assert [r.trials for r in rows] == [2000, 2000, 3000, 3000]
        few = sorted(f"{r.sweep_value:.10g}/u{r.user}" for r in rows
                     if r.op * r.trials < FLOOR_EVENTS)
        assert "2000/u2" in few
        lines = out.read_text().splitlines()
        assert lines[-1] == (f"# floor-limited (fewer than {FLOOR_EVENTS} events): "
                             + " ".join(few))

    def test_each_distinct_point_is_evaluated_once(self, monkeypatch):
        # at M = N = 64 the budgets up to -72 dBm give the 0 dB floor and
        # those from -32 dBm the 30 dB cap: each gain is evaluated once, and
        # every row is the row of one run_point call at its own value
        base = rn.validate(rn.SystemConfig(m_active=64, n_passive=64, mc_trials=650,
                                           rate_threshold_bps_hz=3.0))
        values = tuple(float(x) for x in range(-80, 1, 8))
        spec = rn.SweepSpec(param="pt_ris_dbm", values=values, alpha_mode="from_power")
        evaluated = []
        run_point = rn.sweep.run_point

        def counted(config, *args, **kwargs):
            evaluated.append(config.pt_ris_dbm)
            return run_point(config, *args, **kwargs)

        monkeypatch.setattr(rn.sweep, "run_point", counted)
        rows, _ = rn.run_sweep(spec, base)
        monkeypatch.undo()
        points = [rn.validate(apply_param(replace(base, alpha_mode="from_power"),
                                          "pt_ris_dbm", x)) for x in values]
        gains = [resolve_alpha(p) for p in points]
        assert len(evaluated) == len(set(gains)) == len(values) - 5
        one_call_each = [r for x, p in zip(values, points)
                         for r in rn.run_point(p, spec.methods, sweep_param="pt_ris_dbm",
                                               sweep_value=x)]
        assert [replace(r, ms=0.0) for r in rows] == [replace(r, ms=0.0) for r in one_call_each]
        assert {r.config_digest for r in rows} == {p.digest() for p in points}
        assert all((r.ms > 0.0) == (r.sweep_value in evaluated) for r in rows)

    @staticmethod
    def _alone(spec, base):
        """The oracle: one run_point call per point, each searching on its own;
        rows as reprs without ms, so that nan rows compare equal."""
        base = replace(base, alpha_mode=spec.alpha_mode)
        return [repr(replace(r, ms=0.0)) for x in spec.values
                for r in rn.run_point(rn.validate(apply_param(base, spec.param, x)),
                                      spec.methods, sweep_param=spec.param, sweep_value=x)]

    def test_optimized_points_are_searched_in_lockstep(self, monkeypatch):
        # the searches share their outage_pairs calls, and each point still
        # goes through one run_point call, with the rows of its own search
        spec = rn.SweepSpec(param="pt_user_dbm", values=(8.0, 12.0, 16.0),
                            methods=("analytic",), alpha_mode="optimized")
        base = rn.validate(rn.SystemConfig(m_active=128, n_passive=128))
        sizes, points = [], []
        evaluate, run_point = rn.optimizer.outage_pairs, rn.sweep.run_point

        def counted(configs, method, *, workers):
            sizes.append(len(configs))
            return evaluate(configs, method, workers=workers)

        def counted_point(config, *args, **kwargs):
            points.append(config.pt_user_dbm)
            return run_point(config, *args, **kwargs)

        monkeypatch.setattr(rn.optimizer, "outage_pairs", counted)
        monkeypatch.setattr(rn.sweep, "run_point", counted_point)
        rows, _ = rn.run_sweep(spec, base)
        batched = len(sizes)
        sizes.clear()
        monkeypatch.setattr(rn.sweep, "run_point", run_point)
        assert [repr(replace(r, ms=0.0)) for r in rows] == self._alone(spec, base)
        assert points == list(spec.values)
        assert batched < len(sizes) / 2
        assert all(r.ms > 0.0 for r in rows)

    def test_failed_joint_point_keeps_the_others(self):
        # analytic inversion refuses the joint outage: its point gives
        # error rows, and the point at 0 keeps the rows of its own search
        spec = rn.SweepSpec(param="joint_outage_u2", values=(0.0, 1.0),
                            methods=("analytic",), alpha_mode="optimized")
        rows, _ = rn.run_sweep(spec, rn.validate(rn.SystemConfig()))
        assert [repr(replace(r, ms=0.0)) for r in rows] == self._alone(spec, rn.SystemConfig())
        assert [r.mode for r in rows] == ["balanced"] * 2 + ["error:NotImplementedError"] * 2
        assert all(math.isfinite(r.op) for r in rows[:2])

    def test_accuracy_error_in_one_point_keeps_the_others(self, monkeypatch):
        # below 51 initial panels the grid at w0 = -130 dBm fails; the grid
        # at -100 dBm fits, so only the first point gives error rows
        monkeypatch.setattr(rn.analytic, "MAX_PANELS", 50)
        spec = rn.SweepSpec(param="w0_dbm", values=(-130.0, -100.0),
                            methods=("analytic",), alpha_mode="optimized")
        base = rn.validate(rn.SystemConfig(m_active=128, n_passive=128, pt_user_dbm=30.0))
        rows, _ = rn.run_sweep(spec, base)
        assert [repr(replace(r, ms=0.0)) for r in rows] == self._alone(spec, base)
        assert [r.mode for r in rows] == ["error:AccuracyError"] * 2 + ["fallback_user1"] * 2
        assert "51 initial panels" in rows[0].error

    def test_determinism_across_workers(self, tmp_path):
        spec = rn.SweepSpec(param="pt_user_dbm", values=(28.0, 30.0, 32.0),
                            methods=("mc", "analytic"))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rn.run_sweep(spec, _fast_base(), a, workers=1)
        rn.run_sweep(spec, _fast_base(), b, workers=2)
        assert rn.determinism_signature(a) == rn.determinism_signature(b)

    def test_spec_validation(self):
        with pytest.raises(rn.ConfigError):
            rn.SweepSpec(param="nope", values=(1, 2)).check()
        with pytest.raises(rn.ConfigError):
            rn.SweepSpec(param="fc_ghz", values=(1,)).check()


class TestPresets:
    def test_variants_pinned(self):
        # repr of every variant as the literal table gave it; an int value
        # turning into a float, or a changed label or method, fails it
        from risnoma.sweep import PRESET_NAMES, PRESET_TRIALS
        text = repr([rn.preset(name) for name in PRESET_NAMES])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "600bdb9cbdd60b984b55dfa7b06f74d69dafa9e37bca2567db6776304ce01a1c")
        assert PRESET_TRIALS == 20_000

    def test_known_names(self):
        from risnoma.sweep import PRESET_NAMES
        for name in PRESET_NAMES:
            assert rn.preset(name)

    def test_fig3_shape(self):
        variants = rn.preset("fig3")
        assert len(variants) == 1
        spec = variants[0].spec
        assert spec.param == "pt_ris_dbm"
        assert spec.alpha_mode == "from_power"
        assert min(spec.values) == -70.0 and max(spec.values) == -10.0

    def test_fig4_has_fixed_and_optimized(self):
        variants = rn.preset("fig4")
        modes = {v.spec.alpha_mode for v in variants}
        assert modes == {"fixed", "optimized"}
        assert all(v.spec.param == "ris_size" for v in variants)

    def test_fig6_rates_from_zero(self):
        variants = rn.preset("fig6")
        assert all(v.spec.param == "rate_threshold_bps_hz" for v in variants)
        assert all(min(v.spec.values) == 0.0 for v in variants)

    def test_fig7_epsilon_variants(self):
        variants = rn.preset("fig7")
        eps = sorted(v.overrides.get("epsilon_sic") for v in variants)
        assert eps == [0.0, 0.01, 0.1]

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            rn.preset("fig9")


class TestCli:
    def test_validate_ok(self, capsys):
        assert main(["validate", "--set", "pt_ris_dbm=-40"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pt_ris_dbm"] == -40.0

    def test_validate_rejects(self, capsys):
        assert main(["validate", "--set", "fc_ghz=1"]) == 2
        assert "fc_ghz" in capsys.readouterr().err

    def test_unknown_key_exits_2(self):
        assert main(["validate", "--set", "bogus=1"]) == 2

    # geometry kept for the record only (README), the manual truncation
    # limit and the amplifier cap (always ALPHA_MAX) are not config keys
    @pytest.mark.parametrize("key", ["d_u1_bs_m", "d_u2_bs_m", "h_u1_m", "h_u2_m",
                                     "h_ris_m", "h_bs_m", "quad_omega_max", "g_max_db"])
    def test_removed_key_exits_2(self, key, tmp_path, capsys):
        assert main(["validate", "--set", f"{key}=50"]) == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 50\n")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.count(f"unknown key '{key}'") == 2

    def test_non_finite_float_exits_2(self, capsys):
        assert main(["validate", "--set", "w0_dbm=nan"]) == 2
        assert "w0_dbm must be a finite number, got nan" in capsys.readouterr().err

    def test_point_json(self, capsys):
        code = main(["point", "--set", "sigma2_u1=1", "--set", "sigma2_u2=1",
                     "--set", "sigma2_bs=1", "--set", "m_active=64",
                     "--set", "n_passive=64", "--set", "alpha_linear=1",
                     "--set", "pt_user_dbm=30", "--set", "w0_dbm=59",
                     "--set", "namp_dbm=-300", "--trials", "4000",
                     "--method", "both", "--json", "--allow-noisy"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4  # 2 users x 2 methods
        assert {r["method"] for r in rows} == {"mc", "analytic"}

    def test_point_optimized_gain(self, capsys):
        code = main(["point", "--method", "analytic", "--set",
                     "alpha_mode=optimized", "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        ref = rn.run_point(rn.validate(rn.SystemConfig(alpha_mode="optimized")),
                           ("analytic",))
        assert ([(r["op"], r["err"], r["alpha"]) for r in rows]
                == [(r.op, r.err, r.alpha) for r in ref])

    def test_point_workers_2_matches_workers_1(self, capsys):
        # 2000 trials at M=N=512 span several blocks, so two workers run
        args = ["point", "--method", "mc", "--trials", "2000", "--allow-noisy", "--json",
                "--set", "rate_threshold_bps_hz=3"]
        outs = []
        for workers in ("1", "2"):
            assert main([*args, "--workers", workers]) == 0
            outs.append(json.loads(capsys.readouterr().out))
        assert outs[0] == outs[1]
        assert all(r["op"] > 0.0 for r in outs[0])

    def test_point_failed_method_is_error_row(self, capsys):
        code = main(["point", "--method", "analytic", "--set", "joint_outage_u2=true"])
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and all("[error:NotImplementedError]" in l for l in out)

    def test_point_error_rows_say_why(self, capsys):
        args = ["point", "--method", "analytic", "--set", "joint_outage_u2=true"]
        assert main(args) == 1
        out = capsys.readouterr().out.splitlines()
        assert all("joint decode outage is simulation-only" in l for l in out)
        assert main(args + ["--json"]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert all("simulation-only" in r["error"] for r in rows)

    @pytest.mark.parametrize("override", ["pt_user_dbm=3000", "rate_threshold_bps_hz=1000"])
    def test_point_overflowing_moments_are_error_rows(self, override, capsys):
        # moments that overflow in watts are scaled away, so each override alone
        # gives numbers: the interference-limited op1 (op2 = 0) at a huge power,
        # the sure outage at a huge rate; together they put the weight pt v
        # past a double, which gives error rows
        args = ["point", "--method", "analytic", "--json"]
        assert main(args + ["--set", override]) == 0
        ops = [r["op"] for r in json.loads(capsys.readouterr().out)]
        if override.startswith("pt"):
            assert 0.0 < ops[0] < 1e-6 and ops[1] == 0.0
        else:
            assert ops == [1.0, 1.0]
        both = ["--set", "pt_user_dbm=3000", "--set", "rate_threshold_bps_hz=1000"]
        assert main(args + both) == 1
        rows = json.loads(capsys.readouterr().out)
        assert [(r["mode"], r["op"]) for r in rows] == [("error:AccuracyError", None)] * 2

    def test_threshold_overflow_is_a_config_error(self, tmp_path, capsys):
        assert main(["point", "--set", "rate_threshold_bps_hz=1100"]) == 2
        assert "rate_threshold_bps_hz must be in [0, 1024)" in capsys.readouterr().err
        out = tmp_path / "rate.csv"
        code = main(["sweep", "--param", "rate_threshold_bps_hz", "--values", "2,1100",
                     "--method", "analytic", "--out", str(out)])
        assert code == 1
        body = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert [(r[1], r[7]) for r in body] == [("2", "fixed")] * 2 + [
            ("1100", "error:ConfigError")] * 2
        assert all(math.isfinite(float(r[4])) for r in body[:2])

    def test_point_json_is_strict(self, capsys):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        args = ["point", "--method", "both", "--trials", "500", "--json",
                "--set", "joint_outage_u2=true"]
        assert main(args) == 1
        rows = json.loads(capsys.readouterr().out, parse_constant=reject)
        failed = [r for r in rows if r["method"] == "analytic"]
        assert failed and all(r["op"] is None and r["err"] is None for r in failed)
        assert all(r["error"] is None for r in rows if r["method"] == "mc")

    def test_point_zero_events_is_noisy(self, capsys):
        # the default config is a deep-tail point: 2000 trials see no outage
        args = ["point", "--method", "mc", "--trials", "2000"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "no outage event in 2000 trials" in err
        assert main(args + ["--allow-noisy"]) == 0

    def test_zero_event_row_rule(self):
        row = rn.ResultRow(sweep_param="p", sweep_value=0.0, user=1, method="mc",
                           op=0.0, err=0.0, alpha=1.0, mode="fixed", ms=0.0,
                           trials=2000)
        assert is_noisy(row)
        assert not is_noisy(replace(row, op=0.5, err=0.01))
        assert not is_noisy(replace(row, method="analytic", trials=0))

    def test_sweep_reports_error_messages(self, tmp_path, capsys):
        code = main(["sweep", "--param", "fc_ghz", "--values", "3,9",
                     "--method", "analytic", "--out", str(tmp_path / "e.csv")])
        assert code == 1
        assert "fc_ghz must be in" in capsys.readouterr().err

    def test_sweep_bool_param_values_are_error_rows(self, tmp_path, capsys):
        # a bool sweep value reads as the config file reads one: 0.5 is
        # neither true nor false (it ran as true before)
        out = tmp_path / "joint.csv"
        code = main(["sweep", "--param", "joint_outage_u2", "--values", "0,0.5",
                     "--method", "mc", "--trials", "2000", "--allow-noisy",
                     "--out", str(out)])
        assert code == 1
        assert "joint_outage_u2: expected a boolean, got '0.5'" in capsys.readouterr().err
        body = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert [(r[1], r[7]) for r in body] == [("0", "fixed")] * 2 + [
            ("0.5", "error:ConfigError")] * 2

    def test_sweep_bool_param_reads_zero_and_one(self, tmp_path, capsys):
        out = tmp_path / "joint.csv"
        code = main(["sweep", "--param", "joint_outage_u2", "--values", "0,1",
                     "--method", "mc", "--trials", "2000", "--allow-noisy",
                     "--set", "rate_threshold_bps_hz=3", "--out", str(out)])
        assert code == 0
        body = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert [(r[1], r[2], r[7]) for r in body] == [
            (v, u, "fixed") for v in ("0", "1") for u in ("1", "2")]
        # joint decoding fails user 2 also where user 1 fails
        assert float(body[0][4]) == float(body[2][4]) > 0.0
        assert float(body[3][4]) > float(body[1][4]) > 0.0

    def test_sweep_optimizer_failure_is_error_rows(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        code = main(["sweep", "--param", "pt_user_dbm", "--values", "10,12",
                     "--set", "alpha_mode=optimized", "--method", "analytic",
                     "--set", "joint_outage_u2=true", "--out", str(out)])
        assert code == 1
        assert "joint decode outage is simulation-only" in capsys.readouterr().err
        body = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert [(r[1], r[2]) for r in body] == [("10", "1"), ("10", "2"),
                                                ("12", "1"), ("12", "2")]
        assert all(r[7] == "error:NotImplementedError" and r[4] == "nan"
                   for r in body)

    def test_sweep_int_param_values_exact(self, tmp_path, capsys):
        out = tmp_path / "seed.csv"
        seeds = [9007199254740993, 9007199254740995]
        code = main(["sweep", "--param", "seed", "--values",
                     ",".join(map(str, seeds)), "--method", "analytic",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        header = json.loads(lines[0][2:])
        assert header["sweep"]["values"] == seeds
        body = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert [int(r[1]) for r in body] == [s for s in seeds for _ in (1, 2)]

    def test_sweep_int_param_range_exact(self, tmp_path):
        out = tmp_path / "seed_range.csv"
        seeds = [9007199254740993, 9007199254740995, 9007199254740997]
        code = main(["sweep", "--param", "seed", "--values",
                     "9007199254740993:9007199254740997:2", "--method", "analytic",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert json.loads(lines[0][2:])["sweep"]["values"] == seeds
        body = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert [int(r[1]) for r in body] == [s for s in seeds for _ in (1, 2)]

    def test_sweep_mc_trials_accepts_integral_floats(self, tmp_path):
        out = tmp_path / "trials.csv"
        code = main(["sweep", "--param", "mc_trials", "--values", "1e3,2e3",
                     "--method", "analytic", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text().splitlines()[0][2:])["sweep"]["values"] == [1000, 2000]

    def test_validate_integer_keys(self, capsys):
        big = 9007199254740993
        assert main(["validate", "--set", f"seed={big}"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == big
        assert main(["validate", "--seed", str(big), "--trials", "1e3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["seed"], payload["mc_trials"]) == (big, 1000)

    def test_sweep_noisy_rows_say_why(self, tmp_path, capsys):
        # the default config is a deep-tail point: 500 trials see no outage
        args = ["sweep", "--param", "pt_user_dbm", "--values", "15,16", "--method", "mc",
                "--trials", "500", "--out", str(tmp_path / "n.csv")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "noisy: pt_user_dbm=15 mc user 1: no outage event in 500 trials" in err
        assert "error: noisy MC rows" in err
        assert main(args + ["--allow-noisy"]) == 0
        assert "error:" not in capsys.readouterr().err

    def test_point_noisy_exit(self, capsys):
        # tiny trial count at a small probability: std err above the bar
        args = ["point", "--set", "sigma2_u1=1", "--set", "sigma2_u2=1",
                "--set", "sigma2_bs=1", "--set", "m_active=64",
                "--set", "n_passive=64", "--set", "alpha_linear=1",
                "--set", "pt_user_dbm=30", "--set", "w0_dbm=40",
                "--set", "namp_dbm=-300", "--trials", "300", "--method", "mc"]
        code = main(args)
        captured = capsys.readouterr()
        if code == 1:
            assert "noisy" in captured.err
        assert main(args + ["--allow-noisy"]) in (0, 1)

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--param", "rate_threshold_bps_hz",
                     "--values", "1:3:1", "--method", "analytic",
                     "--set", "sigma2_u1=1", "--set", "sigma2_u2=1",
                     "--set", "sigma2_bs=1", "--set", "m_active=64",
                     "--set", "n_passive=64", "--set", "alpha_linear=1",
                     "--set", "pt_user_dbm=30", "--set", "w0_dbm=59",
                     "--set", "namp_dbm=-300", "--out", str(out)])
        assert code == 0
        assert out.exists()
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 1 + 3 * 2

    def test_optimize_json(self, capsys):
        code = main(["optimize", "--interval", "-50", "-44", "--tol-db", "0.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert -50 <= payload["pt_ris_dbm"] <= -44
        assert "delta_max_op" in payload

    def test_optimize_has_no_search_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["optimize", "--search", "golden"])
        assert info.value.code == 2
        assert "--search" in capsys.readouterr().err

    def test_optimize_has_no_tau_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["optimize", "--tau", "0.5"])
        assert info.value.code == 2
        assert "--tau" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_optimize_bad_tol_exits_2(self, tol, capsys):
        assert main(["optimize", "--interval", "-50", "-44", "--tol-db", tol]) == 2
        assert "tol_db must be a finite number > 0" in capsys.readouterr().err

    def test_optimize_interval_overflowing_watts_exits_2(self, capsys):
        assert main(["optimize", "--interval", "-70", "4000"]) == 2
        assert "(-70.0, 4000.0)" in capsys.readouterr().err

    def test_point_power_overflowing_watts_exits_2(self, capsys):
        assert main(["point", "--method", "analytic", "--set", "alpha_mode=from_power",
                     "--set", "pt_ris_dbm=4000"]) == 2
        assert "pt_ris_dbm must be at most about 3082.5 dBm" in capsys.readouterr().err

    @pytest.mark.parametrize("param, sets", [("pt_ris_dbm", ["alpha_mode=from_power"]),
                                             ("pt_user_dbm", [])])
    def test_sweep_power_overflowing_watts_is_error_rows(self, param, sets, tmp_path, capsys):
        # the point past the overflow fails alone; the other keeps its numbers
        out = tmp_path / "overflow.csv"
        argv = ["sweep", "--param", param, "--values=-50,4000", "--method", "analytic",
                "--out", str(out)]
        assert main(argv + [a for s in sets for a in ("--set", s)]) == 1
        assert f"{param} must be at most about 3082.5 dBm" in capsys.readouterr().err
        body = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert [r[7] for r in body if r[1] == "4000"] == ["error:ConfigError"] * 2
        base = rn.apply_overrides(rn.SystemConfig(), [*sets, f"{param}=-50"])
        expected = rn.run_point(rn.validate(base), ("analytic",))
        assert [(r[4], r[5]) for r in body if r[1] == "-50"] == [
            (fmt_value(r.op), fmt_value(r.err)) for r in expected]

    def test_readme_sweep_example_runs(self, tmp_path, capsys):
        # the README's own sweep command, analytic only and writing to tmp_path
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        line = re.search(r"^risnoma sweep (.*)$", readme.replace("\\\n", " "), re.MULTILINE)
        argv = ["sweep", *shlex.split(line.group(1))]
        argv[argv.index("--method") + 1] = "analytic"
        argv[argv.index("--out") + 1] = str(tmp_path / "budget.csv")
        assert main(argv) == 0
        body = [l for l in (tmp_path / "budget.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert len(body) == 1 + 42

    def test_optimize_infinite_interval_exits_2(self, capsys):
        assert main(["optimize", "--interval", "-70", "inf"]) == 2
        err = capsys.readouterr().err
        assert "search interval must be two finite dBm values" in err
        assert "(-70.0, inf)" in err

    @pytest.mark.parametrize("command", [["validate"], ["point"], ["optimize"],
                                         ["preset", "fig3"],
                                         ["sweep", "--param", "seed", "--values", "1,2",
                                          "--out", "unused.csv"]])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_2(self, command, workers, capsys):
        with pytest.raises(SystemExit) as info:
            main([*command, "--workers", workers])
        assert info.value.code == 2
        assert f"must be at least 1, got {workers}" in capsys.readouterr().err

    def test_preset_runs(self, tmp_path, capsys):
        code = main(["preset", "fig3", "--out-dir", str(tmp_path),
                     "--trials", "800", "--allow-noisy"])
        assert code == 0
        assert (tmp_path / "fig3.csv").exists()

    def test_preset_trials_from_every_config_source(self, tmp_path, capsys):
        # the desk-scale count is only the base: --config, --set and
        # --trials each set the trial count, and all run the same trials
        small = ["--set", "m_active=64", "--set", "n_passive=64", "--allow-noisy"]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("mc_trials = 300\n")
        runs = {"set": ["--set", "mc_trials=300"], "trials": ["--trials", "300"],
                "config": ["--config", str(cfg_file)]}
        for name, args in runs.items():
            assert main(["preset", "fig3", *args, *small,
                         "--out-dir", str(tmp_path / name)]) == 0
        headers, sigs = [], []
        for name in runs:
            path = tmp_path / name / "fig3.csv"
            headers.append(json.loads(path.read_text().splitlines()[0][2:]))
            sigs.append(rn.determinism_signature(path))
        assert [h["config"]["mc_trials"] for h in headers] == [300, 300, 300]
        assert sigs[0] == sigs[1] == sigs[2]

    def test_preset_base_is_desk_scale(self, tmp_path, monkeypatch):
        # with no trial count given, a preset (config file or not) runs
        # PRESET_TRIALS trials, not SystemConfig's default
        from risnoma import cli
        from risnoma.sweep import PRESET_TRIALS
        bases = []
        monkeypatch.setattr(cli, "run_preset",
                            lambda name, base, out_dir, *, workers: bases.append(base) or [])
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("m_active = 64\n")
        assert main(["preset", "fig3"]) == 0
        assert main(["preset", "fig3", "--config", str(cfg_file)]) == 0
        assert [(b.mc_trials, b.m_active) for b in bases] == [(PRESET_TRIALS, 512),
                                                               (PRESET_TRIALS, 64)]
        assert rn.SystemConfig().mc_trials != PRESET_TRIALS


class TestJointFlagSurface:
    def test_mc_joint_at_least_marginal(self):
        base = _fast_base(mc_trials=4000)
        joint = rn.validate(rn.SystemConfig(
            **{**{f: getattr(base, f) for f in
                  ("m_active", "n_passive", "alpha_mode", "alpha_linear",
                   "sigma2_u1", "sigma2_u2", "sigma2_bs", "pt_user_dbm",
                   "w0_dbm", "namp_dbm", "mc_trials", "seed")},
               "joint_outage_u2": True}))
        assert mc_outage(joint, 2).op >= mc_outage(base, 2).op
