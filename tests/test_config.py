import hashlib
import json
import math
import warnings
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import risnoma as rn
from risnoma.config import ALPHA_MAX, ALPHA_MIN


class TestUnits:
    def test_dbm_to_watt_definition(self):
        assert rn.dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-15)

    def test_dbm_to_watt_values(self):
        # direct evaluation: 10^1.5 mW and 10^-13 mW
        assert rn.dbm_to_watt(15.0) == pytest.approx(3.1622776601683795e-2, rel=1e-12)
        assert rn.dbm_to_watt(-130.0) == pytest.approx(1e-16, rel=1e-12)

    def test_rejects_bad_input(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                rn.dbm_to_watt(bad)

    @given(st.floats(min_value=-200.0, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, p_dbm):
        back = 10.0 * math.log10(rn.dbm_to_watt(p_dbm) * 1e3)
        assert math.isclose(back, p_dbm, rel_tol=1e-12, abs_tol=1e-12)


class TestValidate:
    def test_defaults_accepted_unchanged(self):
        cfg = rn.SystemConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = rn.validate(cfg)
        assert out == cfg

    def test_alpha_clamped_with_warning(self):
        cfg = rn.SystemConfig(alpha_linear=2000.0)
        with pytest.warns(rn.ConfigWarning):
            out = rn.validate(cfg)
        assert out.alpha_linear == ALPHA_MAX

    def test_alpha_floor(self):
        with pytest.warns(rn.ConfigWarning):
            out = rn.validate(rn.SystemConfig(alpha_linear=0.3))
        assert out.alpha_linear == ALPHA_MIN

    def test_out_of_range_frequency_rejected(self):
        with pytest.raises(rn.ConfigError, match="fc_ghz"):
            rn.validate(rn.SystemConfig(fc_ghz=1.0))

    def test_out_of_range_distance_rejected(self):
        with pytest.raises(rn.ConfigError, match="d_u1_ris_m"):
            rn.validate(rn.SystemConfig(d_u1_ris_m=5.0))

    def test_errors_aggregate(self):
        try:
            rn.validate(rn.SystemConfig(fc_ghz=1.0, m_active=0, epsilon_sic=2.0))
        except rn.ConfigError as exc:
            assert len(exc.problems) == 3
        else:
            pytest.fail("expected ConfigError")

    def test_idempotent(self):
        with pytest.warns(rn.ConfigWarning):
            once = rn.validate(rn.SystemConfig(alpha_linear=5000.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            twice = rn.validate(once)
        assert twice == once

    def test_bad_alpha_mode(self):
        with pytest.raises(rn.ConfigError, match="alpha_mode"):
            rn.validate(rn.SystemConfig(alpha_mode="auto"))

    def test_integer_fields_refuse_other_types(self):
        # a 64.5-element surface has no meaning; MC fails on it and the
        # analytic route would return a plausible-looking number
        with pytest.raises(rn.ConfigError) as info:
            rn.validate(rn.SystemConfig(m_active=64.5, mc_trials=1000.5, seed=3.0))
        assert info.value.problems == [
            "m_active must be an integer, got 64.5",
            "mc_trials must be an integer, got 1000.5",
            "seed must be an integer, got 3.0",
        ]
        for value in (2.0, True, "2"):
            with pytest.raises(rn.ConfigError, match="active_user must be an integer"):
                rn.validate(rn.SystemConfig(active_user=value))

    def test_bool_field_refuses_other_types(self):
        # "no" is a true value, so it ran with joint outage on
        for value in ("no", 0, 1, 0.5, None):
            with pytest.raises(rn.ConfigError) as info:
                rn.validate(rn.SystemConfig(joint_outage_u2=value))
            assert info.value.problems == [
                f"joint_outage_u2 must be true or false, got {value!r}"]
        assert rn.validate(rn.SystemConfig(joint_outage_u2=True)).joint_outage_u2 is True

    def test_float_fields_refuse_other_types_and_non_finite(self):
        # each passed validate before and failed later, or gave a number
        bad = dict(fc_ghz="5", pt_user_dbm="15", w0_dbm=math.nan, pt_ris_dbm=math.inf,
                   rate_threshold_bps_hz=math.nan, namp_dbm=True, sigma2_u1="1")
        for name, value in bad.items():
            with pytest.raises(rn.ConfigError) as info:
                rn.validate(rn.SystemConfig(**{name: value}))
            assert info.value.problems == [f"{name} must be a finite number, got {value!r}"]
        with pytest.raises(rn.ConfigError) as info:
            rn.validate(rn.SystemConfig(**bad))
        assert len(info.value.problems) == len(bad)
        # an int is a number, and None is allowed where the type is optional
        cfg = rn.validate(rn.SystemConfig(pt_user_dbm=15, sigma2_u1=None))
        assert cfg.pt_user_dbm == 15 and cfg.sigma2_u1 is None

    @pytest.mark.parametrize("name, value", [
        ("n_passive", 0), ("mc_trials", 0), ("active_user", 3),
        ("rate_threshold_bps_hz", -0.5), ("alpha_linear", 0.0),
        ("seed", -1), ("seed", 2**64), ("quad_tol", 0.0),
        ("pt_user_dbm", 4000.0), ("pt_ris_dbm", 4000.0), ("w0_dbm", 4000.0),
        ("namp_dbm", 4000.0),
        ("rate_threshold_bps_hz", 1024.0), ("rate_threshold_bps_hz", 1100.0),  # 2^r overflows
    ])
    def test_range_checks(self, name, value):
        with pytest.raises(rn.ConfigError) as info:
            rn.validate(rn.SystemConfig(**{name: value}))
        [problem] = info.value.problems
        assert problem.startswith(f"{name} must") and problem.endswith(f", got {value}")

    def test_power_limit_is_the_watt_overflow(self):
        # 10^(p/10) overflows a double above about 3082.5 dBm; an underflow
        # to 0 W is accepted
        rn.validate(rn.SystemConfig(pt_ris_dbm=3082.5))
        with pytest.raises(rn.ConfigError, match="pt_ris_dbm must"):
            rn.validate(rn.SystemConfig(pt_ris_dbm=3082.6))
        assert rn.dbm_to_watt(-4000.0) == 0.0
        assert rn.validate(rn.SystemConfig(namp_dbm=-4000.0)).namp_dbm == -4000.0

    def test_sigma_override_must_be_positive(self):
        with pytest.raises(rn.ConfigError, match="sigma2_u1"):
            rn.validate(rn.SystemConfig(sigma2_u1=-1.0))


class TestConfigFile:
    def test_parse_round_trip(self):
        text = """
        # sweep base
        pt_user_dbm = 12.5
        m_active = 256
        alpha_mode = from_power
        sigma2_u1 = none
        joint_outage_u2 = false
        seed = 42
        """
        cfg = rn.parse_config_text(text)
        assert cfg.pt_user_dbm == 12.5
        assert cfg.m_active == 256
        assert cfg.alpha_mode == "from_power"
        assert cfg.sigma2_u1 is None
        assert cfg.seed == 42

    def test_unknown_key_is_error(self):
        with pytest.raises(rn.ConfigError, match="unknown key"):
            rn.parse_config_text("pt_userr_dbm = 15\n")

    def test_bad_value_reported_with_line(self):
        with pytest.raises(rn.ConfigError, match="line 1"):
            rn.parse_config_text("m_active = many\n")

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rate_threshold_bps_hz = 3.0\n# comment\n")
        cfg = rn.load_config(path)
        assert cfg.rate_threshold_bps_hz == 3.0

    def test_apply_overrides(self):
        cfg = rn.apply_overrides(rn.SystemConfig(), ["pt_ris_dbm=-40", "mc_trials=500"])
        assert cfg.pt_ris_dbm == -40.0
        assert cfg.mc_trials == 500

    def test_override_unknown_key(self):
        with pytest.raises(rn.ConfigError, match="unknown key"):
            rn.apply_overrides(rn.SystemConfig(), ["nope=1"])

    def test_integers_read_exactly(self):
        # 2^53 + 1 is no float; reading through float() gives 2^53
        big = 9007199254740993
        assert rn.apply_overrides(rn.SystemConfig(), [f"seed={big}"]).seed == big
        assert rn.parse_config_text(f"seed = {big}\n").seed == big
        cfg = rn.apply_overrides(rn.SystemConfig(), ["mc_trials=1e3"])
        assert cfg.mc_trials == 1000 and type(cfg.mc_trials) is int
        for text in ("m_active = 64.5\n", "seed = 1e400\n", "seed = nan\n"):
            with pytest.raises(rn.ConfigError, match="line 1: .*expected an integer"):
                rn.parse_config_text(text)
        with pytest.raises(rn.ConfigError, match="override 'm_active=64.5'"):
            rn.apply_overrides(rn.SystemConfig(), ["m_active=64.5"])

    def test_every_field_round_trips(self):
        cfg = rn.validate(rn.SystemConfig(
            pt_user_dbm=12.5, pt_ris_dbm=-41.25, alpha_mode="from_power",
            alpha_linear=3.3, m_active=100, n_passive=200,
            active_user=2, rate_threshold_bps_hz=1.5, epsilon_sic=0.01,
            joint_outage_u2=True, w0_dbm=-120.5, namp_dbm=-110.0, fc_ghz=3.5,
            d_u1_ris_m=40.0, d_u2_ris_m=45.0, d_ris_bs_m=25.0,
            sigma2_u1=0.5, sigma2_u2=0.25, sigma2_bs=2e-9, mc_trials=12345,
            seed=9007199254740993, quad_tol=1e-8))
        default = rn.SystemConfig()
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            assert value != getattr(default, f.name), f.name
            back = getattr(rn.apply_overrides(default, [f"{f.name}={value}"]), f.name)
            assert back == value and type(back) is type(value), f.name


class TestDigest:
    def test_stable_and_sensitive(self):
        a = rn.SystemConfig()
        b = rn.SystemConfig()
        assert a.digest() == b.digest()
        assert a.digest() != replace(a, seed=1).digest()

    def test_memoized_value_is_the_fresh_hash(self):
        cfg = rn.SystemConfig(seed=7)
        payload = json.dumps({f.name: getattr(cfg, f.name) for f in fields(cfg)},
                             sort_keys=True)
        fresh = hashlib.sha256(payload.encode()).hexdigest()[:12]
        assert cfg.digest() == fresh
        assert cfg.digest() == fresh            # the memoized value
        # the memo is no field: equality, replace and the field list ignore it
        assert cfg == rn.SystemConfig(seed=7)
        assert "_digest" not in {f.name for f in fields(cfg)}

    def test_replaced_config_gets_its_own_digest(self):
        a = rn.SystemConfig()
        a.digest()
        b = replace(a, pt_ris_dbm=-40.0)
        assert b.digest() != a.digest()
        assert b.digest() == rn.SystemConfig(pt_ris_dbm=-40.0).digest()
