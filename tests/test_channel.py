from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from numpy.random import SFC64, Generator, SeedSequence
from scipy import stats as sstats

import risnoma as rn
from risnoma.channel import at_budget
from conftest import unit_config
from oracle import draw_realization

# frozen by direct high-precision evaluation of the loss formula
PL_ORACLE = {
    (10.0, 5.0): 77.57322011273649,
    (20.22, 5.0): 88.79538836379434,
    (35.51, 5.0): 97.77108978620578,
    (55.73, 5.0): 104.95468799289904,
}


class TestPathLoss:
    @pytest.mark.parametrize("key", sorted(PL_ORACLE))
    def test_frozen_values(self, key):
        d, fc = key
        assert rn.path_loss_db(d, fc) == pytest.approx(PL_ORACLE[key], abs=1e-9)

    def test_range_rejection(self):
        for d, fc in ((5.0, 5.0), (3000.0, 5.0), (100.0, 1.0), (100.0, 7.0)):
            with pytest.raises(ValueError):
                rn.path_loss_db(d, fc)

    def test_strictly_increasing(self):
        ds = np.linspace(10, 2000, 40)
        ls = [rn.path_loss_db(d, 5.0) for d in ds]
        assert np.all(np.diff(ls) > 0)
        fcs = np.linspace(2, 6, 20)
        ls = [rn.path_loss_db(100.0, f) for f in fcs]
        assert np.all(np.diff(ls) > 0)


class TestChannelVariance:
    def test_unit_loss_hook(self):
        cfg = unit_config()
        var = rn.link_variances(cfg)
        assert var.u1 == var.u2 == var.bs == 1.0

    def test_frozen_values(self):
        # 10^(-L/10) at the two RIS link distances
        assert rn.channel_variance(35.51, 5.0) == pytest.approx(1.6706713358937587e-10, rel=1e-9)
        assert rn.channel_variance(20.22, 5.0) == pytest.approx(1.3198759824683881e-09, rel=1e-9)

    def test_defaults_use_geometry(self):
        cfg = rn.validate(rn.SystemConfig())
        var = rn.link_variances(cfg)
        assert var.u1 == pytest.approx(rn.channel_variance(35.51, 5.0))
        assert var.bs == pytest.approx(rn.channel_variance(20.22, 5.0))


class TestDrawRealization:
    def test_deterministic(self):
        cfg = unit_config()
        s = rn.RandomStream(cfg.seed, 7)
        r1 = draw_realization(cfg, s)
        r2 = draw_realization(cfg, s)
        for name in ("h1", "h2", "h_bs", "g1", "g2", "g_bs"):
            assert np.array_equal(getattr(r1, name), getattr(r2, name))

    def test_streams_differ(self):
        cfg = unit_config()
        r1 = draw_realization(cfg, rn.RandomStream(cfg.seed, 0))
        r2 = draw_realization(cfg, rn.RandomStream(cfg.seed, 1))
        assert not np.array_equal(r1.h1, r2.h1)

    def test_shapes(self):
        cfg = unit_config(m_active=8, n_passive=3)
        r = draw_realization(cfg, rn.RandomStream(cfg.seed, 0))
        assert r.h1.shape == r.h2.shape == r.h_bs.shape == (8,)
        assert r.g1.shape == r.g2.shape == r.g_bs.shape == (3,)

    def test_rayleigh_mean(self):
        # E|h| = sigma * sqrt(pi/4) = 0.8862 for unit total variance
        cfg = unit_config(m_active=2000, n_passive=1)
        mags = np.concatenate([
            np.abs(draw_realization(cfg, rn.RandomStream(1, i)).h1)
            for i in range(500)
        ])
        assert mags.mean() == pytest.approx(np.sqrt(np.pi) / 2.0, abs=0.003)

    def test_component_variance(self):
        # circular symmetry: each quadrature carries half the variance
        cfg = unit_config(m_active=1, n_passive=2000)
        reals = np.concatenate([
            np.real(draw_realization(cfg, rn.RandomStream(2, i)).g1)
            for i in range(500)
        ])
        assert reals.var() == pytest.approx(0.5, abs=0.005)

    def test_magnitude_is_rayleigh(self):
        # KS at significance 0.01 over 1e5 samples, fixed stream
        cfg = unit_config(m_active=100_000, n_passive=1)
        mags = np.abs(draw_realization(cfg, rn.RandomStream(3, 0)).h1)
        res = sstats.kstest(mags, sstats.rayleigh(scale=np.sqrt(0.5)).cdf)
        assert res.pvalue > 0.01

    def test_stream_independence(self):
        cfg = unit_config(m_active=50_000, n_passive=1)
        x = np.real(draw_realization(cfg, rn.RandomStream(5, 0)).h1)
        y = np.real(draw_realization(cfg, rn.RandomStream(5, 1)).h1)
        rho = np.corrcoef(x, y)[0, 1]
        assert abs(rho) < 4.0 / np.sqrt(x.size)

    def test_per_link_scaling(self):
        cfg = unit_config(m_active=5000, sigma2_u1=4.0, sigma2_u2=1.0, sigma2_bs=0.25)
        r = draw_realization(cfg, rn.RandomStream(11, 0))
        assert np.mean(np.abs(r.h1) ** 2) == pytest.approx(4.0, rel=0.05)
        assert np.mean(np.abs(r.h2) ** 2) == pytest.approx(1.0, rel=0.05)
        assert np.mean(np.abs(r.h_bs) ** 2) == pytest.approx(0.25, rel=0.05)


class TestRandomStream:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("stream_id", [0, 3])
    def test_is_sfc64_of_spawn_key(self, seed, stream_id):
        want = Generator(SFC64(SeedSequence(seed, spawn_key=(stream_id,))))
        got = rn.RandomStream(seed, stream_id).generator()
        assert isinstance(got.bit_generator, SFC64)
        assert np.array_equal(got.standard_exponential(1000), want.standard_exponential(1000))
        assert np.array_equal(got.standard_normal(1000), want.standard_normal(1000))

    def test_swapped_pair_differs(self):
        x = rn.RandomStream(1, 2).generator().standard_exponential(1000)
        y = rn.RandomStream(2, 1).generator().standard_exponential(1000)
        assert not np.any(x == y)

    def test_adjacent_seeds_independent(self):
        # the bound of test_stream_independence, across seeds in place of stream ids
        cfg = unit_config(m_active=50_000, n_passive=1)
        x = np.real(draw_realization(cfg, rn.RandomStream(5, 0)).h1)
        y = np.real(draw_realization(cfg, rn.RandomStream(6, 0)).h1)
        rho = np.corrcoef(x, y)[0, 1]
        assert abs(rho) < 4.0 / np.sqrt(x.size)


class TestAtBudget:
    PARENTS = {
        "fixed gain": dict(alpha_mode="fixed", epsilon_sic=0.01),
        "optimized, active user 2": dict(alpha_mode="optimized", active_user=2),
        "variance overrides": dict(alpha_mode="from_power", sigma2_u1=1e-9, sigma2_bs=2e-9),
    }

    @pytest.mark.parametrize("parent", PARENTS)
    def test_copy_is_the_replaced_config(self, parent):
        cfg = rn.validate(rn.SystemConfig(**self.PARENTS[parent]))
        cfg.digest()
        if cfg.alpha_mode != "optimized":
            rn.analytic._form_rows(cfg)
        out = at_budget(cfg, -40.0)
        want = replace(cfg, pt_ris_dbm=-40.0, alpha_mode="from_power")
        # the parent's link variances are carried; its digest and form rows,
        # which depend on the budget or the gain rule, are not
        assert out.__dict__["_link_variances"] is rn.link_variances(cfg)
        assert "_digest" not in out.__dict__ and "_form_rows" not in out.__dict__
        assert type(out) is type(want) and out == want and hash(out) == hash(want)
        assert out.digest() == want.digest() != cfg.digest()
        assert rn.analytic._form_rows(out) == rn.analytic._form_rows(want)
        with pytest.raises(FrozenInstanceError):
            out.pt_ris_dbm = -30.0
