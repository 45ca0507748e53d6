import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import risnoma as rn
from risnoma import montecarlo
from risnoma.montecarlo import block_size
from conftest import make_config, mc_outage, unit_config


class TestDeterminism:
    def test_same_seed_same_result(self):
        cfg = unit_config(mc_trials=20_000, w0_dbm=59.0, pt_user_dbm=30.0)
        r1 = mc_outage(cfg, 2)
        r2 = mc_outage(cfg, 2)
        assert r1 == r2

    def test_worker_count_invariance(self):
        cfg = unit_config(mc_trials=30_000, w0_dbm=59.0, pt_user_dbm=30.0)
        serial = rn.estimate_outage_pair(cfg, workers=1)
        parallel = rn.estimate_outage_pair(cfg, workers=3)
        assert serial == parallel

    def test_pool_never_exceeds_block_count(self, monkeypatch):
        # a fork pool starts every worker at its first submit, so it must
        # be sized by the blocks; the stand-in records its size and maps
        # serially, so no process is started
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        cfg = unit_config(mc_trials=3 * block_size(64, 64))
        serial = rn.estimate_outage_pair(cfg, workers=1)
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
        assert rn.estimate_outage_pair(cfg, workers=8) == serial
        assert rn.estimate_outage_pair(cfg, workers=2) == serial
        assert sizes == [3, 2]

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        cfg = unit_config(mc_trials=1000)
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            rn.estimate_outage_pair(cfg, workers=workers)

    def test_different_seed_differs(self):
        a = mc_outage(unit_config(mc_trials=20_000, w0_dbm=59.0,
                                  pt_user_dbm=30.0, seed=1), 2)
        b = mc_outage(unit_config(mc_trials=20_000, w0_dbm=59.0,
                                  pt_user_dbm=30.0, seed=2), 2)
        assert a.op != b.op

    def test_block_size_is_pure(self):
        assert block_size(64, 64) == block_size(64, 64)
        assert block_size(512, 512) < block_size(64, 64)


class TestEstimateOutage:
    def test_zero_rate_means_no_outage(self):
        cfg = unit_config(mc_trials=5000, rate_threshold_bps_hz=0.0)
        for user in (1, 2):
            assert mc_outage(cfg, user).op == 0.0

    def test_noise_free_single_user_never_outages(self):
        # passive user with no interference residue, no noise to speak of
        cfg = unit_config(mc_trials=5000, w0_dbm=-300.0, epsilon_sic=0.0)
        assert mc_outage(cfg, 2).op == 0.0

    def test_std_err_formula(self):
        cfg = unit_config(mc_trials=20_000, w0_dbm=59.0, pt_user_dbm=30.0)
        res = mc_outage(cfg, 2)
        assert res.std_err == pytest.approx(
            np.sqrt(res.op * (1 - res.op) / res.trials))
        assert res.method == "mc"

    def test_matches_sample_fraction(self):
        # same estimator, same substreams: identical by construction
        cfg = unit_config(mc_trials=20_000, w0_dbm=59.0, pt_user_dbm=30.0)
        res = mc_outage(cfg, 2)
        v = rn.rate_to_threshold(cfg.rate_threshold_bps_hz)
        samples = rn.sample_sinr(cfg, 2, cfg.mc_trials)
        assert res.op == np.mean(samples < v)

    def test_monotone_in_rate(self):
        ops = []
        for r in (0.5, 1.0, 2.0, 4.0):
            cfg = unit_config(mc_trials=20_000, w0_dbm=59.0, pt_user_dbm=30.0,
                              rate_threshold_bps_hz=r)
            ops.append(mc_outage(cfg, 2).op)
        assert all(a <= b for a, b in zip(ops, ops[1:]))

    def test_joint_outage_flag(self):
        cfg = unit_config(mc_trials=20_000, w0_dbm=59.0, pt_user_dbm=30.0)
        plain = mc_outage(cfg, 2).op
        joint = mc_outage(
            unit_config(mc_trials=20_000, w0_dbm=59.0, pt_user_dbm=30.0,
                        joint_outage_u2=True), 2).op
        assert joint >= plain


def one_shot_block(config, block_id, nb):
    """A block drawn whole: its (nb, 2M + 2N) Exp(1) draw at once, then z."""
    m, n = config.m_active, config.n_passive
    rng = rn.RandomStream(config.seed, block_id).generator()
    q = rng.standard_exponential((nb, 2 * m + 2 * n))
    z = rng.standard_normal((nb, 4))
    return q[:, :m], q[:, m:2 * m], q[:, 2 * m:2 * m + n], q[:, 2 * m + n:], z


class TestChunkedBlock:
    """A block drawn and reduced chunk by chunk against its whole draw."""

    @pytest.mark.parametrize("m, n, nb, chunk_floats", [
        (64, 64, 100, montecarlo.CHUNK_FLOATS),    # one chunk
        (64, 64, 512, 16 * 256),                  # 32 whole chunks of 16 rows
        (96, 40, 333, 7 * 272),                   # 7-row chunks, a last one of 4
        (5, 300, 50, 1),                          # one row per chunk
        (512, 512, block_size(512, 512), montecarlo.CHUNK_FLOATS),  # 64 rows, last 5
    ])
    def test_sums_and_normals_are_the_whole_draws(self, monkeypatch, m, n, nb, chunk_floats):
        monkeypatch.setattr(montecarlo, "CHUNK_FLOATS", chunk_floats)
        cfg = unit_config(m_active=m, n_passive=n, seed=4321)
        qa, qhb, qgp, qgb, z = one_shot_block(cfg, 3, nb)
        want = (np.sqrt(qa * qhb).sum(axis=1), qhb.sum(axis=1),
                np.sqrt(qgp * qgb).sum(axis=1), qgb.sum(axis=1))
        sums, z_chunked = montecarlo._block_terms(cfg, 3, nb)
        assert sums.shape == (4, nb)
        for got, expected in zip(sums, want):
            assert got.tobytes() == expected.tobytes()
        assert z_chunked.tobytes() == z.tobytes()

    def test_link_terms_are_the_whole_block_formula(self):
        # the whole-block kernel, operand for operand, on a ragged block of
        # 481-row chunks with active_user=2 and unequal variances
        cfg = unit_config(m_active=96, n_passive=40, active_user=2, alpha_linear=3.0,
                          sigma2_u1=0.5, sigma2_u2=2.0, sigma2_bs=1.5, seed=99)
        nb = block_size(96, 40)
        qa, qhb, qgp, qgb, z = one_shot_block(cfg, 0, nb)
        s_a, s_p, s_bs, sqrt_alpha = 2.0, 0.5, 1.5, math.sqrt(3.0)
        hb_sum, gb_sum = qhb.sum(axis=1), qgb.sum(axis=1)
        want = {
            "a": sqrt_alpha * np.sqrt(s_a * s_bs) * np.sqrt(qa * qhb).sum(axis=1),
            "b": np.sqrt(s_a * s_bs * gb_sum / 2.0) * (z[:, 2] + 1j * z[:, 3]),
            "c": sqrt_alpha * np.sqrt(s_p * s_bs * hb_sum / 2.0) * (z[:, 0] + 1j * z[:, 1]),
            "d": np.sqrt(s_p * s_bs) * np.sqrt(qgp * qgb).sum(axis=1),
            "ang": s_bs * hb_sum,
        }
        got = rn.sample_link_terms(cfg, nb)
        for key, expected in want.items():
            assert got[key].tobytes() == expected.tobytes(), key

    def test_one_buffer_per_block(self, monkeypatch):
        bufs = []
        draw = montecarlo._draw_block

        def recorded(config, rng, buf):
            bufs.append(buf)
            return draw(config, rng, buf)

        monkeypatch.setattr(montecarlo, "_draw_block", recorded)
        cfg = unit_config(m_active=96, n_passive=40)
        rows = montecarlo.CHUNK_FLOATS // 272
        montecarlo._block_terms(cfg, 0, 5 * rows + 45)
        assert [b.shape for b in bufs] == [(rows, 272)] * 5 + [(45, 272)]
        assert all(np.shares_memory(b, bufs[0]) for b in bufs)

    def test_peak_memory_of_an_estimate_is_one_chunk(self):
        # a whole 325-trial block of M = N = 512 is 5.3 MB of draws alone,
        # so the bound fails if a block is ever drawn whole
        cfg = make_config(m_active=512, n_passive=512, mc_trials=4000)
        rn.estimate_outage_pair(cfg)
        tracemalloc.start()
        try:
            rn.estimate_outage_pair(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6


def _mixed_batch():
    """Two seeds x two sizes, interleaved, each with four members that differ
    in active user, joint user-2 outage, rate and gain."""
    members = [dict(active_user=1, joint_outage_u2=False, rate_threshold_bps_hz=1.0),
               dict(active_user=2, joint_outage_u2=True, rate_threshold_bps_hz=1.0,
                    alpha_linear=4.0),
               dict(active_user=1, joint_outage_u2=True, rate_threshold_bps_hz=2.0,
                    alpha_linear=4.0),
               dict(active_user=2, joint_outage_u2=False, rate_threshold_bps_hz=2.0)]
    return [unit_config(m_active=m, n_passive=n, seed=seed, w0_dbm=59.0, pt_user_dbm=30.0,
                        mc_trials=6000, **kw)
            for kw in members for m, n in ((64, 64), (96, 40)) for seed in (5, 6)]


class TestOutageBatch:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_is_one_call_per_config(self, workers):
        configs = _mixed_batch()
        alone = [rn.estimate_outage_pair(c) for c in configs]
        assert rn.estimate_outage_pairs(configs, workers=workers) == alone
        # most members see events but not always, so a count given to the
        # wrong member would show
        assert sum(0.0 < r.op < 1.0 for pair in alone for r in pair) >= 24

    def test_each_group_draws_its_blocks_once(self, monkeypatch):
        drawn = []
        terms = montecarlo._block_terms

        def recorded(config, block_id, nb):
            drawn.append((config.seed, config.m_active, config.n_passive, block_id, nb))
            return terms(config, block_id, nb)

        monkeypatch.setattr(montecarlo, "_block_terms", recorded)
        rn.estimate_outage_pairs(_mixed_batch())
        want = [(seed, m, n, b, nb) for m, n in ((64, 64), (96, 40)) for seed in (5, 6)
                for b, nb in enumerate(6000 // block_size(m, n) * [block_size(m, n)]
                                       + [6000 % block_size(m, n)])]
        assert sorted(drawn) == sorted(want)


class TestSampleSinr:
    def test_bytes_pinned(self):
        # recorded on the SFC64 substreams of RandomStream (numpy 2.4,
        # x86-64): two blocks of the 64+64 unit config
        cfg = unit_config()
        digests = {
            1: "dea785315f6dd0471174c3ba0609e699ab9edf0be9f1e23365fa2702ac4b71a8",
            2: "2adf833672d44b35d8355528aff8166799d1cdb6ea14d2c4f67ba1378bb848ad",
        }
        for user, digest in digests.items():
            s = rn.sample_sinr(cfg, user, 3000)
            assert hashlib.sha256(s.tobytes()).hexdigest() == digest

    def test_nonnegative(self):
        cfg = unit_config(w0_dbm=59.0, pt_user_dbm=30.0)
        s = rn.sample_sinr(cfg, 1, 5000)
        assert s.shape == (5000,)
        assert np.all(s >= 0)

    def test_gamma2_mean_decreases_with_epsilon(self):
        # paired seeds: identical channel draws, only the residual changes
        base = dict(w0_dbm=59.0, pt_user_dbm=30.0, seed=77)
        s0 = rn.sample_sinr(unit_config(epsilon_sic=0.0, **base), 2, 20_000)
        s1 = rn.sample_sinr(unit_config(epsilon_sic=0.1, **base), 2, 20_000)
        assert s1.mean() < s0.mean()
        assert np.all(s1 <= s0 + 1e-15)


def _moments(samples):
    """Sample mean and total variance E|x - mean|^2 of link-term samples."""
    mean = complex(np.mean(samples))
    return mean, float(np.mean(np.abs(samples - mean) ** 2))


class TestEmpiricalMoments:
    def test_term_a_lemma(self):
        cfg = unit_config(mc_trials=1000)
        mean, var = _moments(rn.sample_link_terms(cfg, 40_000)["a"])
        assert mean.imag == 0.0
        assert mean.real == pytest.approx(64 * np.pi / 4, rel=0.01)
        assert var == pytest.approx(64 * (1 - np.pi**2 / 16), rel=0.05)

    def test_term_b_lemma(self):
        cfg = unit_config(mc_trials=1000)
        mean, var = _moments(rn.sample_link_terms(cfg, 40_000)["b"])
        assert abs(mean) < 4 * np.sqrt(64.0 / 40_000)
        assert var == pytest.approx(64.0, rel=0.05)

    def test_term_d_single_element(self):
        cfg = unit_config(n_passive=1, mc_trials=1000)
        mean, var = _moments(rn.sample_link_terms(cfg, 100_000)["d"])
        assert mean.real == pytest.approx(np.pi / 4, rel=0.01)


class TestFitGamma:
    def test_exponential_is_gamma_1_1(self, rng):
        fit = rn.fit_gamma(rng.exponential(1.0, 100_000))
        assert fit.shape == pytest.approx(1.0, rel=0.05)
        assert fit.scale == pytest.approx(1.0, rel=0.05)
        assert fit.ks_stat < 0.01

    def test_recovers_gamma_2_3(self, rng):
        fit = rn.fit_gamma(rng.gamma(2.0, 3.0, 100_000))
        assert fit.shape == pytest.approx(2.0, rel=0.05)
        assert fit.scale == pytest.approx(3.0, rel=0.05)

    def test_rejects_bad_input(self, rng):
        with pytest.raises(ValueError):
            rn.fit_gamma(np.ones(1000))          # zero variance
        with pytest.raises(ValueError):
            rn.fit_gamma(rng.exponential(1.0, 50))  # too few
        with pytest.raises(ValueError):
            rn.fit_gamma(np.linspace(-1.0, 1.0, 500))  # non-positive

    def test_scipy_stats_not_imported_with_package(self):
        # scipy.stats costs about a second at import; only fit_gamma needs it,
        # and no other scipy module is loaded at import either
        src = str(Path(rn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, risnoma; loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
                "assert not loaded, loaded")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
