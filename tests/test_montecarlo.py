import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import risnoma as rn
from risnoma import montecarlo
from risnoma.montecarlo import block_size
from conftest import mc_outage, unit_config


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
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            rn.sample_link_terms(cfg, 1000, workers=workers)

    def test_sinr_samples_worker_invariance(self):
        cfg = unit_config(mc_trials=1000)
        s1 = rn.sample_sinr(cfg, 1, 20_000, workers=1)
        s2 = rn.sample_sinr(cfg, 1, 20_000, workers=2)
        assert np.array_equal(s1, s2)

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


class TestSampleSinr:
    def test_bytes_pinned(self):
        # recorded with the per-block SINR worker that sample_sinr replaced
        # (numpy 2.4, x86-64): two blocks of the 64+64 unit config
        cfg = unit_config()
        digests = {
            1: "42ab9fefded789c49df8da05bdc48d83394395bc415de5cff920534d9b5bb350",
            2: "06bbc0c8f140c4f5be7702ed7885a494f6273611a9bb2ac6d27213de5417ed8f",
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
        # scipy.stats costs about a second at import; only fit_gamma needs it
        src = str(Path(rn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, risnoma; assert 'scipy.stats' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
