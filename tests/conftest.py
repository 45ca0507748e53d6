import numpy as np
import pytest

import risnoma as rn


def make_config(**kw) -> rn.SystemConfig:
    """Validated config with test-friendly defaults overridable per test."""
    return rn.validate(rn.SystemConfig(**kw))


def unit_config(**kw) -> rn.SystemConfig:
    """Small unit-variance configuration used by the statistical oracles."""
    defaults = dict(
        m_active=64, n_passive=64,
        alpha_mode="fixed", alpha_linear=1.0,
        sigma2_u1=1.0, sigma2_u2=1.0, sigma2_bs=1.0,
        pt_user_dbm=0.0, w0_dbm=0.0, namp_dbm=-300.0,
        mc_trials=10_000, seed=1234,
    )
    defaults.update(kw)
    return rn.validate(rn.SystemConfig(**defaults))


def mc_outage(config: rn.SystemConfig, user: int, **kw) -> rn.OutageResult:
    """One user's plain-MC result, taken from the pass both users share."""
    return rn.estimate_outage_pair(config, **kw)[user - 1]


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
