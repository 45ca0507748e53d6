import numpy as np
import pytest

import risnoma as rn
from risnoma import _kernels
from conftest import unit_config


def _block(rng, nt, m, n):
    mk = lambda k: rng.standard_normal((nt, k)) + 1j * rng.standard_normal((nt, k))
    return mk(m), mk(m), mk(m), mk(n), mk(n), mk(n)


class TestBackends:
    def test_matches_scalar_path(self, rng):
        # the batched kernel against the readable single-realization path
        cfg = unit_config(m_active=16, n_passive=12, alpha_linear=3.0)
        arrays = _block(rng, 6, 16, 12)
        h1, h2, h_bs, g1, g2, g_bs = arrays
        a, b, c, d, ang = _kernels.link_terms_block(
            h1, h2, h_bs, g1, g2, g_bs, np.sqrt(3.0))
        for t in range(6):
            ch = rn.ChannelRealization(h1=h1[t], h2=h2[t], h_bs=h_bs[t],
                                       g1=g1[t], g2=g2[t], g_bs=g_bs[t])
            lt = rn.compute_link_terms(ch, rn.ris_state(ch, cfg), cfg)
            assert a[t] == pytest.approx(lt.a, rel=1e-10)
            assert b[t] == pytest.approx(lt.b, rel=1e-10)
            assert c[t] == pytest.approx(lt.c, rel=1e-10)
            assert d[t] == pytest.approx(lt.d, rel=1e-10)
            assert ang[t] == pytest.approx(lt.active_noise_gain, rel=1e-10)

    def test_zero_channels(self):
        z = np.zeros((3, 4), dtype=complex)
        zn = np.zeros((3, 5), dtype=complex)
        a, b, c, d, ang = _kernels.link_terms_block(z, z, z, zn, zn, zn, 2.0)
        assert not a.any() and not d.any() and not ang.any()
        assert not b.any() and not c.any()
