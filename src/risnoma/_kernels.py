"""Batched link terms over a block of phase-aligned trials.

With theta = conj(h_a h_bs) / |h_a h_bs| the aligned sums depend on the
hop magnitudes only, and the leakage sums collapse to

    c = sqrt(alpha) sum h_p conj(h_a) |h_bs| / |h_a|
    b = sum g_a conj(g_p) |g_bs| / |g_p|

h_p conj(h_a) / |h_a| ~ CN(0, s_p) and g_a conj(g_p) / |g_p| ~ CN(0, s_a)
independently of every magnitude, so given the BS-hop magnitudes

    c ~ CN(0, alpha s_p sum |h_bs|^2),   b ~ CN(0, s_a sum |g_bs|^2)

exactly.  A trial therefore needs the squared magnitudes (s * Exp(1))
and four standard normals.
"""

import numpy as np


def link_terms_block(qa, qhb, qgp, qgb, z, s_a, s_p, s_bs, sqrt_alpha):
    """(a, b, c, d, ang) per trial from unit-scale squared magnitudes.

    qa, qhb: |h_a|^2, |h_bs|^2 of shape (nb, M); qgp, qgb: |g_p|^2,
    |g_bs|^2 of shape (nb, N); z: standard normals of shape (nb, 4);
    s_a, s_p, s_bs: link variances of the active-part user, the other
    user and the BS hops.
    """
    hb_sum = qhb.sum(axis=1)
    gb_sum = qgb.sum(axis=1)
    a = sqrt_alpha * np.sqrt(s_a * s_bs) * np.sqrt(qa * qhb).sum(axis=1)
    d = np.sqrt(s_p * s_bs) * np.sqrt(qgp * qgb).sum(axis=1)
    c = sqrt_alpha * np.sqrt(s_p * s_bs * hb_sum / 2.0) * (z[:, 0] + 1j * z[:, 1])
    b = np.sqrt(s_a * s_bs * gb_sum / 2.0) * (z[:, 2] + 1j * z[:, 3])
    return a, b, c, d, s_bs * hb_sum
