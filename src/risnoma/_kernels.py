"""Batched link terms over a block of phase-aligned trials.

With theta = conj(h_a h_bs) / |h_a h_bs| the aligned sums depend on the
hop magnitudes only, and the leakage sums collapse to

    c = sqrt(alpha) sum h_p conj(h_a) |h_bs| / |h_a|
    b = sum g_a conj(g_p) |g_bs| / |g_p|

h_p conj(h_a) / |h_a| ~ CN(0, s_p) and g_a conj(g_p) / |g_p| ~ CN(0, s_a)
independently of every magnitude, so given the BS-hop magnitudes

    c ~ CN(0, alpha s_p sum |h_bs|^2),   b ~ CN(0, s_a sum |g_bs|^2)

exactly.  A trial therefore needs the squared magnitudes (s * Exp(1))
and four standard normals, and of the magnitudes only four unit-scale row
sums: `link_terms_block` reduces a chunk of trials to them, and
`scale_terms` turns a block's sums and normals into the link terms of one
configuration (its variances and gain), so configurations that share the
draw share the sums.
"""

import numpy as np


def link_terms_block(qa, qhb, qgp, qgb, tmp, out):
    """Unit-scale row sums of a chunk of k trials, written into out.

    qa, qhb: |h_a|^2, |h_bs|^2 of shape (k, M); qgp, qgb: |g_p|^2,
    |g_bs|^2 of shape (k, N); tmp: scratch of at least (k, max(M, N));
    out: shape (4, k), receives sum sqrt(qa qhb), sum qhb, sum sqrt(qgp qgb)
    and sum qgb.  Returns out.
    """
    k, m = qa.shape
    n = qgp.shape[1]
    t = tmp[:k, :m]
    np.sqrt(np.multiply(qa, qhb, out=t), out=t)
    t.sum(axis=1, out=out[0])
    qhb.sum(axis=1, out=out[1])
    t = tmp[:k, :n]
    np.sqrt(np.multiply(qgp, qgb, out=t), out=t)
    t.sum(axis=1, out=out[2])
    qgb.sum(axis=1, out=out[3])
    return out


def scale_terms(sums, z, s_a, s_p, s_bs, sqrt_alpha):
    """(a, b, c, d, ang) per trial from `link_terms_block` sums.

    sums: shape (4, nb); z: standard normals of shape (nb, 4); s_a, s_p,
    s_bs: link variances of the active-part user, the other user and the
    BS hops.
    """
    hb_sum = sums[1]
    gb_sum = sums[3]
    a = sqrt_alpha * np.sqrt(s_a * s_bs) * sums[0]
    d = np.sqrt(s_p * s_bs) * sums[2]
    c = sqrt_alpha * np.sqrt(s_p * s_bs * hb_sum / 2.0) * (z[:, 0] + 1j * z[:, 1])
    b = np.sqrt(s_a * s_bs * gb_sum / 2.0) * (z[:, 2] + 1j * z[:, 3])
    return a, b, c, d, s_bs * hb_sum
