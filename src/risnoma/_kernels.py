"""Batched link-term reduction over a block of channel realizations.

The phase-aligned products are simplified before vectorizing: with
theta = conj(h_a h_bs) / |h_a h_bs| the cross term collapses to

    h_p theta h_bs = h_p conj(h_a) |h_bs| / |h_a|

which removes one complex division per element (same for the passive
partition with beta).
"""

import numpy as np


def link_terms_block(h_a, h_p, h_bs, g_a, g_p, g_bs, sqrt_alpha):
    q_ha = h_a.real**2 + h_a.imag**2
    q_hb = h_bs.real**2 + h_bs.imag**2
    s = np.sqrt(q_ha * q_hb)
    a = sqrt_alpha * np.sum(s, axis=1)
    ang = np.sum(q_hb, axis=1)
    ratio = np.divide(s, q_ha, out=np.zeros_like(s), where=q_ha > 0)
    c = sqrt_alpha * np.sum(h_p * np.conj(h_a) * ratio, axis=1)
    q_gp = g_p.real**2 + g_p.imag**2
    q_gb = g_bs.real**2 + g_bs.imag**2
    s2 = np.sqrt(q_gp * q_gb)
    d = np.sum(s2, axis=1)
    ratio2 = np.divide(s2, q_gp, out=np.zeros_like(s2), where=q_gp > 0)
    b = np.sum(g_a * np.conj(g_p) * ratio2, axis=1)
    return a, b, c, d, ang
