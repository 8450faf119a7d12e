"""Reference formulas shared by the test modules."""

import numpy as np

import modedecomp as md


def mimf_oracle(phase, fundamental, bands, t):
    """The paper's band sum, term by term: band ``n`` of ``bands``, a
    ``(cos_coeff, sin_coeff, cos_table, sin_table)``, adds
    ``cos_coeff cos(2 pi n phi) s_c(N phi) + sin_coeff sin(2 pi n phi)
    s_s(N phi)`` with ``phi = phase(t)``; a term whose table is ``None`` or
    whose coefficient is 0 is left out. Each carrier and table is evaluated
    on its own, band 0's cos(0) included."""
    phi = np.asarray(phase(t), dtype=float)
    pos = fundamental * phi
    total = np.zeros_like(t)
    for n, (cos_coeff, sin_coeff, cos_table, sin_table) in bands.items():
        if cos_table is not None and cos_coeff != 0.0:
            total += (cos_coeff * np.cos(2.0 * np.pi * n * phi)
                      * md.eval_shape(cos_table, pos))
        if sin_table is not None and sin_coeff != 0.0:
            total += (sin_coeff * np.sin(2.0 * np.pi * n * phi)
                      * md.eval_shape(sin_table, pos))
    return md.make_signal(t, total)
