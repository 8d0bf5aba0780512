"""Coherent-state overlaps: the literal reference the oracle and closed-form tests compare against."""

import numpy as np


def coherent_overlap(a, b):
    """Overlap <a|b> = exp[-(|a|^2 + |b|^2)/2 + conj(a) b] of coherent states.

    Accepts scalars or numpy arrays (broadcasting); |result| <= 1 always.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    out = np.exp(-(np.abs(a) ** 2 + np.abs(b) ** 2) / 2.0 + np.conj(a) * b)
    if out.ndim == 0:
        return complex(out)
    return out


def coherent_projection(basis, alpha):
    """(<+|alpha>, <-|alpha>) in a ``CatBasis`` for a scalar or array of amplitudes."""
    up = coherent_overlap(basis.gamma, alpha)
    dn = coherent_overlap(-basis.gamma, alpha)
    return basis.n_plus * (up + dn), basis.n_minus * (up - dn)
