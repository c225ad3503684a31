"""Hot numeric kernels for the quadrature and elliptic torus suites.

Each kernel takes a whole array of points and runs in numpy: q-Pochhammer
symbols at infinity, theta functions and the elliptic gamma function (a
truncated double product, reduced one p-power block at a time).
"""

from __future__ import annotations

import math

import numpy as np

# There is no compiled kernel path; the constant is kept because benchmark
# machine records still report it.
HAS_NUMBA = False

__all__ = ["HAS_NUMBA", "qpoch_inf_arr", "theta_arr", "ellgamma_arr",
           "trunc_order"]


def trunc_order(m: float, eps: float = 1e-16) -> int:
    if m <= 0:
        return 1
    return max(2, int(math.log(eps) / math.log(m)) + 2)


def qpoch_inf_arr(z: np.ndarray, q: complex, nterms: int) -> np.ndarray:
    """(z;q)_inf = prod_{j<nterms} (1 - z q^j), elementwise."""
    out = np.ones_like(z, dtype=np.complex128)
    qp = 1.0 + 0.0j
    for _ in range(nterms):
        out *= 1.0 - z * qp
        qp *= q
    return out


def theta_arr(z: np.ndarray, p: complex, nterms: int) -> np.ndarray:
    """theta(z;p) = (z;p)_inf (p/z;p)_inf, elementwise."""
    return qpoch_inf_arr(z, p, nterms) * qpoch_inf_arr(p / z, p, nterms)


def ellgamma_arr(z: np.ndarray, p: complex, q: complex,
                 n_p: int, n_q: int) -> np.ndarray:
    """Elliptic gamma, elementwise, as the truncated double product

        prod_{j<n_p, k<n_q} (1 - p^(j+1) q^(k+1) / z) / (1 - p^j q^k z).

    Each p-power j is one (n_q x N) block of factors reduced by np.prod,
    so a 64-point array needs n_p passes and no logarithms.  A pole
    (p^j q^k z = 1) gives a non-finite value.
    """
    z = np.asarray(z, dtype=np.complex128)
    flat = z.reshape(-1)
    qpow = q ** np.arange(n_q, dtype=np.complex128)[:, None]
    pq_over_z = (p * q) / flat
    out = np.ones(flat.shape, dtype=np.complex128)
    ppow = 1.0 + 0.0j
    for _ in range(n_p):
        block = ppow * qpow
        out *= (np.prod(1.0 - block * pq_over_z, axis=0)
                / np.prod(1.0 - block * flat, axis=0))
        ppow *= p
    return out.reshape(z.shape)
