"""Hot numeric kernels for the quadrature and elliptic torus suites.

Each kernel takes a whole array of points: q-Pochhammer symbols at
infinity, theta functions, the elliptic gamma function (a truncated double
product, reduced one p-power block at a time) and the pair-power products
of the chain quadrature.  Each has a pure-numpy implementation and, when
numba is available, an @njit-compiled twin.  Selection: the environment
variable SELBERGKIT_NO_NUMBA=1 forces the numpy path; otherwise numba is
used when importable.  benchmarks/bench_kernels.py compares the two paths.
"""

from __future__ import annotations

import math
import os

import numpy as np

_DISABLED = os.environ.get("SELBERGKIT_NO_NUMBA", "") not in ("", "0")

if not _DISABLED:
    try:
        from numba import njit
        HAS_NUMBA = True
    except ImportError:  # pragma: no cover - depends on environment
        HAS_NUMBA = False
else:
    HAS_NUMBA = False

__all__ = [
    "HAS_NUMBA", "qpoch_inf_arr", "theta_arr", "ellgamma_arr",
    "vandermonde_pow", "cross_pow", "trunc_order",
    "qpoch_inf_arr_numpy", "theta_arr_numpy", "ellgamma_arr_numpy",
    "vandermonde_pow_numpy", "cross_pow_numpy",
]


def trunc_order(m: float, eps: float = 1e-16) -> int:
    if m <= 0:
        return 1
    return max(2, int(math.log(eps) / math.log(m)) + 2)


# ---------------------------------------------------------------------------
# numpy reference implementations
# ---------------------------------------------------------------------------

def qpoch_inf_arr_numpy(z: np.ndarray, q: complex, nterms: int) -> np.ndarray:
    """(z;q)_inf = prod_{j<nterms} (1 - z q^j), elementwise."""
    out = np.ones_like(z, dtype=np.complex128)
    qp = 1.0 + 0.0j
    for _ in range(nterms):
        out *= 1.0 - z * qp
        qp *= q
    return out


def theta_arr_numpy(z: np.ndarray, p: complex, nterms: int) -> np.ndarray:
    """theta(z;p) = (z;p)_inf (p/z;p)_inf, elementwise."""
    return qpoch_inf_arr_numpy(z, p, nterms) * qpoch_inf_arr_numpy(p / z, p, nterms)


def ellgamma_arr_numpy(z: np.ndarray, p: complex, q: complex,
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


def vandermonde_pow_numpy(ts: np.ndarray, expo: float) -> np.ndarray:
    """prod_{i<j} |t_i - t_j|^expo along the last axis."""
    k = ts.shape[-1]
    out = np.ones(ts.shape[:-1])
    for i in range(k):
        for j in range(i + 1, k):
            out *= np.abs(ts[..., i] - ts[..., j]) ** expo
    return out


def cross_pow_numpy(ts: np.ndarray, ss: np.ndarray, expo: float) -> np.ndarray:
    """prod_{i,j} |t_i - s_j|^expo along the last axes."""
    out = np.ones(ts.shape[:-1])
    for i in range(ts.shape[-1]):
        for j in range(ss.shape[-1]):
            out *= np.abs(ts[..., i] - ss[..., j]) ** expo
    return out


# ---------------------------------------------------------------------------
# numba twins
# ---------------------------------------------------------------------------

if HAS_NUMBA:

    @njit(cache=True)
    def _qpoch_inf_nb(z, q, nterms):
        out = np.ones(z.shape, dtype=np.complex128)
        for i in range(z.size):
            acc = 1.0 + 0.0j
            qp = 1.0 + 0.0j
            zi = z.flat[i]
            for _ in range(nterms):
                acc *= 1.0 - zi * qp
                qp *= q
            out.flat[i] = acc
        return out

    @njit(cache=True)
    def _theta_nb(z, p, nterms):
        out = np.ones(z.shape, dtype=np.complex128)
        for i in range(z.size):
            zi = z.flat[i]
            acc = 1.0 + 0.0j
            pp = 1.0 + 0.0j
            w1 = zi
            w2 = p / zi
            for _ in range(nterms):
                acc *= (1.0 - w1 * pp) * (1.0 - w2 * pp)
                pp *= p
            out.flat[i] = acc
        return out

    @njit(cache=True)
    def _ellgamma_nb(z, p, q, n_p, n_q):
        out = np.empty(z.shape, dtype=np.complex128)
        for i in range(z.size):
            zi = z.flat[i]
            acc = 0.0 + 0.0j
            ppow = 1.0 + 0.0j
            for _ in range(n_p):
                num = (p * q / zi) * ppow
                den = zi * ppow
                for _ in range(n_q):
                    acc += np.log(1.0 - num) - np.log(1.0 - den)
                    num *= q
                    den *= q
                ppow *= p
            out.flat[i] = np.exp(acc)
        return out

    @njit(cache=True)
    def _vandermonde_nb(ts, expo):
        m, k = ts.shape
        out = np.ones(m)
        for r in range(m):
            acc = 1.0
            for i in range(k):
                for j in range(i + 1, k):
                    acc *= abs(ts[r, i] - ts[r, j]) ** expo
            out[r] = acc
        return out

    @njit(cache=True)
    def _cross_nb(ts, ss, expo):
        m, k = ts.shape
        _, l = ss.shape
        out = np.ones(m)
        for r in range(m):
            acc = 1.0
            for i in range(k):
                for j in range(l):
                    acc *= abs(ts[r, i] - ss[r, j]) ** expo
            out[r] = acc
        return out

    def qpoch_inf_arr(z, q, nterms):
        return _qpoch_inf_nb(np.ascontiguousarray(z, dtype=np.complex128),
                             complex(q), nterms)

    def theta_arr(z, p, nterms):
        return _theta_nb(np.ascontiguousarray(z, dtype=np.complex128),
                         complex(p), nterms)

    def ellgamma_arr(z, p, q, n_p, n_q):
        return _ellgamma_nb(np.ascontiguousarray(z, dtype=np.complex128),
                            complex(p), complex(q), n_p, n_q)

    def vandermonde_pow_nb(ts, expo):
        return _vandermonde_nb(np.ascontiguousarray(ts, dtype=np.float64),
                               float(expo))

    def cross_pow_nb(ts, ss, expo):
        return _cross_nb(np.ascontiguousarray(ts, dtype=np.float64),
                         np.ascontiguousarray(ss, dtype=np.float64),
                         float(expo))

    # at the small pair counts used here the vectorised numpy loop beats
    # the jitted row loop (see benchmarks), so numpy stays the active path
    vandermonde_pow = vandermonde_pow_numpy
    cross_pow = cross_pow_numpy

else:
    qpoch_inf_arr = qpoch_inf_arr_numpy
    theta_arr = theta_arr_numpy
    ellgamma_arr = ellgamma_arr_numpy
    vandermonde_pow = vandermonde_pow_numpy
    cross_pow = cross_pow_numpy
