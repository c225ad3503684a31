"""Hot numeric kernels for the quadrature and elliptic torus suites.

Each kernel takes a whole array of points and runs in numpy: q-Pochhammer
symbols at infinity, theta functions and the elliptic gamma function.

The elliptic gamma function is a double product over p^j q^k.  Its
truncation orders n_p and n_q are caps: a factor 1 - c x whose |c| max|x|
is at most 1e-18 is dropped, so only the triangle j log|p| + k log|q| >~
log(1e-18 / max|x|) of the n_p x n_q rectangle is multiplied out.  A call
reduces one p-power at a time, each as one block of at most n_q rows in a
buffer it allocates once, and works through its points in chunks that
keep the buffer at 2^15 factors (512 KiB) at most.
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
    """(z;q)_inf = prod_{j<nterms} (1 - z q^j), elementwise.

    Each factor is formed in one scratch buffer, so a term allocates
    nothing.
    """
    out = np.ones_like(z, dtype=np.complex128)
    tmp = np.empty_like(out)
    qp = 1.0 + 0.0j
    for _ in range(nterms):
        np.multiply(z, qp, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        out *= tmp
        qp *= q
    return out


def theta_arr(z: np.ndarray, p: complex, nterms: int) -> np.ndarray:
    """theta(z;p) = (z;p)_inf (p/z;p)_inf, elementwise."""
    return qpoch_inf_arr(z, p, nterms) * qpoch_inf_arr(p / z, p, nterms)


# a factor 1 - c x with |c x| <= _DROP is 1 to well within a unit in the
# last place, so leaving it out changes no product it would join
_DROP = 1e-18
# factors per block of ellgamma_arr: the rows kept for one p-power times
# the points of one chunk
_BLOCK = 1 << 15


def _kept(m: float, absq: float, n_q: int) -> int:
    """How many of the factors 1 - c q^k x, k < n_q, have |c q^k x| > _DROP
    for some point x, given m = |c| max|x|.  A non-finite m keeps all."""
    if m <= _DROP:
        return 0
    if absq == 0:
        return min(1, n_q)
    if absq >= 1 or not math.isfinite(m):
        return n_q
    return min(n_q, math.ceil(math.log(m / _DROP) / -math.log(absq)))


def ellgamma_arr(z: np.ndarray, p: complex, q: complex,
                 n_p: int, n_q: int) -> np.ndarray:
    """Elliptic gamma, elementwise, as the truncated double product

        prod_{j<n_p, k<n_q} (1 - p^(j+1) q^(k+1) / z) / (1 - p^j q^k z).

    n_p and n_q are caps.  Of each factor 1 - c x (x = z or pq/z), those
    with |c| max|x| <= 1e-18 over a chunk of points are left out, so a
    p-power j keeps only the k with |p^j q^k| max|x| above that bound,
    and the loop over j stops at the first p-power that keeps none.  The
    kept factors of one p-power are one (k x chunk) block in a buffer
    allocated once per call, reduced by np.prod; a chunk holds at most
    2^15 // n_q points, so the buffer stays at 2^15 factors (512 KiB)
    whatever the size of z.  There are no logarithms, and a pole
    (p^j q^k z = 1) gives a non-finite value.
    """
    z = np.asarray(z, dtype=np.complex128)
    flat = z.reshape(-1)
    out = np.empty(flat.shape, dtype=np.complex128)
    # the fewest chunks the block allows, of sizes that differ by one at most
    nchunks = -(-flat.size // max(1, _BLOCK // max(n_q, 1)))
    width = -(-flat.size // nchunks) if nchunks else 0
    qpow = q ** np.arange(n_q, dtype=np.complex128)
    buf = np.empty((n_q, width), dtype=np.complex128)
    for i in range(nchunks):
        lo, hi = flat.size * i // nchunks, flat.size * (i + 1) // nchunks
        _ellgamma_chunk(flat[lo:hi], p, q, n_p, qpow, buf, out[lo:hi])
    return out.reshape(z.shape)


def _ellgamma_chunk(x, p, q, n_p, qpow, buf, out):
    """ellgamma_arr on one chunk x of points, written into out."""
    n_q, absq = len(qpow), abs(q)
    y = (p * q) / x
    x_max, y_max = np.abs(x).max(), np.abs(y).max()
    out[...] = 1.0
    ppow = 1.0 + 0.0j
    for _ in range(n_p):
        m = abs(ppow)
        k_num, k_den = _kept(m * y_max, absq, n_q), _kept(m * x_max, absq, n_q)
        if not (k_num or k_den):
            break
        for k, pts, combine in ((k_num, y, np.multiply),
                                (k_den, x, np.divide)):
            if k:
                block = buf[:k, :x.size]
                np.multiply.outer(ppow * qpow[:k], pts, out=block)
                np.subtract(1.0, block, out=block)
                combine(out, np.prod(block, axis=0), out=out)
        ppow *= p
