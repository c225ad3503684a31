"""Hot numeric kernels for the quadrature and elliptic torus suites.

Each kernel takes a whole array of points and runs in numpy: q-Pochhammer
symbols at infinity, theta functions and the elliptic gamma function.

The elliptic gamma function is a double product over p^j q^k, symmetric in
p and q; the kernel takes |p| <= |q|.  A call works through its points in
chunks that keep its one buffer at 2^15 factors (512 KiB) at most, and
computes each chunk by one of two routes:

- on the annulus where |p z| and |pq/z| are at most 1/4 (the elliptic
  suites' scan rings and torus nodes), as (z; q)_inf, one product of at
  most n_q factors, times the exponential of a short series in (pz)^n and
  (pq/z)^n that sums the rest (about 8 terms there);
- elsewhere as the double product itself.  n_p and n_q are caps: a factor
  1 - c x whose |c| max|x| is at most 1e-18 is dropped, so only the
  triangle j log|p| + k log|q| >~ log(1e-18 / max|x|) of the n_p x n_q
  rectangle is multiplied out, one p-power at a time.

A pole of the function is a zero of a product on either route, so it gives
a non-finite value.
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
    """Terms of a product over the powers of a nome of modulus m that keep
    it within eps of the infinite product.  The products converge only
    inside the unit disc, so a modulus of 1 or more (or NaN) is a
    ValueError."""
    if not m < 1:
        raise ValueError(f"a nome of modulus {m} is outside the unit disc; "
                         "the products need modulus below 1")
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
# a chunk takes ellgamma_arr's series route when its ratio r is at most
# this: the terms then fall at least fourfold, so N <= 30.  Towards the
# radius of convergence, r = 1, the series needs ever more terms, and the
# truncated product is the cheaper route.
_SERIES_RATIO = 0.25


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
    """Elliptic gamma, elementwise:

        Gamma(z; p, q) = prod_{j, k >= 0} (1 - p^(j+1) q^(k+1) / z)
                                          / (1 - p^j q^k z).

    Gamma is symmetric in p and q, so the call first swaps them (and n_p
    with n_q) to make |p| <= |q|.  It then works through its points in
    chunks, each by one of two routes:

    - Series.  When r = max(|p| max|z|, max|pq/z|) <= 1/4 over the chunk,
      every factor but those of (z; q)_inf expands on the annulus as

          Gamma(z) = exp(sum_{n<=N} ((pz)^n - (pq/z)^n)
                         / (n (1 - p^n) (1 - q^n))) / (z; q)_inf,

      with N the least n with r^n <= 1e-18.  Only (z; q)_inf is
      multiplied out, its factors cut at 1e-18 as below.  This covers
      the elliptic suites' scan rings and torus nodes, where r is about
      3e-3 and N about 8.
    - Product.  Otherwise the double product is truncated: of each factor
      1 - c x (x = z or pq/z), those with |c| max|x| <= 1e-18 over the
      chunk are left out, so a p-power j keeps only the k with
      |p^j q^k| max|x| above that bound, and the loop over j stops at the
      first p-power that keeps none.  n_p and n_q are caps.

    On both routes the kept factors of one p-power are one (k x chunk)
    block in a buffer allocated once per call, reduced by np.prod.  A
    chunk holds at most 2^15 // n_q points, so the buffer stays at 2^15
    factors (512 KiB) whatever the size of z.  A pole (p^j q^k z = 1) is a
    zero of a product, so it gives a non-finite value on either route; the
    chunk that holds a pole at j >= 1, a zero of Gamma, a NaN or a point
    far from the unit circle lies outside the annulus and is multiplied
    out.
    """
    if abs(p) > abs(q):
        p, q, n_p, n_q = q, p, n_q, n_p
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


def _factors(c, pts, k, qpow, buf):
    """prod_{i<k} (1 - c q^i x) for each point x of pts, in buf."""
    block = buf[:k, :pts.size]
    np.multiply.outer(c * qpow[:k], pts, out=block)
    np.subtract(1.0, block, out=block)
    return np.prod(block, axis=0)


def _ellgamma_chunk(x, p, q, n_p, qpow, buf, out):
    """ellgamma_arr on one chunk x of points, written into out."""
    n_q, absq = len(qpow), abs(q)
    y = (p * q) / x
    x_max, y_max = np.abs(x).max(), np.abs(y).max()
    r = max(abs(p) * x_max, y_max)
    if r <= _SERIES_RATIO:
        den = _factors(1.0, x, _kept(x_max, absq, n_q), qpow, buf)
        np.divide(np.exp(_log_series(p * x, y, p, q, r)), den, out=out)
        return
    out[...] = 1.0
    ppow = 1.0 + 0.0j
    for _ in range(n_p):
        m = abs(ppow)
        k_num, k_den = _kept(m * y_max, absq, n_q), _kept(m * x_max, absq, n_q)
        if not (k_num or k_den):
            break
        if k_num:
            out *= _factors(ppow, y, k_num, qpow, buf)
        if k_den:
            out /= _factors(ppow, x, k_den, qpow, buf)
        ppow *= p


def _log_series(u, v, p, q, r):
    """sum_{n<=N} (u^n - v^n) / (n (1 - p^n) (1 - q^n)), elementwise, with
    N the least n with r^n <= _DROP for r >= max(|u|, |v|)."""
    if r == 0:
        return np.zeros_like(u)
    n = np.arange(1, math.ceil(math.log(_DROP) / math.log(r)) + 1)
    coef = 1.0 / (n * (1.0 - p ** n) * (1.0 - q ** n))
    # Horner's rule on both arguments at once: w (c_1 + w (c_2 + ...))
    w = np.stack((u, v))
    acc = np.full_like(w, coef[-1])
    for c in coef[-2::-1]:
        acc *= w
        acc += c
    acc *= w
    return acc[0] - acc[1]
