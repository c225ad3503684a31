"""Hot numeric kernels for the quadrature and elliptic torus suites.

Each kernel takes a whole array of points and runs in numpy: q-Pochhammer
symbols at infinity, theta functions and the elliptic gamma function.
ellgamma_product is the package's one elliptic-gamma algorithm, a product
of gammas Gamma(c z^e)^(+-1) on an array of points: the elliptic torus
weight calls it with its 14 rows, and ellgamma_arr is its one-row case,
which coeffs.ell_gamma (the closed forms and the torus normalisation)
calls.  It multiplies out the few factors of the double product that
exceed 1/4 over the call's points and sums all the others as one
log-series, so a pole is a zero of a product and gives a non-finite value.
torus_integral, the equal-radius torus rule, lives here too: `elliptic`
and `quadrature` both integrate with it, and the elliptic suites load
nothing of `quadrature`.
"""

from __future__ import annotations

import math

import numpy as np

# There is no compiled kernel path; the constant is kept because benchmark
# machine records still report it.
HAS_NUMBA = False

__all__ = ["HAS_NUMBA", "qpoch_inf_arr", "theta_arr", "ellgamma_arr",
           "ellgamma_product", "trunc_order", "torus_integral"]


def trunc_order(m: float) -> int:
    """Terms of a product over the powers of a nome of modulus m that keep
    it within 1e-16 of the infinite product.  The products converge only
    inside the unit disc, so a modulus of 1 or more (or NaN) is a
    ValueError."""
    if not m < 1:
        raise ValueError(f"a nome of modulus {m} is outside the unit disc; "
                         "the products need modulus below 1")
    if m <= 0:
        return 1
    return max(2, int(math.log(1e-16) / math.log(m)) + 2)


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


# a factor 1 - b v of ellgamma_product with |b| max|v| above this bound is
# multiplied out; the rest are summed as one log-series whose bases are then
# at most 1/4, so its terms fall at least fourfold and N <= 30
_SERIES_RATIO = 0.25
# a series term of modulus at most _DROP is 1 to well within a unit in the
# last place, so leaving it out changes no value it would join
_DROP = 1e-18
# elements per chunk of points in ellgamma_product's buffers (the powers of
# u^2 and the multiplied-out factors): 12,288 (192 KiB), so the 17 x 64
# pole-scan grid of the elliptic weight is 4 chunks and a ring of 192 torus
# nodes 1.  At 2^14 or 2^15 the elliptic benchmark's peak RSS was 0.1 and
# about 0.4 MB higher, with no time saved that its runs resolve.
_SERIES_BLOCK = 3 << 12


def ellgamma_arr(z: np.ndarray, p: complex, q: complex,
                 n_p: int, n_q: int) -> np.ndarray:
    """Elliptic gamma, elementwise, truncated to n_p x n_q factors:

        Gamma(z; p, q) = prod_{j<n_p, k<n_q} (1 - p^(j+1) q^(k+1) / z)
                                             / (1 - p^j q^k z).

    The one-row case of ellgamma_product."""
    return ellgamma_product(z, [1.0], [1], [1], p, q, n_p, n_q)


def ellgamma_product(z, c, e, s, p: complex, q: complex,
                     n_p: int, n_q: int) -> np.ndarray:
    """prod_r Gamma(c_r z^e_r; p, q)^s_r elementwise, each Gamma the n_p x n_q
    product of ellgamma_arr; e_r is one of +-1, +-2 and s_r one of +-1.

    Gamma is symmetric in p and q, so the call first swaps them (and n_p
    with n_q) to make |p| <= |q|; both must lie inside the unit disc.  A
    row has two sides, the factors 1 - p^j q^k v of v = c z^e (denominator)
    and of v = pq / (c z^e) (numerator).  Over the call's finite, nonzero
    points each side multiplies out the factors with |p^j q^k| max|v| > 1/4,
    the first K_j of each p-row j < J, and sums the rest as one series,
    log prod (1 - b v) = -sum_n S_n v^n / n with

        S_n = sum_{j<J} (p^j q^K_j)^n (1 - q^(n (n_q - K_j))) / (1 - q^n)
              + p^(Jn) (1 - p^(n (n_p - J))) (1 - q^(n n_q))
                / ((1 - p^n) (1 - q^n)),

    whose bases are at most 1/4 over the points.  A side keeps at least the
    terms with r^n > 1e-18, r its largest base.  The sides' terms sum to one
    set of Laurent coefficients C_m, 0 < |m| <= M, per call, in the powers
    of u = z / max|z| (m > 0) and u = min|z| / z (m < 0), which are at most
    1, so a point far from the others overflows nothing.  Each point takes
    exp(sum_m C_m u^m) times and over its multiplied-out factors; the sum is
    read as sum_j (C_(+-2j) + C_(+-(2j+1)) u) u^(2j), so only the powers of
    u^2 are stored, in chunks within _SERIES_BLOCK elements.

    A pole p^j q^k v = 1 (or a zero of Gamma) has |v| >= 1, so it is a
    zero of a multiplied-out factor and gives a non-finite value (or 0).
    A finite, nonzero point whose multiplied-out denominator overflows is
    one where the product underflows, and gives 0.  A point that is zero
    or not finite gives a non-finite value and leaves the other points'
    values as they are without it.
    """
    if abs(p) > abs(q):
        p, q, n_p, n_q = q, p, n_q, n_p
    p, q = complex(p), complex(q)
    if not abs(q) < 1:
        raise ValueError(f"a nome of modulus {abs(q)} is outside the unit "
                         "disc; the products need modulus below 1")
    z = np.asarray(z, dtype=np.complex128)
    flat = z.reshape(-1)
    out = np.empty(flat.shape, dtype=np.complex128)
    if not flat.size:
        return out.reshape(z.shape)
    mod = np.abs(flat)
    mod = mod[np.isfinite(mod) & (mod > 0)]
    lo, hi = (float(mod.min()), float(mod.max())) if mod.size else (1.0, 1.0)
    # degree >= 2, so that the powers below hold u^2
    absp, absq, degree = abs(p), abs(q), 2
    # a side (a, f, tau) is prod (1 - p^j q^k a z^f)^tau over the rectangle.
    # peel holds its multiplied-out factors as (tau, f, p^j q^k a), bases
    # its series bases as (b, g, last, f, tau): b^n (1 - g^n) is a p-row's
    # sum over k, which the last p-rows weight by their sum over j
    peel, bases, sides = [], [], []
    for cr, er, sr in zip(c, e, s):
        sides += [(complex(cr), er, -sr), (p * q / complex(cr), -er, sr)]
    for a, f, tau in sides:
        ahat = a * (lo if f < 0 else hi) ** f  # v = ahat u^|f|
        row, j, r = abs(ahat), 0, 0.0  # row = |p^j ahat|
        while j < n_p and row > _SERIES_RATIO:
            k = 0
            while k < n_q and row * absq ** k > _SERIES_RATIO:
                peel.append((tau, f, p ** j * q ** k * a))
                k += 1
            if k < n_q:
                bases.append((p ** j * q ** k * ahat, q ** (n_q - k), False,
                              f, tau))
                r = max(r, row * absq ** k)
            j, row = j + 1, row * absp
        if j < n_p:
            bases.append((p ** j * ahat, p ** (n_p - j), True, f, tau))
            r = max(r, row)
        if r:
            n = math.ceil(math.log(_DROP) / math.log(r))
            degree = max(degree, abs(f) * n)
    half = degree // 2 + 1
    coef = np.zeros((2, 2 * half), dtype=np.complex128)
    if bases:
        b, g, last, f, tau = (np.array(x) for x in zip(*bases))
        n = np.arange(1, degree + 1)
        pw = np.vander(np.concatenate([b, g]), degree + 1, increasing=True)
        pw = pw[:, 1:].reshape(2, len(b), degree)
        terms = pw[0] * (1 - pw[1]) * np.where(
            last[:, None], (1 - q ** (n * n_q)) / (1 - p ** n), 1.0)
        terms *= (-tau)[:, None] / (n * (1 - q ** n))
        # coef[0, m] = C_m and coef[1, m] = C_-m
        for fv in set(f.tolist()):
            m = abs(fv)
            coef[int(fv < 0), m:degree + 1:m] += \
                terms[f == fv, :degree // m].sum(axis=0)
    coef = coef.reshape(2, half, 2)
    # the multiplied-out factors 1 - beta z^f, numerators first; z^f is
    # row (|f| - 1) + 2 (f < 0) of (z, z^2, 1/z, 1/z^2)
    peel.sort(key=lambda x: -x[0])
    nnum = sum(1 for x in peel if x[0] > 0)
    pidx = np.array([abs(x[1]) - 1 + 2 * (x[1] < 0) for x in peel], dtype=int)
    beta = np.array([x[2] for x in peel], dtype=np.complex128)[:, None]
    # the chunks, of sizes that differ by one at most, keep the powers of
    # u^2 and the factors within _SERIES_BLOCK elements
    nchunks = -(-flat.size * max(2 * half, len(peel)) // _SERIES_BLOCK)
    buf = np.empty((2, half, -(-flat.size // nchunks)), dtype=np.complex128)
    for i in range(nchunks):
        i0, i1 = flat.size * i // nchunks, flat.size * (i + 1) // nchunks
        zc = flat[i0:i1]
        inv = 1.0 / zc
        u = np.stack((zc / hi, lo * inv))
        # w[s, j] = u_s^(2j), by doubling: rows h..h+m-1 are rows 1..m
        # times row h-1
        w = buf[:, :, :zc.size]
        w[:, 0] = 1.0
        np.multiply(u, u, out=w[:, 1])
        h = 2
        while h < half:
            m = min(h - 1, half - h)
            np.multiply(w[:, 1:m + 1], w[:, h - 1:h], out=w[:, h:h + m])
            h += m
        # einsum, not matmul: the elliptic suites call no BLAS routine
        # otherwise, and the first one raised their peak RSS by 0.4 MB
        even, odd = np.einsum("sjt,sjp->tsp", coef, w)
        val = np.exp(even[0] + even[1] + u[0] * odd[0] + u[1] * odd[1])
        fac = np.stack((zc, zc * zc, inv, inv * inv))[pidx]
        fac *= -beta
        fac += 1.0
        val *= np.prod(fac[:nnum], axis=0)
        den = np.prod(fac[nnum:], axis=0)
        val /= den
        # a denominator that overflows at a finite, nonzero point is a Gamma
        # that underflows; a pole is a zero of a factor and stays non-finite
        far = ~np.isfinite(den)
        if far.any():
            val[far & np.isfinite(zc) & (zc != 0)] = 0.0
        out[i0:i1] = val
    return out.reshape(z.shape)


# nodes evaluated at once by torus_integral and by quadrature's chain rule
_SLAB = 1 << 16


def torus_integral(n: int, f, rho=1.0, npts: int = 256) -> complex:
    """(1/(2 pi i)^n) oint f(z) dz_1/z_1 ... dz_n/z_n on |z_i| = rho.

    f receives the n variables as an open grid (a sparse meshgrid): the
    array of z_i has nodes of circle i along axis i and length 1 on the
    other axes.  It returns values broadcastable to that grid; every node
    counts, so a factor that leaves out a variable is summed over that
    variable's nodes too.  f is called once per slab of at most 2^16 nodes
    (at least one node of the first variable), which holds a run of the
    first circle's nodes and all nodes of the others, so memory does not
    grow with npts^n; an integral of one slab is one sum.  rho is the one
    radius of all n circles.  Nodes are offset by half a step so
    integrands with removable 0*inf points at z^4 = 1 stay finite.
    """
    angles = 2 * np.pi * (np.arange(npts) + 0.5) / npts
    circle = float(rho) * np.exp(1j * angles)
    rows = max(1, _SLAB // npts ** (n - 1))
    sums = []
    for lo in range(0, npts, rows):
        first = circle[lo:lo + rows]
        vals = f(*np.meshgrid(first, *[circle] * (n - 1), indexing="ij",
                              sparse=True))
        sums.append(np.sum(np.broadcast_to(vals, (first.size,)
                                           + (npts,) * (n - 1))))
    return complex(np.sum(sums)) / npts ** n
