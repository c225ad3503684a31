"""Shifted factorials, hook polynomials, gamma/theta/elliptic-gamma numerics.

Most functions are generic over the scalar ring: they accept FieldElements
(for exact identities in q, t, a, ...) or complex numbers interchangeably,
as long as only +, -, *, /, integer powers are used.  Infinite products
(q-Pochhammer at infinity, theta, elliptic gamma) are numeric only, each
truncated where its terms fall below 1e-16.  The theta family (theta,
theta_poch, ell_qt_poch, delta0) also takes numpy arrays of points in its
first argument; theta then runs kernels.theta_arr once for the whole
array.  ell_gamma is kernels.ellgamma_arr at one point or on an array of
points, so the elliptic gamma has one implementation and one check of its
zeros and poles.  numpy is imported only by those numeric routes: the
exact suites use this module without it.
"""

from __future__ import annotations

import cmath
import math
import sys

from .field import FieldElement, PoleError, binomial_product
from .partitions import Partition

__all__ = [
    "poch", "qpoch", "qt_poch", "gamma_poch",
    "hooks", "gamma", "lgamma", "gamma_ratio",
    "theta", "theta_poch", "ell_gamma", "ell_qt_poch", "delta0",
    "delta0_bipartite", "c_minus", "c_plus",
]


# ---------------------------------------------------------------------------
# classical and q-shifted factorials (generic ring)
# ---------------------------------------------------------------------------

def poch(b, n):
    """Pochhammer (b)_n.

    Integer n (negative allowed, as 1/(b-1)...(b+n), with PoleError on a
    vanishing factor); non-integer n falls back to Gamma(b+n)/Gamma(b) for
    numeric b.
    """
    if isinstance(n, int):
        if n >= 0:
            out = 1
            for i in range(n):
                out = out * (b + i)
            return out
        out = 1
        for i in range(1, -n + 1):
            out = out * (b - i)
        if out == 0:
            raise PoleError(f"({b})_{n} has a vanishing factor in the denominator")
        return _recip(out)
    return gamma_ratio([b + n], [b])


def _recip(x):
    if isinstance(x, int):
        from fractions import Fraction
        return Fraction(1, x)
    return 1 / x


def qpoch(b, q, n: int):
    """q-shifted factorial (b;q)_n for integer n.

    Negative index uses (b;q)_{-n} = 1/(b q^{-n};q)_n and raises PoleError
    on a vanishing factor (e.g. (q;q)_{-n}); inv_qpoch gives the
    reciprocal, which is then exactly zero.
    """
    if n >= 0:
        out = 1
        for i in range(n):
            out = out * (1 - b * q ** i)
        return out
    den = inv_qpoch(b, q, n)
    if _is_exact_zero(den):
        raise PoleError(f"(b;q)_{n} has a vanishing factor in the denominator")
    return _recip(den)


def inv_qpoch(b, q, n: int):
    """1/(b;q)_n as a ring element: a plain product when n < 0."""
    if n >= 0:
        return _recip(qpoch(b, q, n))
    out = 1
    for i in range(1, -n + 1):
        out = out * (1 - b * q ** (-i))
    return out


def _is_exact_zero(x) -> bool:
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


def qpoch_inf(b, q) -> complex:
    """(b;q)_infty by the product of its factors down to |b q^j| <= 1e-16,
    |q| < 1; a non-finite b or q raises ValueError, as the loop would never
    end (b = inf) or not start (nan)."""
    q, b = complex(q), complex(b)
    if not (cmath.isfinite(q) and cmath.isfinite(b)):
        raise ValueError(f"(b;q)_infty needs finite b and q, not {b}, {q}")
    if abs(q) >= 1:
        raise ValueError("(b;q)_infty needs |q| < 1")
    out = 1.0 + 0.0j
    term = b
    aq = abs(q)
    bound = abs(term)
    while bound > 1e-16:
        out *= 1 - term
        term *= q
        bound *= aq
    return out


def qt_poch(b, q, t, lam: Partition):
    """(b;q,t)_lambda = prod_i (b t^{1-i};q)_{lambda_i}."""
    lam = Partition(lam)
    out = 1
    for i, part in enumerate(lam.parts, start=1):
        out = out * qpoch(b * t ** (1 - i), q, part)
    return out


def _qpoch_product(symbols, shift, q, t, a=0):
    """a^i q^j t^k times the product of (x;q)_n^s over the q-Pochhammer
    symbols (x, n, s), where shift = (i, j, k) and each argument x is
    a^i' q^j' t^k' given as its exponent triple (i', j', k'); a negative n
    is read as in qpoch.

    Where ``_qpoch_exact`` applies, the product is one binomial_product;
    otherwise the ring's own arithmetic multiplies it symbol by symbol.
    """
    out = _qpoch_exact(symbols, shift, q, t, a)
    if out is not None:
        return out
    i, j, k = shift
    out = a ** i * q ** j * t ** k
    for (i, j, k), n, s in symbols:
        if not n:
            continue
        x = a ** i * q ** j * t ** k
        # (x;q)_n is p for n > 0 and 1/p for n < 0
        p = qpoch(x, q, n) if n > 0 else inv_qpoch(x, q, n)
        out = out * p if (n > 0) == (s > 0) else out / p
    return out


def _qpoch_exact(symbols, shift, q, t, a):
    """The product of ``_qpoch_product`` as one field.binomial_product, or
    None unless q, t and a are Laurent monomials with coefficient 1; a may
    also be 0 if no argument holds a negative power of it."""
    vq, vt, va = _laurent(q), _laurent(t), _laurent(a)
    if vq is None or vt is None:
        return None
    if va is None:
        if (not _is_exact_zero(a) or shift[0]
                or any(x[0] < 0 for x, _, _ in symbols)):
            return None
        # a symbol whose argument holds a power of a = 0 is 1
        symbols = [sym for sym in symbols if not sym[0][0]]
        va = (0,) * len(vq)
    basis = (va, vq, vt)
    factors = []
    for sym in symbols:
        factors += _binomials(sym, basis)
    i, j, k = shift
    return binomial_product(factors, tuple(
        [i * u + j * v + k * w for u, v, w in zip(va, vq, vt)]))


def _binomials(sym, basis):
    """The factors of binomial_product that make up the symbol
    sym = ((i, j, k), n, s), for basis = (a, q, t) as exponent vectors:
    (x;q)_n is the product of 1 - x q^u over 0 <= u < n, or for n < 0 the
    inverse of that over n <= u < 0."""
    (i, j, k), n, s = sym
    va, vq, vt = basis
    us, s = (range(j, j + n), s) if n >= 0 else (range(j + n, j), -s)
    ik = [i * u + k * w for u, w in zip(va, vt)]
    return [(tuple([c + u * v for c, v in zip(ik, vq)]), s) for u in us]


def _laurent(x):
    return x.laurent() if isinstance(x, FieldElement) else None


def gamma_poch(b, g, lam: Partition):
    """(b;gamma)_lambda = prod_i (b + (1-i) gamma)_{lambda_i}."""
    lam = Partition(lam)
    out = 1
    for i, part in enumerate(lam.parts, start=1):
        out = out * poch(b + (1 - i) * g, part)
    return out


# ---------------------------------------------------------------------------
# hook polynomials
# ---------------------------------------------------------------------------

def hooks(lam: Partition, q, t):
    """Generalised hook polynomials (c_lambda, c'_lambda, b_lambda)."""
    lam = Partition(lam)
    c = 1
    cp = 1
    for (i, j) in lam.cells():
        a = lam.arm(i, j)
        l = lam.leg(i, j)
        c = c * (1 - q ** a * t ** (l + 1))
        cp = cp * (1 - q ** (a + 1) * t ** l)
    return c, cp, c * _recip(cp)


# ---------------------------------------------------------------------------
# gamma functions
# ---------------------------------------------------------------------------

_LANCZOS_G = 7
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_nonpositive_int(z: complex) -> bool:
    z = complex(z)
    return (abs(z.imag) < 1e-12 and z.real < 0.5
            and abs(z.real - round(z.real)) < 1e-12)


def gamma(z) -> complex:
    """Complex Gamma via Lanczos with reflection; PoleError at 0, -1, -2, ..."""
    z = complex(z)
    if _is_nonpositive_int(z):
        raise PoleError(f"Gamma pole at {z}")
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * gamma(1 - z))
    z -= 1
    x = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        x += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    out = math.sqrt(2 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x
    if abs(out.imag) < 1e-15 * abs(out.real):
        out = complex(out.real, 0.0)
    return out


def lgamma(z) -> complex:
    """A logarithm of Gamma(z), branch-consistent only up to 2*pi*i per call.

    Safe inside gamma_ratio because the ambiguities exponentiate to 1.
    """
    z = complex(z)
    if _is_nonpositive_int(z):
        raise PoleError(f"Gamma pole at {z}")
    if z.real < 0.5:
        return (cmath.log(math.pi) - cmath.log(cmath.sin(math.pi * z))
                - lgamma(1 - z))
    z -= 1
    x = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        x += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return (0.5 * math.log(2 * math.pi) + (z + 0.5) * cmath.log(t) - t
            + cmath.log(x))


def gamma_ratio(nums, dens) -> complex:
    """prod Gamma(nums) / prod Gamma(dens) in log space with pole pairing.

    Gamma poles in the denominator produce zeros; paired poles (one up, one
    down at nonpositive integers) are resolved by the reflection limit
    Gamma(-m+e)/Gamma(-n+e) -> (-1)^(n-m) n!/m!.
    """
    num_poles = [z for z in nums if _is_nonpositive_int(z)]
    den_poles = [z for z in dens if _is_nonpositive_int(z)]
    if len(num_poles) > len(den_poles):
        raise PoleError("unpaired Gamma pole in numerator")
    if len(num_poles) < len(den_poles):
        return 0.0
    extra = 1.0 + 0.0j
    for zn, zd in zip(sorted(num_poles, key=lambda z: z.real),
                      sorted(den_poles, key=lambda z: z.real)):
        m = round(-zn.real)
        n = round(-zd.real)
        extra *= (-1.0) ** ((n - m) % 2) * math.factorial(n) / math.factorial(m)
    acc = 0.0 + 0.0j
    for z in nums:
        if not _is_nonpositive_int(z):
            acc += lgamma(z)
    for z in dens:
        if not _is_nonpositive_int(z):
            acc -= lgamma(z)
    return extra * cmath.exp(acc)


# ---------------------------------------------------------------------------
# theta and elliptic gamma
# ---------------------------------------------------------------------------

def _is_array(x) -> bool:
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def _point(x):
    """complex(x) for a scalar; an array of points passes through."""
    return x if _is_array(x) else complex(x)


def theta(z, p) -> complex:
    """Modified theta theta(z;p) = (z;p)_inf (p/z;p)_inf, z != 0, |p| < 1.

    On an array z the product is truncated at kernels.trunc_order(|p|).
    """
    if _is_array(z):
        from . import kernels
        return kernels.theta_arr(z, complex(p), kernels.trunc_order(abs(p)))
    z = complex(z)
    if z == 0:
        raise ZeroDivisionError("theta(0; p) undefined")
    return qpoch_inf(z, p) * qpoch_inf(complex(p) / z, p)


def theta_poch(b, q, p, n: int) -> complex:
    """Elliptic shifted factorial (b;q,p)_n = prod theta(b q^i;p), n in Z."""
    b = _point(b)
    if n >= 0:
        out = 1.0 + 0.0j
        for i in range(n):
            out *= theta(b * complex(q) ** i, p)
        return out
    out = 1.0 + 0.0j
    for i in range(1, -n + 1):
        out *= theta(b * complex(q) ** (-i), p)
    return 1 / out


def ell_gamma(z, p, q):
    """Elliptic gamma Gamma(z; p, q): kernels.ellgamma_arr with the
    kernels.trunc_order caps, at one point (a complex) or elementwise on an
    array of points.  At z = p^(j+1) q^(k+1) Gamma is zero to within
    rounding (p q / z is formed through a rounded reciprocal, so the zero
    is exact at some nomes only); an argument 0 is a ZeroDivisionError, and
    a pole (z = p^-j q^-k) a PoleError that names the first argument at
    one."""
    import numpy as np

    from . import kernels
    p, q = complex(p), complex(q)
    z = np.asarray(z, dtype=np.complex128)
    if not z.all():
        raise ZeroDivisionError("elliptic gamma undefined at z = 0")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = kernels.ellgamma_arr(z, p, q, kernels.trunc_order(abs(p)),
                                   kernels.trunc_order(abs(q)))
    pole = ~np.isfinite(out)
    if pole.any():
        raise PoleError(f"elliptic gamma pole at z={complex(z[pole][0])}")
    return complex(out) if out.ndim == 0 else out


def ell_qt_poch(b, q, t, p, lam: Partition) -> complex:
    """(b;q,t;p)_lambda = prod_i (b t^{1-i};q,p)_{lambda_i}."""
    lam = Partition(lam)
    out = 1.0 + 0.0j
    for i, part in enumerate(lam.parts, start=1):
        out *= theta_poch(_point(b) * complex(t) ** (1 - i), q, p, part)
    return out


def delta0(a, bs, q, t, p, lam: Partition) -> complex:
    """Well-poised ratio Delta0_lambda(a | b_1..b_k; q,t;p)."""
    lam = Partition(lam)
    pq = complex(p) * complex(q)
    out = 1.0 + 0.0j
    for b in bs:
        num = ell_qt_poch(b, q, t, p, lam)
        den = ell_qt_poch(pq * complex(a) / _point(b), q, t, p, lam)
        if (den == 0).any() if _is_array(den) else den == 0:
            raise PoleError("Delta0 denominator vanished")
        out *= num / den
    return out


def delta0_bipartite(a, bs, t, p, q, blam) -> complex:
    """Delta0 for a bipartition: (q,t;p) factor times (p,t;q) factor."""
    lam1, lam2 = blam
    return (delta0(a, bs, q, t, p, lam1) * delta0(a, bs, p, t, q, lam2))


def c_minus(b, q, t, p, lam: Partition) -> complex:
    """C^-_lambda(b;q,t;p) = prod over cells of theta(b q^arm t^leg; p)."""
    lam = Partition(lam)
    out = 1.0 + 0.0j
    for (i, j) in lam.cells():
        out *= theta(complex(b) * complex(q) ** lam.arm(i, j)
                     * complex(t) ** lam.leg(i, j), p)
    return out


def c_plus(b, q, t, p, lam: Partition) -> complex:
    """C^+_lambda(b;q,t;p) = prod theta(b q^{lam_i+j-1} t^{2-lam'_j-i}; p)."""
    lam = Partition(lam)
    conj = lam.conjugate()
    out = 1.0 + 0.0j
    for (i, j) in lam.cells():
        out *= theta(complex(b) * complex(q) ** (lam.part(i) + j - 1)
                     * complex(t) ** (2 - conj.part(j) - i), p)
    return out
