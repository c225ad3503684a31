"""Shifted factorials, hook polynomials, gamma/theta/elliptic-gamma numerics.

Most functions are generic over the scalar ring: they accept FieldElements
(for exact identities in q, t, a, ...) or complex numbers interchangeably,
as long as only +, -, *, /, integer powers are used.  Infinite products
(q-Pochhammer at infinity, theta, elliptic gamma) are numeric only, each
truncated where its terms fall below 1e-16.  The theta family (theta,
theta_poch, ell_qt_poch, delta0) also takes numpy arrays of points in its
first argument; theta then runs kernels.theta_arr once for the whole
array, and at one point it computes each (z, p) once, in a bounded memo.
ell_gamma is kernels.ellgamma_arr at one point or on an array of points,
so the elliptic gamma has one implementation and one check of its zeros
and poles.  numpy is imported only by those numeric routes: the exact
suites use this module without it.  The module imports nothing from
`field`, so the elliptic suites run without the exact engine.  Each
q-Pochhammer product has one route: an exact one of the Macdonald
identities is one `field.binomial_product`, built in `macdonald`, and a
numeric one is built here (qpoch, qt_poch, hooks), where `closedform`
reads the principal specialisation of its Macdonald closed forms.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache

from .errors import PoleError
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

    A negative index reads (b;q)_{-m} = 1/(b q^{-m};q)_m and raises
    PoleError on a vanishing factor (e.g. (q;q)_{-m}).
    """
    if n >= 0:
        out = 1
        for i in range(n):
            out = out * (1 - b * q ** i)
        return out
    den = qpoch(b * q ** n, q, -n)
    if den == 0:
        raise PoleError(f"(b;q)_{n} has a vanishing factor in the denominator")
    return _recip(den)


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

    On an array z the product is truncated at kernels.trunc_order(|p|).  At
    one point it is _theta_at, which computes each (z, p) once.
    """
    if _is_array(z):
        from . import kernels
        return kernels.theta_arr(z, complex(p), kernels.trunc_order(abs(p)))
    return _theta_at(complex(z), complex(p))


@lru_cache(maxsize=4096)
def _theta_at(z: complex, p: complex) -> complex:
    # lru_cache stores no exception, so theta(0; p) raises at every call
    if z == 0:
        raise ZeroDivisionError("theta(0; p) undefined")
    return qpoch_inf(z, p) * qpoch_inf(p / z, p)


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
