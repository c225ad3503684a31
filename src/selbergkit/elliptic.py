"""Rank-one elliptic interpolation functions, elliptic binomial
coefficients, Jackson summation, skew interpolation functions, the elliptic
closed forms (the elliptic Selberg product and the interpolation-pair
integral), and torus verification of the elliptic beta/interpolation-pair
integrals.

The one-variable interpolation function is defined by its principal
specialisation product read at a general argument (at rank one the function
is pinned by that formula); everything downstream is verified against
independent finite identities.  All suites restrict partition components to
single rows: longer components would need higher-rank interpolation theory
and are rejected with a scope error.

The three torus integrals (elliptic beta, interpolation pair, skew pair)
share one side, _torus_lhs: the elliptic-gamma weight times the
integrand's own factor, the pole scan, the normalisation kappa_1 and the
torus rule.  The rank-n integrals will replace that one function.  The
torus rule is `kernels.torus_integral`, so the elliptic suites load
neither `quadrature` nor `closedform`.

The weight prod_r Gamma(t_r z^pm) / Gamma(z^pm2) declares its 14 gammas as
the rows of one kernels.ellgamma_product call per array of points, the
package's one elliptic-gamma algorithm.  The closed form's gammas are one
coeffs.ell_gamma call on an array, and the p -> 0 target of `skew-limit` is
built from power sums, so the elliptic suites load neither `macdonald` nor
`symfunc`.
"""

from __future__ import annotations

import cmath

import numpy as np

from . import kernels
from .coeffs import (
    c_minus, c_plus, delta0, delta0_bipartite, ell_gamma, ell_qt_poch,
    hooks, qpoch_inf, theta_poch,
)
from .errors import PoleError
from .partitions import Bipartition, P, Partition

__all__ = [
    "bc1_interp", "elliptic_binomial", "normalised_binomial",
    "jackson_sum_check", "skew_interp", "skew_interp_pm",
    "bipartite_skew_interp_pm", "connection_check",
    "elliptic_beta_lhs", "thm92_lhs_n1", "thm92_rhs_n1", "eaflt_lhs_n1",
    "elliptic_selberg_rhs", "eaflt_rhs", "contour_pole_scan",
    "skew_limit_value",
]


def _single_row(lam: Partition) -> int:
    if len(lam) > 1:
        raise ValueError(
            "elliptic suites are restricted to single-row partitions; "
            f"got {lam}")
    return lam.part(1)


# ---------------------------------------------------------------------------
# BC1 interpolation functions and elliptic binomial coefficients
# ---------------------------------------------------------------------------

def bc1_interp(m: int, z, a, b, q, p) -> complex:
    """One-variable interpolation function (principal-product definition).

    R*_m(z; a, b) = (az, a/z;q,p)_m / ((pq/(bz), pqz/b;q,p)_m).
    z may be a numpy array of points.
    """
    a, b, q, p = complex(a), complex(b), complex(q), complex(p)
    if not isinstance(z, np.ndarray):
        z = complex(z)
    num = theta_poch(a * z, q, p, m) * theta_poch(a / z, q, p, m)
    den = (theta_poch(p * q / (b * z), q, p, m)
           * theta_poch(p * q * z / b, q, p, m))
    if np.any(den == 0):
        raise PoleError("BC1 interpolation denominator vanished")
    return num / den


def elliptic_binomial(lam: Partition, mu: Partition, a, b, q, t, p) -> complex:
    """Elliptic binomial coefficient for single-row lam, mu (n = 1).

    The normalising block carries the lower index with the shifted
    well-poising parameter a/b (this is what makes the coefficient
    trivialise to 1 at mu = 0 and the skew/plain reduction hold; the
    printed form with the upper index passes every telescoping identity
    but violates both, see the ledger).
    """
    lm, mm = _single_row(lam), _single_row(mu)
    if mm > lm:
        return 0.0
    a, b, q, t, p = (complex(a), complex(b), complex(q), complex(t),
                     complex(p))
    pq = p * q
    c = a / b
    two_mu_sq = Partition(sorted([2 * x for x in mu.parts] * 2,
                                 reverse=True))
    pref = ell_qt_poch(pq * c, q, t, p, two_mu_sq)
    pref /= c_minus(pq, q, t, p, mu) * c_minus(t, q, t, p, mu)
    pref /= c_plus(c, q, t, p, mu) * c_plus(pq * c / t, q, t, p, mu)
    root = cmath.sqrt(a)
    # n = 1: Delta0_mu(a/b | t, 1/b) and R*_mu at z = a^{1/2} q^{lam_1}
    dv = delta0(a / b, [t, 1 / b], q, t, p, mu)
    rv = bc1_interp(mm, root * q ** lm, root, b / root, q, p)
    return pref * dv * rv


def normalised_binomial(lam: Partition, mu: Partition, a, b, vs, q, t,
                        p) -> complex:
    """Normalised binomial with spectator parameters (v_1..v_k)."""
    a, b = complex(a), complex(b)
    num = delta0(a, [b] + list(vs), q, t, p, lam)
    den = delta0(a / b, [1 / b] + list(vs), q, t, p, mu)
    if den == 0:
        raise PoleError("normalised binomial denominator vanished")
    return (num / den) * elliptic_binomial(lam, mu, a, b, q, t, p)


def jackson_sum_check(lam: Partition, nu: Partition, a, b, c, d, e, q, t, p):
    """Rank-one Jackson summation: (the mu-sum, the closed binomial)."""
    a, b, c, d, e = (complex(x) for x in (a, b, c, d, e))
    if abs(b * c * d * e - a * p * q) > 1e-12 * max(1.0, abs(a * p * q)):
        raise ValueError("Jackson balancing bcde = apq violated")
    lm, nm = _single_row(lam), _single_row(nu)
    total = 0.0 + 0.0j
    for mm in range(nm, lm + 1):
        mu = P(mm) if mm else P()
        term = delta0(a / b, [d, e], q, t, p, mu)
        term *= normalised_binomial(lam, mu, a, b, [], q, t, p)
        term *= normalised_binomial(mu, nu, a / b, c / b, [], q, t, p)
        total += term
    rhs = normalised_binomial(lam, nu, a, c, [b * d, b * e], q, t, p)
    return total, rhs


def _skew_terms(lam: Partition, nu: Partition, V, a, b, q, t, p) -> list:
    """The argument-free part of R*_{lam/nu}: one (mu, binomial, binomial)
    per term, where V is the product of the arguments."""
    a, b = complex(a), complex(b)
    pq = complex(p) * complex(q)
    lm, nm = _single_row(lam), _single_row(nu)
    terms = []
    for mm in range(nm, lm + 1):
        mu = P(mm) if mm else P()
        terms.append((
            mu,
            normalised_binomial(lam, mu, a / b, a * b / pq, [], q, t, p),
            normalised_binomial(mu, nu, pq / b ** 2, pq * V / (a * b),
                                [], q, t, p)))
    return terms


def _skew_sum(terms, vs, b, q, t, p):
    """Sum of Delta0_mu(pq/b^2 | pq/(b v_i)) times the binomials of each
    term; the arguments v_i may be scalars or arrays of points."""
    b = complex(b)
    pq = complex(p) * complex(q)
    total = 0.0 + 0.0j
    for mu, nb_lam, nb_nu in terms:
        term = delta0(pq / b ** 2, [pq / (b * v) for v in vs], q, t, p, mu)
        term *= nb_lam
        term *= nb_nu
        total += term
    return total


def skew_interp(lam: Partition, nu: Partition, vs, a, b, q, t, p) -> complex:
    """Skew interpolation function R*_{lam/nu}([v_1..v_{2n}]; a, b)."""
    if len(vs) % 2:
        raise ValueError("need an even number of arguments")
    vs = [complex(v) for v in vs]
    V = 1.0 + 0.0j
    for v in vs:
        V *= v
    return _skew_sum(_skew_terms(lam, nu, V, a, b, q, t, p), vs, b, q, t, p)


def _skew_pm_factor(lam: Partition, nu: Partition, u, n: int, extra, a, b,
                    q, t, p):
    """R*_{lam/nu}(u z_1^pm, ..., u z_n^pm, extras) as a function of
    (z_1..z_n).  The product of the arguments, u^{2n} prod(extras), does
    not depend on the z_i, so the binomials of every term are computed
    here once; the returned function evaluates only the Delta0 factors,
    on scalars or on arrays of points."""
    if len(extra) % 2:
        raise ValueError("need an even number of arguments")
    u = complex(u)
    extra = [complex(e) for e in extra]
    V = u ** (2 * n)
    for e in extra:
        V *= e
    terms = _skew_terms(lam, nu, V, a, b, q, t, p)

    def at(zs):
        vs = []
        for z in zs:
            vs += [u * z, u / z]
        return _skew_sum(terms, vs + extra, b, q, t, p)

    return at


def skew_interp_pm(lam: Partition, nu: Partition, u, zs, extra, a, b,
                   q, t, p) -> complex:
    """Plus-minus convention: arguments (u z_i, u / z_i) plus extras.

    The z_i may be arrays of points."""
    return _skew_pm_factor(lam, nu, u, len(zs), extra, a, b, q, t, p)(zs)


def _bipartite_pm_factor(blam: Bipartition, u, n: int, extra, a, b, t, p, q):
    """R*_{blam/0} in the plus-minus convention as a function of the z_i."""
    first = _skew_pm_factor(blam.first, P(), u, n, extra, a, b, q, t, p)
    second = _skew_pm_factor(blam.second, P(), u, n, extra, a, b, p, t, q)
    return lambda zs: first(zs) * second(zs)


def bipartite_skew_interp_pm(blam: Bipartition, u, zs, extra, a, b,
                             t, p, q) -> complex:
    """R*_{blam/0} in the (q,t;p) x (p,t;q) bipartite convention.

    The z_i may be arrays of points."""
    return _bipartite_pm_factor(blam, u, len(zs), extra, a, b, t, p, q)(zs)


def connection_check(blam: Bipartition, x, a, a2, b, t, p, q):
    """Connection-coefficient expansion between parameter choices a, a2:
    (the product at a, its expansion over the products at a2)."""
    l1, l2 = _single_row(blam.first), _single_row(blam.second)
    a, a2, b = complex(a), complex(a2), complex(b)
    lhs = (bc1_interp(l1, x, a, b, q, p)
           * bc1_interp(l2, x, a, b, p, q))
    total = 0.0 + 0.0j
    for m1 in range(l1 + 1):
        for m2 in range(l2 + 1):
            mu1 = P(m1) if m1 else P()
            mu2 = P(m2) if m2 else P()
            coeff = (normalised_binomial(blam.first, mu1, a / b, a / a2,
                                         [a * a2], q, t, p)
                     * normalised_binomial(blam.second, mu2, a / b, a / a2,
                                           [a * a2], p, t, q))
            total += coeff * bc1_interp(m1, x, a2, b, q, p) \
                * bc1_interp(m2, x, a2, b, p, q)
    return lhs, total


# ---------------------------------------------------------------------------
# elliptic closed forms
# ---------------------------------------------------------------------------

def elliptic_selberg_rhs(n: int, ts, t, p, q) -> complex:
    """Elliptic Selberg product (six parameters, balanced).

    Its n (1 + 15) elliptic gammas are one coeffs.ell_gamma call: an
    argument 0 is a ZeroDivisionError, and a pole is a PoleError that names
    the first argument at one."""
    _check_balancing(n, ts, t, p, q)
    t, p, q = complex(t), complex(p), complex(q)
    args = []
    for i in range(1, n + 1):
        args.append(t ** i)
        for r in range(6):
            for s in range(r + 1, 6):
                args.append(t ** (i - 1) * ts[r] * ts[s])
    return complex(np.prod(ell_gamma(np.array(args), p, q)))


def _check_balancing(n, ts, t, p, q):
    prod = complex(t) ** (2 * n - 2)
    for x in ts:
        prod *= complex(x)
    if abs(prod - complex(p) * complex(q)) > 1e-10 * max(1.0, abs(p * q)):
        raise ValueError("elliptic balancing condition violated "
                         "(t^(2n-2) t1...t6 must equal p q)")


def _spectral_points(blam: Bipartition, n: int, t, p, q) -> list:
    """The spectral points t^{n-i} q^{lam1_i} p^{lam2_i}, i = 1..n, of the
    bipartition blam = (lam1, lam2), as complex numbers."""
    lam1, lam2 = blam
    if len(lam1) > n or len(lam2) > n:
        raise ValueError("component length exceeds n")
    t, p, q = complex(t), complex(p), complex(q)
    return [t ** (n - i) * q ** lam1.part(i) * p ** lam2.part(i)
            for i in range(1, n + 1)]


def eaflt_rhs(n: int, blam: Bipartition, bmu: Bipartition, t, ts, p,
              q) -> complex:
    """Elliptic interpolation-pair integral, closed form.

    The last factor is the ratio of two Delta0's with spectral-vector
    arguments sharing the same well-poising parameter, as produced by the
    derivation.  The printed variant, whose denominator Delta0 is
    well-poised at t^(n-2) t2 t3 t4 / t5, fails against quadrature for a
    nonempty mu.
    """
    _check_balancing(n, ts, t, p, q)
    t = complex(t)
    t1, t2, t3, t4, t5, t6 = [complex(x) for x in ts]
    out = elliptic_selberg_rhs(n, ts, t, p, q)
    out *= delta0_bipartite(
        t ** (n - 1) * t1 / t2,
        [t ** n, t ** (n - 1) * t1 * t3, t ** (n - 1) * t1 * t4,
         t ** (n - 1) * t1 * t5, t ** (n - 1) * t1 * t6], t, p, q, blam)
    out *= delta0_bipartite(
        t ** (n - 2) * t3 * t4 * t5 / t6,
        [t ** (n - 1) * t3 * t4, t ** (n - 1) * t3 * t5, t ** (n - 1) * t4 * t5],
        t, p, q, bmu)
    sv = _spectral_points(blam, n, t, p, q)
    num_args = [t ** (n - 2) * t1 * t3 * t4 * t5 * v for v in sv]
    den_args = [t ** (n - 1) * t1 * t3 * t4 * t5 * v for v in sv]
    out *= delta0_bipartite(t ** (n - 2) * t3 * t4 * t5 / t6, num_args,
                            t, p, q, bmu)
    out /= delta0_bipartite(t ** (n - 2) * t3 * t4 * t5 / t6, den_args,
                            t, p, q, bmu)
    return out


# ---------------------------------------------------------------------------
# torus integrals at one integration variable
# ---------------------------------------------------------------------------

_SCAN_LO, _SCAN_HI, _SCAN_NRAD, _SCAN_NANG = 0.82, 1.22, 17, 64
_SCAN_SPIKE = 1e6


def contour_pole_scan(f) -> bool:
    """Crude pole scan: integrand magnitudes on an annulus grid of 17 radii
    from 0.82 to 1.22 and 64 angles.

    f is called once, on the whole (17, 64) grid of points (row i on the
    ring of the i-th radius), and the scan passes iff every value is
    finite and at most 1e6."""
    zs = (np.linspace(_SCAN_LO, _SCAN_HI, _SCAN_NRAD)[:, None]
          * np.exp(2j * np.pi * np.arange(_SCAN_NANG) / _SCAN_NANG))
    vals = np.abs(f(zs))
    return bool(np.all(np.isfinite(vals)) and np.max(vals) <= _SCAN_SPIKE)


def _gamma_weight_factory(ts, p, q):
    """prod_r Gamma(t_r z^pm) / Gamma(z^pm2) as a function of an array z:
    one kernels.ellgamma_product call on its 2 len(ts) + 2 rows."""
    np_, nq = kernels.trunc_order(abs(p)), kernels.trunc_order(abs(q))
    c = list(ts) * 2 + [1.0, 1.0]
    e = [1] * len(ts) + [-1] * len(ts) + [2, -2]
    s = [1] * (2 * len(ts)) + [-1, -1]
    return lambda z: kernels.ellgamma_product(z, c, e, s, p, q, np_, nq)


def _torus_lhs(ts, t, p, q, factor, npts: int) -> complex:
    """kappa_1 times the torus quadrature of the Gamma weight of ts times
    factor(z).

    The integrand must pass the pole scan first.  kappa_1 =
    (p;p)_inf (q;q)_inf Gamma(t; p, q) / 2 leaves out the 1/(2 pi i) that
    the torus rule absorbs."""
    weight = _gamma_weight_factory(ts, p, q)

    def f(z):
        return weight(z) * factor(z)

    if not contour_pole_scan(f):
        raise ValueError("pole scan failed near the unit torus")
    kappa = (qpoch_inf(p, p) * qpoch_inf(q, q) * ell_gamma(t, p, q)) / 2.0
    return kappa * kernels.torus_integral(1, f, 1.0, npts)


def elliptic_beta_lhs(ts, t, p, q, npts: int = 256) -> complex:
    """Torus quadrature of the one-variable elliptic beta integrand."""
    return _torus_lhs(ts, t, p, q, lambda z: 1.0, npts)


def thm92_rhs_n1(blam: Bipartition, bmu: Bipartition, ts, t, p, q) -> complex:
    """Interpolation-pair integral at n = 1: the closed right-hand side."""
    t = complex(t)
    t1, t2, t3, t4, t5, t6 = (complex(x) for x in ts)
    zeta = cmath.sqrt(t1 * t2)
    zeta_p = cmath.sqrt(t3 * t6)
    out = elliptic_selberg_rhs(1, ts, t, p, q)
    out *= delta0_bipartite(t1 / t2, [t1 * t4, t1 * t5], t, p, q, blam)
    out *= delta0_bipartite(t3 / t6, [t3 * t4, t3 * t5], t, p, q, bmu)
    out *= (bc1_interp(_single_row(blam.first), t3 / zeta_p, t1 * zeta_p,
                       t2 * zeta_p, q, p)
            * bc1_interp(_single_row(blam.second), t3 / zeta_p, t1 * zeta_p,
                         t2 * zeta_p, p, q))
    z_lam = _spectral_points(blam, 1, t, p, q)
    out *= (bc1_interp(_single_row(bmu.first), t1 * z_lam[0] / zeta,
                       t3 * zeta, t6 * zeta, q, p)
            * bc1_interp(_single_row(bmu.second), t1 * z_lam[0] / zeta,
                         t3 * zeta, t6 * zeta, p, q))
    return out


def thm92_lhs_n1(blam: Bipartition, bmu: Bipartition, ts, t, p, q,
                 npts: int = 256) -> complex:
    """Torus quadrature of the interpolation-pair integrand at n = 1."""
    t1, t2, t3, t6 = complex(ts[0]), complex(ts[1]), complex(ts[2]), complex(ts[5])
    l1, l2 = _single_row(blam.first), _single_row(blam.second)
    m1, m2 = _single_row(bmu.first), _single_row(bmu.second)

    def pair(z):
        rl = bc1_interp(l1, z, t1, t2, q, p) * bc1_interp(l2, z, t1, t2, p, q)
        rm = bc1_interp(m1, z, t3, t6, q, p) * bc1_interp(m2, z, t3, t6, p, q)
        return rl * rm

    return _torus_lhs(ts, t, p, q, pair, npts)


def eaflt_lhs_n1(blam: Bipartition, bmu: Bipartition, t, ts, p, q,
                 npts: int = 256) -> complex:
    """Torus quadrature of the skew-interpolation-pair integrand, n = 1."""
    t = complex(t)
    t1, t2, t3, t4, t5, t6 = (complex(x) for x in ts)
    rt = cmath.sqrt(t)
    rl = _bipartite_pm_factor(blam, rt, 1, [], rt * t1, rt * t2, t, p, q)
    rm = _bipartite_pm_factor(bmu, rt, 1, [t4 / rt, t5 / rt],
                              t3 * t4 * t5 / rt, rt * t6, t, p, q)
    return _torus_lhs(ts, t, p, q, lambda z: rl([z]) * rm([z]), npts)


# ---------------------------------------------------------------------------
# the p -> 0 degeneration of the skew interpolation function
# ---------------------------------------------------------------------------

def skew_limit_value(lam: Partition, xs, c, d, a, b, q, t, p) -> complex:
    """p^{|lam|/4} R*_{lam/0}([t^{1/2}(p^{-1/4} x)^pm, ...,
    c p^{-1/4} t^{-1/2}, p^{1/4} t^{1/2} / d]; a, p^{1/2} b).

    Converges, as p -> 0, to the Macdonald-side value
    (-a t^{-1/2})^{|lam|} q^{n(lam')} t^{-2n(lam)} c_lam P_lam[X + (d-c)/(1-t)].
    """
    m = _single_row(lam)
    p = complex(p)
    scale = p ** -0.25
    rt = cmath.sqrt(complex(t))
    vs = []
    for x in xs:
        vs += [rt * scale * x, rt / (scale * x)]
    vs += [complex(c) * p ** -0.25 / rt, p ** 0.25 * rt / complex(d)]
    val = skew_interp(lam, P(), vs, a, complex(b) * p ** 0.5, q, t, p)
    return p ** (0.25 * m) * val


def mac_side_limit(lam: Partition, xs, c, d, a, q, t) -> complex:
    """The Macdonald-side target of the p -> 0 degeneration.

    For the single row lam = (m), P_(m)[A] = (q;q)_m / (t;q)_m g_m with
    A = X + (d - c)/(1 - t), where g_0 = 1 and
    m g_m = sum_{k<=m} (1 - t^k)/(1 - q^k) p_k[A] g_{m-k}: the u^m
    coefficient of exp(sum_k (1 - t^k)/(1 - q^k) p_k[A] u^k / k)
    (Macdonald's g_m, Symmetric Functions and Hall Polynomials, ch. VI).
    """
    m = _single_row(lam)
    a, q, t = complex(a), complex(q), complex(t)
    cl, _, _ = hooks(lam, q, t)
    cl = complex(cl)
    pref = (-a * t ** -0.5) ** lam.size \
        * q ** lam.conjugate().n_stat() * t ** (-2 * lam.n_stat()) * cl
    xs, c, d = [complex(x) for x in xs], complex(c), complex(d)

    def pk(k):  # p_k[X + (d - c)/(1 - t)]
        return sum(x ** k for x in xs) + (d ** k - c ** k) / (1 - t ** k)

    g = [1.0 + 0.0j]
    for j in range(1, m + 1):
        g.append(sum((1 - t ** k) / (1 - q ** k) * pk(k) * g[j - k]
                     for k in range(1, j + 1)) / j)
    ratio = 1.0 + 0.0j  # (q;q)_m / (t;q)_m
    for i in range(m):
        ratio *= (1 - q ** (i + 1)) / (1 - t * q ** i)
    return pref * ratio * g[m]
