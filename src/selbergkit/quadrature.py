"""Numerical left-hand sides: Gauss-Jacobi simplex quadrature, rank-n chain
domains with sine-weight decomposition (plus the companion chain), torus
quadrature for q-series integrands on the rule `kernels.torus_integral`,
and sector-contour quadrature.

Chain regions are totally ordered at rank two; each region is mapped to the
unit cube by the ordered-ratio substitution, and every monomial part of the
density (endpoint exponents and the w-part of each pair factor) is absorbed
into per-axis tanh-sinh weights.  The rest, powers of 1 - prod v over runs
of axes, is evaluated pointwise from the nodes' complements 1 - v, which the
rule computes directly, so the corner singularities keep full relative
accuracy.  It is evaluated in slabs of at most 2^16 nodes along the first
axis of the tensor rule.  gamma is kept in (0,1) so all exponents are
integrable.

Every tensor rule works on an open grid: an integrand gets broadcastable
per-axis arrays, each varying only along the axes it depends on, and the
sum is contracted with the 1-D weights, so no factor is expanded to the
full grid unless it depends on every axis.  On the equal-radius torus the
pair factors z_i/z_j take only npts values, so they are evaluated there
once and gathered.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import _SLAB, torus_integral
from .macdonald import b_lambda, jack_eval, macdonald_P, plethysm_eval
from .partitions import Partition

__all__ = [
    "gauss_jacobi_01", "tanh_sinh_01", "QuadratureSpec", "ChainRegion",
    "enumerate_chain", "enumerate_companion_chain", "region_covering_check",
    "an_selberg_lhs", "aflt_lhs", "jack_pair_callback", "sector_integral",
    "SectorSpec", "mac_aflt_lhs", "ortho_norm_lhs",
]


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules (Golub-Welsch)
# ---------------------------------------------------------------------------

_GJ_CACHE: dict = {}


def gauss_jacobi_01(n: int, p: float, q: float):
    """Nodes/weights for integral_0^1 f(t) t^p (1-t)^q dt, p, q > -1.

    An exponent <= -1 raises ValueError.  The rules are cached and shared
    between callers, so both arrays are read-only.
    """
    for name, e in (("p", p), ("q", q)):
        if not e > -1:
            raise ValueError(f"gauss_jacobi_01: exponent {name} = {e} must "
                             "be > -1 for t^p (1-t)^q to be integrable")
    key = (n, round(float(p), 12), round(float(q), 12))
    hit = _GJ_CACHE.get(key)
    if hit is not None:
        return hit
    # weight (1-x)^a (1+x)^b on [-1,1] with a = q, b = p
    a, b = float(q), float(p)
    k = np.arange(n)
    apb = a + b
    # three-term recurrence coefficients for monic Jacobi polynomials
    alpha = np.empty(n)
    beta = np.empty(n)
    alpha[0] = (b - a) / (apb + 2)
    if n > 1:
        k1 = k[1:]
        alpha[1:] = (b * b - a * a) / ((2 * k1 + apb) * (2 * k1 + apb + 2))
    beta[0] = 2.0 ** (apb + 1) * math.gamma(a + 1) * math.gamma(b + 1) \
        / math.gamma(apb + 2)
    if n > 1:
        k1 = k[1:]
        num = 4 * k1 * (k1 + a) * (k1 + b) * (k1 + apb)
        den = (2 * k1 + apb) ** 2 * (2 * k1 + apb + 1) * (2 * k1 + apb - 1)
        beta[1:] = num / den
    mat = np.diag(alpha) + np.diag(np.sqrt(beta[1:]), 1) \
        + np.diag(np.sqrt(beta[1:]), -1)
    vals, vecs = np.linalg.eigh(mat)
    w = beta[0] * vecs[0, :] ** 2
    # map x in [-1,1] to t = (1+x)/2; t^p(1-t)^q dt = 2^{-p-q-1}(1+x)^p(1-x)^q dx
    t = (1 + vals) / 2
    w = w * 2.0 ** (-apb - 1)
    t.flags.writeable = False
    w.flags.writeable = False
    _GJ_CACHE[key] = (t, w)
    return t, w


# ---------------------------------------------------------------------------
# tanh-sinh rules (Takahasi-Mori)
# ---------------------------------------------------------------------------

_TS_CACHE: dict = {}

# the dropped tail of a tanh-sinh rule is at most this much of the weight
_TS_TAIL = 1e-17


def tanh_sinh_01(n: int, p: float, q: float, worst: float):
    """Tanh-sinh rule for integral_0^1 f(v) v^p (1-v)^q dv, p, q > -1.

    Returns (v, 1 - v, w): the nodes, their complements computed directly
    as 1/(1 + e^{2u}) rather than as 1 - v, and weights that include
    v^p (1-v)^q.  The nodes are v = 1/(1 + e^{-2u}), u = (pi/2) sinh s,
    at the midpoints s of n equal cells of [-s_max, s_max] (Takahasi and
    Mori, Publ. RIMS 9, 1974), so they crowd both endpoints doubly
    exponentially.  s_max is the least for which the dropped tail
    (e^{-pi sinh s_max})^{1 + worst} is at most 1e-17, where worst is the
    most negative exponent of the region the rule serves, so at most
    min(p, q).  An exponent <= -1 raises ValueError.  The rules are cached
    and shared between callers, so the arrays are read-only.
    """
    for name, e in (("p", p), ("q", q), ("worst", worst)):
        if not e > -1:
            raise ValueError(f"tanh_sinh_01: exponent {name} = {e} must "
                             "be > -1 for v^p (1-v)^q to be integrable")
    key = (n, round(float(p), 12), round(float(q), 12),
           round(float(worst), 12))
    hit = _TS_CACHE.get(key)
    if hit is not None:
        return hit
    s_max = math.asinh(-math.log(_TS_TAIL) / (math.pi * (1 + worst)))
    h = 2 * s_max / n
    s = (np.arange(n) - (n - 1) / 2) * h
    two_u = math.pi * np.sinh(s)
    # log v and log(1 - v), free of overflow and cancellation
    log_v = -np.logaddexp(0.0, -two_u)
    log_c = -np.logaddexp(0.0, two_u)
    w = h * math.pi * np.cosh(s) \
        * np.exp((1 + p) * log_v + (1 + q) * log_c)
    rule = (np.exp(log_v), np.exp(log_c), w)
    for arr in rule:
        arr.flags.writeable = False
    _TS_CACHE[key] = rule
    return rule


@dataclass
class QuadratureSpec:
    points: int = 48
    tol: float = 1e-8
    max_refine: int = 3


# ---------------------------------------------------------------------------
# chain domains
# ---------------------------------------------------------------------------

@dataclass
class ChainRegion:
    """A totally ordered region with its sine weight.

    order lists (level, index) pairs from smallest to largest variable;
    level 0 entries are the auxiliary upper bound (absent here; the chain
    variables all live in (0,1)).
    """
    order: tuple
    weight: float


def _monotone_maps(bounds):
    """Nondecreasing M: {1..len(bounds)} -> Z_{>0} with M(i) <= bounds[i-1]."""
    def rec(i, prev):
        if i == len(bounds):
            yield ()
            return
        for v in range(prev, bounds[i] + 1):
            for rest in rec(i + 1, v):
                yield (v,) + rest
    yield from rec(0, 1)


def _interleave_order(m1, k1: int, k2: int):
    """Total order of level-1 and level-2 variables fixed by the map m1.

    m1[i-1] = M(i) places t1_i strictly between t2_{M(i)-1} and t2_{M(i)};
    M(i) = k2 + 1 (the companion chain) places it above every level-2
    variable.
    """
    order = []
    for j in range(1, k2 + 1):
        for i in range(1, k1 + 1):
            if m1[i - 1] == j:
                order.append((1, i))
        order.append((2, j))
    for i in range(1, k1 + 1):
        if m1[i - 1] == k2 + 1:
            order.append((1, i))
    return tuple(order)


def _sine_weight(m1, k1, k2, gamma_):
    out = 1.0
    for i in range(1, k1 + 1):
        num = math.sin(math.pi * (i + k2 - k1 - m1[i - 1] + 1) * gamma_)
        den = math.sin(math.pi * (i + k2 - k1) * gamma_)
        out *= num / den
    return out


def enumerate_chain(n: int, ks, gamma_) -> list[ChainRegion]:
    """All chain regions with weights; rank <= 2 regions are total orders."""
    if n == 1:
        order = tuple((1, i) for i in range(1, ks[0] + 1))
        return [ChainRegion(order, 1.0)]
    if n != 2:
        raise NotImplementedError("chain quadrature is implemented for n <= 2")
    k1, k2 = ks
    regions = []
    for m1 in _monotone_maps([i + k2 - k1 for i in range(1, k1 + 1)]):
        order = _interleave_order(m1, k1, k2)
        regions.append(ChainRegion(order, _sine_weight(m1, k1, k2, gamma_)))
    return regions


def enumerate_companion_chain(n: int, ks, beta_nm1, gamma_) -> list[ChainRegion]:
    """Companion chain: the last interleaving is freed and beta-weighted."""
    if n != 2:
        raise NotImplementedError("companion chain implemented for n = 2")
    k1, k2 = ks
    regions = []
    for mp in _monotone_maps([k2 + 1] * k1):
        order = _interleave_order(mp, k1, k2)
        w = 1.0
        for i in range(1, k1 + 1):
            num = math.sin(math.pi * (beta_nm1 - (i + k2 - k1 - mp[i - 1] + 1)
                                      * gamma_))
            den = math.sin(math.pi * (beta_nm1 - (i + k2 - k1) * gamma_))
            w *= num / den
        regions.append(ChainRegion(order, w))
    return regions


_COVERING_SAMPLES = 500


def region_covering_check(regions, n, ks, rng,
                          companion: bool = False) -> bool:
    """500 uniform samples of the constrained domain each land in exactly
    one region."""
    k1, k2 = (ks[0], ks[1]) if n == 2 else (ks[0], 0)
    done = 0
    while done < _COVERING_SAMPLES:
        t1 = sorted(rng.random() for _ in range(k1))
        t2 = sorted(rng.random() for _ in range(k2)) if n == 2 else []
        if n == 2 and not companion:
            # the straight chain constrains t1_i < t2_{i - k1 + k2}
            if not all(t1[i - 1] < t2[i - 1 + k2 - k1] for i in range(1, k1 + 1)):
                continue
        done += 1
        vals = {}
        for i, v in enumerate(t1, start=1):
            vals[(1, i)] = v
        for j, v in enumerate(t2, start=1):
            vals[(2, j)] = v
        hits = 0
        for reg in regions:
            seq = [vals[key] for key in reg.order]
            if all(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
                hits += 1
        if hits != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# region integration by the ordered-ratio substitution
# ---------------------------------------------------------------------------

def _pair_exponent(a_key, b_key, gamma_):
    """Interaction exponent between two chain variables."""
    if a_key[0] == b_key[0]:
        return 2 * gamma_
    return -gamma_


def _on_axis(arr, axis: int, m: int):
    """A 1-D array laid along `axis` of an m-dimensional broadcast grid."""
    return arr.reshape([-1 if i == axis else 1 for i in range(m)])


def _one_minus_prod(vs, us):
    """1 - prod(vs) from the complements us = 1 - vs, as the telescoping
    sum u_0 + v_0 u_1 + v_0 v_1 u_2 + ..., which has no cancellation."""
    total, prod = 0.0, 1.0
    for v, u in zip(vs, us):
        total = total + prod * u
        prod = prod * v
    return total


def integrate_region(region: ChainRegion, n, ks, alphas, betas, gamma_,
                     integrand, npts: int) -> float:
    """Integrate the chain density times `integrand` over one region.

    Substitution: with the region order w_1 < ... < w_m < 1 set
    w_j = prod_{i >= j} v_i.  A pair factor is
    |w_j - w_i|^c = w_j^c (1 - prod_{l=i}^{j-1} v_l)^c; its w-part, the
    monomials, the Jacobian and the (1 - v_i)^c of consecutive pairs go
    into per-axis tanh-sinh weights.  The remaining factors, the far pairs'
    (1 - prod v)^c and (1 - w_j)^{beta - 1} for j < m, are evaluated from
    the complements 1 - v.  The rules' truncation follows the region's
    most negative exponent, and an exponent <= -1 raises ValueError.

    The npts^m tensor rule is evaluated in slabs along axis 0 of at most
    _SLAB nodes (at least one index of axis 0).  `integrand` is called once
    per slab with one entry per level r = 1..n: the list of that level's
    variables in region order, or None for a level without variables.
    Each variable is an open-grid array: the one at position j varies only
    along axes j..m-1 and has length 1 on the others.  The integrand returns
    values broadcastable to the slab (a scalar for a constant); they are
    contracted with the 1-D weights, axis m-1 first, so memory does not
    grow with npts^m.
    """
    order = region.order
    m = len(order)
    pair = [[_pair_exponent(a, b, gamma_) for b in order] for a in order]
    mono = [alphas[key[0] - 1] - 1 for key in order]
    # axis j of v is position j of the order (0-based).  Its exponent sums
    # the monomials of w_0..w_j, the Jacobian power j and the w-part c of
    # every pair (i, l) with l <= j
    v_exp = [sum(mono[: j + 1]) + j
             + sum(pair[i][l] for l in range(1, j + 1) for i in range(l))
             for j in range(m)]
    one_minus_exp = [pair[j][j + 1] for j in range(m - 1)] \
        + [betas[order[-1][0] - 1] - 1]
    worst = min(v_exp + one_minus_exp)
    rules = [tanh_sinh_01(npts, p, q, worst)
             for p, q in zip(v_exp, one_minus_exp)]
    # pointwise factors (1 - prod_{l=a}^{b} v_l)^c: far pairs, and
    # (1 - w_j)^{beta - 1} for j < m
    factors = [(i, j - 1, pair[i][j]) for i in range(m)
               for j in range(i + 2, m)]
    factors += [(j, m - 1, betas[key[0] - 1] - 1)
                for j, key in enumerate(order[:-1]) if betas[key[0] - 1] != 1]
    nodes = [_on_axis(v, j, m) for j, (v, _, _) in enumerate(rules)]
    comps = [_on_axis(u, j, m) for j, (_, u, _) in enumerate(rules)]
    weights = [w for _, _, w in rules]
    # a slab holds whole indices of axis 0, so a region with more nodes
    # per index still takes one index
    rows = max(1, _SLAB // npts ** (m - 1))
    total, is_complex = 0.0, False
    for lo in range(0, npts, rows):
        cut = slice(lo, lo + rows)
        vs = [nodes[0][cut]] + nodes[1:]
        us = [comps[0][cut]] + comps[1:]
        # w_j = prod_{i >= j} v_i
        ws = [None] * m
        acc = 1.0
        for j in range(m - 1, -1, -1):
            acc = acc * vs[j]
            ws[j] = acc
        rest = 1.0
        for i, j, c in factors:
            rest = rest * _one_minus_prod(vs[i:j + 1], us[i:j + 1]) ** c
        levels = [[w for w, key in zip(ws, order) if key[0] == r] or None
                  for r in range(1, n + 1)]
        fvals = integrand(levels)
        is_complex = is_complex or np.iscomplexobj(fvals)
        vals = np.broadcast_to(rest * fvals, ws[0].shape)
        for w in reversed([weights[0][cut]] + weights[1:]):
            vals = vals @ w
        total = total + vals
    return (complex(total) if is_complex else float(np.real(total))) \
        * region.weight


def an_selberg_lhs(n: int, ks, alphas, beta, gamma_, integrand=None,
                   spec: QuadratureSpec | None = None,
                   companion: tuple | None = None):
    """Chain integral of the rank-n density times a symmetric integrand.

    `integrand` takes the per-level lists of open-grid arrays described
    in `integrate_region` and returns values broadcastable to their grid;
    None integrates 1.  companion = (beta_{n-1}, beta_n) switches to the
    companion chain.  Returns (value, err_estimate); err is the last
    refinement delta.
    """
    spec = spec or QuadratureSpec()
    if integrand is None:
        def integrand(levels):
            return 1.0
    if companion is None:
        betas = [1.0] * (n - 1) + [beta]
        regions = enumerate_chain(n, ks, gamma_)
    else:
        b1, b2 = companion
        betas = [1.0] * (n - 2) + [b1, b2]
        regions = enumerate_companion_chain(n, ks, b1, gamma_)
    prev = None
    delta = float("nan")
    npts = spec.points
    total = 0.0
    for _ in range(spec.max_refine + 1):
        total = 0.0
        for reg in regions:
            total += integrate_region(reg, n, ks, alphas, betas, gamma_,
                                      integrand, npts)
        if prev is not None:
            delta = abs(total - prev)
            if delta <= spec.tol * max(1, abs(total)):
                return total, delta
        prev = total
        npts *= 2
    return total, delta


def jack_pair_callback(n, lam: Partition, mu: Partition, beta, gamma_):
    """O = P_lam[t^(1)] P_mu[t^(n) + beta/gamma - 1] on level arrays."""
    lam, mu = Partition(lam), Partition(mu)
    shift = beta / gamma_ - 1

    def callback(levels):
        return jack_eval(lam, levels[0], gamma_, None) \
            * jack_eval(mu, levels[n - 1], gamma_, shift)

    return callback


def aflt_lhs(k: int, lam: Partition, mu: Partition, alpha, beta, gamma_,
             npts: int = 48) -> float:
    """Jack-pair integral over [0,1]^k by simplex Gauss-Jacobi (k <= 2)."""
    lam, mu = Partition(lam), Partition(mu)
    shift = beta / gamma_ - 1
    if k == 1:
        t, w = gauss_jacobi_01(npts, alpha - 1, beta - 1)
        vals = jack_eval(lam, [t], gamma_, None) \
            * jack_eval(mu, [t], gamma_, shift)
        return float(w @ np.broadcast_to(vals, t.shape))
    if k == 2:
        # ordered simplex t1 = s v < t2 = v, doubled by symmetry, on the
        # open grid s along axis 0 and v along axis 1
        s, ws = gauss_jacobi_01(npts, alpha - 1, 2 * gamma_)
        v, wv = gauss_jacobi_01(npts, 2 * alpha + 2 * gamma_ - 1, beta - 1)
        t2 = v[None, :]
        t1 = s[:, None] * t2
        vals = jack_eval(lam, [t1, t2], gamma_, None) \
            * jack_eval(mu, [t1, t2], gamma_, shift)
        rest = (1 - t1) ** (beta - 1)
        return 2.0 * float(ws @ np.broadcast_to(rest * vals, t1.shape) @ wv)
    raise NotImplementedError("direct simplex rule implemented for k <= 2")


# ---------------------------------------------------------------------------
# torus and sector quadrature
# ---------------------------------------------------------------------------

def _torus_pair_weight(n, q, t, npts):
    """prod_{i<j} (r;q)(1/r;q) / ((t r;q)(t/r;q)), r = z_i/z_j, as a
    function of the n torus variables of an equal-radius npts-point rule.

    There r = exp(2 pi i d / npts) with d = (a_i - a_j) mod npts, a the
    node index, so the factor is evaluated once on those npts values and
    gathered by d.  The index is read from the angle of each z, so any
    array layout of the nodes (open grid or flat) works.
    """
    if n < 2:
        return lambda zs: 1.0
    q, t = complex(q), complex(t)
    nt = kernels.trunc_order(abs(q))
    r = np.exp(2j * np.pi * np.arange(npts) / npts)
    table = kernels.qpoch_inf_arr(r, q, nt) \
        * kernels.qpoch_inf_arr(1 / r, q, nt) \
        / (kernels.qpoch_inf_arr(t * r, q, nt)
           * kernels.qpoch_inf_arr(t / r, q, nt))

    def weight(zs):
        idx = [np.rint(np.angle(z) * npts / (2 * np.pi) - 0.5).astype(int)
               for z in zs]
        out = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                out = out * table[(idx[i] - idx[j]) % npts]
        return out

    return weight


def mac_aflt_lhs(n: int, lam: Partition, mu: Partition, a, b, q, t,
                 rho: float | None = None, npts: int = 256) -> complex:
    """Torus quadrature of the Macdonald-pair integrand.

    The stated contour is the torus, but (z_i;q)_inf in the denominator
    puts poles at z = q^{-j} (including 1); integrating on |z| = rho with
    max(|b|,|q|) < rho < 1 keeps the pole ladders separated.  rho is one
    radius, since the pair factors are gathered on an equal-radius torus;
    a sequence of radii raises ValueError.
    """
    if np.ndim(rho) != 0:
        raise ValueError("mac_aflt_lhs: rho must be one radius, the pair "
                         "factors assume an equal-radius torus")
    lam, mu = Partition(lam), Partition(mu)
    a, b, q, t = complex(a), complex(b), complex(q), complex(t)
    if rho is None:
        rho = (max(abs(b), abs(q)) + 1) / 2
    nt = kernels.trunc_order(abs(q))
    env = {"q": q, "t": t}
    pairs = _torus_pair_weight(n, q, t, npts)

    def integrand(*zs):
        num = den = 1.0
        for z in zs:
            num = num * kernels.qpoch_inf_arr(a / z, q, nt)
            num = num * kernels.qpoch_inf_arr(q * z / a, q, nt)
            den = den * kernels.qpoch_inf_arr(b / z, q, nt)
            den = den * kernels.qpoch_inf_arr(z, q, nt)

        def pk(k):
            return sum(z ** k for z in zs)

        def pk_shifted(k):  # p_k[Z + (t - b)/(1 - t)]
            return pk(k) + (t ** k - b ** k) / (1 - t ** k)

        pl = plethysm_eval(macdonald_P(lam), pk, env)
        pm = plethysm_eval(macdonald_P(mu), pk_shifted, env)
        return pl * pm * num / den * pairs(zs)

    val = torus_integral(n, integrand, rho, npts)
    return val / math.factorial(n)


def ortho_norm_lhs(n: int, lam: Partition, mu: Partition, q, t,
                   npts: int = 128) -> complex:
    """Torus quadrature of <P_lam, Q_mu>'_n on the unit torus."""
    lam, mu = Partition(lam), Partition(mu)
    q, t = complex(q), complex(t)
    env = {"q": q, "t": t}
    bmu = complex(b_lambda(mu).eval(env)) if mu else 1.0
    pairs = _torus_pair_weight(n, q, t, npts)

    def integrand(*zs):
        inv = [1 / z for z in zs]
        pl = plethysm_eval(macdonald_P(lam),
                           lambda k: sum(z ** k for z in zs), env)
        pm = plethysm_eval(macdonald_P(mu),
                           lambda k: sum(z ** k for z in inv), env)
        return pl * pm * bmu * pairs(zs)

    return torus_integral(n, integrand, npts=npts) / math.factorial(n)


@dataclass
class SectorSpec:
    """Border of the angular sector |x| <= radius, |arg x| <= theta, cut off
    at |x| = eps0, with n_ray nodes per ray and n_arc on the arc."""
    theta: float = 2.4
    radius: float = 1.6
    n_ray: int = 200
    n_arc: int = 200
    eps0: float = 1e-7

    def __post_init__(self):
        if not (0 < self.theta < math.pi):
            raise ValueError("theta must lie in (0, pi)")
        if self.radius <= 0 or self.eps0 <= 0:
            raise ValueError("radius and eps0 must be positive")


def sector_integral(f, spec: SectorSpec | None = None) -> complex:
    """(1/2 pi i) oint f over the angular-sector border, eps0 cutoff at 0."""
    spec = spec or SectorSpec()
    x, w = np.polynomial.legendre.leggauss(spec.n_ray)
    # radial parameter r in [eps0, R] along arg = -theta (outgoing)
    r_nodes = spec.eps0 + (spec.radius - spec.eps0) * (x + 1) / 2
    r_w = (spec.radius - spec.eps0) * w / 2
    out_dir = cmath.exp(-1j * spec.theta)
    in_dir = cmath.exp(1j * spec.theta)
    total = np.sum(r_w * f(r_nodes * out_dir) * out_dir)
    # arc from -theta to theta at radius R
    xa, wa = np.polynomial.legendre.leggauss(spec.n_arc)
    phis = spec.theta * xa
    phi_w = spec.theta * wa
    zs = spec.radius * np.exp(1j * phis)
    total += np.sum(phi_w * f(zs) * 1j * zs)
    # return along arg = +theta (ingoing)
    total -= np.sum(r_w * f(r_nodes * in_dir) * in_dir)
    return complex(total) / (2j * math.pi)
