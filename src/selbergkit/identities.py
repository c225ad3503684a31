"""Executable algebraic identities: the f-function and its t^{k-l} limit,
the skew summation formula, rank-n Cauchy-type series identities (exact,
degree-truncated), and the combinatorial partition-function bridge.

The Cauchy-type checks compare both sides as truncated series in named
letters over Q(q,t[,a]), at their dominant monomials.  The grading is
exact: the z_r-degree of a term pins |lambda^(r)| and the y(,c,d)-degree
pins |lambda^(n)| - |mu|, so summing all tuples with total size <= cap +
|mu| reproduces every coefficient of y, z, c, d-degree <= cap exactly.
Those are the compared ones, and every right-side product is truncated on
that grading (a weighted cap of weight 1 on y, z, c and d): exponents are
non-negative, so a dropped term feeds only terms above the cap.  The x
letters need no cap of their own.  On the left the x-degree is
|lambda^(1)| <= cap + |mu|.  On the right P_mu[W] has x-degree at most
|mu|, and a kernel factor's monomial holds at most one x letter, and then
also a y, z, c or d letter, so its x-degree is at most its weighted
degree: the x-degree stays within cap + |mu| on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import macdonald
from .field import FieldElement, fe, var
from .macdonald import (
    _m_expansion, _pleth_P, _pleth_Q, _qpoch_product, b_lambda, macdonald_P,
    principal_spec_a,
)
from .partitions import Bipartition, P, Partition, partitions_up_to, subpartitions
from .symfunc import (
    Alphabet, LetterSeries, Letters, Product, Ratio, Sum,
    _scalar_eq, h_series_of_alphabet, plethysm,
)

__all__ = [
    "f_function", "f_function_limit", "verify_skew_sum",
    "verify_skew_sum_limit", "an_cauchy_check", "zbifund", "verify_Z_Selb",
]

def _f_symbols(lam: Partition, mu: Partition, k: int, l):
    """The q-Pochhammer symbols of f^{k,l}_{lam,mu}(a;q,t) over its
    monomial t^{-k|mu|}, as ``macdonald._qpoch_product`` reads them; l=None
    means l = infinity."""
    out = []
    lm = len(mu) if l is None else l
    for i in range(1, k + 1):
        for j in range(1, lm + 1):
            n = lam.part(i) - mu.part(j)
            if n:
                # (a q t^{j-i-1};q)_n / (a q t^{j-i};q)_n
                out += [((1, 1, j - i - 1), n, 1), ((1, 1, j - i), n, -1)]
        if l is None:
            # telescoped tail: prod_{j > l(mu)} collapses to (a q t^{l(mu)-i};q)_{lam_i}
            out.append(((1, 1, lm - i), lam.part(i), 1))
    return out


def f_function(lam: Partition, mu: Partition, k: int, l, a=None):
    """f^{k,l}_{lam,mu}(a;q,t) for generic a; l=None means l = infinity.

    a is a Laurent monomial with coefficient 1 (a itself, t/(aq), a power
    of t) or 0, and the value is one cancelled product of binomials
    1 - a^e q^i t^j, exact in Q(q,t,a); any other a, a number among them,
    is a ValueError that names it.
    """
    lam, mu = Partition(lam), Partition(mu)
    if k < len(lam):
        raise ValueError("k must be at least l(lambda)")
    if l is not None and l < len(mu):
        raise ValueError("l must be at least l(mu)")
    if a is None:
        a = var("a")
    return _qpoch_product(_f_symbols(lam, mu, k, l), (0, -k * mu.size), a)


def interleaves(lam: Partition, mu: Partition, k: int, l: int) -> bool:
    """lam_i >= mu_{i-k+l} for 1 <= i <= k (nonvanishing condition)."""
    return all(lam.part(i) >= mu.part(i - k + l) for i in range(1, k + 1))


def _f_ext(lam: Partition, mu: Partition, k: int, l, a):
    """f with the second padding extended below l(mu) via padding reduction.

    The rank-n Cauchy sum ranges over all lam^(n), so the pairing factor
    f^{k_{n-1},k_n} needs a value when l(lam^(n)) > k_n; the padding
    reduction identity provides the unique consistent extension.
    """
    lam, mu = Partition(lam), Partition(mu)
    if l is None or l >= len(mu):
        return f_function(lam, mu, k, l, a)
    # f^{l(lam),l(mu)} times (aq t^{l(mu)-1};q,t)_lam / (aq t^{l-1};q,t)_lam
    # times (t^{l(lam)}/a;q,t)_mu / (t^k/a;q,t)_mu
    ll, lm = len(lam), len(mu)
    symbols = _f_symbols(lam, mu, ll, lm)
    for i in range(1, ll + 1):
        symbols += [((1, 1, lm - i), lam.part(i), 1),
                    ((1, 1, l - i), lam.part(i), -1)]
    for i in range(1, lm + 1):
        symbols += [((-1, 0, ll + 1 - i), mu.part(i), 1),
                    ((-1, 0, k + 1 - i), mu.part(i), -1)]
    return _qpoch_product(symbols, (0, -ll * mu.size), a)


def f_function_limit(lam: Partition, mu: Partition, k: int, l: int):
    """f^{k,l}_{lam,mu}(t^{k-l};q,t) as the b -> 1 limit, exact in Q(q,t).

    Uses the reduced form of the t-free factor block; returns 0 exactly
    when the interleaving condition fails.  Cached on (lam, mu, k, l).
    """
    lam, mu = Partition(lam), Partition(mu)
    if k > l:
        raise ValueError("the limit needs k <= l")
    if k < len(lam) or l < len(mu):
        raise ValueError("padding preconditions violated")
    return _f_limit(lam, mu, k, l)


@lru_cache(maxsize=None)
def _f_limit(lam: Partition, mu: Partition, k: int, l: int):
    symbols = []
    # t-dependent factors survive the b -> 1 limit directly
    for i in range(1, k + 1):
        for j in range(1, l + 1):
            n = lam.part(i) - mu.part(j)
            if n == 0:
                continue
            e_num = j - i - 1 + k - l
            e_den = j - i + k - l
            if e_num != 0:
                symbols.append(((0, 1, e_num), n, 1))
            if e_den != 0:
                symbols.append(((0, 1, e_den), n, -1))
    # the t-free block reduces to a product with a well-defined b -> 1 limit
    n0 = lam.part(k) - mu.part(l)
    if n0 < 0:
        result = fe(0)
    else:
        symbols.append(((0, 1, 0), n0, -1))
        for i in range(l - k + 1, l):
            symbols.append(((0, 1 + lam.part(i + k - l) - mu.part(i), 0),
                            mu.part(i) - mu.part(i + 1), 1))
        result = _qpoch_product(symbols, (0, -k * mu.size))
    vanish = not interleaves(lam, mu, k, l)
    assert vanish == result.is_zero(), "limit/vanishing mismatch"
    return result


# ---------------------------------------------------------------------------
# skew summation formula
# ---------------------------------------------------------------------------

@dataclass
class IdentityCheck:
    lhs: object
    rhs: object
    equal: bool
    note: str = ""


def verify_skew_sum(lam: Partition, mu: Partition, k: int,
                    l: int) -> IdentityCheck:
    """Skew summation formula with symbolic a, exact in Q(q,t,a)."""
    lam, mu = Partition(lam), Partition(mu)
    if k < len(lam) or l < len(mu):
        raise ValueError("padding preconditions violated")
    a = var("a")
    return _skew_sum(lam, mu, k, l, a, f_function(lam, mu, k, l, a))


def verify_skew_sum_limit(lam: Partition, mu: Partition, k: int,
                          l: int) -> IdentityCheck:
    """The a = t^{k-l} corollary (k <= l), exact in Q(q,t)."""
    lam, mu = Partition(lam), Partition(mu)
    if k > l or k < len(lam):
        raise ValueError("needs l(lam) <= k <= l")
    return _skew_sum(lam, mu, k, l, var("t") ** (k - l),
                     f_function_limit(lam, mu, k, l))


def _skew_sum(lam, mu, k, l, a, f) -> IdentityCheck:
    """Both sides of the skew summation formula at a, for f the value of
    f^{k,l}_{lam,mu}(a;q,t): the sum over nu of t^{-|nu|}
    P_{mu/nu}[(1 - 1/a)/(1 - t)] Q_{lam/nu}[(1 - aq/t)/(1 - t)], and
    P_mu[(1 - t^k/a)/(1 - t)] Q_lam[(1 - aq t^{l-1})/(1 - t)] f."""
    q, t = var("q"), var("t")
    lhs = fe(0)
    for nu in subpartitions(mu):
        if not lam.contains(nu):
            continue
        p_part = _pleth_P(mu, nu, Ratio(fe(1), 1 / a, t))
        q_part = _pleth_Q(lam, nu, Ratio(fe(1), a * q / t, t))
        lhs = lhs + t ** (-nu.size) * p_part * q_part
    rhs = (principal_spec_a(mu, t ** k / a)
           * b_lambda(lam) * principal_spec_a(lam, a * q * t ** (l - 1)) * f)
    return IdentityCheck(lhs, rhs, fe(lhs) == fe(rhs))


# ---------------------------------------------------------------------------
# rank-n Cauchy-type identities
# ---------------------------------------------------------------------------

def _mono(letters, name_powers: dict, wcap) -> LetterSeries:
    e = [0] * len(letters)
    for name, p in name_powers.items():
        e[letters.index(name)] = p
    return LetterSeries(letters, {tuple(e): Fraction(1)}, wcap)


def _kernel_series(alpha, beta, U: LetterSeries, q) -> LetterSeries:
    """(alpha*U;q)_inf / (beta*U;q)_inf as a series in the monomial U, up to
    the power of U that U's weighted cap admits."""
    (ue, _), = U.terms.items()
    weights, bound = U.wcap or ((), 0)
    wdeg = sum(w * x for w, x in zip(weights, ue))
    if not wdeg:
        raise ValueError("a kernel in a monomial of weighted degree 0 "
                         "never ends")
    mmax = bound // wdeg
    hs = _kernel_h_series(Ratio(beta, alpha, q), mmax)
    out = LetterSeries(U.letters, wcap=U.wcap)
    upow = LetterSeries.const(U.letters, Fraction(1), U.wcap)
    for m in range(mmax + 1):
        out = out + upow * hs[m]
        upow = upow * U
    return out


@lru_cache(maxsize=None)
def _kernel_h_series(A: Ratio, mmax: int) -> tuple:
    """[h_0[A], ..., h_mmax[A]], computed once per kernel alphabet and
    length: the factors of one identity share a few of them."""
    return tuple(h_series_of_alphabet(A, mmax))


def an_cauchy_check(n: int, ks, mu_n: Partition = P(), cap: int = 3,
                    variant: str = "II") -> IdentityCheck:
    """Rank-n Cauchy-type identity, exact as a truncated letter series,
    compared at its dominant monomials.

    variant: 'I' (finite k_n, symbolic a_{n-1}), 'I-inf' (k_n = infinity,
    symbolic a_{n-1}), 'II' (all a_r = t^{k_r - k_{r+1}}), or 'II-pleth'
    (variant II with the extra (c-d)/(1-t) plethystic shift, mu_n = 0).
    At n = 1 variant I is the skew Cauchy identity sum_lam P_lam(x)
    Q_{lam/mu}(y) = P_mu(x) prod_{i,j} (t x_i y_j; q)_inf / (x_i y_j; q)_inf.

    Both sides are symmetric in the x letters, and separately in the y
    letters: on the left P_{lam^(1)}(x) and the skew Q in y, on the right
    P_mu[W] and the kernel products over every pair of letters (the cap
    weighs all x alike and all y alike).  So within each side all monomials
    of one orbit have the same coefficient, and one representative per
    orbit decides: the dominant monomial, whose x-exponents and y-exponents
    are each non-increasing.  The z, c and d letters appear one at a time,
    so every exponent of theirs is compared.

    The left side is built only there, from m-coefficients: a partition
    tuple's term at (a, b, z, c^i d^j) is its scalar times [m_a]
    P_{lam^(1)} times [m_b] Q_{lam^(n)/mu}, a of at most k_1 parts and b of
    at most n_y; for 'II-pleth' the y factor is sum_nu [m_b] Q_{lam^(n)/nu}
    [c^i d^j] Q_nu[(c - d)/(1 - t)].  Only those coefficients are read, by
    the branching rule (`macdonald._m_expansion`, a skew started at its
    inner partition), so no whole P_lam and no skew table is built.  The
    right side is a product of letter series under the weighted cap,
    formed only there too: the factors are multiplied so that the y
    letters finish one at a time, and after each product a term whose
    finished letters already break the order is dropped
    (`_dominant_product`).  lhs and rhs hold the two sides'
    dominant terms, and note the first differing monomial.
    """
    mu_n = Partition(mu_n)
    q, t = var("q"), var("t")
    ks = list(ks)
    if variant in ("I", "II", "II-pleth"):
        if len(ks) != n:
            raise ValueError("need n cardinalities")
        if any(ks[i] > ks[i + 1] for i in range(n - 1)):
            raise ValueError("need k_1 <= ... <= k_n")
    elif variant == "I-inf":
        if len(ks) != n - 1 and len(ks) != n:
            raise ValueError("need k_1..k_{n-1} for the infinite variant")
        ks = ks[:n - 1] + [None]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "II-pleth" and mu_n:
        raise ValueError("the plethystic variant is stated for mu = 0")

    k1 = ks[0] if n >= 1 else 0
    kn = ks[-1]
    ny = cap + mu_n.size if variant in ("II", "II-pleth") or kn is None else kn
    x_names = tuple(f"x{i}" for i in range(1, k1 + 1))
    y_names = tuple(f"y{j}" for j in range(1, ny + 1))
    z_names = tuple(f"z{r}" for r in range(1, n))
    cd_names = ("c", "d") if variant == "II-pleth" else ()
    letters = x_names + y_names + z_names + cd_names
    # the compared grading: weight 1 on every y, z, c and d letter
    wcap = ((0,) * len(x_names) + (1,) * (len(letters) - len(x_names)), cap)

    a_sym = var("a") if variant in ("I", "I-inf") else None

    def a_r(r):  # 1-based
        if r == n - 1 and a_sym is not None:
            return a_sym
        return t ** (ks[r - 1] - ks[r]) if ks[r] is not None else None

    # ---------------- left-hand side, at the dominant monomials ----------
    # every tuple's term has weighted degree |tuple| - |mu| <= cap
    lhs: dict[tuple[int, ...], FieldElement] = {}
    for lams in _partition_tuples(n, cap + mu_n.size, ks):
        scalar = _cauchy_scalar(n, ks, lams, mu_n, variant, a_r)
        if scalar is None:
            continue
        z = tuple(lam.size for lam in lams[:-1])
        xs = [(_padded(a, k1), c) for a, c
              in _m_expansion(lams[0], P(), "qt", k1).coeffs.items()]
        for y, cd, c in _y_factor(lams[-1], mu_n, ny, variant):
            c = c * scalar
            for x, cx in xs:
                key = x + y + z + cd
                v = cx * c
                lhs[key] = lhs[key] + v if key in lhs else v
    lhs = LetterSeries(letters, lhs, wcap)

    # ---------------- right-hand side, at the dominant monomials ---------
    factors = []

    def zprod(lo, hi):  # z_lo * ... * z_hi as monomial powers
        return {f"z{r}": 1 for r in range(lo, hi + 1)}

    # P_{mu_n}[W]
    if mu_n:
        W: Alphabet = Letters(
            [_mono(letters, {**zprod(1, n - 1), f"x{i}": 1}, wcap)
             for i in range(1, k1 + 1)])
        for r in range(1, n):
            ar = a_r(r)
            W = Sum(W, Product(
                Letters([_mono(letters, zprod(r + 1, n - 1), wcap)]),
                Ratio(fe(1), 1 / ar, t)))
        # every term of P_mu's p-expansion holds a power sum of W, so the
        # value is a letter series in ``letters`` under ``wcap`` too
        factors.append(plethysm(macdonald_P(mu_n), W))

    for r in range(1, n):
        ar = a_r(r)
        for i in range(1, k1 + 1):
            U = _mono(letters, {**zprod(1, r), f"x{i}": 1}, wcap)
            factors.append(_kernel_series(ar * q, t, U, q))
        for j in range(1, ny + 1):
            U = _mono(letters, {**zprod(r + 1, n - 1), f"y{j}": 1}, wcap)
            factors.append(_kernel_series(1 / ar, fe(1), U, q))
    for i in range(1, k1 + 1):
        for j in range(1, ny + 1):
            U = _mono(letters, {**zprod(1, n - 1), f"x{i}": 1, f"y{j}": 1}, wcap)
            factors.append(_kernel_series(t, fe(1), U, q))
    for r in range(1, n - 1):
        for s in range(r + 1, n):
            asym = a_r(s)
            for i in range(1, ks[r] - ks[r - 1] + 1):
                U = _mono(letters, zprod(r + 1, s), wcap)
                factors.append(_kernel_series(asym * q * t ** (i - 1), t ** i,
                                              U, q))
    if variant == "II-pleth":
        for i in range(1, k1 + 1):
            Ud = _mono(letters, {**zprod(1, n - 1), f"x{i}": 1, "d": 1}, wcap)
            Uc = _mono(letters, {**zprod(1, n - 1), f"x{i}": 1, "c": 1}, wcap)
            factors.append(_kernel_series(fe(1), fe(0), Ud, q))
            factors.append(_kernel_series(fe(0), fe(1), Uc, q))
        for r in range(1, n):
            for i in range(1, ks[r] - ks[r - 1] + 1):
                Ud = _mono(letters, {**zprod(r + 1, n - 1), "d": 1}, wcap)
                Uc = _mono(letters, {**zprod(r + 1, n - 1), "c": 1}, wcap)
                factors.append(_kernel_series(t ** (i - 1), fe(0), Ud, q))
                factors.append(_kernel_series(fe(0), t ** (i - 1), Uc, q))

    rhs = _dominant_product(LetterSeries.const(letters, Fraction(1), wcap),
                            factors, range(k1), range(k1, k1 + ny))

    # both sides hold only dominant monomials within wcap, so each compared
    # coefficient is exactly resolved
    witness = next((str(e) for e in sorted(set(rhs.terms) | set(lhs.terms))
                    if not _scalar_eq(lhs.coeff(e), rhs.coeff(e))), "")
    return IdentityCheck(lhs, rhs, not witness, witness)


def _dominant_product(one: LetterSeries, factors, x_pos, y_pos) -> LetterSeries:
    """one times the letter series ``factors``, at the monomials whose
    exponents at the positions x_pos, and at y_pos, are non-increasing, and
    at no other monomial.

    A letter is finished once no factor left holds it.  Exponents are
    non-negative, so later factors leave a finished letter's exponent as it
    is and never lower the next one's: a term with e_a < e_b, for a finished
    letter a and b the next letter of its chain, feeds only monomials that
    are dropped, and is dropped after each product.  The factors go in the
    order of the last y letter they hold, those with none first, so the y
    letters finish one at a time; the x letters finish at the last product.
    The weights of a weighted cap are non-negative, so the order changes no
    coefficient of the truncated product.
    """
    held = []
    for f in factors:
        letters = set()
        for e in f.terms:
            letters.update(pos for pos, x in enumerate(e) if x)
        held.append(letters)
    order = sorted(range(len(factors)), key=lambda k: max(
        (j for j, pos in enumerate(y_pos) if pos in held[k]), default=-1))
    last = {pos: step for step, k in enumerate(order) for pos in held[k]}
    pairs = [(a, b, last.get(a, -1)) for chain in (x_pos, y_pos)
             for a, b in zip(chain, chain[1:])]
    out = one
    for step, k in enumerate(order):
        out = out * factors[k]
        due = [(a, b) for a, b, done in pairs if done <= step]
        out.terms = {e: c for e, c in out.terms.items()
                     if all(e[a] >= e[b] for a, b in due)}
    return out


def _partition_tuples(n, size_cap, ks):
    # length bounds apply for r <= n-1 where X^(r) has k_r letters, and to
    # lambda^(1), which P_{lambda^(1)} places in the k_1 x letters; the
    # last slot is otherwise unrestricted (variant II terms beyond k_n die
    # through the vanishing of their scalar prefactor)
    pools = []
    for r in range(n):
        max_len = ks[r] if r == 0 or (r < n - 1 and ks[r] is not None) else None
        pools.append(list(partitions_up_to(size_cap, max_len)))
    out = []

    def rec(r, acc, left):
        if r == n:
            out.append(tuple(acc))
            return
        for p in pools[r]:
            if p.size <= left:
                rec(r + 1, acc + [p], left - p.size)

    rec(0, [], size_cap)
    return out


def _padded(lam: Partition, length: int) -> tuple[int, ...]:
    return lam.parts + (0,) * (length - len(lam))


def _y_factor(lam_n, mu_n, ny, variant):
    """(y exponents, (c, d) exponents, coefficient) of P_{lam/mu}(y) in ny
    letters at its dominant monomials, or for 'II-pleth' of
    sum_nu P_{lam/nu}(y) P_nu[(c - d)/(1 - t)]; b_lam / b_mu turns either
    into the left side's Q's.  Each P_{lam/nu} is read only at the
    partitions of at most ny parts, by branching from nu."""
    pleth = variant == "II-pleth"
    out = []
    for nu in subpartitions(lam_n) if pleth else (mu_n,):
        py = [(_padded(a, ny), c)
              for a, c in _m_expansion(lam_n, nu, "qt", ny).coeffs.items()]
        for j, w in enumerate(_p_at_c_minus_d(nu) if pleth else (fe(1),)):
            cd = (nu.size - j, j) if pleth else ()
            out += [(y, cd, c * w) for y, c in py]
    return out


@lru_cache(maxsize=None)
def _p_at_c_minus_d(nu: Partition) -> tuple:
    """[c^(|nu| - j) d^j] P_nu[(c - d)/(1 - t)] for j = 0..|nu|: the
    coefficients of u^j in P_nu[(1 - u)/(1 - t)] = P_nu[1/(1 - t)] times
    the product over the cells (i, j) of 1 - u q^(j-1) t^(1-i)."""
    q, t = var("q"), var("t")
    w = [principal_spec_a(nu, fe(0))]
    for (i, j) in nu.cells():
        x = -(q ** (j - 1) * t ** (1 - i))
        w = [u + v * x for u, v in zip(w + [fe(0)], [fe(0)] + w)]
    return tuple(w)


def _cauchy_scalar(n, ks, lams, mu_n, variant, a_r):
    """The scalar part of a partition tuple's term: the middle P's, every
    Q prefactor and the f-factors; None where it vanishes."""
    q, t = var("q"), var("t")
    scalar = fe(1)
    for r in range(2, n + 1):
        lam_r = lams[r - 1]
        if r <= n - 1 or (variant in ("II", "II-pleth") and ks[r - 1] is not None):
            # X^(r) = (1 - t^{k_r})/(1 - t); vanishes unless l(lam) <= k_r
            scalar = scalar * principal_spec_a(lam_r, t ** ks[r - 1])
        else:
            ar = a_r(r - 1)
            arg = (t ** ks[r - 2] / ar) if ar is not None else fe(0)
            scalar = scalar * principal_spec_a(lam_r, arg)
        if scalar.is_zero():
            return None
    for r in range(1, n):
        lam_r = lams[r - 1]
        ar = a_r(r)
        tk_next = fe(0) if ks[r] is None else t ** ks[r]
        # Q_{lam_r}[z_r (t - a_r q t^{k_{r+1}})/(1-t)]
        scalar = scalar * b_lambda(lam_r) * principal_spec_a(
            lam_r, ar * q * tk_next / t) * t ** lam_r.size
        if scalar.is_zero():
            return None
    for r in range(1, n):
        if r == n - 1 and variant in ("I", "I-inf"):
            f_val = _f_ext(lams[r - 1], lams[r], ks[r - 1], ks[r], a_r(r))
        else:
            f_val = f_function_limit(lams[r - 1], lams[r], ks[r - 1], ks[r])
        scalar = scalar * f_val
        if scalar.is_zero():
            return None
    # Q_{lam^(n)/mu} = (b_lam / b_mu) P_{lam^(n)/mu}, and at mu = 0 b_lam
    # turns P_{lam/nu} P_nu into Q_{lam/nu} Q_nu; looked up in `macdonald`
    # at each call
    return scalar * macdonald._b_ratio(lams[-1], mu_n)


# ---------------------------------------------------------------------------
# Nekrasov bifundamental block and the Selberg-average bridge
# ---------------------------------------------------------------------------

def _E_func(u, lam: Partition, mu: Partition, i: int, j: int, b) -> complex:
    return u - b * mu.leg(i, j) + (lam.arm(i, j) + 1) / b


def zbifund(us, blam: Bipartition, vs, bmu: Bipartition, m, b) -> complex:
    """Combinatorial bifundamental block over a pair of bipartitions."""
    lams = [Partition(blam.first), Partition(blam.second)]
    mus = [Partition(bmu.first), Partition(bmu.second)]
    Q = b + 1 / b
    out = 1.0 + 0.0j
    for i in (0, 1):
        for j in (0, 1):
            for (r, c) in lams[i].cells():
                out *= (_E_func(us[i] - vs[j], lams[i], mus[j], r, c, b) - m)
            for (r, c) in mus[j].cells():
                out *= (Q - m - _E_func(vs[j] - us[i], mus[j], lams[i], r, c, b))
    return out


def kappa_factor(lam: Partition, Pval, b) -> complex:
    lam = Partition(lam)
    conj = lam.conjugate()
    out = 1.0 + 0.0j
    for (i, j) in lam.cells():
        out *= (b * (i - conj.part(j) - 1) + (lam.part(i) - j) / b)
        out *= (2 * Pval + b * i + j / b)
    return out


def selberg_jack_average(k: int, lam: Partition, mu: Partition,
                         alpha, beta, gamma) -> complex:
    """<P_lam(1/t) P_mu[t + beta/gamma - 1]> via closed forms.

    Complementation maps P_lam(t^{-1}) to a shifted straight average, so
    the value follows from the rank-one integral evaluation with alpha
    shifted by -N and lam replaced by its box complement.
    """
    from .closedform import aflt_rhs, selberg_rhs
    lam, mu = Partition(lam), Partition(mu)
    if len(lam) > k:
        return 0.0
    N = lam.part(1)
    lam_hat = lam.complement(N, k)
    num = aflt_rhs(k, lam_hat, mu, alpha - N, beta, gamma)
    den = selberg_rhs(k, alpha, beta, gamma)
    return num / den


def verify_Z_Selb(k: int, lam: Partition, mu: Partition, b: complex,
                  Pval: complex, alpha: complex):
    """Bridge check: (Z_bifund, the closed-form Selberg average).

    The identity closes with the bifundamental mass read as Q - alpha and
    the two momenta entering the kappa factors and the average in the
    transposed assignment relative to the printed display (verified to
    machine precision for k <= 2, |lam|, |mu| <= 2; see the ledger).
    """
    lam, mu = Partition(lam), Partition(mu)
    Q = b + 1 / b
    Pp = -Pval - alpha - k * b  # constraint P + P' + alpha + k b = 0
    lhs = zbifund((Pp, -Pp), Bipartition(lam, P()), (Pval, -Pval),
                  Bipartition(mu, P()), Q - alpha, b)
    gam = -b * b
    alpha_s = 1 - b * (Q + 2 * Pp)
    beta_s = 1 - 2 * b * alpha
    avg = selberg_jack_average(k, lam, mu, alpha_s, beta_s, gam)
    rhs = kappa_factor(lam, Pp, b) * kappa_factor(mu, Pval, b) * avg
    return lhs, rhs
