"""Independent oracles the tests compare the package with.

The change of basis between m and p by expanding power sums in d
variables and inverting over Q, the Gram-Schmidt construction of Macdonald
and Jack polynomials (the monic, dominance-unitriangular family orthogonal
for a p-basis scalar product), the Schur functions in the m-basis from
Kostka numbers counted over semistandard tableaux, symmetric functions
expanded monomial by monomial in named letters, second forms of
(b;q,t)_lambda, the hook polynomials and s_lambda(1^n), the bipartite
spectral vector at the indeterminates, and the skews P_{lambda/mu} peeled
from every monomial of P_lambda[X + Y].  None of them is reached by
``selbergkit verify`` or ``eval``; each is the definition or a textbook
form the package's own construction is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from selbergkit.coeffs import hooks, poch, qpoch, qt_poch
from selbergkit.field import FieldElement, fe, var
from selbergkit.macdonald import macdonald_P
from selbergkit.partitions import (
    Bipartition, P, Partition, partitions_of, subpartitions,
)
from selbergkit.symfunc import LetterSeries, SymFunc, _m_in_p, _scalar_eq


# ---------------------------------------------------------------------------
# m and p bases: power sums expanded in d variables, and the inverse
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def p_in_m(d: int) -> dict[Partition, dict[Partition, Fraction]]:
    """Each p_lambda of degree d in the m-basis: the product of its power
    sums in d variables, read off at the weakly decreasing exponents."""
    lams = list(partitions_of(d)) if d else [Partition()]
    table = {}
    for lam in lams:
        poly = {(0,) * d: 1}
        for part in lam:  # times p_part = x_1^part + ... + x_d^part
            nxt: dict[tuple[int, ...], int] = {}
            for e, c in poly.items():
                for i in range(d):
                    f = e[:i] + (e[i] + part,) + e[i + 1:]
                    nxt[f] = nxt.get(f, 0) + c
            poly = nxt
        row = {mu: poly.get(mu.parts + (0,) * (d - len(mu)), 0)
               for mu in lams}
        table[lam] = {mu: Fraction(c) for mu, c in row.items() if c}
    return table


@lru_cache(maxsize=None)
def m_in_p(d: int) -> dict[Partition, dict[Partition, Fraction]]:
    """Each m_lambda of degree d in the p-basis: the matrix of `p_in_m(d)`
    inverted by Gauss-Jordan elimination over Q.  Each row lists its
    partitions in `partitions_of(d)` order."""
    lams = list(partitions_of(d)) if d else [Partition()]
    n = len(lams)
    fwd = p_in_m(d)
    # [A | 1] with A[i][j] = [m_{lams[j]}] p_{lams[i]}, reduced to [1 | A^-1]
    a = [[fwd[rho].get(lam, Fraction(0)) for lam in lams]
         + [Fraction(int(i == j)) for j in range(n)]
         for i, rho in enumerate(lams)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return {lam: {rho: a[i][n + j] for j, rho in enumerate(lams) if a[i][n + j]}
            for i, lam in enumerate(lams)}


def p_to_m(f: SymFunc) -> SymFunc:
    """f, given in the p-basis, in the m-basis through `p_in_m`."""
    out: dict[Partition, object] = {}
    for rho, c in f.coeffs.items():
        for lam, v in p_in_m(rho.size)[rho].items():
            out[lam] = out.get(lam, 0) + c * v
    return SymFunc("m", out)


# ---------------------------------------------------------------------------
# Gram-Schmidt: scalar products in the p-basis
# ---------------------------------------------------------------------------

def z_lambda(lam: Partition) -> int:
    lam = Partition(lam)
    out = 1
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        out *= part ** m * math.factorial(m)
    return out


def hall_norm_qt(rho: Partition) -> FieldElement:
    q, t = var("q"), var("t")
    out = fe(z_lambda(rho))
    for part in rho:
        out = out * (1 - q ** part) / (1 - t ** part)
    return out


def hall_norm_gamma(rho: Partition) -> FieldElement:
    g = var("gamma")
    return fe(z_lambda(rho)) * g ** (-len(rho))


def _gram_matrix(d: int, norm) -> dict[tuple[Partition, Partition], FieldElement]:
    """<m_lam, m_mu> for all lam, mu of degree d under the given p-norm."""
    lams = list(partitions_of(d)) if d else [Partition()]
    minp = _m_in_p(d)
    norms = {rho: norm(rho) for rho in lams}
    out = {}
    for i, lam in enumerate(lams):
        for mu in lams[i:]:
            acc = fe(0)
            for rho, a in minp[lam].items():
                b = minp[mu].get(rho)
                if b is not None:
                    acc = acc + fe(a * b) * norms[rho]
            out[(lam, mu)] = acc
            out[(mu, lam)] = acc
    return out


def orthogonal_family(d: int, norm) -> dict[Partition, SymFunc]:
    """Monic dominance-unitriangular family orthogonal for the given norm."""
    lams = list(partitions_of(d)) if d else [Partition()]
    gram = _gram_matrix(d, norm)
    family: dict[Partition, SymFunc] = {}
    # lams is in decreasing lexicographic order (refines dominance downward);
    # process from the smallest up so each solve sees only smaller partitions
    for pos in range(len(lams) - 1, -1, -1):
        lam = lams[pos]
        smaller = lams[pos + 1:]
        if not smaller:
            family[lam] = SymFunc("m", {lam: fe(1)})
            continue
        # solve sum_mu u_mu <m_mu, m_nu> = -<m_lam, m_nu> for nu smaller
        mat = [[gram[(nu, mu)] for mu in smaller] for nu in smaller]
        rhs = [fe(-1) * gram[(nu, lam)] for nu in smaller]
        sol = _solve_field(mat, rhs)
        coeffs = {lam: fe(1)}
        for mu, u in zip(smaller, sol):
            if not u.is_zero():
                coeffs[mu] = u
        family[lam] = SymFunc("m", coeffs)
    return family


def _solve_field(mat, rhs):
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if not a[r][col].is_zero())
        a[col], a[piv] = a[piv], a[col]
        inv = fe(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# Schur functions from semistandard tableaux
# ---------------------------------------------------------------------------

def _horizontal_strips(lam: tuple, size: int):
    """nu with lam/nu a horizontal strip of `size` cells, that is
    lam_{i+1} <= nu_i <= lam_i, as a tuple without trailing zeros."""
    if not lam:
        if size == 0:
            yield ()
        return
    first, rest = lam[0], lam[1:]
    lower = max(rest[0] if rest else 0, first - size)
    for nu1 in range(first, lower - 1, -1):
        for tail in _horizontal_strips(rest, size - (first - nu1)):
            yield (nu1,) + tail if nu1 else ()


@lru_cache(maxsize=None)
def kostka(lam: tuple, content: tuple) -> int:
    """Semistandard tableaux of shape lam and the given content: the cells
    holding the largest letter form a horizontal strip."""
    if not content:
        return int(not lam)
    return sum(kostka(nu, content[:-1])
               for nu in _horizontal_strips(lam, content[-1]))


def schur_m(lam: Partition) -> SymFunc:
    """s_lambda = sum_mu K(lambda, mu) m_mu."""
    lam = Partition(lam)
    mus = partitions_of(lam.size) if lam else [Partition()]
    return SymFunc("m", {mu: Fraction(kostka(lam.parts, mu.parts))
                         for mu in mus})


def same_sf(f: SymFunc, g: SymFunc) -> bool:
    """f = g, compared coefficient by coefficient in the m-basis."""
    a, b = f.to_basis("m").coeffs, g.to_basis("m").coeffs
    return all(_scalar_eq(a.get(lam, 0), b.get(lam, 0))
               for lam in set(a) | set(b))


# ---------------------------------------------------------------------------
# symmetric functions in named letters, every monomial of every orbit
# ---------------------------------------------------------------------------

def _distinct_perms(seq: tuple[int, ...]):
    # unique permutations via sorted-multiset recursion
    def rec(remaining: list[int]):
        if not remaining:
            yield ()
            return
        prev = None
        for i, v in enumerate(remaining):
            if v == prev:
                continue
            prev = v
            for tail in rec(remaining[:i] + remaining[i + 1:]):
                yield (v,) + tail

    yield from rec(sorted(seq, reverse=True))


@lru_cache(maxsize=None)
def monomial_expansion(lam: Partition, nvars: int) -> tuple:
    """m_lambda(x_1..x_nvars) as ((exponent tuple, coeff=1), ...)."""
    lam = Partition(lam)
    if len(lam) > nvars:
        return ()
    padded = lam.parts + (0,) * (nvars - len(lam))
    return tuple((perm, 1) for perm in _distinct_perms(padded))


def expand_in_letters(f: SymFunc, letters, names=None,
                      wcap=None) -> LetterSeries:
    """f as a LetterSeries over letters, in the letters named by names
    (all of them by default); every other letter has exponent 0.  wcap is
    the series' weighted cap."""
    letters = tuple(letters)
    at = [letters.index(x) for x in (letters if names is None else names)]
    terms: dict[tuple[int, ...], object] = {}
    for lam, c in f.to_basis("m").coeffs.items():
        for exps, _ in monomial_expansion(lam, len(at)):
            full = [0] * len(letters)
            for i, p in zip(at, exps):
                full[i] = p
            e = tuple(full)
            terms[e] = terms[e] + c if e in terms else c
    return LetterSeries(letters, terms, wcap)


# ---------------------------------------------------------------------------
# second forms of partition factorials and specialisations
# ---------------------------------------------------------------------------

def qt_poch_cells(b, q, t, lam: Partition):
    """(b;q,t)_lambda as the product over cells of (1 - b q^{a'} t^{-l'})."""
    lam = Partition(lam)
    out = 1
    for (i, j) in lam.cells():
        out = out * (1 - b * q ** (j - 1) * t ** (1 - i))
    return out


def hooks_row_form(lam: Partition, q, t, n: int):
    """Row-product forms of (c_lambda, c'_lambda) for any padding n >= l(lambda)."""
    lam = Partition(lam)
    if n < len(lam):
        raise ValueError("padding too short")
    c = 1
    cp = 1
    for i in range(1, n + 1):
        c = c * qpoch(t ** (n - i + 1), q, lam.part(i))
        cp = cp * qpoch(q * t ** (n - i), q, lam.part(i))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            d = lam.part(i) - lam.part(j)
            c = c * qpoch(t ** (j - i), q, d) / qpoch(t ** (j - i + 1), q, d)
            cp = cp * qpoch(q * t ** (j - i - 1), q, d) / qpoch(q * t ** (j - i), q, d)
    return c, cp


def schur_spec(lam: Partition, n, k: int | None = None):
    """s_lambda(1^n) by the factorised specialisation; padding k >= l(lambda).

    n may be symbolic (a binomial element); the product form is used as is.
    """
    lam = Partition(lam)
    if k is None:
        k = max(len(lam), 1)
    if k < len(lam):
        raise ValueError("padding too short")
    out = Fraction(1) if isinstance(n, (int, Fraction)) else 1
    for i in range(1, k + 1):
        out = out * poch(n - i + 1, lam.part(i)) / poch(k - i + 1, lam.part(i))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            out = out * Fraction(lam.part(i) - lam.part(j) + j - i, j - i)
    return out


def bipartite_spectral_vector(blam: Bipartition, n: int) -> list:
    """Entries q^{lam1_i} p^{lam2_i} t^{n-i} for the bipartition (lam1, lam2),
    at the indeterminates q, p and t."""
    lam1, lam2 = Partition(blam.first), Partition(blam.second)
    if len(lam1) > n or len(lam2) > n:
        raise ValueError("component length exceeds n")
    q, p, t = fe("q"), fe("p"), fe("t")
    return [q ** lam1.part(i) * p ** lam2.part(i) * t ** (n - i)
            for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# products of q-shifted factorials as chains of field operations
# ---------------------------------------------------------------------------

def qpoch_power(x, q, n: int, s: int) -> FieldElement:
    """(x;q)_n^s, s = +-1, by coeffs.qpoch; a negative n reads as there,
    (x;q)_{-m} = 1/(x q^{-m};q)_m."""
    v = fe(qpoch(x, q, n) if n >= 0 else qpoch(x * q ** n, q, -n))
    return v if (n >= 0) == (s > 0) else 1 / v


def f_chain(lam: Partition, mu: Partition, k: int, l, a) -> FieldElement:
    """f^{k,l}_{lam,mu}(a;q,t) as its defining product: t^{-k|mu|} times
    (a q t^{j-i-1};q)_n / (a q t^{j-i};q)_n, n = lam_i - mu_j, over
    i <= k and j <= l; for l = None the factors j > l(mu) telescope to
    (a q t^{l(mu)-i};q)_{lam_i}."""
    q, t = var("q"), var("t")
    out = t ** (-k * mu.size)
    lm = len(mu) if l is None else l
    for i in range(1, k + 1):
        for j in range(1, lm + 1):
            n = lam.part(i) - mu.part(j)
            out = (out * qpoch_power(a * q * t ** (j - i - 1), q, n, 1)
                   * qpoch_power(a * q * t ** (j - i), q, n, -1))
        if l is None:
            out = out * qpoch(a * q * t ** (lm - i), q, lam.part(i))
    return out


def f_ext_chain(lam: Partition, mu: Partition, k: int, l: int, a):
    """f^{k,l} for l < l(mu) by the padding reduction: f^{l(lam),l(mu)}
    times (aq t^{l(mu)-1};q,t)_lam (t^{l(lam)}/a;q,t)_mu over
    (aq t^{l-1};q,t)_lam (t^k/a;q,t)_mu."""
    q, t = var("q"), var("t")
    out = f_chain(lam, mu, len(lam), len(mu), a)
    out = out * qt_poch(a * q * t ** (len(mu) - 1), q, t, lam)
    out = out / fe(qt_poch(a * q * t ** (l - 1), q, t, lam))
    return out * qt_poch(t ** len(lam) / a, q, t, mu) / fe(
        qt_poch(t ** k / a, q, t, mu))


def f_limit_chain(lam: Partition, mu: Partition, k: int, l: int):
    """f^{k,l}_{lam,mu}(t^{k-l};q,t), k <= l, as the b -> 1 limit: the
    t-dependent factors of f at a = t^{k-l}, times the t-free block
    prod_{l-k < i < l} (q^{1+lam_{i+k-l}-mu_i};q)_{mu_i-mu_{i+1}} over
    (q;q)_{lam_k-mu_l}, which is 0 when lam_k < mu_l."""
    q, t = var("q"), var("t")
    out = t ** (-k * mu.size)
    for i in range(1, k + 1):
        for j in range(1, l + 1):
            n = lam.part(i) - mu.part(j)
            for e, s in ((j - i - 1 + k - l, 1), (j - i + k - l, -1)):
                if n and e:
                    out = out * qpoch_power(q * t ** e, q, n, s)
    n0 = lam.part(k) - mu.part(l)
    if n0 < 0:
        return fe(0)
    out = out / fe(qpoch(q, q, n0))
    for i in range(l - k + 1, l):
        out = out * qpoch(q ** (1 + lam.part(i + k - l) - mu.part(i)), q,
                          mu.part(i) - mu.part(i + 1))
    return out


def principal_spec_chain(lam: Partition, b) -> FieldElement:
    """P_lam[(1-b)/(1-t)] = t^{n(lam)} (b;q,t)_lam / c_lam."""
    q, t = var("q"), var("t")
    c, _, _ = hooks(lam, q, t)
    return t ** lam.n_stat() * qt_poch(b, q, t, lam) / fe(c)


def psi_chain(lam: Partition, mu: Partition) -> FieldElement:
    """The branching coefficient psi_{lam/mu}(q,t): b_mu(s)/b_lam(s) over
    the cells s of mu in a row but not a column of the strip lam/mu, each
    b(s) = (1 - q^arm t^{leg+1}) / (1 - q^{arm+1} t^leg)."""
    q, t = var("q"), var("t")

    def b_cell(p, i, j):
        a, l = p.arm(i, j), p.leg(i, j)
        return (1 - q ** a * t ** (l + 1)) / (1 - q ** (a + 1) * t ** l)

    rows = {i for i in range(1, len(lam) + 1) if lam.part(i) > mu.part(i)}
    cols = {j for i in range(1, len(lam) + 1)
            for j in range(mu.part(i) + 1, lam.part(i) + 1)}
    out = fe(1)
    for (i, j) in mu.cells():
        if i in rows and j not in cols:
            out = out * b_cell(mu, i, j) / b_cell(lam, i, j)
    return out


def skew_table_all_monomials(lam):
    """Reference P_{lam/mu}: peel the coefficient of every x-monomial of
    P_lam[X + Y] (|lam| X- and l(lam) Y-variables), sorted or not, and keep
    the sorted ones at the end."""
    nx, ny = lam.size, len(lam)

    def xmap(f, n):
        out = {}
        for nu, c in f.coeffs.items():
            for exps, _ in monomial_expansion(nu, n):
                out[exps] = out.get(exps, fe(0)) + c
        return out

    buckets = {}
    for nu, c in macdonald_P(lam).coeffs.items():
        for exps, _ in monomial_expansion(nu, nx + ny):
            b = buckets.setdefault(exps[nx:], {})
            b[exps[:nx]] = b.get(exps[:nx], fe(0)) + c
    mus = list(subpartitions(lam))
    pm_y = {mu: xmap(macdonald_P(mu), ny) for mu in mus}
    out = {}
    for d in sorted({mu.size for mu in mus}, reverse=True):
        degree_mus = sorted((mu for mu in mus if mu.size == d),
                            key=lambda m: m.parts, reverse=True)
        for mu in degree_mus:
            key = mu.parts + (0,) * (ny - len(mu))
            coeff_map = dict(buckets.get(key, {}))
            for nu in degree_mus:
                w = pm_y[nu].get(key)
                if nu.parts <= mu.parts or w is None:
                    continue
                for xexp, c in xmap(out[nu], nx).items():
                    coeff_map[xexp] = coeff_map.get(xexp, fe(0)) - c * w
            coeffs = {}
            for xexp, c in coeff_map.items():
                se = tuple(sorted((x for x in xexp if x), reverse=True))
                if xexp == se + (0,) * (nx - len(se)) and not c.is_zero():
                    coeffs[P(*se)] = c
            out[mu] = SymFunc("m", coeffs)
    return out
