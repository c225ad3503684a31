"""Independent oracles the tests compare the package with.

The Gram-Schmidt construction of Macdonald and Jack polynomials (the
monic, dominance-unitriangular family orthogonal for a p-basis scalar
product), and second forms of (b;q,t)_lambda, the hook polynomials and
s_lambda(1^n).  None of them is reached by ``selbergkit verify`` or
``eval``; each is the definition or a textbook form the package's own
construction is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from selbergkit.coeffs import poch, qpoch
from selbergkit.field import FieldElement, fe, var
from selbergkit.partitions import Partition, partitions_of
from selbergkit.symfunc import SymFunc, _m_to_basis


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


@lru_cache(maxsize=None)
def _m_in_p(d: int) -> dict[Partition, dict[Partition, Fraction]]:
    return _m_to_basis("p", d)


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
