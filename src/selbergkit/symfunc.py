"""The ring of symmetric functions in the two bases the engine runs,
plethysm, alphabets and letter series.

Symmetric functions are stored as coefficient maps over partitions with a
basis tag, 'm' (monomial) or 'p' (power sum): the Macdonald and Jack
polynomials are built in the m-basis.  `at_letters` substitutes exact
letters into the m-expansion; `plethysm` reads the p-basis and takes any
alphabet.  The one change of basis is m -> p, through exact per-degree
tables of m_lambda in power sums, read off the set partitions of the parts
of lambda by Moebius inversion (Doubilet 1972) and cached.  Plethysm is
the p-basis homomorphism over alphabet expression trees; an alphabet of
exact scalars is hashable by value, so it can key a cache.  LetterSeries
provides truncated polynomial arithmetic in named letters with exact scalar
coefficients, used by the series-identity suites.
alternant_ratio evaluates det(x_i^{w_j}) / Delta(x) at numeric points, the
complex Schur function and, at staircase exponents, s_lambda.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .field import FieldElement, dot, fe
from .partitions import Partition, partitions_of

__all__ = [
    "SymFunc",
    "Alphabet", "Letters", "Ratio", "Sum", "Difference", "Product",
    "pk_of_alphabet", "plethysm", "at_letters",
    "h_series_of_alphabet", "e_series_of_alphabet",
    "LetterSeries", "alternant_ratio",
]

BASES = ("m", "p")


# ---------------------------------------------------------------------------
# the m-basis in power sums (exact, Fraction entries)
# ---------------------------------------------------------------------------

def _set_partitions(parts: tuple[int, ...]):
    """Every set partition of the positions of parts, as lists of blocks,
    each block a list of parts."""
    if not parts:
        yield []
        return
    first = parts[0]
    for blocks in _set_partitions(parts[1:]):
        yield [[first]] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1:]


@lru_cache(maxsize=None)
def _m_in_p(d: int) -> dict[Partition, dict[Partition, Fraction]]:
    """Each m_lambda of degree d in the p-basis, by Moebius inversion on the
    lattice of set partitions (Doubilet, Stud. Appl. Math. 51, 1972):

        r_1! r_2! ... m_lambda = sum_pi mu(0, pi) p_{lambda(pi)},

    over the set partitions pi of the parts of lambda, where r_i is the
    multiplicity of the part i, mu(0, pi) = prod over the blocks B of
    (-1)^(|B|-1) (|B|-1)! and lambda(pi) is the partition of the block
    sums.  Each row lists its partitions in `partitions_of(d)` order."""
    lams = list(partitions_of(d)) if d else [Partition()]
    table: dict[Partition, dict[Partition, Fraction]] = {}
    for lam in lams:
        acc: dict[Partition, int] = {}
        for blocks in _set_partitions(lam.parts):
            rho = Partition(sorted(map(sum, blocks), reverse=True))
            mobius = math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1)
                               for b in blocks)
            acc[rho] = acc.get(rho, 0) + mobius
        r = math.prod(math.factorial(lam.parts.count(k)) for k in set(lam.parts))
        table[lam] = {rho: Fraction(acc[rho], r) for rho in lams if acc.get(rho)}
    return table


# ---------------------------------------------------------------------------
# SymFunc
# ---------------------------------------------------------------------------

class SymFunc:
    """Finite map from partitions to scalars, tagged with a basis."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: str, coeffs: Mapping[Partition, object] | None = None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.coeffs: dict[Partition, object] = {}
        if coeffs:
            for lam, c in coeffs.items():
                if not _scalar_is_zero(c):
                    self.coeffs[lam] = c

    def scale(self, c) -> "SymFunc":
        return SymFunc(self.basis, {lam: v * c for lam, v in self.coeffs.items()})

    def to_basis(self, target: str) -> "SymFunc":
        """self in the target basis.  The one conversion is m -> p, row by
        row of `_m_in_p`; the engine builds every function in the m-basis,
        so p -> m raises."""
        if target == self.basis:
            return self
        if target not in BASES:
            raise ValueError(f"unknown basis {target!r}")
        if target != "p":
            raise ValueError("no conversion from the p-basis to the m-basis")
        out: dict[Partition, object] = {}
        for lam, c in self.coeffs.items():
            for mu, f in _m_in_p(lam.size)[lam].items():
                v = c * f
                out[mu] = out[mu] + v if mu in out else v
        return SymFunc(target, out)


def _scalar_is_zero(c) -> bool:
    if isinstance(c, FieldElement):
        return c.is_zero()
    return c == 0


def _scalar_eq(a, b) -> bool:
    if isinstance(a, FieldElement) or isinstance(b, FieldElement):
        return fe(a) == fe(b)
    return a == b


# ---------------------------------------------------------------------------
# alphabets and plethysm
# ---------------------------------------------------------------------------

class Alphabet:
    pass


class Letters(Alphabet):
    """A finite list of rank-one letters given by their values."""

    def __init__(self, values):
        self.values = tuple(values)

    def __eq__(self, other):
        if not isinstance(other, Letters):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(self.values)


@dataclass(frozen=True)
class Ratio(Alphabet):
    """(a - b)/(1 - t): p_k = (a^k - b^k)/(1 - t^k)."""
    a: object
    b: object
    t: object


@dataclass(frozen=True)
class Sum(Alphabet):
    left: Alphabet
    right: Alphabet


@dataclass(frozen=True)
class Difference(Alphabet):
    left: Alphabet
    right: Alphabet


@dataclass(frozen=True)
class Product(Alphabet):
    left: Alphabet
    right: Alphabet


def pk_of_alphabet(k: int, A: Alphabet):
    """p_k of an alphabet expression; homomorphic in the tree."""
    if k < 1:
        raise ValueError("power sums need k >= 1")
    if isinstance(A, Letters):
        total = 0
        for v in A.values:
            total = total + v ** k
        return total
    if isinstance(A, Ratio):
        den = 1 - A.t ** k
        if _scalar_is_zero(den):
            raise ZeroDivisionError(f"Ratio alphabet needs t^{k} != 1")
        return (A.a ** k - A.b ** k) / den
    if isinstance(A, Sum):
        return pk_of_alphabet(k, A.left) + pk_of_alphabet(k, A.right)
    if isinstance(A, Difference):
        return pk_of_alphabet(k, A.left) - pk_of_alphabet(k, A.right)
    if isinstance(A, Product):
        return pk_of_alphabet(k, A.left) * pk_of_alphabet(k, A.right)
    raise TypeError(f"not an alphabet: {A!r}")


def plethysm(f: SymFunc, A: Alphabet):
    """f[A]: expand f in power sums and substitute p_k -> p_k[A]."""
    fp = f.to_basis("p")
    pk_cache: dict[int, object] = {}

    def pk(k):
        if k not in pk_cache:
            pk_cache[k] = pk_of_alphabet(k, A)
        return pk_cache[k]

    total = 0
    for lam, c in fp.coeffs.items():
        term = c
        for part in lam:
            term = term * pk(part)
        total = total + term
    return total


def at_letters(f: SymFunc, values):
    """f(x_1, ..., x_n) at exact letter values, read off the m-basis.

    m_lam(x_1..x_n) is the sum of x^a over the distinct rearrangements a of
    lam padded with zeros to n parts, and 0 if l(lam) > n.  It is summed
    letter by letter: m_S(x_i..x_n) = sum over the distinct parts v of the
    multiset S of x_i^v m_{S - v}(x_{i+1}..x_n), remembered on (S, i) and
    shared by every lam of f.  The sum over lam is one `field.dot`.
    """
    values = tuple(values)
    n = len(values)
    powers: dict[tuple[int, int], object] = {}
    memo: dict[tuple[tuple[int, ...], int], object] = {}

    def power(i, v):
        if (i, v) not in powers:
            powers[i, v] = values[i] ** v
        return powers[i, v]

    def m(parts, i):  # parts non-increasing, zeros included
        if i == n:
            return 1
        if (parts, i) not in memo:
            total = 0
            for j, v in enumerate(parts):
                if j and parts[j - 1] == v:
                    continue
                rest = m(parts[:j] + parts[j + 1:], i + 1)
                total = total + (rest if not v else power(i, v) * rest)
            memo[parts, i] = total
        return memo[parts, i]

    terms = [(c, m(lam.parts + (0,) * (n - len(lam)), 0))
             for lam, c in f.to_basis("m").coeffs.items() if len(lam) <= n]
    return dot([c for c, _ in terms], [v for _, v in terms])


def h_series_of_alphabet(A: Alphabet, cap: int) -> list:
    """[h_0[A], ..., h_cap[A]].

    For a ``Ratio`` (a - b)/(1 - t) with scalar a, b and t the q-binomial
    theorem gives sum_m h_m z^m = (bz;t)_inf / (az;t)_inf, so
    h_m = h_{m-1} (a - b t^{m-1}) / (1 - t^m): O(cap) field operations.
    Other alphabets take the O(cap^2) Newton recursion from power sums.
    """
    if isinstance(A, Ratio) and all(isinstance(x, (int, Fraction, FieldElement))
                                    for x in (A.a, A.b, A.t)):
        hs = [Fraction(1)]
        tpow = Fraction(1)  # t^(m-1)
        for m in range(1, cap + 1):
            tnext = tpow * A.t
            den = 1 - tnext
            if _scalar_is_zero(den):
                raise ZeroDivisionError(f"Ratio alphabet needs t^{m} != 1")
            hs.append(hs[-1] * ((A.a - A.b * tpow) / den))
            tpow = tnext
        return hs
    ps = [None] + [pk_of_alphabet(k, A) for k in range(1, cap + 1)]
    hs: list = [Fraction(1)]
    for k in range(1, cap + 1):
        acc = 0
        for i in range(1, k + 1):
            acc = acc + ps[i] * hs[k - i]
        hs.append(acc * Fraction(1, k))
    return hs


def e_series_of_alphabet(A: Alphabet, cap: int) -> list:
    ps = [None] + [pk_of_alphabet(k, A) for k in range(1, cap + 1)]
    es: list = [Fraction(1)]
    for k in range(1, cap + 1):
        acc = 0
        for i in range(1, k + 1):
            acc = acc + (-1) ** (i - 1) * ps[i] * es[k - i]
        es.append(acc * Fraction(1, k))
    return es


# ---------------------------------------------------------------------------
# letter series (truncated polynomials in named letters)
# ---------------------------------------------------------------------------

class LetterSeries:
    """Polynomial in named letters with exact scalar coefficients.

    wcap is the one truncation rule, which every series has: a pair
    (weights, bound) that drops a term whose sum of weight times exponent
    exceeds bound; a total-degree cutoff is the pair with every weight 1.
    It is applied on multiplication, to each pair of terms.  Weights and
    exponents are non-negative, so a dropped term leads only to terms above
    the bound and every coefficient within it is exact.  Series with
    different wcaps do not mix.  Coefficients are Fractions or FieldElements.
    """

    __slots__ = ("letters", "terms", "wcap")

    # built in place and compared by identity, so never a key: an alphabet
    # that holds a LetterSeries cannot be hashed, and no cache can take it
    __hash__ = None

    def __init__(self, letters: Sequence[str], terms, wcap):
        self.letters = tuple(letters)
        self.terms: dict[tuple[int, ...], object] = {}
        if terms:
            for e, c in terms.items():
                if not _scalar_is_zero(c):
                    self.terms[tuple(e)] = c
        self.wcap = wcap

    @classmethod
    def const(cls, letters, c, wcap):
        return cls(letters, {(0,) * len(letters): c}, wcap)

    def _check(self, other: "LetterSeries"):
        """The weighted cap that self and other share."""
        if self.letters != other.letters:
            raise ValueError("letter universes differ")
        if other.wcap != self.wcap:
            raise ValueError("weighted caps differ")
        return self.wcap

    def _scalar(self, c):
        return LetterSeries.const(self.letters, c, self.wcap)

    def __add__(self, other):
        if not isinstance(other, LetterSeries):
            other = self._scalar(other)
        wcap = self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                v = out[e] + c
                if _scalar_is_zero(v):
                    del out[e]
                else:
                    out[e] = v
            else:
                out[e] = c
        return LetterSeries(self.letters, out, wcap)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, LetterSeries):
            return LetterSeries(self.letters,
                                {e: c * other for e, c in self.terms.items()},
                                self.wcap)
        wcap = self._check(other)
        weights, bound = wcap

        def graded(ls):  # (exponents, coefficient, weighted degree)
            return [(e, c, sum(w * x for w, x in zip(weights, e)))
                    for e, c in ls.terms.items()]

        right = graded(other)
        out: dict[tuple[int, ...], object] = {}
        for e1, c1, w1 in graded(self):
            for e2, c2, w2 in right:
                if w1 + w2 > bound:
                    continue
                e = tuple(x + y for x, y in zip(e1, e2))
                v = c1 * c2
                if e in out:
                    v = out[e] + v
                    if _scalar_is_zero(v):
                        del out[e]
                        continue
                out[e] = v
        return LetterSeries(self.letters, out, wcap)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a letter series")
        out = self._scalar(Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def coeff(self, exps: tuple[int, ...]):
        return self.terms.get(tuple(exps), Fraction(0))


# ---------------------------------------------------------------------------
# alternant ratio (with confluent fallback)
# ---------------------------------------------------------------------------

def _falling(w, r: int):
    out = 1
    for m in range(r):
        out = out * (w - m)
    return out


def _pow_dd_entry(x, w, r: int):
    """r-th divided difference of t -> t^w at a point repeated r+1 times."""
    return _falling(w, r) / math.factorial(r) * x ** (w - r)


_COINCIDENCE_TOL = 1e-8


def alternant_ratio(xs: Sequence[complex], ws: Sequence[complex]) -> complex:
    """det(x_i^{w_j}) / Delta(x) with a divided-difference confluent fallback.

    Delta(x) = prod_{i<j} (x_i - x_j).  Powers use the principal branch for
    non-integer exponents, so complex x must avoid the negative real axis.
    Points within 1e-8 max|x| of each other are taken as coincident.
    """
    n = len(xs)
    if n == 0:
        return 1.0 + 0.0j
    if len(ws) != n:
        raise ValueError("need as many exponents as points")
    xs = [complex(x) for x in xs]
    scale = max(abs(x) for x in xs) or 1.0
    # det/Delta is symmetric in x, so clustering coincident points by
    # sorting needs no sign correction
    order = sorted(range(n), key=lambda i: (xs[i].real, xs[i].imag))
    xs_s = [xs[i] for i in order]
    tol = _COINCIDENCE_TOL * scale
    # dd[r][s] = f_j[x_s, ..., x_{s+r}] built per column
    table = [[0.0 + 0.0j] * n for _ in range(n)]
    for j, w in enumerate(ws):
        prev = [_pow(xs_s[s], w) for s in range(n)]
        table[0][j] = prev[0]
        for r in range(1, n):
            cur = []
            for s in range(n - r):
                dx = xs_s[s + r] - xs_s[s]
                if abs(dx) <= tol:
                    cur.append(_pow_dd_entry(xs_s[s], w, r))
                else:
                    cur.append((prev[s + 1] - prev[s]) / dx)
            table[r][j] = cur[0]
            prev = cur
    det = _complex_det([[table[i][j] for j in range(n)] for i in range(n)])
    return det * (-1) ** (n * (n - 1) // 2)


def _pow(x: complex, w) -> complex:
    if isinstance(w, int):
        return x ** w
    w = complex(w)
    if w.imag == 0 and float(w.real).is_integer():
        return x ** int(w.real)
    return cmath.exp(w * cmath.log(x))


def _complex_det(mat) -> complex:
    n = len(mat)
    a = [row[:] for row in mat]
    det = 1.0 + 0.0j
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return 0.0 + 0.0j
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f != 0:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        clen = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign
