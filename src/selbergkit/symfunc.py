"""The ring of symmetric functions: classical bases, plethysm, alphabets.

Symmetric functions are stored as coefficient maps over partitions with a
basis tag ('m', 'p', 'e', 'h', 's').  Basis conversions go through exact
per-degree transition matrices built by expanding in d variables; matrices
are cached.  Plethysm is the p-basis homomorphism over alphabet expression
trees.  LetterSeries provides truncated polynomial arithmetic in named
letters with exact scalar coefficients, used by the series-identity suites.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .field import FieldElement, fe
from .partitions import Partition, partitions_of

__all__ = [
    "SymFunc", "sym", "m_sf", "p_sf", "e_sf", "h_sf", "s_sf",
    "Alphabet", "Letters", "Binomial", "Ratio", "Sum", "Difference",
    "Scale", "Product", "letter_scale",
    "pk_of_alphabet", "plethysm", "z_lambda",
    "h_series_of_alphabet", "e_series_of_alphabet", "psi_series",
    "LetterSeries", "expand_in_letters",
    "schur_eval", "schur_spec", "alternant_ratio",
    "h_series_of_alphabet", "sigma_series", "series_mul", "series_div",
]

BASES = ("m", "p", "e", "h", "s")


def z_lambda(lam: Partition) -> int:
    lam = Partition(lam)
    out = 1
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        out *= part ** m * math.factorial(m)
    return out


# ---------------------------------------------------------------------------
# monomial expansions in d variables (exact, Fraction coefficients)
# ---------------------------------------------------------------------------

def _distinct_perms(seq: tuple[int, ...]):
    # unique permutations via sorted-multiset recursion
    seen_all = sorted(seq, reverse=True)

    def rec(remaining: list[int]):
        if not remaining:
            yield ()
            return
        prev = None
        for i, v in enumerate(remaining):
            if v == prev:
                continue
            prev = v
            rest = remaining[:i] + remaining[i + 1:]
            for tail in rec(rest):
                yield (v,) + tail

    yield from rec(seen_all)


@lru_cache(maxsize=None)
def monomial_expansion(lam: Partition, nvars: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """m_lambda(x_1..x_nvars) as ((exponent tuple, coeff=1), ...)."""
    lam = Partition(lam)
    if len(lam) > nvars:
        return ()
    padded = lam.parts + (0,) * (nvars - len(lam))
    return tuple((perm, 1) for perm in _distinct_perms(padded))


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e)
            if v is None:
                out[e] = c1 * c2
            else:
                v = v + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
    return out


def _power_sum_poly(k: int, nvars: int) -> dict:
    out = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = k
        out[tuple(e)] = Fraction(1)
    return out


def _elem_poly(k: int, nvars: int) -> dict:
    out = {}
    for combo in itertools.combinations(range(nvars), k):
        e = [0] * nvars
        for i in combo:
            e[i] = 1
        out[tuple(e)] = Fraction(1)
    return out


def _complete_poly(k: int, nvars: int) -> dict:
    out = {}
    for combo in itertools.combinations_with_replacement(range(nvars), k):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out[tuple(e)] = Fraction(1)
    return out


def _collect_m(poly: dict, degree: int) -> dict[Partition, Fraction]:
    """Read m-coefficients off a symmetric polynomial in >= degree variables."""
    out = {}
    for e, c in poly.items():
        se = tuple(sorted((x for x in e if x), reverse=True))
        if e[:len(se)] == se and all(x == 0 for x in e[len(se):]):
            out[Partition(se)] = c
    return out


@lru_cache(maxsize=None)
def _basis_in_m(basis: str, d: int) -> dict[Partition, dict[Partition, Fraction]]:
    """Expansion of each degree-d basis element in the m-basis."""
    nvars = max(d, 1)
    table: dict[Partition, dict[Partition, Fraction]] = {}
    for lam in partitions_of(d):
        if basis == "m":
            table[lam] = {lam: Fraction(1)}
            continue
        if basis == "s":
            poly = _schur_poly(lam, nvars)
        else:
            maker = {"p": _power_sum_poly, "e": _elem_poly, "h": _complete_poly}[basis]
            poly = {(0,) * nvars: Fraction(1)}
            for part in lam:
                poly = _poly_mul(poly, maker(part, nvars))
        table[lam] = _collect_m(poly, d)
    if d == 0:
        table[Partition()] = {Partition(): Fraction(1)}
    return table


def _schur_poly(lam: Partition, nvars: int) -> dict:
    """Schur polynomial via the Jacobi-Trudi determinant in the h's."""
    k = len(lam)
    if k == 0:
        return {(0,) * nvars: Fraction(1)}
    poly: dict[tuple[int, ...], Fraction] = {}
    for perm in itertools.permutations(range(k)):
        sign = _perm_sign(perm)
        degs = [lam.part(i + 1) - (i + 1) + (perm[i] + 1) for i in range(k)]
        if any(dd < 0 for dd in degs):
            continue
        term = {(0,) * nvars: Fraction(sign)}
        for dd in degs:
            if dd:
                term = _poly_mul(term, _complete_poly(dd, nvars))
        for e, c in term.items():
            v = poly.get(e)
            poly[e] = c if v is None else v + c
    return {e: c for e, c in poly.items() if c}


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


@lru_cache(maxsize=None)
def _m_to_basis(basis: str, d: int) -> dict[Partition, dict[Partition, Fraction]]:
    """Inverse transition: each m_lambda of degree d in the given basis."""
    lams = list(partitions_of(d)) if d else [Partition()]
    fwd = _basis_in_m(basis, d)
    n = len(lams)
    idx = {lam: i for i, lam in enumerate(lams)}
    mat = [[Fraction(0)] * n for _ in range(n)]
    for j, lam in enumerate(lams):
        for mu, c in fwd[lam].items():
            mat[idx[mu]][j] = c
    inv = _fraction_inverse(mat)
    out: dict[Partition, dict[Partition, Fraction]] = {}
    for i, lam in enumerate(lams):
        out[lam] = {lams[j]: inv[j][i] for j in range(n) if inv[j][i]}
    return out


def _fraction_inverse(mat):
    n = len(mat)
    a = [row[:] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


# ---------------------------------------------------------------------------
# SymFunc
# ---------------------------------------------------------------------------

class SymFunc:
    """Finite map from partitions to scalars, tagged with a basis."""

    __slots__ = ("basis", "coeffs", "degree_cap")

    def __init__(self, basis: str, coeffs: Mapping[Partition, object] | None = None,
                 degree_cap: int | None = None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.coeffs: dict[Partition, object] = {}
        if coeffs:
            for lam, c in coeffs.items():
                if not _scalar_is_zero(c):
                    self.coeffs[Partition(lam)] = c
        self.degree_cap = degree_cap

    def degree(self) -> int:
        return max((lam.size for lam in self.coeffs), default=0)

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if self.basis != other.basis:
            other = other.to_basis(self.basis)
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            if lam in out:
                out[lam] = out[lam] + c
            else:
                out[lam] = c
        return SymFunc(self.basis, out, _min_cap(self.degree_cap, other.degree_cap))

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + other.scale(-1)

    def scale(self, c) -> "SymFunc":
        return SymFunc(self.basis, {lam: v * c for lam, v in self.coeffs.items()},
                       self.degree_cap)

    def __mul__(self, other):
        if not isinstance(other, SymFunc):
            return self.scale(other)
        a = self.to_basis("p")
        b = other.to_basis("p")
        out: dict[Partition, object] = {}
        for lam, ca in a.coeffs.items():
            for mu, cb in b.coeffs.items():
                nu = Partition(tuple(sorted(lam.parts + mu.parts, reverse=True)))
                c = ca * cb
                out[nu] = out[nu] + c if nu in out else c
        return SymFunc("p", out, _min_cap(self.degree_cap, other.degree_cap))

    __rmul__ = scale

    def to_basis(self, target: str) -> "SymFunc":
        if target == self.basis:
            return self
        out: dict[Partition, object] = {}
        for d in sorted({lam.size for lam in self.coeffs}):
            piece = {lam: c for lam, c in self.coeffs.items() if lam.size == d}
            if self.basis != "m":
                fwd = _basis_in_m(self.basis, d)
                mpiece: dict[Partition, object] = {}
                for lam, c in piece.items():
                    for mu, f in fwd[lam].items():
                        v = c * f
                        mpiece[mu] = mpiece[mu] + v if mu in mpiece else v
                piece = mpiece
            if target != "m":
                back = _m_to_basis(target, d)
                tpiece: dict[Partition, object] = {}
                for lam, c in piece.items():
                    for mu, f in back[lam].items():
                        v = c * f
                        tpiece[mu] = tpiece[mu] + v if mu in tpiece else v
                piece = tpiece
            for lam, c in piece.items():
                if not _scalar_is_zero(c):
                    out[lam] = out[lam] + c if lam in out else c
        return SymFunc(target, out, self.degree_cap)

    def coeff(self, lam: Partition):
        return self.coeffs.get(Partition(lam), Fraction(0))

    def eval_points(self, xs: Sequence) -> object:
        """Evaluate at a finite list of point values (any scalar ring)."""
        f = self.to_basis("m")
        n = len(xs)
        total = Fraction(0)
        for lam, c in f.coeffs.items():
            if len(lam) > n:
                continue
            s = Fraction(0)
            for exps, _ in monomial_expansion(lam, n):
                term = 1
                for x, e in zip(xs, exps):
                    if e:
                        term = term * x ** e
                s = s + term
            total = total + c * s
        return total

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        a = self.to_basis("m")
        b = other.to_basis("m")
        keys = set(a.coeffs) | set(b.coeffs)
        return all(_scalar_eq(a.coeff(k), b.coeff(k)) for k in keys)

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for lam in sorted(self.coeffs, key=lambda x: (x.size, x.parts)):
            bits.append(f"({self.coeffs[lam]})*{self.basis}{lam}")
        return " + ".join(bits)

    __repr__ = __str__


def _scalar_is_zero(c) -> bool:
    if isinstance(c, FieldElement):
        return c.is_zero()
    return c == 0


def _inv_scalar(d):
    if isinstance(d, int):
        return Fraction(1, d)
    return 1 / d


def _scalar_eq(a, b) -> bool:
    if isinstance(a, FieldElement) or isinstance(b, FieldElement):
        return fe(a) == fe(b)
    return a == b


def _min_cap(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def sym(basis: str, lam, c=1) -> SymFunc:
    return SymFunc(basis, {Partition(lam): Fraction(c) if isinstance(c, int) else c})


def m_sf(lam): return sym("m", lam)
def p_sf(lam): return sym("p", lam)
def e_sf(lam): return sym("e", lam)
def h_sf(lam): return sym("h", lam)
def s_sf(lam): return sym("s", lam)


# ---------------------------------------------------------------------------
# alphabets and plethysm
# ---------------------------------------------------------------------------

class Alphabet:
    pass


class Letters(Alphabet):
    """A finite list of rank-one letters given by their values."""

    def __init__(self, values):
        self.values = tuple(values)

    def __repr__(self):
        return f"Letters({list(self.values)})"


@dataclass
class Binomial(Alphabet):
    """Binomial element z: p_k[z] = z for all k."""
    z: object


@dataclass
class Ratio(Alphabet):
    """(a - b)/(1 - t): p_k = (a^k - b^k)/(1 - t^k)."""
    a: object
    b: object
    t: object


@dataclass
class Sum(Alphabet):
    left: Alphabet
    right: Alphabet


@dataclass
class Difference(Alphabet):
    left: Alphabet
    right: Alphabet


@dataclass
class Scale(Alphabet):
    """F-linear scaling: p_k[z X] = z p_k[X] (z a binomial-type scalar)."""
    z: object
    inner: Alphabet


@dataclass
class Product(Alphabet):
    left: Alphabet
    right: Alphabet


def letter_scale(c, inner: Alphabet) -> Alphabet:
    """Cartesian scaling by a single letter: p_k -> c^k p_k."""
    return Product(Letters([c]), inner)


def pk_of_alphabet(k: int, A: Alphabet):
    """p_k of an alphabet expression; homomorphic in the tree."""
    if k < 1:
        raise ValueError("power sums need k >= 1")
    if isinstance(A, Letters):
        total = 0
        for v in A.values:
            total = total + v ** k
        return total
    if isinstance(A, Binomial):
        return A.z
    if isinstance(A, Ratio):
        den = 1 - A.t ** k
        if _scalar_is_zero(den):
            raise ZeroDivisionError(f"Ratio alphabet needs t^{k} != 1")
        num = A.a ** k - A.b ** k
        if isinstance(num, LetterSeries):
            return num * _inv_scalar(den)
        return num / den
    if isinstance(A, Sum):
        return pk_of_alphabet(k, A.left) + pk_of_alphabet(k, A.right)
    if isinstance(A, Difference):
        return pk_of_alphabet(k, A.left) - pk_of_alphabet(k, A.right)
    if isinstance(A, Scale):
        return A.z * pk_of_alphabet(k, A.inner)
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


def sigma_series(A: Alphabet, cap: int) -> list:
    """Coefficients of sigma_z[A] = sum z^k h_k[A] up to degree cap."""
    return h_series_of_alphabet(A, cap)


def psi_series(A: Alphabet, cap: int) -> list:
    """Coefficients of psi_z[A] = sum_{k>=1} z^k p_k[A]/k (index 0 is 0)."""
    out = [Fraction(0)]
    for k in range(1, cap + 1):
        out.append(pk_of_alphabet(k, A) * Fraction(1, k))
    return out


def series_mul(a: Sequence, b: Sequence) -> list:
    cap = min(len(a), len(b)) - 1
    out = []
    for k in range(cap + 1):
        acc = 0
        for i in range(k + 1):
            acc = acc + a[i] * b[k - i]
        out.append(acc)
    return out


def series_div(a: Sequence, b: Sequence) -> list:
    """a/b as truncated series; b[0] must be invertible."""
    cap = min(len(a), len(b)) - 1
    inv0 = 1 / fe(b[0]) if isinstance(b[0], FieldElement) else 1 / b[0]
    out = []
    for k in range(cap + 1):
        acc = a[k]
        for i in range(1, k + 1):
            acc = acc - b[i] * out[k - i]
        out.append(acc * inv0)
    return out


# ---------------------------------------------------------------------------
# letter series (truncated polynomials in named letters)
# ---------------------------------------------------------------------------

class LetterSeries:
    """Polynomial in named letters with exact scalar coefficients.

    cap is a total-degree cutoff applied on multiplication; None means no
    truncation.  Coefficients may be Fractions or FieldElements.
    """

    __slots__ = ("letters", "terms", "cap")

    def __init__(self, letters: Sequence[str], terms=None, cap: int | None = None):
        self.letters = tuple(letters)
        self.terms: dict[tuple[int, ...], object] = {}
        if terms:
            for e, c in terms.items():
                if not _scalar_is_zero(c):
                    self.terms[tuple(e)] = c
        self.cap = cap

    @classmethod
    def const(cls, letters, c, cap=None):
        return cls(letters, {(0,) * len(letters): c}, cap)

    @classmethod
    def letter(cls, letters, name, cap=None):
        e = [0] * len(letters)
        e[list(letters).index(name)] = 1
        return cls(letters, {tuple(e): Fraction(1)}, cap)

    def _check(self, other: "LetterSeries"):
        if self.letters != other.letters:
            raise ValueError("letter universes differ")

    def __add__(self, other):
        if not isinstance(other, LetterSeries):
            other = LetterSeries.const(self.letters, other, self.cap)
        self._check(other)
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
        return LetterSeries(self.letters, out, _min_cap(self.cap, other.cap))

    __radd__ = __add__

    def __neg__(self):
        return LetterSeries(self.letters, {e: -c for e, c in self.terms.items()},
                            self.cap)

    def __sub__(self, other):
        if not isinstance(other, LetterSeries):
            other = LetterSeries.const(self.letters, other, self.cap)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LetterSeries):
            return LetterSeries(self.letters,
                                {e: c * other for e, c in self.terms.items()},
                                self.cap)
        self._check(other)
        cap = _min_cap(self.cap, other.cap)
        out: dict[tuple[int, ...], object] = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if cap is not None and d1 + sum(e2) > cap:
                    continue
                e = tuple(x + y for x, y in zip(e1, e2))
                v = c1 * c2
                if e in out:
                    v = out[e] + v
                    if _scalar_is_zero(v):
                        del out[e]
                        continue
                out[e] = v
        return LetterSeries(self.letters, out, cap)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = LetterSeries.const(self.letters, Fraction(1), self.cap)
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

    def __eq__(self, other):
        if not isinstance(other, LetterSeries):
            return NotImplemented
        self._check(other)
        keys = set(self.terms) | set(other.terms)
        return all(_scalar_eq(self.coeff(k), other.coeff(k)) for k in keys)

    def max_total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            mono = "*".join(
                f"{n}^{p}" if p > 1 else n
                for n, p in zip(self.letters, e) if p)
            c = self.terms[e]
            bits.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(bits)

    __repr__ = __str__


def expand_in_letters(f: SymFunc, letters: Sequence[str], cap: int | None = None,
                      values: Sequence | None = None) -> LetterSeries:
    """Expand a symmetric function as a LetterSeries in the given letters."""
    fm = f.to_basis("m")
    n = len(letters)
    out = LetterSeries(letters, cap=cap)
    for lam, c in fm.coeffs.items():
        if len(lam) > n:
            continue
        if cap is not None and lam.size > cap:
            continue
        for exps, _ in monomial_expansion(lam, n):
            v = out.terms.get(exps)
            out.terms[exps] = c if v is None else v + c
    if values is not None:
        raise NotImplementedError
    out.terms = {e: c for e, c in out.terms.items() if not _scalar_is_zero(c)}
    return out


# ---------------------------------------------------------------------------
# Schur evaluation (alternant with confluent fallback)
# ---------------------------------------------------------------------------

def _falling(w, r: int):
    out = 1
    for m in range(r):
        out = out * (w - m)
    return out


def _pow_dd_entry(x, w, r: int):
    """r-th divided difference of t -> t^w at a point repeated r+1 times."""
    return _falling(w, r) / math.factorial(r) * x ** (w - r)


def alternant_ratio(xs: Sequence[complex], ws: Sequence[complex],
                    coincidence_tol: float = 1e-8) -> complex:
    """det(x_i^{w_j}) / Delta(x) with a divided-difference confluent fallback.

    Delta(x) = prod_{i<j} (x_i - x_j).  Powers use the principal branch for
    non-integer exponents, so complex x must avoid the negative real axis.
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
    tol = coincidence_tol * scale
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


def schur_eval(lam: Partition, xs: Sequence) -> object:
    """s_lambda(x_1..x_n); exact for exact inputs, alternant for floats."""
    lam = Partition(lam)
    n = len(xs)
    if len(lam) > n:
        return 0
    exact = all(isinstance(x, (int, Fraction, FieldElement)) for x in xs)
    if exact:
        return s_sf(lam).eval_points(list(xs))
    ws = [lam.part(j + 1) + n - (j + 1) for j in range(n)]
    return alternant_ratio([complex(x) for x in xs], ws)


def schur_spec(lam: Partition, n, k: int | None = None):
    """s_lambda(1^n) by the factorised specialisation; padding k >= l(lambda).

    n may be symbolic (a binomial element); the product form is used as is.
    """
    lam = Partition(lam)
    if k is None:
        k = max(len(lam), 1)
    if k < len(lam):
        raise ValueError("padding too short")
    from .coeffs import poch
    out = Fraction(1) if isinstance(n, (int, Fraction)) else 1
    for i in range(1, k + 1):
        out = out * poch(n - i + 1, lam.part(i)) / poch(k - i + 1, lam.part(i))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            out = out * Fraction(lam.part(i) - lam.part(j) + j - i, j - i)
    return out
