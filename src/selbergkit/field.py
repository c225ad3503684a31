"""Exact scalar arithmetic: polynomials over Z and their fraction field Q(q, t, ...).

Z is the one coefficient ring.  An ``MPoly`` is a sparse map from packed
monomials to nonzero ``int`` coefficients.  A monomial is one non-negative
``int`` of ``_W``-bit fields (Monagan and Pearce, J. Symbolic Comput. 46,
2011): field 0 holds the total degree, and the exponent of the i-th
registered indeterminate sits at bit ``_W * (i + 1)``.  A monomial product
is then one ``+``; b divides a when ``((a | G) - b) & G == G``, G being the
top (guard) bit of every field; and the graded order is ``(e & _M, e)``,
ties going to the later-registered indeterminates.  No field ever reaches
its guard bit: the total degree bounds every exponent, and a product whose
total degree would reach 2**(_W - 1) raises ``OverflowError`` rather than
carry into the next field.  Registering an indeterminate adds a field above
the others, so it never invalidates a polynomial.
``FieldElement`` is a coprime num/den pair of ``MPoly`` in canonical form,
so a rational constant lives in the pair: q/2 is stored as (q, 2).  A
``Fraction`` is split into numerator and denominator where it enters the
field, and one is built again only where a constant or a value leaves it.

Reduction policy.  Operands are coprime, so arithmetic follows Henrici
(JACM 3, 1956; Knuth, TAOCP 2, 4.5.1) and never reduces a product it did
not need: (a/b)(c/d) cancels only gcd(a, d) and gcd(c, b), a quotient is
the product with d/c, and a power needs no gcd; a/b + c/d with
g = gcd(b, d) forms t = a(d/g) + c(b/g) and cancels only gcd(t, g); the
constructor cancels gcd(num, den).  A rational constant n/d cancels only
integers: gcd(n, cont b) and gcd(d, cont a) from (a/b)(n/d), and the
integer contents of (da + nb)/(db), a pair coprime as polynomials.

Factored denominators.  In the Macdonald identities every denominator is
a product of binomials 1 - q^a t^b (Macdonald, Symmetric Functions and
Hall Polynomials, ch. VI), so an ``MPoly`` may carry its factorization: an
integer content, a monomial and a multiset of irreducible "line" factors,
passed on by products, powers and negation.  ``_split`` gives one to a
polynomial of one or two terms.  With its monomial gcd split off, two
terms are c1 Y^n + c2 Z^n, Y and Z monomials of disjoint support and n the
gcd of their exponents.  A monomial change of variables of the Laurent
ring makes (Y/Z)^(1/n) a variable X, so a factor irreducible in X is
irreducible in Z[x] once homogenised by a power of Z.  Hence c1 Y + c2 Z
with coprime c1, c2 is irreducible, and Y^n -+ Z^n splits into the
cyclotomic factors of X^n -+ 1.  Every other polynomial carries none.

Every gcd goes through ``_cofactors``, by one of three routes.  If both
sides carry a factorization, the gcd is the intersection of their
multisets of factors: since each factor is irreducible and primitive with
a positive leading coefficient, two factors are associates only if equal,
and no division is needed.  If one side carries one, the other side is
trial-divided by each of its factors, up to the factor's multiplicity,
with no step limit, so a division that fails proves the factor absent.
Only if neither does is it ``mpoly_gcd``, which splits off the monomial
contents, replaces an operand by its content in any variable the other
lacks, then runs a primitive pseudo-remainder sequence (PRS; Brown, JACM
18, 1971).  It works over Z, so no denominator is ever cleared.  Its
result, made primitive, is the gcd itself, so the cofactors are exact
quotients in Z[x]: by Gauss's lemma a primitive divisor over Q is one
over Z.  No suite reaches this route; it serves ``subs``, which drops
carried factorizations, and the test oracles.  A factorization is a
cache of facts about a polynomial, not part of its value: equality, the
hash and the memo keys ignore it, so every route gives the same canonical
pair.

Products of binomials.  The identities' q-shifted factorials are products
of binomials 1 - x, x a Laurent monomial, that cancel heavily: the
f-function telescopes in t.  ``binomial_product`` builds one such product
with no field arithmetic.  For x = y/z, y and z monomials of disjoint
support, 1 - x is (z - y)/z: the line factors of z - y go into one signed
multiset with the binomial's exponent, and z to the other side.  Equal
factors cancel between numerator and denominator, the monomials cancel to
their fieldwise minimum, and each side is expanded once.  The pair left is
coprime: line factors are irreducible, primitive and have a positive
leading coefficient, so two are associates only if equal, and after the
cancellation none is on both sides.  ``_canonical`` then gives the pair a
chain of field operations would.  A binomial past the line power cap does
not split; it is multiplied into its side, and that pair is reduced by
``_cofactors``.

Sums of products.  A sum of many products, such as a symmetric function
summed over its m-coefficients, is one ``dot``: it puts the terms over the
lcm of their factored denominators and reduces the numerator once, by
trial division, where a chain of sums would reduce after each term.

Every result has one canonical form: zero is 0/1, and otherwise num and
den are divided by the gcd of their integer contents, with the sign that
makes the leading denominator coefficient positive.  ``_canonical`` makes
it; a product with a constant is built in it.  A coprime pair has exactly
one such form, so equality compares the pairs.

Memo.  The same few thousand products, sums and powers recur tens of
thousands of times across the Macdonald suites, so ``FieldElement``'s
+ - * / and ** go through ``_memo`` (Michie, Nature 218, 1968), bar the
routes of a rational constant, which cost less than a memo key, and of
x**0, x**1 and x**-1, which need no polynomial power; x**-n looks up
(1/x)**n.  The memo is one LRU of ``_MEMO_SIZE`` entries shared by
``_product``, ``_sum`` and ``_power``, keyed on the operation and its
operand ``MPoly``s (and the exponent of a power).  A key matches on the
cached hash and then ``MPoly.__eq__``, so a hit is exact.  Cached operands
and results are shared between callers, which is sound because ``MPoly``
and ``FieldElement`` are immutable once built.
"""

from __future__ import annotations

import functools
import heapq
import math
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import PoleError

__all__ = [
    "PoleError",
    "MPoly",
    "FieldElement",
    "fe",
    "var",
    "binomial_product",
    "dot",
    "mpoly_gcd",
    "POLE_TOLERANCE",
]

POLE_TOLERANCE = 1e-13

_REGISTRY: list[str] = []
_INDEX: dict[str, int] = {}

# Packed monomials: _W bits per field, field 0 the total degree.
_W = 16
_M = (1 << _W) - 1
_DEG_GUARD = 1 << (_W - 1)
# guard bits of field 0 and of every registered indeterminate's field
_GUARD = _DEG_GUARD


def _register(name: str) -> int:
    global _GUARD
    idx = _INDEX.get(name)
    if idx is None:
        idx = len(_REGISTRY)
        _REGISTRY.append(name)
        _INDEX[name] = idx
        _GUARD |= _DEG_GUARD << (_W * (idx + 1))
    return idx


def _unit(i: int) -> int:
    """The packed monomial of the i-th indeterminate."""
    return (1 << (_W * (i + 1))) | 1


def _unpack(e: int) -> tuple[int, ...]:
    """Exponent tuple of a packed monomial, trailing zeros stripped."""
    out = []
    e >>= _W
    while e:
        out.append(e & _M)
        e >>= _W
    return tuple(out)


def _with_degree(e: int) -> int:
    """``e`` with field 0 set to the sum of its exponent fields."""
    s, x = 0, e >> _W
    while x:
        s += x & _M
        x >>= _W
    return e - (e & _M) + s


def _ge_mask(a: int, b: int) -> int:
    """All bits of each field in which a >= b (guard bits of a, b clear)."""
    return ((((a | _GUARD) - b) & _GUARD) >> (_W - 1)) * _M


def _min_exp(a: int, b: int) -> int:
    """Fieldwise minimum: the packed monomial gcd."""
    return _with_degree(a ^ ((a ^ b) & _ge_mask(a, b)))


def _is_monomial(e) -> bool:
    """Whether ``e`` is a packed monomial in the registered indeterminates."""
    return (isinstance(e, int) and 0 <= e < 1 << (_W * (len(_REGISTRY) + 1))
            and not e & _DEG_GUARD and e == _with_degree(e))


def _check_degree(d: int) -> None:
    """Raise rather than let a total degree d reach the guard bit."""
    if d >= _DEG_GUARD:
        raise OverflowError(f"total degree {d} exceeds {_DEG_GUARD - 1}")


def _graded(e: int):
    """Key of the graded order: total degree, then the packed int."""
    return (e & _M, e)


def _int_coeff(c) -> int:
    """``c`` itself: an MPoly holds no coefficient but an int."""
    if not isinstance(c, int):
        raise TypeError(f"not an int coefficient: {c!r}")
    return c


def _wrap(terms: dict) -> "MPoly":
    """An MPoly owning ``terms``, which must hold no zero coefficient."""
    p = object.__new__(MPoly)
    p.terms = terms
    p._hash = None
    p._fac = None
    return p


class MPoly:
    """Sparse multivariate polynomial over Z.

    ``terms`` maps packed monomials (see the module docstring) to nonzero
    ``int`` coefficients; the constructor, ``const`` and scalar ``*`` raise
    ``TypeError`` on any other coefficient.  Immutable once built: the field
    memo shares operands and results between callers, and the hash is
    computed once into ``_hash``.  ``_fac`` caches a known factorization,
    the flat tuple ``(content, monomial, *factors)`` of an int, a packed
    monomial and irreducible line factors (see ``_split``), or is None;
    a product of two polynomials, ``**``, unary ``-`` and ``_rescale``
    carry it through.  It takes no part in ``==`` or the hash.
    The one in-place writer of ``terms`` is ``_to_univar``, on a polynomial
    it is still building and has not hashed or handed out.
    """

    __slots__ = ("terms", "_hash", "_fac")

    def __init__(self, terms: Mapping[int, int] | None = None):
        self._hash = None
        self._fac = None
        self.terms = {}
        for e, c in (terms or {}).items():
            if not _is_monomial(e):
                raise ValueError(f"not a packed monomial: {e!r}")
            if _int_coeff(c):
                self.terms[e] = c

    # -- constructors -----------------------------------------------------
    @classmethod
    def const(cls, c: int) -> "MPoly":
        return _wrap({0: c} if _int_coeff(c) else {})

    @classmethod
    def variable(cls, name: str) -> "MPoly":
        return _wrap({_unit(_register(name)): 1})

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self) -> int:
        if not self.terms:
            return 0
        if len(self.terms) == 1 and 0 in self.terms:
            return self.terms[0]
        raise ValueError("not a constant polynomial")

    def variables(self) -> set[int]:
        acc = 0
        for e in self.terms:
            acc |= e
        out: set[int] = set()
        acc >>= _W
        i = 0
        while acc:
            if acc & _M:
                out.add(i)
            acc >>= _W
            i += 1
        return out

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e)
            if v is None:
                out[e] = c
            else:
                v = v + c
                if v:
                    out[e] = v
                else:
                    del out[e]
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self):
        out = _wrap({e: -c for e, c in self.terms.items()})
        if self._fac is not None:
            out._fac = (-self._fac[0],) + self._fac[1:]
        return out

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            if not _int_coeff(other):
                return MPoly()
            return _wrap({e: v * other for e, v in self.terms.items()})
        if len(self.terms) > len(other.terms):
            self, other = other, self
        if not self.terms:
            return MPoly()
        a, b = self.terms, other.terms
        if len(a) == 1:
            # a monomial times a polynomial: no two products collide
            (m, k), = a.items()
            if m:
                _check_degree((m & _M) + max(map(_M.__and__, b)))
            out = {e + m: c * k for e, c in b.items()}
        else:
            # the total degree bounds every field, so this check covers them all
            _check_degree(max(e & _M for e in a) + max(e & _M for e in b))
            out = {}
            get = out.get
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    v = get(e)
                    if v is None:
                        out[e] = c1 * c2
                    else:
                        v = v + c1 * c2
                        if v:
                            out[e] = v
                        else:
                            del out[e]
        out = _wrap(out)
        if self._fac is not None and other._fac is not None:
            f1, f2 = self._fac, other._fac
            out._fac = (f1[0] * f2[0], f1[1] + f2[1], *f1[2:], *f2[2:])
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n and self.terms:
            _check_degree(n * max(e & _M for e in self.terms))
        result = MPoly.const(1)
        base, n0 = self, n
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        if self._fac is not None:
            f = self._fac
            result._fac = (f[0] ** n0, f[1] * n0) + f[2:] * n0
        return result

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self.terms.items()))
        return h

    # -- structure ----------------------------------------------------------
    def monomial_content(self) -> int:
        """Fieldwise min exponent over all terms (the packed monomial gcd)."""
        it = iter(self.terms)
        mins = next(it, 0)
        for e in it:
            mins ^= (mins ^ e) & _ge_mask(mins, e)
            if mins <= _M:  # every exponent field is zero
                return 0
        return _with_degree(mins)

    def shift_down(self, exp: int) -> "MPoly":
        """Divide by the packed monomial ``exp`` (must divide)."""
        if not exp:
            return self
        G = _GUARD
        out = {}
        for e, c in self.terms.items():
            if ((e | G) - exp) & G != G:
                raise ValueError("monomial does not divide")
            out[e - exp] = c
        return _wrap(out)

    def _lead_key(self):
        return max(self.terms, key=_graded)

    def lead_coeff(self) -> int:
        return self.terms[self._lead_key()] if self.terms else 0

    def divide_exact(self, other: "MPoly"):
        """Return self/other if it lies in Z[x], else None.

        Every caller divides by a primitive polynomial or a monomial, where
        division over Q is exact only if it is exact over Z (Gauss's lemma).
        Long division in the graded order: each quotient term times ``other``
        is subtracted into one remainder dict, and a heap of the remainder's
        monomials, keyed ``(-(e & _M), -e)`` (stale entries skipped on pop),
        yields its lead term.  None proves that other does not divide self;
        the division ends, as the graded order is a well-order and each
        step lowers the remainder's lead.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.is_const():
            c, out = other.terms[0], {}
            for e, v in self.terms.items():
                out[e], r = divmod(v, c)
                if r:
                    return None
            return _wrap(out)
        if self.is_zero():
            return MPoly()
        rem = dict(self.terms)
        heap = [(-(e & _M), -e) for e in rem]
        heapq.heapify(heap)
        lk = other._lead_key()
        lc = other.terms[lk]
        tail = [(e, c) for e, c in other.terms.items() if e != lk]
        G = _GUARD
        quot: dict[int, int] = {}
        # every monomial below stays within the remainder's degree, which
        # the lead of self bounds: no field can overflow
        while rem:
            rk = -heapq.heappop(heap)[1]
            if rk not in rem:
                continue
            if ((rk | G) - lk) & G != G:
                return None
            qe = rk - lk
            qc, r = divmod(rem.pop(rk), lc)
            if r:
                return None
            quot[qe] = qc
            for e, c in tail:
                k = qe + e
                v = rem.get(k)
                if v is None:
                    rem[k] = -qc * c
                    heapq.heappush(heap, (-(k & _M), -k))
                else:
                    v = v - qc * c
                    if v:
                        rem[k] = v
                    else:
                        del rem[k]
        return _wrap(quot)

    # -- evaluation / substitution -------------------------------------------
    def eval(self, bindings: Mapping[str, complex]):
        """Value at ``bindings``, in which every present variable must be
        bound: an int or a Fraction if every bound value is one, else a
        complex number."""
        vals: dict[int, complex] = {}
        exact = True
        for name, v in bindings.items():
            if name in _INDEX:
                vals[_INDEX[name]] = v
                if not isinstance(v, (int, Fraction)):
                    exact = False
        total = 0 if exact else 0.0 + 0.0j
        for e, c in self.terms.items():
            term = c if exact else complex(c)
            x, i = e >> _W, 0
            while x:
                p = x & _M
                if p:
                    if i not in vals:
                        raise KeyError(f"unbound indeterminate {_REGISTRY[i]!r}")
                    term = term * vals[i] ** p
                x >>= _W
                i += 1
            total = total + term
        return total

    def subs(self, bindings: Mapping[str, "FieldElement"]) -> "FieldElement":
        """Substitute field elements for variables; unbound variables persist."""
        vals: dict[int, FieldElement] = {}
        for name, v in bindings.items():
            if name in _INDEX:
                vals[_INDEX[name]] = fe(v)
        total = FieldElement(MPoly(), MPoly.const(1), reduce=False)
        for e, c in self.terms.items():
            mono = e
            term = FieldElement(MPoly.const(c), MPoly.const(1), reduce=False)
            x, i = e >> _W, 0
            while x:
                p = x & _M
                if p and i in vals:
                    mono -= p * _unit(i)
                    term = term * vals[i] ** p
                x >>= _W
                i += 1
            term = term * FieldElement(_wrap({mono: 1}), MPoly.const(1),
                                       reduce=False)
            total = total + term
        return total

    # -- formatting -----------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=_graded, reverse=True):
            c = self.terms[e]
            factors = []
            for i, p in enumerate(_unpack(e)):
                if p == 1:
                    factors.append(_REGISTRY[i])
                elif p:
                    factors.append(f"{_REGISTRY[i]}^{p}")
            mono = "*".join(factors)
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        out = " + ".join(bits)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"MPoly({self})"


# --------------------------------------------------------------------------
# multivariate gcd (primitive PRS)
# --------------------------------------------------------------------------

def _to_univar(f: MPoly, v: int) -> dict[int, MPoly]:
    sh, unit = _W * (v + 1), _unit(v)
    out: dict[int, MPoly] = {}
    for e, c in f.terms.items():
        d = (e >> sh) & _M
        key = e - d * unit
        coeff = out.get(d)
        if coeff is None:
            coeff = out[d] = MPoly()
        val = coeff.terms.get(key)
        if val is None:
            coeff.terms[key] = c
        else:
            val = val + c
            if val:
                coeff.terms[key] = val
            else:
                del coeff.terms[key]
    return {d: p for d, p in out.items() if not p.is_zero()}


def _from_univar(coeffs: dict[int, MPoly], v: int) -> MPoly:
    unit = _unit(v)
    out: dict[int, int] = {}
    for d, p in coeffs.items():
        for e, c in p.terms.items():
            e += d * unit
            _check_degree(e & _M)
            out[e] = c
    return _wrap(out)


def _uni_pseudo_rem(u: dict[int, MPoly], w: dict[int, MPoly]) -> dict[int, MPoly]:
    dw = max(w)
    lw = w[dw]
    r = dict(u)
    while r and max(r) >= dw:
        dr = max(r)
        lr = r[dr]
        # r <- lw*r - lr*x^(dr-dw)*w
        nr: dict[int, MPoly] = {}
        for d, p in r.items():
            nr[d] = p * lw
        for d, p in w.items():
            dd = d + dr - dw
            sub = p * lr
            nr[dd] = nr.get(dd, MPoly()) - sub
        r = {d: p for d, p in nr.items() if not p.is_zero()}
        # strip integer content each step to slow coefficient growth
        ic = 0
        for p in r.values():
            ic = math.gcd(ic, _int_content(p))
            if ic == 1:
                break
        if ic > 1:
            r = {d: _rescale(p, 0, 1, ic) for d, p in r.items()}
    return r


def _content_gcd(coeffs: Iterable[MPoly]) -> MPoly:
    g = MPoly()
    for p in coeffs:
        g = mpoly_gcd(g, p)
        if g.is_const() and not g.is_zero():
            break
    return g


def _rescale(f: MPoly, shift: int, num: int, den: int) -> MPoly:
    """f * x^shift * num / den, den dividing every coefficient times num.

    Every caller shifts a factor of an operand back within that operand's
    degree, so no field can overflow.
    """
    if not shift and num == den:
        return f
    out = _wrap({e + shift: c * num // den for e, c in f.terms.items()})
    if f._fac is not None:
        out._fac = (f._fac[0] * num // den, f._fac[1] + shift) + f._fac[2:]
    return out


def _int_content(f: MPoly) -> int:
    g = 0
    for c in f.terms.values():
        g = math.gcd(g, c)
        if g == 1:
            break
    return g or 1


def mpoly_gcd(f: MPoly, g: MPoly, cofactors: bool = False):
    """Primitive gcd h over Z (positive leading coefficient, content 1).

    With ``cofactors`` the result is ``(h, f/h, g/h)``, whose quotients lie
    in Z[x] by Gauss's lemma; h, made primitive from the PRS result, is a
    true divisor, so both divisions are exact.  For h = 1 the cofactors are
    f and g themselves.
    """
    f0, g0 = f, g
    if f.is_zero() or g.is_zero():
        raw = g if f.is_zero() else f
        common = 0
    else:
        # the gcd's monomial part is the smaller of the monomial contents
        mf, mg = f.monomial_content(), g.monomial_content()
        common = _min_exp(mf, mg)
        f, g = f.shift_down(mf), g.shift_down(mg)
        # A variable present in one operand only cannot divide the gcd, so
        # that operand may be replaced by its content in the variable.  This
        # keeps such a variable out of the coefficients of the PRS, where
        # pseudo-remainders swell in it: without this step the gcds of the
        # factored-route fuzz test take minutes instead of seconds.  It runs
        # after the monomial split, so a variable held by one operand only
        # as a monomial factor counts as lacking there.
        vf, vg = f.variables(), g.variables()
        while vf != vg and vf and vg:
            for v in vf - vg:
                f = _content_gcd(_to_univar(f, v).values())
            for v in vg - vf:
                g = _content_gcd(_to_univar(g, v).values())
            vf, vg = f.variables(), g.variables()
        raw = _prs_gcd(f, g)
    s = _int_content(raw)
    if raw.lead_coeff() < 0:
        s = -s
    h = _rescale(raw, common, 1, s)
    if not cofactors:
        return h
    if h.is_const():
        return h, f0, g0
    return h, f0.divide_exact(h), g0.divide_exact(h)


def _prs_gcd(f: MPoly, g: MPoly) -> MPoly:
    """gcd(f, g) times a nonzero integer: a primitive pseudo-remainder
    sequence in the shared variable of least degree, whose coefficients
    are polynomials in the other variables.  The gcd of their contents
    comes from ``mpoly_gcd``, which also makes the result primitive."""
    mf, mg = f.monomial_content(), g.monomial_content()
    common = _min_exp(mf, mg)
    f, g = f.shift_down(mf), g.shift_down(mg)
    base = _wrap({common: 1})
    if f.is_const() or g.is_const():
        return base
    shared = f.variables() & g.variables()
    if not shared:
        return base
    # the shared variable of least degree in either operand
    v = min(shared, key=lambda i: min(
        max((e >> _W * (i + 1)) & _M for e in p.terms) for p in (f, g)))
    uf, ug = _to_univar(f, v), _to_univar(g, v)
    cf, cg = _content_gcd(uf.values()), _content_gcd(ug.values())
    ppf = {d: p.divide_exact(cf) for d, p in uf.items()}
    ppg = {d: p.divide_exact(cg) for d, p in ug.items()}
    if any(p is None for p in ppf.values()) or any(p is None for p in ppg.values()):
        raise ArithmeticError("content division failed in PRS gcd")
    if max(ppf) < max(ppg):
        ppf, ppg = ppg, ppf
    while ppg:
        r = _uni_pseudo_rem(ppf, ppg)
        if not r:
            break
        cr = _content_gcd(r.values())
        r = {d: p.divide_exact(cr) for d, p in r.items()}
        ppf, ppg = ppg, r
    cont = mpoly_gcd(cf, cg)
    if max(ppg) == 0 and len(ppg) == 1:
        return base * cont
    return _from_univar(ppg, v) * cont * base


# --------------------------------------------------------------------------
# line factors: known factorizations of binomials
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Coefficients of the cyclotomic polynomial Phi_d, constant term first:
    X^d - 1 divided by every Phi_e, e a proper divisor of d."""
    c = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            phi = _cyclotomic(e)
            k = len(phi) - 1
            quot = [0] * (len(c) - k)
            for i in range(len(quot) - 1, -1, -1):
                quot[i] = c[i + k]  # every Phi_e is monic
                for j, a in enumerate(phi):
                    c[i + j] -= quot[i] * a
            c = quot
    return tuple(c)


# Bounded like the field memo.  Splits of equal binomials then share their
# factor objects: in one cold process of the four exact-algebra suites it
# holds 52 entries and answers 208 of 260 calls, and over eight interleaved
# pairs of such processes (2-vCPU Xeon VM, Python 3.11.7) it lowered peak
# RSS in every pair, median 21.21 to 20.89 MB, with median CPU time 0.453
# to 0.447 s, within noise.
@functools.lru_cache(maxsize=256)
def _line_factor(d: int, y: int, z: int) -> tuple[MPoly, int]:
    """``(phi, s)``: s * phi = z^k Phi_d(y/z), k = deg Phi_d, for packed
    monomials y, z of disjoint support; phi has a positive leading
    coefficient."""
    c = _cyclotomic(d)
    k = len(c) - 1
    phi = _wrap({i * y + (k - i) * z: a for i, a in enumerate(c) if a})
    if phi.lead_coeff() < 0:
        return -phi, -1
    return phi, 1


# Largest n for which Y^n -+ Z^n is split.  Its factors are small, but
# Phi_d costs O(d^2) to build once, which would dwarf the gcds it saves at
# n in the thousands; the Macdonald suites reach n = 6.
_MAX_LINE_POWER = 64


def _split(p: MPoly):
    """The factorization of a polynomial of one or two terms, by the line
    rule of the module docstring, or None where that rule proves none: a
    form c1 Y^n + c2 Z^n with n > 1 and c1 != +-c2, such as 4 X^2 - 1, or
    with n above ``_MAX_LINE_POWER``."""
    if len(p.terms) == 1:
        (e, c), = p.terms.items()
        return c, e
    (e1, c1), (e2, c2) = p.terms.items()
    m = _min_exp(e1, e2)
    y, z = e1 - m, e2 - m
    n, x = 0, (y | z) >> _W  # y and z share no field
    while x:
        n = math.gcd(n, x & _M)
        x >>= _W
    g = math.gcd(c1, c2)
    c1, c2 = c1 // g, c2 // g
    if n == 1:
        phi = _wrap({y: c1, z: c2})
        if phi.lead_coeff() < 0:
            phi, g = -phi, -g
        return g, m, phi
    if abs(c1) != 1 or abs(c2) != 1 or n > _MAX_LINE_POWER:
        return None
    y, z = _scale_down(y, n), _scale_down(z, n)
    # p = g c1 x^m (Y^n + (c2/c1) Z^n); Y^n + Z^n = (Y^2n - Z^2n)/(Y^n - Z^n)
    ds = ([d for d in range(1, n + 1) if n % d == 0] if c2 == -c1 else
          [d for d in range(1, 2 * n + 1) if (2 * n) % d == 0 and n % d])
    content, fs = g * c1, []
    for d in ds:
        phi, sign = _line_factor(d, y, z)
        content *= sign
        fs.append(phi)
    return content, m, *fs


def _scale_down(e: int, n: int) -> int:
    """The packed monomial whose exponents are those of e divided by n."""
    out, sh, x = 0, _W, e >> _W
    while x:
        out |= (x & _M) // n << sh
        x >>= _W
        sh += _W
    return _with_degree(out)


def _factored(p: MPoly):
    """p's factorization: the cached one, or that of a polynomial of at
    most two terms, which ``_split`` finds and caches."""
    if p._fac is None and 0 < len(p.terms) <= 2:
        p._fac = _split(p)
    return p._fac


def _expand(fac: tuple) -> MPoly:
    """c x^m times the product of the factors of ``fac``, carrying it."""
    out = _wrap({fac[1]: fac[0]})
    for phi in fac[2:]:
        out = out * phi
    out._fac = fac
    return out


# --------------------------------------------------------------------------
# fraction field
# --------------------------------------------------------------------------

def _cofactors(f: MPoly, g: MPoly):
    """``(h, f/h, g/h)`` for a primitive h = gcd(f, g), by one of three routes.

    If both sides carry a factorization, h is the intersection of the
    multisets of factors and the smaller monomial.  If one side does, the
    other is trial-divided by each of its factors up to its multiplicity;
    h is then a factor tuple, which only ``_sum`` expands.  Only if neither
    does is it ``mpoly_gcd``, whose h is an ``MPoly``.  For a zero side h
    is 1, which the canonical 0/1 makes harmless.
    """
    if f.is_zero() or g.is_zero():
        return MPoly.const(1), f, g
    ff, gf = _factored(f), _factored(g)
    if ff is None and gf is None:
        return mpoly_gcd(f, g, cofactors=True)
    if ff is None:
        h, cg, cf = _trial(g, f)
        return h, cf, cg
    if gf is None:
        return _trial(f, g)
    left = {}
    for p in ff[2:]:
        left[p] = left.get(p, 0) + 1
    h = [1, _min_exp(ff[1], gf[1])]
    for p in gf[2:]:
        if left.get(p):
            left[p] -= 1
            h.append(p)
    h = tuple(h)
    return h, _remove(f, h), _remove(g, h)


def _trial(f: MPoly, g: MPoly):
    """``(h, f/h, g/h)`` for f factored and g not: g is divided by each
    factor of f as often as it divides, up to its multiplicity in f.  A
    failed division proves the factor absent."""
    m = _min_exp(f._fac[1], g.monomial_content())
    g = g.shift_down(m)
    h, failed = [1, m], set()
    for p in f._fac[2:]:
        if p not in failed:
            r = g.divide_exact(p)
            if r is None:
                failed.add(p)
            else:
                g = r
                h.append(p)
    h = tuple(h)
    return h, _remove(f, h), g


def _remove(p: MPoly, h: tuple) -> MPoly:
    """p / h for the factorization h of a divisor of p."""
    if len(h) == 2:  # a monomial: p keeps its factors
        if h[1]:
            p, fac = p.shift_down(h[1]), p._fac
            p._fac = (fac[0], fac[1] - h[1]) + fac[2:]
        return p
    rest = list(p._fac[2:])
    for q in h[2:]:
        rest.remove(q)
    return _expand((p._fac[0], p._fac[1] - h[1], *rest))


def _canonical(num: MPoly, den: MPoly):
    """The one representative of the coprime pair num/den.

    Zero is 0/1.  Every other pair is divided by the gcd of the integer
    contents of num and den, with the sign that makes the leading
    denominator coefficient positive; a constant denominator stays in
    ``den`` as a positive int.
    """
    if num.is_zero():
        return num, MPoly.const(1)
    g = math.gcd(_int_content(num), _int_content(den))
    if den.lead_coeff() < 0:
        g = -g
    return _rescale(num, 0, 1, g), _rescale(den, 0, 1, g)


def _product(a: MPoly, b: MPoly, c: MPoly, d: MPoly) -> "FieldElement":
    """(a/b)(c/d) of coprime pairs: only gcd(a, d) and gcd(c, b) can cancel."""
    _, a, d = _cofactors(a, d)
    _, c, b = _cofactors(c, b)
    return FieldElement(*_canonical(a * c, b * d), reduce=False)


def _sum(a: MPoly, b: MPoly, c: MPoly, d: MPoly) -> "FieldElement":
    """a/b + c/d of coprime pairs: only gcd(a(d/g) + c(b/g), g) can cancel,
    g = gcd(b, d)."""
    g, b, d = _cofactors(b, d)
    g = _expand(g) if isinstance(g, tuple) else g
    # a prime of b/g divides c*(b/g) but neither a nor d/g, so it cannot
    # divide the numerator; likewise for d/g: only gcd(num, g) is left
    _, num, g = _cofactors(a * d + c * b, g)
    return FieldElement(*_canonical(num, b * d * g), reduce=False)


def _power(a: MPoly, b: MPoly, n: int) -> "FieldElement":
    """(a/b)**n, n >= 0, of a coprime pair: powers of coprime polynomials
    are coprime."""
    return FieldElement(*_canonical(a ** n, b ** n), reduce=False)


def _rational(x):
    """x as (n, d) in lowest terms, d > 0, if x is a rational constant."""
    if isinstance(x, FieldElement):
        n, d = x.num.terms, x.den.terms
        if len(d) == 1 and 0 in d and (not n or len(n) == 1 and 0 in n):
            return n.get(0, 0), d[0]
    elif isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    return None


def _scaled(x: "FieldElement", n: int, d: int) -> "FieldElement":
    """x n/d, n/d as from ``_rational``, canonical as built: only the
    integers gcd(n, cont den) and gcd(d, cont num) cancel."""
    a, b = x.num, x.den
    if n == d or not a.terms:
        return x
    if not n:
        return FieldElement(0, reduce=False)
    g1, g2 = math.gcd(n, _int_content(b)), math.gcd(d, _int_content(a))
    return FieldElement(_rescale(a, 0, n // g1, g2),
                        _rescale(b, 0, d // g2, g1), reduce=False)


def _shifted(x: "FieldElement", n: int, d: int, const_first: bool = False):
    """x + n/d, n/d nonzero as from ``_rational``: only integer contents
    cancel.  The left operand's terms come first, as in ``_sum``."""
    da, nb = _rescale(x.num, 0, d, 1), _rescale(x.den, 0, n, 1)
    num = nb + da if const_first else da + nb
    return FieldElement(*_canonical(num, _rescale(x.den, 0, d, 1)), reduce=False)


def _reciprocal(x: "FieldElement") -> "FieldElement":
    """1/x: the pair swapped and made canonical; a PoleError for zero."""
    return FieldElement(*_canonical(x.den, x.num), reduce=False)


# Entries of the field memo, set against peak RSS.  The four exact-algebra
# suites in one process (cauchy, skew-sum --max-size 2, eval-sym, an-cauchy;
# 2-vCPU Xeon VM, Python 3.11.7) make 14,295 memo lookups on 2,719 distinct
# keys (3,219 misses at 256); an operation with a rational constant makes
# none, nor do x**0, x**1 and x**-1.  Median CPU seconds and peak RSS of
# seven cold runs by size, measured while those powers made 6,285 more
# lookups on 29 more keys: no memo 0.52 s, 20.7 MB; 128 0.35 s, 20.6 MB; 256
# 0.33 s, 20.8 MB (3,270 misses); 512 0.32 s, 21.4 MB; 1,024 0.32 s, 22.1
# MB; no limit 0.31 s, 24.4 MB.  256 is kept: a larger memo saves at most 6%
# of the time for 3 to 17% more peak RSS, on a workload whose peak_rss_mb
# bound is 5%.
_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _memo(op, *operands) -> "FieldElement":
    """``op(*operands)`` for ``op`` in (_product, _sum, _power), remembered in
    one LRU shared by all three; a hit compares the operands with
    ``MPoly.__eq__``."""
    return op(*operands)


class FieldElement:
    """Element of the fraction field of MPoly; immutable after construction."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1, reduce: bool = True):
        # MPoly operands, the common case, are tested first: Fraction is an
        # ABC, whose isinstance check costs several times a concrete one's.
        # A Fraction enters the field as its numerator over its denominator.
        if not isinstance(num, MPoly):
            if isinstance(num, Fraction):
                num, den = num.numerator, den * num.denominator
            num = MPoly.const(num)
        if not isinstance(den, MPoly):
            if isinstance(den, Fraction):
                num, den = num * den.denominator, den.numerator
            den = MPoly.const(den)
        if den.is_zero():
            raise PoleError("division by zero field element")
        if reduce:
            _, num, den = _cofactors(num, den)
            num, den = _canonical(num, den)
        self.num = num
        self.den = den

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        return Fraction(self.num.const_value(), self.den.const_value())

    def laurent(self) -> tuple[int, ...] | None:
        """The exponent vector of a Laurent monomial with coefficient 1,
        entry i for the i-th registered indeterminate; None for any other
        element, 0 among them."""
        if len(self.num.terms) != 1 or len(self.den.terms) != 1:
            return None
        (n, c), = self.num.terms.items()
        (d, e), = self.den.terms.items()
        if c != 1 or e != 1:
            return None
        return tuple(((n >> _W * (i + 1)) & _M) - ((d >> _W * (i + 1)) & _M)
                     for i in range(len(_REGISTRY)))

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other):
        r = _rational(other)
        if r is None:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
            r = _rational(self)
            if r is None:
                return _memo(_sum, self.num, self.den, other.num, other.den)
            return _shifted(other, *r, const_first=True) if r[0] else other
        return _shifted(self, *r) if r[0] else self

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        r = _rational(other)
        if r is None:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
            r = _rational(self)
            if r is None:
                return _memo(_product, self.num, self.den, other.num, other.den)
            return _scaled(other, *r)
        return _scaled(self, *r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise PoleError("division by zero field element")
        if _rational(other) is None and _rational(self) is None:
            return _memo(_product, self.num, self.den, other.den, other.num)
        return self * _reciprocal(other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        # exponents whose result needs no polynomial power skip the memo key
        if n == 1:
            return self
        if n == 0:
            return FieldElement(1, reduce=False)
        if n == -1:
            return _reciprocal(self)
        if n < 0:
            return _reciprocal(self) ** -n
        return _memo(_power, self.num, self.den, n)

    def __eq__(self, other):
        other = _coerce(other)  # not fe: a string must register nothing
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # in keeping with __eq__: equal elements share one canonical
        # (num, den), and a constant, which equals its int or Fraction,
        # hashes like it
        if self.num.is_const() and self.den.is_const():
            return hash(self.const_value())
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    # -- evaluation --------------------------------------------------------------
    def eval(self, bindings: Mapping[str, complex]):
        """A Fraction if every bound value is an int or a Fraction, else a
        complex number."""
        nv = self.num.eval(bindings)
        dv = self.den.eval(bindings)
        if isinstance(dv, (int, Fraction)):
            if dv == 0:
                raise PoleError("denominator vanishes at rational point")
            return Fraction(nv, dv)
        if abs(dv) <= POLE_TOLERANCE:
            raise PoleError(f"denominator within pole tolerance: |den|={abs(dv):.3e}")
        return nv / dv

    def subs(self, bindings: Mapping[str, "FieldElement"]) -> "FieldElement":
        nv = self.num.subs(bindings)
        dv = self.den.subs(bindings)
        if dv.is_zero():
            raise PoleError("denominator vanishes identically after substitution")
        return nv / dv

    # -- formatting -----------------------------------------------------------------
    def __str__(self):
        if self.den == 1:
            return str(self.num)
        ns = str(self.num)
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        ds = str(self.den)
        if len(self.den.terms) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"FieldElement({self})"


def _coerce(x):
    if isinstance(x, FieldElement):
        return x
    if isinstance(x, (int, Fraction, MPoly)):
        return FieldElement(x, reduce=False)
    return NotImplemented


def fe(x) -> FieldElement:
    """Coerce ints, Fractions, MPolys and variable names to FieldElement."""
    if isinstance(x, str):
        return var(x)
    out = _coerce(x)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} to FieldElement")
    return out


def var(name: str) -> FieldElement:
    return FieldElement(MPoly.variable(name), reduce=False)


def dot(xs: Iterable, ys: Iterable) -> FieldElement:
    """sum_i x_i y_i over one common denominator, reduced once.

    Where every denominator carries a factorization, the denominator L is
    the lcm of the products x_i.den y_i.den (the fieldwise maximum of the
    monomials, the lcm of the contents and each line factor to its largest
    multiplicity), the numerator is sum_i x_i.num y_i.num L / (x_i.den
    y_i.den), and the one gcd with L is found by trial division, as
    ``_cofactors`` does.  The pair is made canonical, so the value is the
    one the chain of products and sums gives.  Otherwise it is that chain.
    """
    xs, ys = [fe(x) for x in xs], [fe(y) for y in ys]
    facs = []
    for x, y in zip(xs, ys):
        fx, fy = _factored(x.den), _factored(y.den)
        if fx is None or fy is None:
            total = FieldElement(0, reduce=False)
            for u, v in zip(xs, ys):
                total = total + u * v
            return total
        counts: dict[MPoly, int] = {}
        for phi in fx[2:] + fy[2:]:
            counts[phi] = counts.get(phi, 0) + 1
        facs.append((fx[0] * fy[0], fx[1] + fy[1], counts))
    content, mono, top = 1, 0, {}
    for c, m, counts in facs:
        content = math.lcm(content, c)
        mono = mono + m - _min_exp(mono, m)
        for phi, k in counts.items():
            top[phi] = max(top.get(phi, 0), k)
    num = MPoly()
    for (c, m, counts), x, y in zip(facs, xs, ys):
        rest = [phi for phi, k in top.items()
                for _ in range(k - counts.get(phi, 0))]
        num = num + x.num * y.num * _expand((content // c, mono - m, *rest))
    if num.is_zero():
        return FieldElement(0, reduce=False)
    den = _expand((content, mono,
                   *[phi for phi, k in top.items() for _ in range(k)]))
    _, den, num = _trial(den, num)
    return FieldElement(*_canonical(num, den), reduce=False)


# --------------------------------------------------------------------------
# products of binomials
# --------------------------------------------------------------------------

def _parts(x: tuple[int, ...]) -> tuple[int, int]:
    """The packed monomials y and z of disjoint support with y/z the
    Laurent monomial of exponent vector x."""
    y = z = 0
    for i, v in enumerate(x):
        if v > 0:
            y += v * _unit(i)
        elif v < 0:
            z -= v * _unit(i)
    return y, z


# One round of the four exact-algebra suites asks for 2,007 binomials, of
# 81 distinct ones; bounded like the memo.
@functools.lru_cache(maxsize=1024)
def _binomial(x: tuple[int, ...]):
    """1 - X for the Laurent monomial X with exponent vector x, as
    ``(fac, z)``: 1 - X = (z - y)/z for X = y/z, y and z packed monomials
    of disjoint support, and ``fac`` is the factorization of z - y, or
    z - y itself where ``_split`` proves none.  None for X = 1."""
    y, z = _parts(x)
    if y == z:
        return None
    _check_degree(max(y & _M, z & _M))
    p = _wrap({z: 1, y: -1})
    fac = _split(p)
    return (p if fac is None else fac), z


def binomial_product(factors: Iterable[tuple[tuple[int, ...], int]],
                     shift: tuple[int, ...] = ()) -> FieldElement:
    """X^shift times the product of (1 - x)^e over ``factors``, pairs of a
    Laurent monomial's exponent vector x (as ``FieldElement.laurent`` gives
    it) and an integer e.

    No binomial is built by field arithmetic: the line factors that
    ``_split`` gives each one go into one signed multiset, equal factors
    cancel between numerator and denominator, the monomials cancel to
    their fieldwise minimum, and each side is expanded once.  A binomial
    that does not split is multiplied into its side, and that pair is
    reduced by ``_cofactors``.  A factor 1 - 1 makes the product 0, or a
    PoleError if it has a negative exponent.
    """
    count: dict[MPoly, int] = {}
    unsplit: list[tuple[MPoly, int]] = []
    cn = cd = 1
    mn = md = 0
    zero = False
    for x, e in factors:
        if not e:
            continue
        b = _binomial(x)
        if b is None:
            if e < 0:
                raise PoleError("a factor 1 - 1 in the denominator")
            zero = True
            continue
        fac, z = b
        if e > 0:
            md += e * z
        else:
            mn -= e * z
        if isinstance(fac, MPoly):
            unsplit.append((fac, e))
            continue
        # fac = (content, 0, *line factors): y and z share no field
        if e > 0:
            cn *= fac[0] ** e
        else:
            cd *= fac[0] ** -e
        for phi in fac[2:]:
            count[phi] = count.get(phi, 0) + e
    if zero:
        return FieldElement(0, reduce=False)
    y, z = _parts(shift)
    mn, md = mn + y, md + z
    m = _min_exp(mn, md)
    mn, md = mn - m, md - m
    _check_degree(max(mn & _M, md & _M))
    nf, df = [], []
    for phi, e in count.items():
        if e > 0:
            nf += [phi] * e
        elif e < 0:
            df += [phi] * -e
    num, den = _expand((cn, mn, *nf)), _expand((cd, md, *df))
    if not unsplit:
        return FieldElement(*_canonical(num, den), reduce=False)
    for p, e in unsplit:
        if e > 0:
            num = num * p ** e
        else:
            den = den * p ** -e
    return FieldElement(num, den)
