"""Exact scalar arithmetic: multivariate polynomials over Q and their fraction field.

Rationals are ``int`` or ``fractions.Fraction``; ints are kept where they
suffice, since their arithmetic is much cheaper.  An ``MPoly`` is a sparse
map from exponent vectors to rationals; exponent vectors are dense over a
global registry of indeterminate names but stored with trailing zeros
stripped, so registering a new indeterminate never invalidates existing
polynomials.
``FieldElement`` is a reduced num/den pair of ``MPoly``.

Reduction policy, in order:

1. the common monomial content and the rational content are removed;
2. an exact-division fast path (num/den or den/num) catches the structural
   cancellations that dominate in practice;
3. otherwise, once num and den together exceed ``GCD_TERM_THRESHOLD`` (2)
   terms, ``mpoly_gcd`` runs.  It first splits off the monomial contents,
   then replaces an operand by its content in any variable the other
   operand lacks, until both have the same variables; then it tries the
   heuristic gcd GCDHEU (Char, Geddes and Gonnet, 1989); only if that
   fails does it fall back to a primitive pseudo-remainder sequence
   (PRS).  Every non-constant gcd candidate is verified by exact
   division; a constant candidate divides everything over Q and is
   accepted without one.
4. the gcd hands back its cofactors num/h and den/h: the quotients of its
   own verification, rescaled for the contents GCDHEU split off, so num
   and den are not divided a second time.  An operand replaced by the
   one-sided-variable step gets its cofactor by exact division; for h = 1
   the cofactors are num and den themselves.
5. num and den are scaled jointly to coprime integer contents with a
   positive leading denominator coefficient, as plain ints.  No reduced
   element carries a ``Fraction`` with denominator 1.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Mapping

__all__ = [
    "PoleError",
    "MPoly",
    "FieldElement",
    "fe",
    "var",
    "registered_names",
    "mpoly_gcd",
    "substitute",
    "eval_complex",
    "POLE_TOLERANCE",
]

POLE_TOLERANCE = 1e-13

# Size (total stored terms) above which _reduce attempts a full gcd.
GCD_TERM_THRESHOLD = 2

_REGISTRY: list[str] = []
_INDEX: dict[str, int] = {}


class PoleError(ArithmeticError):
    """Raised when a denominator vanishes (exactly or within pole tolerance)."""


def _register(name: str) -> int:
    idx = _INDEX.get(name)
    if idx is None:
        idx = len(_REGISTRY)
        _REGISTRY.append(name)
        _INDEX[name] = idx
    return idx


def registered_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _trim(exp: tuple[int, ...]) -> tuple[int, ...]:
    n = len(exp)
    while n and exp[n - 1] == 0:
        n -= 1
    return exp[:n]


def _add_exp(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    return tuple(x + y for x, y in zip(a, b)) + a[len(b):]


def _sub_exp(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
    """Trimmed exponent a - b, or None if the monomial b does not divide a."""
    if len(b) > len(a):  # trimmed: b is nonzero past the end of a
        return None
    d = tuple(x - y for x, y in zip(a, b))
    if d and min(d) < 0:
        return None
    return _trim(d + a[len(b):])


def _min_exp(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Trimmed componentwise minimum: the exponent of the monomial gcd."""
    return _trim(tuple(min(x, y) for x, y in zip(a, b)))


def _exp_get(e: tuple[int, ...], i: int) -> int:
    return e[i] if i < len(e) else 0


def _heap_key(e: tuple[int, ...], width: int) -> tuple:
    """Min-heap key reversing the graded order ``(sum(e), e)`` of MPoly._lead_key.

    Padding to a common width keeps the lex comparison of the negated
    exponents equivalent to that of the trimmed (non-negative) ones.
    """
    return (-sum(e), tuple(-x for x in e) + (0,) * (width - len(e)))


def _norm_coeff(c):
    """Prefer plain ints over Fractions with denominator 1."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _coeff_div(a, b):
    """Exact rational division of coefficients (never float)."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r == 0:
            return q
        return Fraction(a, b)
    return _norm_coeff(Fraction(a) / Fraction(b))


class MPoly:
    """Sparse multivariate polynomial with rational (int or Fraction) coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        if terms:
            clean: dict[tuple[int, ...], Fraction] = {}
            for e, c in terms.items():
                if not c:
                    continue
                if e and e[-1] == 0:
                    e = _trim(e)
                if e in clean:
                    c = clean[e] + c
                    if c:
                        clean[e] = c
                    else:
                        del clean[e]
                else:
                    clean[e] = c
            self.terms = clean
        else:
            self.terms = {}

    # -- constructors -----------------------------------------------------
    @classmethod
    def const(cls, c) -> "MPoly":
        if not isinstance(c, int):
            c = Fraction(c)
            if c.denominator == 1:
                c = c.numerator
        return cls({(): c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "MPoly":
        i = _register(name)
        exp = tuple(0 for _ in range(i)) + (1,)
        return cls({exp: 1})

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and () in self.terms:
            return Fraction(self.terms[()])
        raise ValueError("not a constant polynomial")

    def variables(self) -> set[int]:
        out: set[int] = set()
        for e in self.terms:
            for i, p in enumerate(e):
                if p:
                    out.add(i)
        return out

    def degree_in(self, i: int) -> int:
        return max((_exp_get(e, i) for e in self.terms), default=0)

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
        return MPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return MPoly.const(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            c = other if isinstance(other, int) else Fraction(other)
            if not c:
                return MPoly()
            return MPoly({e: v * c for e, v in self.terms.items()})
        if len(self.terms) > len(other.terms):
            self, other = other, self
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _add_exp(e1, e2)
                v = out.get(e)
                if v is None:
                    out[e] = c1 * c2
                else:
                    v = v + c1 * c2
                    if v:
                        out[e] = v
                    else:
                        del out[e]
        return MPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == MPoly.const(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure ----------------------------------------------------------
    def monomial_content(self) -> tuple[int, ...]:
        """Componentwise min exponent over all terms (the monomial gcd)."""
        it = iter(self.terms)
        mins = list(next(it, ()))
        for e in it:
            # exponents are trimmed, so positions past len(e) are zero
            if len(e) < len(mins):
                del mins[len(e):]
            for i, x in enumerate(mins):
                if e[i] < x:
                    mins[i] = e[i]
            if not any(mins):
                return ()
        return _trim(tuple(mins))

    def shift_down(self, exp: tuple[int, ...]) -> "MPoly":
        """Divide by the monomial with exponent vector ``exp`` (must divide)."""
        if not any(exp):
            return self
        exp = _trim(exp)
        out = {}
        for e, c in self.terms.items():
            ne = _sub_exp(e, exp)
            if ne is None:
                raise ValueError("monomial does not divide")
            out[ne] = c
        return MPoly(out)

    def rational_content(self) -> Fraction:
        """Positive rational c with self/c having coprime integer coefficients."""
        if not self.terms:
            return Fraction(1)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        return Fraction(num_gcd, den_lcm)

    def _lead_key(self):
        return max(self.terms, key=lambda e: (sum(e), e))

    def lead_coeff(self) -> Fraction:
        return self.terms[self._lead_key()] if self.terms else Fraction(0)

    def divide_exact(self, other: "MPoly"):
        """Return self/other if the division is exact, else None.

        Long division in the graded order: each quotient term times ``other``
        is subtracted into one remainder dict, and a heap of the remainder's
        exponents (stale entries skipped on pop) yields its lead term.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.is_const():
            c = other.const_value()
            return MPoly({e: _coeff_div(v, c) for e, v in self.terms.items()})
        if self.is_zero():
            return MPoly()
        rem = dict(self.terms)
        width = max(len(e) for e in (*self.terms, *other.terms))
        heap = [(_heap_key(e, width), e) for e in rem]
        heapq.heapify(heap)
        lk = other._lead_key()
        lc = other.terms[lk]
        tail = [(e, c) for e, c in other.terms.items() if e != lk]
        quot: dict[tuple[int, ...], Fraction] = {}
        nsteps = 0
        limit = 16 * (len(self.terms) + 4) * (len(other.terms) + 4)
        while rem:
            rk = heapq.heappop(heap)[1]
            if rk not in rem:
                continue
            nsteps += 1
            if nsteps > limit:
                return None
            qe = _sub_exp(rk, lk)
            if qe is None:
                return None
            qc = _coeff_div(rem.pop(rk), lc)
            quot[qe] = qc
            for e, c in tail:
                k = _add_exp(qe, e)
                v = rem.get(k)
                if v is None:
                    rem[k] = -qc * c
                    heapq.heappush(heap, (_heap_key(k, width), k))
                else:
                    v = v - qc * c
                    if v:
                        rem[k] = v
                    else:
                        del rem[k]
        return MPoly(quot)

    # -- evaluation / substitution -------------------------------------------
    def eval(self, bindings: Mapping[str, complex]):
        """Numeric (or Fraction) evaluation; every present variable must be bound."""
        vals: dict[int, complex] = {}
        exact = True
        for name, v in bindings.items():
            if name in _INDEX:
                vals[_INDEX[name]] = v
                if not isinstance(v, (int, Fraction)):
                    exact = False
        total = Fraction(0) if exact else 0.0 + 0.0j
        for e, c in self.terms.items():
            term = c if exact else complex(c)
            for i, p in enumerate(e):
                if p:
                    if i not in vals:
                        raise KeyError(f"unbound indeterminate {_REGISTRY[i]!r}")
                    term = term * vals[i] ** p
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
            mono_exp = []
            term = FieldElement(MPoly.const(c), MPoly.const(1), reduce=False)
            for i, p in enumerate(e):
                if not p:
                    mono_exp.append(0)
                    continue
                if i in vals:
                    mono_exp.append(0)
                    term = term * vals[i] ** p
                else:
                    mono_exp.append(p)
            term = term * FieldElement(MPoly({_trim(tuple(mono_exp)): 1}),
                                       MPoly.const(1), reduce=False)
            total = total + term
        return total

    # -- formatting -----------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            factors = []
            for i, p in enumerate(e):
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
    out: dict[int, MPoly] = {}
    for e, c in f.terms.items():
        d = _exp_get(e, v)
        rest = list(e)
        if v < len(rest):
            rest[v] = 0
        key = _trim(tuple(rest))
        coeff = out.setdefault(d, MPoly())
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
    out: dict[tuple[int, ...], Fraction] = {}
    for d, p in coeffs.items():
        for e, c in p.terms.items():
            ne = list(e) + [0] * (max(0, v + 1 - len(e)))
            ne[v] += d
            out[_trim(tuple(ne))] = c
    return MPoly(out)


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
        if r and all(isinstance(c, int)
                     for p in r.values() for c in p.terms.values()):
            ic = 0
            for p in r.values():
                ic = math.gcd(ic, _int_content(p))
                if ic == 1:
                    break
            if ic > 1:
                r = {d: MPoly({e: c // ic for e, c in p.terms.items()})
                     for d, p in r.items()}
    return r


def _content_gcd(coeffs: Iterable[MPoly]) -> MPoly:
    g = MPoly()
    for p in coeffs:
        g = mpoly_gcd(g, p)
        if g.is_const() and not g.is_zero():
            break
    return g


def _clear_denoms(f: MPoly) -> tuple[MPoly, int]:
    """(lcm * f, lcm), lcm the least common denominator of f's coefficients."""
    lcm = 1
    for c in f.terms.values():
        d = c.denominator
        if d != 1:
            lcm = lcm * d // math.gcd(lcm, d)
    if lcm == 1 and all(isinstance(c, int) for c in f.terms.values()):
        return f, 1
    return MPoly({e: int(c * lcm) for e, c in f.terms.items()}), lcm


def _rescale(f: MPoly, shift: tuple[int, ...], num, den) -> MPoly:
    """f * x^shift * num / den, with coefficients kept as ints where exact."""
    if not shift and num == den:
        return f
    return MPoly({_add_exp(e, shift): _coeff_div(c * num, den)
                  for e, c in f.terms.items()})


def _int_content(f: MPoly) -> int:
    g = 0
    for c in f.terms.values():
        g = math.gcd(g, abs(c.numerator))
        if g == 1:
            break
    return g or 1


def _eval_var_int(f: MPoly, v: int, xi: int) -> MPoly:
    out: dict[tuple[int, ...], Fraction] = {}
    for e, c in f.terms.items():
        d = _exp_get(e, v)
        rest = list(e)
        if v < len(rest):
            rest[v] = 0
        key = _trim(tuple(rest))
        val = c * xi ** d
        prev = out.get(key)
        if prev is None:
            out[key] = val
        else:
            val = prev + val
            if val:
                out[key] = val
            else:
                del out[key]
    return MPoly(out)


def _heu_digits(g: MPoly, v: int, xi: int, max_digits: int):
    """xi-adic balanced-digit reconstruction of a polynomial in variable v."""
    digits = []
    cur = g
    half = xi // 2
    while not cur.is_zero():
        if len(digits) > max_digits:
            return None
        dig: dict[tuple[int, ...], int] = {}
        nxt: dict[tuple[int, ...], int] = {}
        for e, c in cur.terms.items():
            n = c.numerator
            r = n % xi
            if r > half:
                r -= xi
            if r:
                dig[e] = r
            q = (n - r) // xi
            if q:
                nxt[e] = q
        digits.append(MPoly(dig))
        cur = MPoly(nxt)
    out = MPoly()
    for power, dig in enumerate(digits):
        if dig.is_zero():
            continue
        mono = [0] * (v + 1)
        mono[v] = power
        out = out + dig * MPoly({_trim(tuple(mono)): 1})
    return out


def _gcdheu(f: MPoly, g: MPoly, depth: int = 0, cofactors: bool = False):
    """Heuristic gcd on integer-coefficient polys: ``(h, f/h, g/h)``, or None.

    Contents are split off exactly (gcd = gcd(contents) * gcd(primitive
    parts) over Z[x..]), which keeps systematic factors out of the integer
    evaluation images.  A non-constant candidate is verified by exact
    division of both primitive parts.  With ``cofactors`` the quotients of
    that verification, rescaled for the split-off contents, are returned as
    the cofactors; otherwise (and for a constant h) they are None.  A
    constant candidate divides everything over Q, so it needs no division.
    """
    if depth > 12:
        return None
    # split off monomial and integer content of each input
    mf, mg = f.monomial_content(), g.monomial_content()
    common = _min_exp(mf, mg)
    if any(mf):
        f = f.shift_down(mf)
    if any(mg):
        g = g.shift_down(mg)
    c1, c2 = _int_content(f), _int_content(g)
    if c1 > 1:
        f = MPoly({e: c // c1 for e, c in f.terms.items()})
    if c2 > 1:
        g = MPoly({e: c // c2 for e, c in g.terms.items()})
    gc = math.gcd(c1, c2)
    base = MPoly({common: gc})
    variables = sorted(f.variables() | g.variables())
    if not variables or f.is_const() or g.is_const():
        return base, None, None
    v = min(variables, key=lambda i: max(f.degree_in(i), g.degree_in(i)))
    max_digits = max(f.degree_in(v), g.degree_in(v)) + 1
    bound = min(max((abs(c.numerator) for c in f.terms.values()), default=1),
                max((abs(c.numerator) for c in g.terms.values()), default=1))
    xi = 2 * bound + 2
    for _ in range(8):
        gam = _gcdheu(_eval_var_int(f, v, xi), _eval_var_int(g, v, xi), depth + 1)
        if gam is not None:
            cand = _heu_digits(gam[0], v, xi, max_digits)
            if cand is not None and not cand.is_zero():
                if cand.is_const():
                    return base * cand, None, None
                qf = f.divide_exact(cand)
                qg = g.divide_exact(cand) if qf is not None else None
                if qg is not None:
                    if not cofactors:
                        return base * cand, None, None
                    return (base * cand,
                            _rescale(qf, _sub_exp(mf, common), c1 // gc, 1),
                            _rescale(qg, _sub_exp(mg, common), c2 // gc, 1))
        xi = xi * 73794 // 27011 + 1
    return None


def mpoly_gcd(f: MPoly, g: MPoly, cofactors: bool = False):
    """Primitive gcd h over Z (positive leading coefficient, content 1).

    With ``cofactors`` the result is ``(h, f/h, g/h)``, exact for any
    rational input.  A cofactor is GCDHEU's (or the PRS check's)
    verification quotient where the operand reached it unchanged; where the
    one-sided-variable step replaced the operand it is an exact division.
    For h = 1 the cofactors are f and g themselves.
    """
    f0, g0 = f, g
    qf = qg = None
    lf = lg = 1
    if f.is_zero() or g.is_zero():
        raw = g if f.is_zero() else f
    else:
        # integer coefficients keep Fraction normalisation trivial throughout
        f, lf = _clear_denoms(f)
        g, lg = _clear_denoms(g)
        # the gcd's monomial part is the smaller of the monomial contents
        mf, mg = f.monomial_content(), g.monomial_content()
        common = _min_exp(mf, mg)
        f, g = f.shift_down(mf), g.shift_down(mg)
        f1, g1 = f, g
        # A variable present in one operand only cannot divide the gcd, so
        # that operand may be replaced by its content in the variable.  This
        # keeps GCDHEU from evaluating a variable the other side lacks, which
        # puts a spurious common factor into every integer image.  It runs
        # after the monomial split, so a variable held by one operand only
        # as a monomial factor counts as lacking there.
        vf, vg = f.variables(), g.variables()
        while vf != vg and vf and vg:
            for v in vf - vg:
                f = _content_gcd(_to_univar(f, v).values())
            for v in vg - vf:
                g = _content_gcd(_to_univar(g, v).values())
            vf, vg = f.variables(), g.variables()
        heu = _gcdheu(f, g, cofactors=cofactors)
        if heu is not None:
            raw, qf, qg = heu
        else:
            raw = _prs_gcd(f, g)
            qf = f.divide_exact(raw)
            qg = g.divide_exact(raw) if qf is not None else None
            if qg is None:
                raise ArithmeticError("gcd verification failed (PRS fallback)")
        # a quotient of a replaced operand is no cofactor of the input
        qf = (_rescale(qf, _sub_exp(mf, common), 1, 1)
              if qf is not None and f is f1 else None)
        qg = (_rescale(qg, _sub_exp(mg, common), 1, 1)
              if qg is not None and g is g1 else None)
        raw = _rescale(raw, common, 1, 1)
    s = raw.rational_content()
    if raw.lead_coeff() < 0:
        s = -s
    h = MPoly({e: _coeff_div(v, s) for e, v in raw.terms.items()})
    if not cofactors:
        return h
    if h.is_const():
        return h, f0, g0
    # f0 = raw * qf / lf = h * qf * s / lf
    return (h,
            _rescale(qf, (), s, lf) if qf is not None else f0.divide_exact(h),
            _rescale(qg, (), s, lg) if qg is not None else g0.divide_exact(h))


def _prs_gcd(f: MPoly, g: MPoly) -> MPoly:
    """Primitive pseudo-remainder sequence gcd (fallback path)."""
    mf, mg = f.monomial_content(), g.monomial_content()
    common = _min_exp(mf, mg)
    if any(mf):
        f = f.shift_down(mf)
    if any(mg):
        g = g.shift_down(mg)
    base = MPoly({common: 1})
    if f.is_const() or g.is_const():
        return base
    shared = f.variables() & g.variables()
    if not shared:
        return base
    v = min(shared, key=lambda i: min(f.degree_in(i), g.degree_in(i)))
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
# fraction field
# --------------------------------------------------------------------------

class FieldElement:
    """Element of the fraction field of MPoly; immutable after construction."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce: bool = True):
        if not isinstance(num, MPoly):
            num = MPoly.const(num)
        if den is None:
            den = MPoly.const(1)
        elif not isinstance(den, MPoly):
            den = MPoly.const(den)
        if den.is_zero():
            raise PoleError("division by zero field element")
        self.num = num
        self.den = den
        if reduce:
            self._reduce()

    # -- normalization -----------------------------------------------------
    def _reduce(self):
        num, den = self.num, self.den
        if num.is_zero():
            self.den = MPoly.const(1)
            return
        # common monomial content
        mn, md = num.monomial_content(), den.monomial_content()
        common = _min_exp(mn, md)
        if any(common):
            num = num.shift_down(common)
            den = den.shift_down(common)
        if den.is_const():
            c = den.const_value()
            self.num = MPoly({e: _coeff_div(v, c) for e, v in num.terms.items()})
            self.den = MPoly.const(1)
            return
        q = num.divide_exact(den)
        if q is not None:
            self.num, self.den = q, MPoly.const(1)
            return
        q = den.divide_exact(num)
        if q is not None:
            self.num, self.den = self._int_canonical(MPoly.const(1), q)
            return
        if len(num.terms) + len(den.terms) > GCD_TERM_THRESHOLD:
            _, num, den = mpoly_gcd(num, den, cofactors=True)
        self.num, self.den = self._int_canonical(num, den)

    @staticmethod
    def _int_canonical(num: MPoly, den: MPoly):
        """Scale num/den jointly to coprime integer contents, den lead > 0.

        Every coefficient comes out a plain int: a ``Fraction`` with
        denominator 1 would send later products through ``Fraction``.
        """
        lcm = 1
        has_fraction = False
        for p in (num, den):
            for c in p.terms.values():
                if isinstance(c, Fraction):
                    has_fraction = True
                    d = c.denominator
                    if d != 1:
                        lcm = lcm * d // math.gcd(lcm, d)
        if has_fraction:
            num = MPoly({e: int(c * lcm) for e, c in num.terms.items()})
            den = MPoly({e: int(c * lcm) for e, c in den.terms.items()})
        g = math.gcd(_int_content(num), _int_content(den))
        if den.lead_coeff() < 0:
            g = -g
        if g != 1:
            num = MPoly({e: c // g for e, c in num.terms.items()})
            den = MPoly({e: c // g for e, c in den.terms.items()})
        return num, den

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den == other.den:
            return FieldElement(self.num + other.num, self.den)
        return FieldElement(self.num * other.den + other.num * self.den,
                            self.den * other.den)

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise PoleError("division by zero field element")
        return FieldElement(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return (FieldElement(1) / self) ** (-n)
        return FieldElement(self.num ** n, self.den ** n)

    def __eq__(self, other):
        try:
            other = fe(other)
        except (TypeError, ValueError):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    __hash__ = None  # lazily-reduced representation is not canonical

    def __bool__(self):
        return not self.is_zero()

    # -- evaluation --------------------------------------------------------------
    def eval(self, bindings: Mapping[str, complex], pole_tol: float = POLE_TOLERANCE):
        nv = self.num.eval(bindings)
        dv = self.den.eval(bindings)
        if isinstance(nv, Fraction) and isinstance(dv, Fraction):
            if dv == 0:
                raise PoleError("denominator vanishes at rational point")
            return nv / dv
        if abs(dv) <= pole_tol:
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
        if self.den.is_const() and self.den.const_value() == 1:
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
    if isinstance(x, (int, Fraction)):
        return FieldElement(MPoly.const(x), reduce=False)
    if isinstance(x, MPoly):
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


def substitute(f: FieldElement, bindings: Mapping[str, FieldElement]) -> FieldElement:
    return fe(f).subs({k: fe(v) for k, v in bindings.items()})


def eval_complex(f: FieldElement, bindings: Mapping[str, complex],
                 pole_tol: float = POLE_TOLERANCE) -> complex:
    out = fe(f).eval(bindings, pole_tol=pole_tol)
    if isinstance(out, Fraction):
        return complex(out)
    return out
