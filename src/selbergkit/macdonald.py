"""Macdonald polynomials P/Q and skews over Q(q,t), Jack polynomials over
Q(gamma), specialisation formulas, evaluation symmetry, and the numeric
plethysm.

P_lambda, the skews P_{lambda/mu} and the Jack polynomials are built
basis-free (an m-basis coefficient map) by the branching rule over
horizontal strips (Macdonald, *Symmetric Functions and Hall Polynomials*,
2nd ed., ch. VI §7): P_{lambda/mu} = sum_T psi_T x^T (7.13') is the
recursion for P_lambda started at mu instead of the empty partition, and
one cached coefficient function `_coeff_at` serves both, so a caller can
read only the coefficients it compares.  The q,t cells give
P_lambda(q,t), the gamma cells the Jack P^(1/gamma) over Q(gamma), built
independently and not as a limit.  The tests compare both with the
Gram-Schmidt solve of the orthogonality system, and the skews with a peel
of P_lambda[X + Y].  `plethysm_eval`
is the one numeric plethysm: every Jack or Macdonald evaluation at numbers
or at arrays of points goes through it, the Jack ones through `jack_eval`.

Values that depend only on partitions and an exact alphabet are cached on
those keys: the skew tables, the plethysms P_{lam/mu}[A] (a Q-type one is
the P-type value times b_lam/b_mu), and `principal_spec_a`.  A plethysm
goes through the p-basis only where no shorter route applies: at letters
the m-expansion is evaluated, and P_lam at (1 - b)/(1 - t) for a Laurent
monomial b or b = 0, alone or after letters, is a principal
specialisation or the branching sum over it (ch. VI §§6-7).  The q,t
products of hook binomials (b_lambda, the branching coefficients psi,
`principal_spec_a`) are each one cancelled `field.binomial_product`,
made by `_qpoch_product`, which `identities` also reads for the
f-function; it takes Laurent monomials only, so no product is multiplied
out symbol by symbol.  The numeric principal specialisation is
`closedform`'s, on `coeffs`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .coeffs import poch, qpoch
from .errors import PoleError
from .field import FieldElement, binomial_product, dot, fe, var
from .partitions import Partition, partitions_of, subpartitions
from .symfunc import (
    Alphabet, Letters, Ratio, Sum, SymFunc, at_letters, plethysm,
)

__all__ = [
    "macdonald_P", "macdonald_Q", "skew_P", "skew_Q", "jack_P",
    "b_lambda", "spectral_vector",
    "principal_spec_a", "principal_spec_n", "jack_binomial_spec",
    "single_row_xminusy", "evaluation_symmetry_check",
    "generalized_evaluation_symmetry_check", "jack_eval", "plethysm_eval",
]


# ---------------------------------------------------------------------------
# exact q-Pochhammer products
# ---------------------------------------------------------------------------

def _qpoch_product(symbols, shift, a=0):
    """q^j t^k times the product of (x;q)_n^s over the q-Pochhammer
    symbols (x, n, s), at the indeterminates q and t, as one
    field.binomial_product, where shift = (j, k) and each argument x is
    a^i q^j' t^k' given as its exponent triple (i, j', k'); a negative n
    is read as 1/(x q^n;q)_{-n}, by `_binomials`.

    a must be a Laurent monomial with coefficient 1, or 0; any other
    value, a number among them, is a ValueError that names it.  At a = 0 a
    symbol whose argument holds a positive power of a is 1, and a negative
    power is a PoleError.
    """
    q, t = var("q"), var("t")
    va = _a_exponents(a)  # after q and t exist: all three span the registry
    vq, vt = q.laurent(), t.laurent()
    if va is None:
        if any(x[0] < 0 for x, _, _ in symbols):
            raise PoleError("a negative power of a at a = 0")
        symbols = [sym for sym in symbols if not sym[0][0]]
        va = (0,) * len(vq)
    basis = (va, vq, vt)
    factors = []
    for sym in symbols:
        factors += _binomials(sym, basis)
    j, k = shift
    return binomial_product(factors, tuple(
        [j * v + k * w for v, w in zip(vq, vt)]))


def _binomials(sym, basis):
    """The factors of binomial_product that make up the symbol
    sym = ((i, j, k), n, s), for basis = (a, q, t) as exponent vectors:
    (x;q)_n is the product of 1 - x q^u over 0 <= u < n, or for n < 0 the
    inverse of that over n <= u < 0."""
    (i, j, k), n, s = sym
    va, vq, vt = basis
    us, s = (range(j, j + n), s) if n >= 0 else (range(j + n, j), -s)
    ik = [i * u + k * w for u, w in zip(va, vt)]
    return [(tuple([c + u * v for c, v in zip(ik, vq)]), s) for u in us]


def _a_exponents(a):
    """The exponent vector of a, a Laurent monomial with coefficient 1, or
    None for a = 0; a ValueError that names a for any other value."""
    try:
        y = fe(a)
    except TypeError:  # a float or a complex, which the field does not take
        y = None
    if y is not None:
        if y.is_zero():
            return None
        v = y.laurent()
        if v is not None:
            return v
    raise ValueError(f"a = {a!r} is not a Laurent monomial with "
                     "coefficient 1 or 0")


# ---------------------------------------------------------------------------
# construction by the branching rule (horizontal strips)
# ---------------------------------------------------------------------------

def _horizontal_strip_preds(lam: Partition, mu: Partition):
    """nu with mu subseteq nu subseteq lam and lam/nu a horizontal strip:
    each nu_i runs over [max(lam_{i+1}, mu_i), lam_i] on its own, since
    nu_i >= lam_{i+1} >= nu_{i+1} makes every choice a partition."""
    if len(mu) > len(lam):
        return
    ranges = [range(lam.part(i), max(lam.part(i + 1), mu.part(i)) - 1, -1)
              for i in range(1, len(lam) + 1)]
    for parts in product(*ranges):
        yield Partition(parts)


def _b_cell_gamma(lam: Partition, i: int, j: int) -> FieldElement:
    g = var("gamma")
    a, l = lam.arm(i, j), lam.leg(i, j)
    return (a + (l + 1) * g) / ((a + 1) + l * g)


@lru_cache(maxsize=None)
def _psi_cached(lam: Partition, mu: Partition, kind: str) -> FieldElement:
    """Branching coefficient: prod over cells of mu in strip rows but not
    strip columns of b_mu(s)/b_lam(s)."""
    strip_rows = {i for i in range(1, len(lam) + 1) if lam.part(i) > mu.part(i)}
    strip_cols = set()
    for i in range(1, len(lam) + 1):
        for j in range(mu.part(i) + 1, lam.part(i) + 1):
            strip_cols.add(j)
    cells = [(i, j) for (i, j) in mu.cells()
             if i in strip_rows and j not in strip_cols]
    if kind == "qt":
        return _qpoch_product(_b_symbols(mu, cells, 1)
                              + _b_symbols(lam, cells, -1), (0, 0))
    out = fe(1)
    for (i, j) in cells:
        out = out * _b_cell_gamma(mu, i, j) / _b_cell_gamma(lam, i, j)
    return out


@lru_cache(maxsize=None)
def _coeff_at(lam: Partition, mu: Partition, evec: tuple[int, ...],
              kind: str) -> FieldElement:
    """Coefficient of x_1^{e_1}..x_k^{e_k} in P_{lam/mu}(x_1..x_k), by the
    branching rule from mu (ch. VI (7.13')): the sum over the chains
    mu = nu_0 subseteq ... subseteq nu_k = lam, nu_i/nu_{i-1} a horizontal
    strip of e_i cells, of the product of their psi.  P_lam is mu = ();
    every call passes all four arguments by position, so P_lam and
    P_{lam/()} share their cache entries."""
    if not evec:
        return fe(1) if lam == mu else fe(0)
    total = fe(0)
    for nu in _horizontal_strip_preds(lam, mu):
        # a horizontal strip adds at most one part
        if lam.size - nu.size != evec[-1] or len(nu) >= len(mu) + len(evec):
            continue
        sub = _coeff_at(nu, mu, evec[:-1], kind)
        if not sub.is_zero():
            total = total + _psi_cached(lam, nu, kind) * sub
    return total


def _m_expansion(lam: Partition, mu: Partition, kind: str,
                 max_len: int | None = None) -> SymFunc:
    """P_{lam/mu} of the family ``kind`` in the m-basis, at the partitions
    of at most max_len parts only (all of them for None); zero unless mu
    is contained in lam."""
    coeffs: dict[Partition, FieldElement] = {}
    if not lam.contains(mu):
        return SymFunc("m", coeffs)
    for a in partitions_of(lam.size - mu.size, max_len):
        if mu or lam.dominates(a):  # P_lam has no term above lam
            c = _coeff_at(lam, mu, a.parts, kind)
            if not c.is_zero():
                coeffs[a] = c
    return SymFunc("m", coeffs)


@lru_cache(maxsize=None)
def macdonald_P(lam: Partition) -> SymFunc:
    """P_lambda(q,t) in the m-basis with FieldElement(q,t) coefficients."""
    return _m_expansion(lam, Partition(), "qt")


def macdonald_Q(lam: Partition) -> SymFunc:
    return macdonald_P(lam).scale(b_lambda(lam))


@lru_cache(maxsize=None)
def b_lambda(lam: Partition) -> FieldElement:
    return _qpoch_product(_b_symbols(lam, lam.cells(), 1), (0, 0))


def _b_symbols(lam: Partition, cells, s: int):
    """The q-Pochhammer symbols of the product of b_lam(c)^s over the cells
    c, b_lam(c) = (1 - q^arm t^{leg+1}) / (1 - q^{arm+1} t^leg)."""
    out = []
    for (i, j) in cells:
        a, l = lam.arm(i, j), lam.leg(i, j)
        out += [((0, a, l + 1), 1, s), ((0, a + 1, l), 1, -s)]
    return out


@lru_cache(maxsize=None)
def jack_P(lam: Partition) -> SymFunc:
    """Jack P^(1/gamma)_lambda in the m-basis over Q(gamma)."""
    return _m_expansion(lam, Partition(), "gamma")


# ---------------------------------------------------------------------------
# skew Macdonald polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _skew_table(lam: Partition) -> dict[Partition, SymFunc]:
    """All P_{lam/mu}, mu subseteq lam, as m-basis SymFuncs, each by the
    branching rule from mu.

    Only `skew_P` reads whole tables; a caller that needs a few
    coefficients reads them from `_m_expansion`.  The table keeps its own
    cache and its name, because perfbench's tracer times the skew layer as
    the calls of `_skew_table`, `skew_P` and `skew_Q`.
    """
    return {mu: _m_expansion(lam, mu, "qt") for mu in subpartitions(lam)}


def skew_P(lam: Partition, mu: Partition) -> SymFunc:
    """P_{lam/mu}; zero unless mu is contained in lam."""
    if not lam.contains(mu):
        return SymFunc("m", {})
    return _skew_table(lam)[mu]


def skew_Q(lam: Partition, mu: Partition) -> SymFunc:
    """Q_{lam/mu} = (b_lam / b_mu) P_{lam/mu}."""
    if not lam.contains(mu):
        return SymFunc("m", {})
    return skew_P(lam, mu).scale(_b_ratio(lam, mu))


@lru_cache(maxsize=None)
def _b_ratio(lam: Partition, mu: Partition) -> FieldElement:
    """b_lam / b_mu, the factor that turns P_{lam/mu} into Q_{lam/mu}."""
    return b_lambda(lam) / b_lambda(mu)


# The plethysms of the Macdonald family depend only on (lam, mu, A), and the
# exact suites ask for the same ones across many cases, so they are cached
# on those keys.  A is an alphabet of exact scalars, hashed by value; an
# alphabet holding a LetterSeries cannot be hashed and goes to `plethysm`.
# Three alphabet kinds need no p-basis (Macdonald, ch. VI §§6-7): letters
# are substituted into the m-expansion, P_lam[(1 - b)/(1 - t)] is
# `principal_spec_a`, and P_lam[X + (1 - b)/(1 - t)] of letters X is the
# branching sum over nu of P_{lam/nu}[X] P_nu[(1 - b)/(1 - t)].

@lru_cache(maxsize=None)
def _pleth_P(lam: Partition, mu: Partition, A: Alphabet):
    """P_{lam/mu}[A]; P_lam[A] when mu is empty."""
    if not mu and _is_principal(A):
        return principal_spec_a(lam, A.b)
    if (not mu and isinstance(A, Sum) and isinstance(A.left, Letters)
            and _is_principal(A.right)):
        nus = list(subpartitions(lam))
        return dot([at_letters(skew_P(lam, nu), A.left.values) for nu in nus],
                   [principal_spec_a(nu, A.right.b) for nu in nus])
    f = skew_P(lam, mu) if mu else macdonald_P(lam)
    return at_letters(f, A.values) if isinstance(A, Letters) else plethysm(f, A)


def _is_principal(A: Alphabet) -> bool:
    """Whether A is (1 - b)/(1 - t) at the indeterminate t, with b a Laurent
    monomial with coefficient 1 or 0, as `principal_spec_a` takes it."""
    return (isinstance(A, Ratio) and A.a == 1 and A.t == var("t")
            and isinstance(A.b, FieldElement)
            and (A.b.is_zero() or A.b.laurent() is not None))


def _pleth_Q(lam: Partition, mu: Partition, A: Alphabet):
    """Q_{lam/mu}[A] = (b_lam / b_mu) P_{lam/mu}[A]: one product."""
    return _pleth_P(lam, mu, A) * _b_ratio(lam, mu)


# ---------------------------------------------------------------------------
# specialisation formulas
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def principal_spec_a(lam: Partition, a) -> FieldElement:
    """P_lambda[(1-a)/(1-t)] = t^{n(lam)} (a;q,t)_lam / c_lam(q,t) at the
    indeterminates q and t, cached on (lam, a).

    a is a Laurent monomial with coefficient 1 or 0, and the value is one
    cancelled product of binomials 1 - a^e q^i t^j (`_qpoch_product`); any
    other a is a ValueError.  The numeric value is `closedform`'s, built on
    `coeffs`.
    """
    # (a;q,t)_lam = prod_i (a t^{1-i};q)_{lam_i} over c_lam = prod over
    # cells of 1 - q^arm t^{leg+1}
    symbols = [((1, 0, 1 - i), part, 1)
               for i, part in enumerate(lam.parts, start=1)]
    symbols += [((0, lam.arm(i, j), lam.leg(i, j) + 1), 1, -1)
                for (i, j) in lam.cells()]
    return _qpoch_product(symbols, (0, lam.n_stat()), a)


def principal_spec_n(lam: Partition, n: int) -> FieldElement:
    """P_lambda[(1-t^n)/(1-t)], the principal specialisation."""
    return principal_spec_a(lam, var("t") ** n)


def jack_binomial_spec(lam: Partition, z, g):
    """Jack polynomial at a binomial element z, fully factorised.

    P^(1/gamma)_lam[z] = (z g;g)_lam / (k g;g)_lam *
                         prod_{i<j<=k} ((j-i+1)g)_{lam_i-lam_j} / ((j-i)g)_{..}
    with k = max(l(lam), 1); any padding k >= l(lam) gives the same value.
    """
    k = max(len(lam), 1)
    from .coeffs import _recip, gamma_poch
    out = gamma_poch(z * g, g, lam) * _recip(gamma_poch(k * g, g, lam))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            d = lam.part(i) - lam.part(j)
            out = out * poch((j - i + 1) * g, d) * _recip(poch((j - i) * g, d))
    return out


def jack_eval(lam: Partition, xs, g, shift=None):
    """P^(1/gamma)_lam of the letters xs plus an optional binomial shift,
    at numeric gamma g.

    xs is a list of numbers or of open-grid arrays, one per letter, that
    broadcast against each other (None: no letters); the value broadcasts
    like them, or is a scalar when lam is empty.  Every numeric Jack
    evaluation at points goes through here.
    """
    def pk(k):
        val = sum(a ** k for a in xs) if xs is not None else 0.0
        return val + shift if shift is not None else val

    return plethysm_eval(jack_P(lam), pk, {"gamma": complex(g)})


def plethysm_eval(f: SymFunc, pk_fn, env: dict):
    """Numeric plethysm: p_k -> pk_fn(k), coefficients evaluated at env.

    The power sums may be numbers or numpy arrays of points; each p_k is
    computed once.  A coefficient whose value has imaginary part 0 enters
    as a float, so real coefficients and real power sums give a real
    result (a real array for array power sums).
    """
    pks: dict[int, object] = {}
    total = 0.0
    for rho, c in f.to_basis("p").coeffs.items():
        term = complex(c.eval(env) if isinstance(c, FieldElement) else c)
        if term.imag == 0:
            term = term.real
        for part in rho:
            if part not in pks:
                pks[part] = pk_fn(part)
            term = term * pks[part]
        total = total + term
    return total


def single_row_xminusy(r: int, x, y, q=None, t=None):
    """P_(r)([x - y];q,t) as the terminating 2phi1 sum (single letters x, y)."""
    if q is None:
        q = var("q")
    if t is None:
        t = var("t")
    if r < 0:
        raise ValueError("row length must be >= 0")
    # x^r * 2phi1(t^{-1}, q^{-r}; q^{1-r} t^{-1}; q, yq/x), terminating at k=r
    acc = 0
    for k in range(r + 1):
        num = qpoch(1 / t, q, k) * qpoch(q ** (-r), q, k)
        den = qpoch(q ** (1 - r) / t, q, k) * qpoch(q, q, k)
        acc = acc + (x ** r) * num * (y * q / x) ** k / den
    return acc


# ---------------------------------------------------------------------------
# evaluation symmetry
# ---------------------------------------------------------------------------

def spectral_vector(lam: Partition, n: int) -> list:
    """The point (q^{lambda_i} t^{n-i})_{i=1..n} at the indeterminates."""
    if len(lam) > n:
        raise ValueError(f"l({lam}) > {n}")
    q, t = fe("q"), fe("t")
    return [q ** lam.part(i) * t ** (n - i) for i in range(1, n + 1)]


def evaluation_symmetry_check(lam: Partition, mu: Partition, n: int) -> bool:
    """Eq: P_mu[<0>_n] P_lam[<mu>_n] = P_lam[<0>_n] P_mu[<lam>_n], exact."""
    if len(lam) > n or len(mu) > n:
        raise ValueError("length exceeds n")
    empty = Partition()

    def at(f: Partition, spec: Partition):
        return _pleth_P(f, empty, Letters(spectral_vector(spec, n)))

    lhs = at(mu, empty) * at(lam, mu)
    rhs = at(lam, empty) * at(mu, lam)
    return fe(lhs) == fe(rhs)


def generalized_evaluation_symmetry_check(lam: Partition, mu: Partition,
                                          n: int, m: int) -> bool:
    """Nonsymmetric evaluation symmetry with symbolic a, exact in Q(q,t,a)."""
    if len(lam) > n or len(mu) > m:
        raise ValueError("length exceeds padding")
    a, t = var("a"), var("t")

    def shifted(spec_part: Partition, npad: int) -> Alphabet:
        pref = a * t ** (-npad)
        return Sum(Letters([pref * v for v in spectral_vector(spec_part, npad)]),
                   Ratio(fe(1), pref, t))

    empty = Partition()
    lhs = (_pleth_P(mu, empty, Ratio(fe(1), a, t))
           * _pleth_P(lam, empty, shifted(mu, m)))
    rhs = (_pleth_P(lam, empty, Ratio(fe(1), a, t))
           * _pleth_P(mu, empty, shifted(lam, n)))
    return fe(lhs) == fe(rhs)
