"""Executable algebraic identities: the f-function and its t^{k-l} limit,
the skew summation formula, rank-n Cauchy-type series identities (exact,
degree-truncated), and the combinatorial partition-function bridge.

The Cauchy-type checks compare both sides as truncated series in named
letters over Q(q,t[,a]).  The grading is exact: the z_r-degree of a term
pins |lambda^(r)| and the y(,c,d)-degree pins |lambda^(n)| - |mu|, so
summing all tuples with total size <= cap + |mu| reproduces every compared
coefficient exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeffs import inv_qpoch, qpoch
from .field import FieldElement, fe, var
from .macdonald import (
    b_lambda, macdonald_P, macdonald_Q, principal_spec_a, skew_P, skew_Q,
)
from .partitions import Bipartition, P, Partition, partitions_up_to, subpartitions
from .symfunc import (
    Alphabet, LetterSeries, Letters, Product, Ratio, Sum,
    expand_in_letters, h_series_of_alphabet, plethysm,
)

__all__ = [
    "f_function", "f_function_limit", "verify_skew_sum",
    "verify_skew_sum_limit", "an_cauchy_check", "zbifund", "verify_Z_Selb",
]

INF = None  # sentinel for an infinite second padding


def _qvar():
    return var("q")


def _tvar():
    return var("t")


def _qpoch_ratio(x, y, q, n: int):
    """(x;q)_n / (y;q)_n for n in Z, resolved as a plain product."""
    if n == 0:
        return 1
    if n > 0:
        return qpoch(x, q, n) / qpoch(y, q, n)
    # (x;q)_{-m}/(y;q)_{-m} = prod (1 - y q^{-u}) / (1 - x q^{-u})
    return inv_qpoch(y, q, n) / inv_qpoch(x, q, n)


def f_function(lam: Partition, mu: Partition, k: int, l, a=None):
    """f^{k,l}_{lam,mu}(a;q,t) for generic a; l=None means l = infinity.

    Negative-index q-Pochhammers are resolved exactly as ratios, so the
    result is a FieldElement for symbolic a and a number for numeric a.
    """
    lam, mu = Partition(lam), Partition(mu)
    if k < len(lam):
        raise ValueError("k must be at least l(lambda)")
    if l is not None and l < len(mu):
        raise ValueError("l must be at least l(mu)")
    q, t = _qvar(), _tvar()
    if a is None:
        a = var("a")
    out = t ** (-k * mu.size)
    if l is None:
        # telescoped tail: prod_{j > l(mu)} collapses to (a q t^{l(mu)-i};q)_{lam_i}
        lm = len(mu)
        for i in range(1, k + 1):
            for j in range(1, lm + 1):
                n = lam.part(i) - mu.part(j)
                out = out * _qpoch_ratio(a * q * t ** (j - i - 1),
                                         a * q * t ** (j - i), q, n)
            out = out * qpoch(a * q * t ** (lm - i), q, lam.part(i))
        return out
    for i in range(1, k + 1):
        for j in range(1, l + 1):
            n = lam.part(i) - mu.part(j)
            out = out * _qpoch_ratio(a * q * t ** (j - i - 1),
                                     a * q * t ** (j - i), q, n)
    return out


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
    from .coeffs import qt_poch
    q, t = _qvar(), _tvar()
    base = fe(1) * f_function(lam, mu, len(lam), len(mu), a)
    corr = (fe(1) * qt_poch(a * q * t ** (len(mu) - 1), q, t, lam)
            / (fe(1) * qt_poch(a * q * t ** (l - 1), q, t, lam)))
    corr = corr * qt_poch(t ** len(lam) / a, q, t, mu) \
        / (fe(1) * qt_poch(t ** k / a, q, t, mu))
    return base * corr


def f_function_limit(lam: Partition, mu: Partition, k: int, l: int):
    """f^{k,l}_{lam,mu}(t^{k-l};q,t) as the b -> 1 limit, exact in Q(q,t).

    Uses the reduced form of the t-free factor block; returns 0 exactly
    when the interleaving condition fails.
    """
    lam, mu = Partition(lam), Partition(mu)
    if k > l:
        raise ValueError("the limit needs k <= l")
    if k < len(lam) or l < len(mu):
        raise ValueError("padding preconditions violated")
    q, t = _qvar(), _tvar()
    out = t ** (-k * mu.size)
    # t-dependent factors survive the b -> 1 limit directly
    for i in range(1, k + 1):
        for j in range(1, l + 1):
            n = lam.part(i) - mu.part(j)
            if n == 0:
                continue
            e_num = j - i - 1 + k - l
            e_den = j - i + k - l
            if e_num != 0:
                out = out * (qpoch(q * t ** e_num, q, n) if n > 0
                             else 1 / inv_qpoch(q * t ** e_num, q, n))
            if e_den != 0:
                out = out * (1 / qpoch(q * t ** e_den, q, n) if n > 0
                             else inv_qpoch(q * t ** e_den, q, n))
    # the t-free block reduces to a product with a well-defined b -> 1 limit
    n0 = lam.part(k) - mu.part(l)
    if n0 < 0:
        block = fe(0)
    else:
        block = fe(1) / qpoch(q, q, n0) if n0 else fe(1)
        for i in range(l - k + 1, l):
            block = block * qpoch(q ** (1 + lam.part(i + k - l) - mu.part(i)),
                                  q, mu.part(i) - mu.part(i + 1))
    result = out * block
    vanish = not interleaves(lam, mu, k, l)
    assert vanish == (fe(result).is_zero() if isinstance(result, FieldElement)
                      else result == 0), "limit/vanishing mismatch"
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


def verify_skew_sum(lam: Partition, mu: Partition, k: int, l: int,
                    a=None) -> IdentityCheck:
    """Skew summation formula with symbolic a, exact in Q(q,t,a)."""
    lam, mu = Partition(lam), Partition(mu)
    if k < len(lam) or l < len(mu):
        raise ValueError("padding preconditions violated")
    q, t = _qvar(), _tvar()
    if a is None:
        a = var("a")
    lhs = fe(0)
    for nu in subpartitions(mu):
        if not lam.contains(nu):
            continue
        p_part = plethysm(skew_P(mu, nu), Ratio(fe(1), 1 / a, t))
        q_part = plethysm(skew_Q(lam, nu), Ratio(fe(1), a * q / t, t))
        lhs = lhs + t ** (-nu.size) * p_part * q_part
    rhs = (principal_spec_a(mu, t ** k / a)
           * b_lambda(lam) * principal_spec_a(lam, a * q * t ** (l - 1))
           * f_function(lam, mu, k, l, a))
    return IdentityCheck(lhs, rhs, fe(lhs) == fe(rhs))


def verify_skew_sum_limit(lam: Partition, mu: Partition, k: int,
                          l: int) -> IdentityCheck:
    """The a = t^{k-l} corollary (k <= l), exact in Q(q,t)."""
    lam, mu = Partition(lam), Partition(mu)
    if k > l or k < len(lam):
        raise ValueError("needs l(lam) <= k <= l")
    q, t = _qvar(), _tvar()
    lhs = fe(0)
    for nu in subpartitions(mu):
        if not lam.contains(nu):
            continue
        p_part = plethysm(skew_P(mu, nu), Ratio(fe(1), t ** (l - k), t))
        q_part = plethysm(skew_Q(lam, nu), Ratio(fe(1), q * t ** (k - l - 1), t))
        lhs = lhs + t ** (-nu.size) * p_part * q_part
    rhs = (principal_spec_a(mu, t ** l)
           * b_lambda(lam) * principal_spec_a(lam, q * t ** (k - 1))
           * f_function_limit(lam, mu, k, l))
    return IdentityCheck(lhs, rhs, fe(lhs) == fe(rhs))


# ---------------------------------------------------------------------------
# rank-n Cauchy-type identities
# ---------------------------------------------------------------------------

def _mono(letters, name_powers: dict, cap) -> LetterSeries:
    e = [0] * len(letters)
    for name, p in name_powers.items():
        e[letters.index(name)] = p
    return LetterSeries(letters, {tuple(e): Fraction(1)}, cap)


def _kernel_series(alpha, beta, U: LetterSeries, q, cap: int) -> LetterSeries:
    """(alpha*U;q)_inf / (beta*U;q)_inf as a series in the monomial U."""
    (ue, uc), = U.terms.items()
    udeg = sum(ue)
    mmax = cap // udeg if udeg else 0
    hs = h_series_of_alphabet(Ratio(beta, alpha, q), mmax)
    out = LetterSeries(U.letters, cap=cap)
    upow = LetterSeries.const(U.letters, Fraction(1), cap)
    for m in range(mmax + 1):
        out = out + upow * hs[m]
        upow = upow * U
    return out


def an_cauchy_check(n: int, ks, mu_n: Partition = P(), cap: int = 3,
                    variant: str = "II", progress=None) -> IdentityCheck:
    """Rank-n Cauchy-type identity, exact as a truncated letter series.

    variant: 'I' (finite k_n, symbolic a_{n-1}), 'I-inf' (k_n = infinity,
    symbolic a_{n-1}), 'II' (all a_r = t^{k_r - k_{r+1}}), or 'II-pleth'
    (variant II with the extra (c-d)/(1-t) plethystic shift, mu_n = 0).
    """
    mu_n = Partition(mu_n)
    q, t = _qvar(), _tvar()
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
    T = 2 * cap + mu_n.size  # safe total-degree cap (see module docstring)

    a_sym = var("a") if variant in ("I", "I-inf") else None

    def a_r(r):  # 1-based
        if r == n - 1 and a_sym is not None:
            return a_sym
        return t ** (ks[r - 1] - ks[r]) if ks[r] is not None else None

    xs = [var(nm) for nm in x_names]

    # ---------------- left-hand side ----------------
    lhs = LetterSeries(letters, cap=T)
    size_cap = cap + mu_n.size
    tuples = _partition_tuples(n, size_cap, ks)
    for lams in tuples:
        term = _cauchy_term(n, ks, lams, mu_n, variant, a_r, letters, T,
                            x_names, y_names, z_names, cd_names)
        if term is not None:
            lhs = lhs + term
        if progress is not None:
            progress()

    # ---------------- right-hand side ----------------
    rhs = LetterSeries.const(letters, Fraction(1), T)

    def zprod(lo, hi):  # z_lo * ... * z_hi as monomial powers
        return {f"z{r}": 1 for r in range(lo, hi + 1)}

    # P_{mu_n}[W]
    if mu_n:
        W: Alphabet = Letters(
            [_mono(letters, {**zprod(1, n - 1), f"x{i}": 1}, T)
             for i in range(1, k1 + 1)])
        for r in range(1, n):
            ar = a_r(r)
            W = Sum(W, Product(
                Letters([_mono(letters, zprod(r + 1, n - 1), T)]),
                Ratio(fe(1), 1 / ar, t)))
        rhs = rhs * _pleth_letterseries(macdonald_P(mu_n), W, letters, T)

    for r in range(1, n):
        ar = a_r(r)
        for i in range(1, k1 + 1):
            U = _mono(letters, {**zprod(1, r), f"x{i}": 1}, T)
            rhs = rhs * _kernel_series(ar * q, t, U, q, T)
        for j in range(1, ny + 1):
            U = _mono(letters, {**zprod(r + 1, n - 1), f"y{j}": 1}, T)
            rhs = rhs * _kernel_series(1 / ar, fe(1), U, q, T)
    for i in range(1, k1 + 1):
        for j in range(1, ny + 1):
            U = _mono(letters, {**zprod(1, n - 1), f"x{i}": 1, f"y{j}": 1}, T)
            rhs = rhs * _kernel_series(t, fe(1), U, q, T)
    for r in range(1, n - 1):
        for s in range(r + 1, n):
            asym = a_r(s)
            for i in range(1, ks[r] - ks[r - 1] + 1):
                U = _mono(letters, zprod(r + 1, s), T)
                rhs = rhs * _kernel_series(asym * q * t ** (i - 1), t ** i, U, q, T)
    if variant == "II-pleth":
        for i in range(1, k1 + 1):
            Ud = _mono(letters, {**zprod(1, n - 1), f"x{i}": 1, "d": 1}, T)
            Uc = _mono(letters, {**zprod(1, n - 1), f"x{i}": 1, "c": 1}, T)
            rhs = rhs * _kernel_series(fe(1), fe(0), Ud, q, T)
            rhs = rhs * _kernel_series(fe(0), fe(1), Uc, q, T)
        for r in range(1, n):
            for i in range(1, ks[r] - ks[r - 1] + 1):
                Ud = _mono(letters, {**zprod(r + 1, n - 1), "d": 1}, T)
                Uc = _mono(letters, {**zprod(r + 1, n - 1), "c": 1}, T)
                rhs = rhs * _kernel_series(t ** (i - 1), fe(0), Ud, q, T)
                rhs = rhs * _kernel_series(fe(0), t ** (i - 1), Uc, q, T)

    # compare on the exactly-resolved monomials
    zycd = [letters.index(nm) for nm in y_names + z_names + cd_names]
    keys = set(lhs.terms) | set(rhs.terms)
    equal = True
    witness = ""
    for e in keys:
        if sum(e[i] for i in zycd) > cap:
            continue
        if not _fe_eq(lhs.coeff(e), rhs.coeff(e)):
            equal = False
            witness = str(e)
            break
    return IdentityCheck(lhs, rhs, equal, witness)


def _fe_eq(x, y):
    return fe(x) == fe(y)


def _partition_tuples(n, size_cap, ks):
    # length bounds apply for r <= n-1 where X^(r) has k_r letters; the
    # last slot is unrestricted (variant II terms beyond k_n die through
    # the vanishing of their scalar prefactor)
    pools = []
    for r in range(n):
        max_len = ks[r] if (r < n - 1 and ks[r] is not None) else None
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


def _pleth_letterseries(f, A, letters, cap) -> LetterSeries:
    val = plethysm(f, A)
    if isinstance(val, LetterSeries):
        return val
    return LetterSeries.const(letters, val, cap)


def _cauchy_term(n, ks, lams, mu_n, variant, a_r, letters, T,
                 x_names, y_names, z_names, cd_names):
    q, t = _qvar(), _tvar()
    k1 = ks[0]
    # scalar part: middle P's, all Q-prefactors, f-factors
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
    # letter parts
    lam1 = lams[0]
    if len(lam1) > k1:
        return None
    term = _embed(expand_in_letters(macdonald_P(lam1), x_names), letters, 0, T)
    # z_r powers track |lam^(r)|
    zshift = [0] * len(letters)
    for r in range(1, n):
        zshift[letters.index(f"z{r}")] = lams[r - 1].size
    term = term * LetterSeries(letters, {tuple(zshift): Fraction(1)}, T)
    # skew Q at the y letters (+ plethystic shift for the c,d variant)
    lam_n = lams[n - 1]
    y_off = len(x_names)
    if variant == "II-pleth":
        yterm = LetterSeries(letters, cap=T)
        c_ls = LetterSeries.letter(letters, "c", T)
        d_ls = LetterSeries.letter(letters, "d", T)
        for nu in subpartitions(lam_n):
            qfull = _embed(expand_in_letters(skew_Q(lam_n, nu), y_names, cap=T),
                           letters, y_off, T)
            if not qfull.terms:
                continue
            shift_val = _pleth_letterseries(
                macdonald_Q(nu), Ratio(c_ls, d_ls, t), letters, T)
            yterm = yterm + qfull * shift_val
    else:
        yterm = _embed(expand_in_letters(skew_Q(lam_n, mu_n), y_names, cap=T),
                       letters, y_off, T)
    return term * yterm * scalar


def _embed(sub: LetterSeries, letters, offset: int, cap) -> LetterSeries:
    """Reinterpret a series on a letter block inside the full universe."""
    out = LetterSeries(letters, cap=cap)
    for e, c in sub.terms.items():
        full = [0] * len(letters)
        for i, p in enumerate(e):
            full[offset + i] = p
        out.terms[tuple(full)] = c
    return out


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
                  Pval: complex, alpha: complex, tol: float = 1e-8):
    """Bridge check: Z_bifund against the closed-form Selberg average.

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
    err = abs(lhs - rhs) / max(1.0, abs(rhs))
    return IdentityCheck(lhs, rhs, err <= tol, f"rel_err={err:.2e}")
