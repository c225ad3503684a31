"""Closed-form right-hand sides: Selberg/AFLT products at every rank, the
Macdonald and elliptic variants, terminating hypergeometric series, and the
gamma-deformed product family with its contiguous recursion.

All gamma products are evaluated in log space with numerator/denominator
pairing; Pochhammers with integer index are finite products, which keeps
integer-parameter cases away from gamma poles.
"""

from __future__ import annotations

import math

from .coeffs import gamma_poch, gamma_ratio, poch, qpoch, qpoch_inf, qt_poch
from .field import PoleError, fe
from .macdonald import jack_binomial_spec, principal_spec_a
from .partitions import Bipartition, Partition, bipartite_spectral_vector

__all__ = [
    "selberg_rhs", "aflt_rhs", "an_selberg_rhs", "an_one_rhs", "an_one_alt",
    "an_aflt_rhs", "an_alt_avg_rhs", "an_alt_norm_rhs", "nplusone_rhs",
    "gamma_one_rhs", "r_function", "r_function_params_ok",
    "mac_aflt_rhs", "mac_corollary_rhs", "ortho_norm_rhs", "eaflt_rhs",
    "elliptic_selberg_rhs", "hyper_pfq", "hyper_qphi", "schur_binomial",
    "jack_spec", "seven_one_rhs", "seven_two_rhs", "seven_two_gamma_one",
]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def jack_spec(lam: Partition, z, g, pad: int | None = None) -> complex:
    """P^(1/gamma)_lam at the binomial element z, numeric."""
    lam = Partition(lam)
    val = jack_binomial_spec(lam, complex(z), complex(g), k=pad)
    return complex(val)


def schur_binomial(lam: Partition, z) -> complex:
    """s_lam[z] for a binomial element z (the gamma = 1 Jack value)."""
    return jack_spec(lam, z, 1.0)


def gamma_pochhammer(b, g, lam: Partition) -> complex:
    """(b;gamma)_lam, numeric."""
    return complex(gamma_poch(b, g, lam))


def _div(x, d):
    d = complex(d)
    if d == 0:
        raise PoleError("vanishing Pochhammer denominator")
    return x / d


# ---------------------------------------------------------------------------
# rank one
# ---------------------------------------------------------------------------

def selberg_rhs(k: int, alpha, beta, gamma_) -> complex:
    """The classical k-dimensional Selberg product."""
    nums, dens = [], []
    for i in range(1, k + 1):
        nums += [beta + (i - 1) * gamma_, alpha + (i - 1) * gamma_,
                 1 + i * gamma_]
        dens += [alpha + beta + (2 * k - i - 1) * gamma_, 1 + gamma_]
    return gamma_ratio(nums, dens)


def aflt_rhs(k: int, lam: Partition, mu: Partition, alpha, beta, gamma_,
             m: int | None = None) -> complex:
    """Jack-pair Selberg integral over [0,1]^k, closed form."""
    lam, mu = Partition(lam), Partition(mu)
    if len(lam) > k:
        return 0.0
    if m is None:
        m = len(mu)
    if m < len(mu):
        raise ValueError("padding m too short")
    g = complex(gamma_)
    out = jack_spec(lam, k, g) * jack_spec(mu, k + beta / g - 1, g)
    nums, dens = [], []
    for i in range(1, k + 1):
        li = lam.part(i)
        nums += [beta + (i - 1) * g, alpha + (k - i) * g + li, 1 + i * g]
        dens += [alpha + beta + (2 * k - m - i - 1) * g + li, 1 + g]
        for j in range(1, m + 1):
            nums.append(alpha + beta + (2 * k - i - j - 1) * g + li + mu.part(j))
            dens.append(alpha + beta + (2 * k - i - j) * g + li + mu.part(j))
    return out * gamma_ratio(nums, dens)


# ---------------------------------------------------------------------------
# rank n real-chain family
# ---------------------------------------------------------------------------

def _beta_list(n, beta):
    return [1.0] * (n - 1) + [beta]


def an_selberg_rhs(n: int, ks, alphas, beta, gamma_) -> complex:
    """Rank-n Selberg integral (the chain normalisation)."""
    ks = [0] + list(ks) + [0]  # k_0 .. k_{n+1}
    betas = [None] + _beta_list(n, beta)
    nums, dens = [], []
    for r in range(1, n + 1):
        for i in range(1, ks[r] + 1):
            nums += [betas[r] + (i - ks[r + 1] - 1) * gamma_, i * gamma_]
            dens += [gamma_]
    for r in range(1, n + 1):
        for s in range(r, n + 1):
            asum = sum(alphas[r - 1:s])
            for i in range(1, ks[r] - ks[r - 1] + 1):
                nums.append(asum + (r - s + i - 1) * gamma_)
                dens.append(asum + betas[s] + (ks[s] - ks[s + 1] + r - s + i - 2)
                            * gamma_)
    return gamma_ratio(nums, dens)


def an_aflt_rhs(n: int, ks, alphas, beta, gamma_, lam: Partition,
                mu: Partition, ell: int | None = None,
                m: int | None = None) -> complex:
    """Rank-n Jack-pair Selberg AVERAGE, closed form with free paddings."""
    lam, mu = Partition(lam), Partition(mu)
    ks = [0] + list(ks) + [0]
    betas = [None] + _beta_list(n, beta)
    g = complex(gamma_)
    if ell is None:
        ell = max(len(lam), 1)
    if m is None:
        m = max(len(mu), 1)
    if ell < len(lam) or m < len(mu):
        raise ValueError("padding too short")
    out = jack_spec(lam, ks[1], g) * jack_spec(mu, ks[n] + beta / g - 1, g)
    for r in range(1, n + 1):
        a1r = sum(alphas[:r])
        for i in range(1, ell + 1):
            li = lam.part(i)
            out *= complex(poch(a1r + (ks[1] - r - i + 1) * g, li))
            delta = m if r == n else 0
            out = _div(out, poch(
                a1r + betas[r] + (ks[1] + ks[r] - ks[r + 1] - r - delta - i) * g,
                li))
    for r in range(1, n + 1):
        arn = sum(alphas[r - 1:n])
        for j in range(1, m + 1):
            mj = mu.part(j)
            out *= complex(poch(arn + beta + (ks[n] + r - n - j - 1) * g, mj))
            delta = ell if r == 1 else 0
            out = _div(out, poch(
                arn + beta + (ks[r] - ks[r - 1] + ks[n] + r - n - delta - j - 1)
                * g, mj))
    for i in range(1, ell + 1):
        for j in range(1, m + 1):
            s = lam.part(i) + mu.part(j)
            a1n = sum(alphas[:n])
            out *= complex(poch(a1n + beta + (ks[1] + ks[n] - n - i - j) * g, s))
            out = _div(out, poch(a1n + beta + (ks[1] + ks[n] - n - i - j + 1) * g, s))
    return out


def an_one_rhs(n: int, ks, alphas, beta) -> complex:
    """gamma = 1 normalisation, stated with k_{n+1} := 0."""
    ks = [0] + list(ks) + [0]
    betas = [None] + _beta_list(n, beta)
    out = 1.0 + 0.0j
    nums, dens = [], []
    for r in range(1, n + 1):
        out *= (-1.0) ** (ks[r] * (ks[r] - 1) // 2)
        for i in range(1, ks[r] + 1):
            out *= math.factorial(i)
            dens.append(ks[r + 1] - betas[r] + 2 - i)
    for r in range(1, n + 1):
        for s in range(r, n + 1):
            asum = sum(alphas[r - 1:s])
            for i in range(1, ks[r] - ks[r - 1] + 1):
                nums.append(asum + r - s + i - 1)
                dens.append(asum + betas[s] + ks[s] - ks[s + 1] + r - s + i - 2)
    return out * gamma_ratio(nums, dens)


def _A_single(r, ks_ext, alphas, n, gamma_=1.0):
    """A_r = alpha_r + ... + alpha_n + (k_r - k_{r-1} + r) gamma."""
    return (sum(alphas[r - 1:n])
            + (ks_ext[r] - ks_ext[r - 1] + r) * gamma_)


def _A_rs(r, s, ks_ext, alphas, n, gamma_=1.0):
    """A_{r,s} = A_r - A_s, valid for any r, s in 1..n+1."""
    return (_A_single(r, ks_ext, alphas, n, gamma_)
            - _A_single(s, ks_ext, alphas, n, gamma_))


def an_one_alt(n: int, ks, alphas, beta) -> complex:
    """gamma = 1 normalisation in the k_{n+1} := 1 - beta convention."""
    ks_ext = [0] + list(ks) + [1 - beta]
    out = 1.0 + 0.0j
    nums, dens = [], []
    for r in range(1, n + 1):
        out *= (-1.0) ** (ks[r - 1] * (ks[r - 1] - 1) // 2)
        for i in range(1, ks[r - 1] + 1):
            out *= math.factorial(i)
            dens.append(ks_ext[r + 1] - i + 1)
    for r in range(1, n + 1):
        for s in range(r + 1, n + 2):
            Ars = _A_rs(r, s, ks_ext, alphas, n)
            for i in range(1, ks_ext[r] - ks_ext[r - 1] + 1):
                nums.append(Ars + ks_ext[s] - ks_ext[s - 1] - i + 1)
                dens.append(Ars - i + 1)
    return out * gamma_ratio(nums, dens)


def nplusone_rhs(n: int, ks, alphas, beta, lams, ells=None) -> complex:
    """Schur-product average at gamma = 1 (n+1 Schur functions)."""
    lams = [Partition(x) for x in lams]
    if len(lams) != n + 1:
        raise ValueError("need n+1 partitions")
    ks_ext = [0] + list(ks) + [1 - beta]
    if ells is None:
        ells = [max(len(x), 1) for x in lams]
    for x, e in zip(lams, ells):
        if e < len(x):
            raise ValueError("padding too short")
    out = 1.0 + 0.0j
    for r in range(1, n + 2):
        lr = lams[r - 1]
        er = ells[r - 1]
        for i in range(1, er + 1):
            for j in range(i + 1, er + 1):
                out *= (lr.part(i) - lr.part(j) + j - i) / (j - i)
    for r in range(1, n + 2):
        lr = lams[r - 1]
        for s in range(1, n + 2):
            Ars = _A_rs(r, s, ks_ext, alphas, n) if r != s else 0.0
            for i in range(1, ells[r - 1] + 1):
                li = lr.part(i)
                out *= complex(poch(Ars - ks_ext[s - 1] + ks_ext[s] - i + 1, li))
                out = _div(out, poch(Ars + ells[s - 1] - i + 1, li))
    for r in range(1, n + 2):
        for s in range(r + 1, n + 2):
            Ars = _A_rs(r, s, ks_ext, alphas, n)
            for i in range(1, ells[r - 1] + 1):
                for j in range(1, ells[s - 1] + 1):
                    num = lams[r - 1].part(i) - lams[s - 1].part(j) + Ars + j - i
                    den = Ars + j - i
                    out *= num / den
    return out


def gamma_one_rhs(n: int, ks, alphas, beta, lams, ells=None) -> complex:
    """The dual form carrying s_{lam^{n+1}}[t^{(n)} + beta - 1]."""
    lams = [Partition(x) for x in lams]
    ks_ext = [0] + list(ks) + [1 - beta]
    if ells is None:
        ells = [max(len(x), 1) for x in lams]
    eps = [1] * n + [-1]

    def epsv(r):
        return eps[r - 1]

    out = 1.0 + 0.0j
    for r in range(1, n + 1):
        out *= schur_binomial(lams[r - 1], ks_ext[r] - ks_ext[r - 1])
    out *= schur_binomial(lams[n], ks_ext[n] + beta - 1)
    for r in range(1, n + 2):
        for s in range(1, n + 2):
            if r == s:
                continue
            Ars = _A_rs(r, s, ks_ext, alphas, n)
            er, es = epsv(r), epsv(s)
            for i in range(1, ells[r - 1] + 1):
                li = lams[r - 1].part(i)
                out *= complex(poch(er * (Ars - ks_ext[s - 1] + ks_ext[s])
                                    - i + 1, li))
                out = _div(out, poch(er * (Ars + es * ells[s - 1]) - i + 1, li))
    for r in range(1, n + 2):
        for s in range(r + 1, n + 2):
            Ars = _A_rs(r, s, ks_ext, alphas, n)
            es = epsv(s)
            for i in range(1, ells[r - 1] + 1):
                for j in range(1, ells[s - 1] + 1):
                    idx = lams[r - 1].part(i) - es * lams[s - 1].part(j)
                    out *= complex(poch(Ars - i + es * j + 1, idx))
                    out = _div(out, poch(Ars - i + es * (j - 1) + 1, idx))
    return out


# ---------------------------------------------------------------------------
# the gamma-deformed product family and its recursion
# ---------------------------------------------------------------------------

def r_function_params_ok(n, ks, lams, ells):
    ks = list(ks)
    if any(ks[i] > ks[i + 1] for i in range(len(ks) - 1)):
        return False
    if ells[0] > ks[0]:
        return False
    return all(e >= len(Partition(l)) for l, e in zip(lams, ells))


def r_function(n: int, ks, alphas, beta, gamma_, lams, ells=None) -> complex:
    """Gamma-deformed (n+1)-partition product; padding-independent."""
    lams = [Partition(x) for x in lams]
    g = complex(gamma_)
    ks_ext = [0] + list(ks) + [1 - beta / g]
    if ells is None:
        ells = [len(lams[0])] + [max(len(x), 1) for x in lams[1:]]
    if not r_function_params_ok(n, ks, lams, ells):
        raise ValueError("inadmissible parameters")
    eps = [1] * n + [-1]
    out = 1.0 + 0.0j
    for r in range(1, n + 1):
        out *= jack_spec(lams[r - 1], ks_ext[r] - ks_ext[r - 1], g)
    out *= jack_spec(lams[n], ks_ext[n] + beta / g - 1, g)
    # first block: (-eps_s A_{r,s} - eps_s (k_{r-1}-k_r) gamma; gamma)_{lam_s}
    for r in range(1, n + 2):
        for s in range(r + 1, n + 2):
            Ars = _A_rs(r, s, ks_ext, alphas, n, g)
            es = eps[s - 1]
            out *= gamma_pochhammer(
                -es * Ars - es * (ks_ext[r - 1] - ks_ext[r]) * g, g, lams[s - 1])
            out = _div(out, gamma_pochhammer(
                -es * Ars + es * ells[r - 1] * g, g, lams[s - 1]))
    # middle block over 1 <= r < s <= n
    for r in range(1, n + 1):
        for s in range(r + 1, n + 1):
            Ars = _A_rs(r, s, ks_ext, alphas, n, g)
            es = eps[s - 1]
            out *= gamma_pochhammer(Ars - (ks_ext[s - 1] - ks_ext[s]) * g,
                                    g, lams[r - 1])
            out = _div(out, gamma_pochhammer(
                1 + Ars + (es * ells[s - 1] - 1) * g, g, lams[r - 1]))
            for i in range(1, ells[r - 1] + 1):
                for j in range(1, ells[s - 1] + 1):
                    idx = lams[r - 1].part(i) - lams[s - 1].part(j)
                    out *= complex(poch(1 + Ars + (j - i) * g, idx))
                    out = _div(out, poch(1 + Ars + (j - i - 1) * g, idx))
    # last block pairing with lam^{n+1}
    for r in range(1, n + 1):
        Arn1 = _A_rs(r, n + 1, ks_ext, alphas, n, g)
        out *= gamma_pochhammer(Arn1 - (ks_ext[n] - ks_ext[n + 1]) * g,
                                g, lams[r - 1])
        out = _div(out, gamma_pochhammer(Arn1 - ells[n] * g, g, lams[r - 1]))
        for i in range(1, ells[r - 1] + 1):
            for j in range(1, ells[n] + 1):
                idx = lams[r - 1].part(i) + lams[n].part(j)
                out *= complex(poch(Arn1 - (i + j - 1) * g, idx))
                out = _div(out, poch(Arn1 - (i + j - 2) * g, idx))
    return out


# ---------------------------------------------------------------------------
# the companion chain theorem
# ---------------------------------------------------------------------------

def an_alt_avg_rhs(n: int, ks, alphas, beta_nm1, beta_n, gamma_,
                   lam: Partition, mu: Partition) -> complex:
    """Companion-chain average of P_lam(t^(1)) P_mu(t^(n))."""
    lam, mu = Partition(lam), Partition(mu)
    ks = [0] + list(ks) + [0]
    g = complex(gamma_)
    betas = [None] + [1.0] * (n - 2) + [beta_nm1, beta_n]
    out = jack_spec(lam, ks[1], g) * jack_spec(mu, ks[n], g)
    for r in range(1, n):
        a1r = sum(alphas[:r])
        out *= gamma_pochhammer(a1r + (ks[1] - r) * g, g, lam)
        out = _div(out, gamma_pochhammer(
            a1r + betas[r] + (ks[1] + ks[r] - ks[r + 1] - r - 1) * g, g, lam))
    for r in range(2, n + 1):
        arn = sum(alphas[r - 1:n])
        out *= gamma_pochhammer(arn + (ks[n] + r - n - 1) * g, g, mu)
        out = _div(out, gamma_pochhammer(
            1 + arn - betas[r - 1] + (ks[r] - ks[r - 1] + ks[n] + r - n - 1) * g,
            g, mu))
    a1n = sum(alphas[:n])
    for i in range(1, ks[1] + 1):
        for j in range(1, ks[n] + 1):
            s = lam.part(i) + mu.part(j)
            out *= complex(poch(a1n + (ks[1] + ks[n] - n - i - j + 1) * g, s))
            out = _div(out, poch(a1n + (ks[1] + ks[n] - n - i - j + 2) * g, s))
    return out


def an_alt_norm_rhs(n: int, ks, alphas, beta_nm1, beta_n, gamma_,
                    alt_final_product: bool = False) -> complex:
    """Companion-chain normalisation; two equivalent final-product forms."""
    ks = [0] + list(ks) + [0]
    betas = [1.0] * max(0, n - 2) + [beta_nm1, beta_n]
    betas = [None] + betas  # 1-based; beta_0 := 1 handled below
    nums, dens = [], []
    sign = 1.0
    for r in range(1, n + 1):
        for i in range(1, ks[r] + 1):
            nums += [betas[r] + (i - ks[r + 1] - 1) * gamma_, i * gamma_]
            dens += [gamma_]
    for r in range(1, n):
        for s in range(r, n):
            asum = sum(alphas[r - 1:s])
            for i in range(1, ks[r] - ks[r - 1] + 1):
                nums.append(asum + (r - s + i - 1) * gamma_)
                dens.append(asum + betas[s] + (ks[s] - ks[s + 1] + r - s + i - 2)
                            * gamma_)
    if not alt_final_product:
        for r in range(1, n + 1):
            arn = sum(alphas[r - 1:n])
            beta_prev = 1.0 if r == 1 else betas[r - 1]
            for i in range(1, ks[n] + 1):
                nums.append(arn + (r - n + i - 1) * gamma_)
                dens.append(1 + arn - beta_prev
                            + (ks[r] - ks[r - 1] + r - n + i - 1) * gamma_)
    else:
        for r in range(1, n):
            arn = sum(alphas[r - 1:n])
            for i in range(1, ks[r] - ks[r - 1] + 1):
                nums.append(arn + (r - n + i - 1) * gamma_)
                dens.append(arn + (ks[n] + r - n + i - 1) * gamma_)
        for i in range(1, ks[n] + 1):
            nums.append(alphas[n - 1] + (i - 1) * gamma_)
            dens.append(alphas[n - 1] + beta_n + (ks[n] - ks[n - 1] + i - 2)
                        * gamma_)
    return sign * gamma_ratio(nums, dens)


# ---------------------------------------------------------------------------
# Macdonald torus closed forms
# ---------------------------------------------------------------------------

def mac_aflt_rhs(n: int, lam: Partition, mu: Partition, a, b, q, t,
                 m: int | None = None) -> complex:
    """Macdonald-pair torus integral, closed form."""
    lam, mu = Partition(lam), Partition(mu)
    if len(lam) > n:
        return 0.0
    if m is None:
        m = max(len(mu), 1)
    if m < len(mu):
        raise ValueError("padding too short")
    a, b, q, t = complex(a), complex(b), complex(q), complex(t)
    out = (b ** lam.size * t ** mu.size
           * complex(principal_spec_a(lam, t ** n, q=q, t=t))
           * complex(principal_spec_a(mu, b * t ** (n - 1), q=q, t=t)))
    for i in range(1, n + 1):
        li = lam.part(i)
        out *= qpoch_inf(t, q) * qpoch_inf(a * t ** (n - m - i) * q ** li, q)
        out *= qpoch_inf(a * t ** (1 - i) / b, q) * qpoch_inf(q * t ** (i - 1) * b / a, q)
        out /= qpoch_inf(q, q) * qpoch_inf(t ** i, q)
        out /= qpoch_inf(b * t ** (i - 1), q)
        out /= qpoch_inf(a * t ** (1 - i) * q ** li / b, q)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            e = lam.part(i) + mu.part(j)
            out *= qpoch_inf(a * t ** (n - i - j + 1) * q ** e, q)
            out /= qpoch_inf(a * t ** (n - i - j) * q ** e, q)
    return out


def mac_corollary_rhs(n: int, lam: Partition, mu: Partition, a, b, q, t,
                      m: int | None = None) -> complex:
    """The equivalent scalar-product form of the Macdonald-pair integral."""
    from .macdonald import b_lambda
    lam, mu = Partition(lam), Partition(mu)
    if len(lam) > n:
        return 0.0
    if m is None:
        m = max(len(mu), 1)
    a, b, q, t = complex(a), complex(b), complex(q), complex(t)
    b_mu = complex(fe(b_lambda(mu)).eval({"q": q, "t": t}))
    out = (t ** ((1 - n) * mu.size)
           * complex(principal_spec_a(lam, t ** n, q=q, t=t))
           * b_mu * complex(principal_spec_a(mu, b * t ** (n - 1), q=q, t=t)))
    out *= complex(qt_poch(q * t ** m / a, q, t, lam))
    out /= complex(qt_poch(b * q * t ** (n - 1) / a, q, t, lam))
    for i in range(1, n + 1):
        out *= (qpoch_inf(t, q) * qpoch_inf(a * t ** (i - 1), q)
                * qpoch_inf(q * t ** (i - 1) * b / a, q))
        out /= (qpoch_inf(q, q) * qpoch_inf(t ** i, q)
                * qpoch_inf(b * t ** (i - 1), q))
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d = lam.part(i) - mu.part(j)
            out *= (qpoch(q * t ** (j - i) / a, q, d)
                    / qpoch(q * t ** (j - i + 1) / a, q, d))
    return out


def ortho_norm_rhs(n: int, lam: Partition, q, t) -> complex:
    """Torus scalar-product norm <P_lam, Q_lam>'_n."""
    lam = Partition(lam)
    q, t = complex(q), complex(t)
    out = complex(qt_poch(t ** n, q, t, lam)) / complex(qt_poch(q * t ** (n - 1), q, t, lam))
    for i in range(1, n + 1):
        out *= qpoch_inf(t, q) * qpoch_inf(q * t ** (i - 1), q)
        out /= qpoch_inf(q, q) * qpoch_inf(t ** i, q)
    return out


# ---------------------------------------------------------------------------
# elliptic closed forms
# ---------------------------------------------------------------------------

def elliptic_selberg_rhs(n: int, ts, t, p, q) -> complex:
    """Elliptic Selberg product (six parameters, balanced)."""
    from .coeffs import ell_gamma
    _check_balancing(n, ts, t, p, q)
    out = 1.0 + 0.0j
    for i in range(1, n + 1):
        out *= ell_gamma(complex(t) ** i, p, q)
        for r in range(6):
            for s in range(r + 1, 6):
                out *= ell_gamma(complex(t) ** (i - 1) * ts[r] * ts[s], p, q)
    return out


def _check_balancing(n, ts, t, p, q, tol=1e-10):
    prod = complex(t) ** (2 * n - 2)
    for x in ts:
        prod *= complex(x)
    if abs(prod - complex(p) * complex(q)) > tol * max(1.0, abs(p * q)):
        raise ValueError("elliptic balancing condition violated "
                         "(t^(2n-2) t1...t6 must equal p q)")


def eaflt_rhs(n: int, blam: Bipartition, bmu: Bipartition, t, ts, p, q,
              display_form: bool = False) -> complex:
    """Elliptic interpolation-pair integral, closed form.

    The last factor is the ratio of two Delta0's with spectral-vector
    arguments sharing the same well-poising parameter, as produced by the
    derivation; display_form switches to the printed variant (kept for the
    record, see the ledger).
    """
    from .coeffs import delta0_bipartite
    _check_balancing(n, ts, t, p, q)
    t = complex(t)
    t1, t2, t3, t4, t5, t6 = [complex(x) for x in ts]
    out = elliptic_selberg_rhs(n, ts, t, p, q)
    out *= delta0_bipartite(
        t ** (n - 1) * t1 / t2,
        [t ** n, t ** (n - 1) * t1 * t3, t ** (n - 1) * t1 * t4,
         t ** (n - 1) * t1 * t5, t ** (n - 1) * t1 * t6], t, p, q, blam)
    out *= delta0_bipartite(
        t ** (n - 2) * t3 * t4 * t5 / t6,
        [t ** (n - 1) * t3 * t4, t ** (n - 1) * t3 * t5, t ** (n - 1) * t4 * t5],
        t, p, q, bmu)
    sv = [complex(x.eval({"q": complex(q), "p": complex(p), "t": t}))
          for x in bipartite_spectral_vector(blam, n)]
    num_args = [t ** (n - 2) * t1 * t3 * t4 * t5 * v for v in sv]
    den_args = [t ** (n - 1) * t1 * t3 * t4 * t5 * v for v in sv]
    if display_form:
        out *= delta0_bipartite(t ** (n - 2) * t3 * t4 * t5 / t6, num_args,
                                t, p, q, bmu)
        out /= delta0_bipartite(t ** (n - 2) * t2 * t3 * t4 / t5, den_args,
                                t, p, q, bmu)
    else:
        out *= delta0_bipartite(t ** (n - 2) * t3 * t4 * t5 / t6, num_args,
                                t, p, q, bmu)
        out /= delta0_bipartite(t ** (n - 2) * t3 * t4 * t5 / t6, den_args,
                                t, p, q, bmu)
    return out


# ---------------------------------------------------------------------------
# terminating hypergeometric series
# ---------------------------------------------------------------------------

def _termination_order(uppers) -> int:
    orders = []
    for u in uppers:
        uc = complex(u)
        if abs(uc.imag) < 1e-12 and uc.real <= 0 and \
                abs(uc.real - round(uc.real)) < 1e-12:
            orders.append(int(round(-uc.real)))
    if not orders:
        raise ValueError("series does not terminate")
    return min(orders)


def hyper_pfq(uppers, lowers, z) -> complex:
    """Terminating pFq at argument z (some upper a nonpositive integer)."""
    nmax = _termination_order(uppers)
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(nmax + 1):
        if k:
            num = 1.0 + 0.0j
            for u in uppers:
                num *= complex(u) + k - 1
            den = 1.0 + 0.0j
            for l in lowers:
                den *= complex(l) + k - 1
            den *= k
            term *= complex(z) * num / den
        total += term
    return total


def hyper_qphi(uppers, lowers, q, z) -> complex:
    """Terminating basic hypergeometric series (some upper = q^{-m})."""
    q = complex(q)
    orders = []
    for u in uppers:
        uc = complex(u)
        for mtry in range(0, 200):
            if abs(uc - q ** (-mtry)) < 1e-10 * max(1.0, abs(uc)):
                orders.append(mtry)
                break
    if not orders:
        raise ValueError("series does not terminate")
    nmax = min(orders)
    total = 0.0 + 0.0j
    for k in range(nmax + 1):
        term = complex(z) ** k
        for u in uppers:
            term *= complex(qpoch(complex(u), q, k))
        for l in lowers:
            term /= complex(qpoch(complex(l), q, k))
        term /= complex(qpoch(q, q, k))
        total += term
    return total


# ---------------------------------------------------------------------------
# the section-7 product formulas
# ---------------------------------------------------------------------------

def seven_one_rhs(n: int, alphas, beta, gamma_, us, mu: Partition) -> complex:
    """Closed form for the k = (1,...,1) single-row-product average.

    The average on the other side carries shifted exponents alpha_r - u_r.
    """
    mu = Partition(mu)
    g = complex(gamma_)
    out = jack_spec(mu, beta / g, g)
    a_all = sum(alphas)
    out *= gamma_pochhammer(a_all + beta - n * g, g, mu)
    out = _div(out, gamma_pochhammer(a_all + beta - (n - 1) * g, g, mu))
    for r in range(1, n + 1):
        a1r = sum(alphas[:r])
        usum = sum(us[:r])
        beta_r = beta if r == n else 1.0
        delta = 1 if r == n else 0
        out *= complex(poch(1 - a1r + (r - 1) * g, usum))
        out = _div(out, poch(1 - a1r - beta_r + (r - delta) * g, usum))
    for r in range(1, n):
        a1r = sum(alphas[:r])
        u_next = us[r]
        out *= hyper_pfq([-g, a1r - (r - 1) * g, -u_next],
                         [1 - g - u_next, 1 + a1r - r * g], 1.0)
    return out


def seven_two_rhs(alpha1, alpha2, beta1, beta2, gamma_, u1, u2, u3) -> complex:
    """Companion-average closed form with the terminating 4F3 factor."""
    g = complex(gamma_)
    out = complex(poch(alpha1, u1)) * complex(poch(alpha2, u2 + u3))
    out *= complex(poch(alpha1 + alpha2 - g, u1 + u2 + u3))
    out = _div(out, poch(alpha1 + beta1 - g, u1))
    out = _div(out, poch(alpha2 + beta2 - g, u2 + u3))
    out = _div(out, poch(alpha1 + alpha2, u1 + u2 + u3))
    out *= hyper_pfq(
        [-g, alpha1 + u1, -alpha2 + beta1 - u2 - u3, -u2],
        [1 - g - u2, alpha1 + beta1 - g + u1, 1 - alpha2 - u2 - u3], 1.0)
    return out


def seven_two_gamma_one(alpha1, alpha2, beta1, beta2, u1, u2, u3) -> complex:
    """The non-uniform gamma = 1 case of the companion average."""
    if u2 == 0:
        out = complex(poch(alpha1, u1)) * complex(poch(alpha2, u3))
        out *= (alpha1 + alpha2 - 1)
        out = _div(out, poch(alpha1 + beta1 - 1, u1))
        out /= (alpha2 + beta2 - 1)
        out /= (alpha1 + alpha2 - 1 + u1 + u3)
        return out
    out = complex(poch(alpha1, u1)) * complex(poch(alpha2, u2 + u3 - 1))
    out *= (alpha1 + alpha2 - 1) * (beta1 - 1)
    out = _div(out, poch(alpha1 + beta1 - 1, u1 + 1))
    out = _div(out, poch(alpha2 + beta2 - 1, u2 + u3))
    return out
