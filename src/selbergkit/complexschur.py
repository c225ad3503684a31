"""Complex Schur functions, sector-contour integrals, and the exact
recursion behind the gamma = 1 rank-n theorems.

The contour theorems are verified primarily through finite residue sums
and gamma-arithmetic recursions; raw sector quadrature is kept as a smoke
test since the contours pass through an essential point at the origin.
"""

from __future__ import annotations

import itertools
import math

from .coeffs import gamma, gamma_ratio, poch
from .partitions import P, Partition, subpartitions
from .symfunc import _complex_det, _perm_sign, alternant_ratio

__all__ = [
    "complex_schur", "split_expansion",
    "thm_schur_residue_oracle", "thm_schur_closed",
    "staircase_exponents", "beta_contour_closed", "skew_schur_binomial",
    "beta_schur_exact_sum", "beta_schur_rhs",
    "complex_an_aflt_recursive", "complex_an_aflt_closed",
    "an_one_staircase",
]


def complex_schur(xs, zs) -> complex:
    """S(x;z) = det(x_i^{z_j}) / Delta(x) on the principal branch."""
    xs = [complex(x) for x in xs]
    for x in xs:
        if x == 0 or (x.real < 0 and x.imag == 0):
            raise ValueError("points must avoid 0 and the branch cut")
    return alternant_ratio(xs, list(zs))


def split_expansion(xs, zs, m: int) -> complex:
    """Subset expansion of S(x;z) over m-subsets; equals complex_schur."""
    xs = [complex(x) for x in xs]
    n = len(xs)
    total = 0.0 + 0.0j
    for idx in itertools.combinations(range(n), m):
        inside = [xs[i] for i in idx]
        outside = [xs[i] for i in range(n) if i not in idx]
        denom = 1.0 + 0.0j
        for i in idx:
            for j in range(n):
                if j not in idx:
                    denom *= xs[i] - xs[j]
        total += (complex_schur(inside, zs[:m])
                  * complex_schur(outside, zs[m:]) / denom)
    return total


def staircase_exponents(lam: Partition, length: int) -> list:
    """(lam_1 + length - 1, lam_2 + length - 2, ..., lam_length)."""
    lam = Partition(lam)
    return [lam.part(j) + length - j for j in range(1, length + 1)]


def thm_schur_residue_oracle(k: int, ell: int, ys, zs,
                             lam: Partition) -> complex:
    """Finite residue sum for the sector integral of S(x;z) s_lam[y-x]: the
    sum over k-subsets of the spectators of S(inside; z) s_lam(outside)
    over the cross differences, with the sign (-1)^(k(k-1)/2).  s_lam is
    S at staircase exponents, so the sum is the subset expansion."""
    lam = Partition(lam)
    if len(ys) != ell:
        raise ValueError("need ell spectator points")
    if k > ell or len(lam) > ell - k:
        return 0.0
    return ((-1.0) ** (k * (k - 1) // 2)
            * split_expansion(ys, list(zs) + staircase_exponents(lam, ell - k),
                              k))


def thm_schur_closed(k: int, ell: int, ys, zs, lam: Partition) -> complex:
    """Closed form: S(y; (z, lam + staircase)) when l(lam) <= ell - k."""
    lam = Partition(lam)
    if len(lam) > ell - k:
        return 0.0
    tail = staircase_exponents(lam, ell - k)
    return ((-1.0) ** (k * (k - 1) // 2)
            * complex_schur(ys, list(zs) + tail))


# ---------------------------------------------------------------------------
# sector beta integral and the beta-Schur theorem
# ---------------------------------------------------------------------------

def beta_contour_closed(alpha, beta) -> complex:
    """(1/2 pi i) oint x^{alpha-1}(x-1)^{beta-1} dx over the sector border."""
    return gamma_ratio([alpha], [1 - beta, alpha + beta])


def skew_schur_binomial(lam: Partition, mu: Partition, z) -> complex:
    """s_{lam/mu}[z] via the skew Jacobi-Trudi determinant."""
    lam, mu = Partition(lam), Partition(mu)
    if not lam.contains(mu):
        return 0.0
    k = max(len(lam), 1)

    def h_bin(m):
        if m < 0:
            return 0.0
        return complex(poch(z, m)) / math.factorial(m)

    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(k)):
        sgn = _perm_sign(perm)
        term = complex(sgn)
        for i in range(k):
            term *= h_bin(lam.part(i + 1) - mu.part(perm[i] + 1)
                          - (i + 1) + (perm[i] + 1))
        total += term
    return total


def beta_schur_exact_sum(k: int, zs, beta, lam: Partition) -> complex:
    """Proof-route value of the dualised sector integral: the mu-sum of
    skew Schur values against a Pochhammer-ratio determinant."""
    lam = Partition(lam)
    zs = [complex(z) for z in zs]
    pref = math.factorial(k)
    for z in zs:
        pref *= gamma_ratio([z + 1], [1 - beta, z + beta + 1])
    total = 0.0 + 0.0j
    for mu in subpartitions(lam):
        if len(mu) > k:
            continue
        sval = skew_schur_binomial(lam, mu, beta - 1)
        if sval == 0:
            continue
        mat = [[complex(poch(zs[i] + 1, mu.part(j + 1) + k - j - 1))
                / complex(poch(zs[i] + beta + 1, mu.part(j + 1) + k - j - 1))
                for j in range(k)] for i in range(k)]
        total += sval * _complex_det(mat)
    return pref * total


def beta_schur_rhs(k: int, zs, beta, lam: Partition) -> complex:
    """Closed form of the dualised sector integral (integrand carries
    s_lam[x + beta - 1])."""
    lam = Partition(lam)
    zs = [complex(z) for z in zs]
    # S([k]; z) via the factorised specialisation
    sval = 1.0 + 0.0j
    for i in range(k):
        for j in range(i + 1, k):
            sval *= (zs[i] - zs[j]) / (j - i)
    out = (-1.0) ** (k * (k - 1) // 2) * sval
    out *= skew_schur_binomial(lam, P(), beta + k - 1)
    for i, z in enumerate(zs, start=1):
        out *= math.factorial(i) * gamma_ratio(
            [z + 1], [2 - i - beta, z + beta + k])
        for j in range(1, len(lam) + 1):
            out *= (z + beta + k - j) / (z + lam.part(j) + beta + k - j)
    return out


# ---------------------------------------------------------------------------
# the rank-n gamma = 1 theorem: recursion vs closed form
# ---------------------------------------------------------------------------

def complex_an_aflt_recursive(n: int, ks, zs, lams, alphas, beta) -> complex:
    """Evaluate the rank-n sector integral by the proof's recursion.

    Each step integrates out the innermost alphabet through the residue
    theorem (a shift of z and a staircase extension); the base case is the
    exact mu-sum route of the beta-Schur theorem.
    """
    lams = [Partition(x) for x in lams]
    if len(lams) != n:
        raise ValueError("need lam^(2)..lam^(n+1)")
    zs = [complex(z) for z in zs]
    if n == 1:
        # the base integrand carries s_lam[1 - beta - x]; Schur duality
        # turns it into the dualised mu-sum at the conjugate partition
        shifted = [z + alphas[0] - 1 for z in zs]
        lam = lams[0]
        return ((-1.0) ** lam.size
                * beta_schur_exact_sum(ks[0], shifted, beta, lam.conjugate()))
    lam2 = lams[0]
    if len(lam2) > ks[1] - ks[0]:
        return 0.0
    shifted = [z + alphas[0] - 1 for z in zs]
    z_next = shifted + [complex(v) for v in
                        staircase_exponents(lam2, ks[1] - ks[0])]
    sub = complex_an_aflt_recursive(n - 1, ks[1:], z_next, lams[1:],
                                    alphas[1:], beta)
    return math.factorial(ks[0]) * (-1.0) ** (ks[0] * (ks[0] - 1) // 2) * sub


def complex_an_aflt_closed(n: int, ks, zs, lams, alphas, beta) -> complex:
    """The closed product form of the rank-n sector integral."""
    lams = [Partition(x) for x in lams]
    zs = [complex(z) for z in zs]
    k1 = ks[0]
    ks_ext = [0] + list(ks) + [1 - beta]
    lam1 = [zs[i] - k1 + (i + 1) for i in range(k1)]
    # lam_all[r-1] holds lam^(r) padded to k_r - k_{r-1} entries
    lam_all = [lam1]
    for r in range(2, n + 1):
        lam_all.append([complex(lams[r - 2].part(i))
                        for i in range(1, ks_ext[r] - ks_ext[r - 1] + 1)])
    lam_np1 = lams[n - 1]

    def A_r(r):
        return sum(alphas[r - 1:n]) + ks_ext[r] - ks_ext[r - 1] + r

    out = 1.0 + 0.0j
    for i in range(k1):
        for j in range(i + 1, k1):
            out *= (zs[i] - zs[j]) / (j - i)
    for r in range(1, n + 1):
        kr = ks[r - 1]
        out *= (-1.0) ** (kr * (kr - 1) // 2)
        lam_next = lams[r - 1] if r <= n - 1 else lam_np1
        if r <= n - 1:
            out *= skew_schur_binomial(lams[r - 1], P(), ks[r] - ks[r - 1])
        else:
            out *= skew_schur_binomial(lam_np1, P(), 1 - beta - ks[n - 1])
        for i in range(1, kr + 1):
            out *= math.factorial(i)
            out /= gamma(ks_ext[r + 1] - i + 1) if r < n else 1.0
        if r == n:
            # gamma(k_{n+1} - i + 1) with k_{n+1} = 1 - beta
            for i in range(1, kr + 1):
                out /= gamma(2 - beta - i)
    for r in range(1, n + 1):
        for s in range(r + 1, n + 1):
            Ars = A_r(r) - A_r(s)
            for i in range(1, ks_ext[r] - ks_ext[r - 1] + 1):
                for j in range(1, ks_ext[s] - ks_ext[s - 1] + 1):
                    li = lam_all[r - 1][i - 1]
                    lj = lam_all[s - 1][j - 1]
                    out *= li - lj + Ars + j - i
    for r in range(1, n + 1):
        A_rn1 = A_r(r) - (ks_ext[n + 1] - ks_ext[n] + n + 1)
        for i in range(1, ks_ext[r] - ks_ext[r - 1] + 1):
            li = lam_all[r - 1][i - 1]
            out *= gamma_ratio([li + A_r(r) - i - n],
                               [li + A_rn1 - i + 1])
            for j in range(1, len(lam_np1) + 1):
                out *= ((li - lam_np1.part(j) + A_rn1 + j - i)
                        / (li + A_rn1 + j - i))
    return out


def an_one_staircase(n: int, ks, alphas, beta) -> complex:
    """The normalisation from the closed form at vanishing partitions."""
    k1 = ks[0]
    zs = [complex(k1 - (i + 1)) for i in range(k1)]
    lams = [P()] * n
    return complex_an_aflt_closed(n, ks, zs, lams, alphas, beta)
