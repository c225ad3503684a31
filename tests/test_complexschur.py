import cmath
import math
import random
from fractions import Fraction

import pytest

from oracles import schur_m
from selbergkit.closedform import (
    an_one_alt, an_one_rhs, nplusone_rhs, schur_binomial,
)
from selbergkit.complexschur import (
    an_one_staircase, beta_contour_closed,
    beta_schur_exact_sum, beta_schur_rhs, complex_an_aflt_closed,
    complex_an_aflt_recursive, complex_schur,
    skew_schur_binomial, split_expansion, staircase_exponents,
    thm_schur_closed, thm_schur_residue_oracle,
)
from selbergkit.partitions import P, partitions_up_to
from selbergkit.quadrature import SectorSpec, sector_integral
from selbergkit.symfunc import Letters, plethysm


class TestComplexSchur:
    def test_skew_at_empty_mu_is_the_product_formula(self):
        # Jacobi-Trudi in h_m[z] against the factorised gamma = 1 Jack value
        for lam in partitions_up_to(4):
            for z in (0.7 + 0.2j, -1.3 + 0.5j, 2.5 - 1.1j, 3.0):
                ref = schur_binomial(lam, z)
                val = skew_schur_binomial(lam, P(), z)
                assert abs(val - ref) <= 1e-12 * abs(ref), (lam, z)

    def test_n1_power(self):
        x, z = 0.7 + 0.3j, 1.4 - 0.2j
        assert abs(complex_schur([x], [z]) - x ** z) < 1e-14

    def test_principal_specialisation(self):
        zs = [2.3 + 0.4j, 1.1 - 0.2j, 0.5]
        v = complex_schur([1.0, 1.0, 1.0], zs)
        ref = 1.0
        for i in range(3):
            for j in range(i + 1, 3):
                ref *= (zs[i] - zs[j]) / (j - i)
        assert abs(v - ref) < 1e-12 * abs(ref)

    def test_staircase_recovers_schur(self):
        # against the Kostka expansion of s_lam at exact points
        lam = P(2, 1)
        xs = [Fraction(2, 5), Fraction(9, 10), Fraction(13, 10)]
        v = complex_schur([float(x) for x in xs], staircase_exponents(lam, 3))
        ref = float(plethysm(schur_m(lam), Letters(xs)))
        assert abs(v - ref) < 1e-12 * abs(ref)

    def test_symmetric_in_x(self):
        rng = random.Random(2)
        xs = [rng.uniform(0.3, 1.5) + 0.2j * rng.random() for _ in range(3)]
        zs = [rng.uniform(0, 2) + 0.3j * rng.random() for _ in range(3)]
        v1 = complex_schur(xs, zs)
        v2 = complex_schur([xs[1], xs[2], xs[0]], zs)
        assert abs(v1 - v2) < 1e-12 * abs(v1)

    def test_antisymmetric_in_z(self):
        xs = [0.4 + 0.1j, 0.9 - 0.2j, 1.3 + 0.05j]
        zs = [2.2 + 0.3j, 1.1, 0.4 - 0.2j]
        v1 = complex_schur(xs, zs)
        v2 = complex_schur(xs, [zs[1], zs[0], zs[2]])
        assert abs(v1 + v2) < 1e-12 * abs(v1)

    def test_rejects_cut(self):
        with pytest.raises(ValueError):
            complex_schur([-1.0], [0.5])


class TestSplitExpansion:
    def test_all_orders(self):
        rng = random.Random(5)
        xs = [rng.uniform(0.3, 1.5) + 0.2j * rng.random() for _ in range(3)]
        zs = [rng.uniform(0, 2) + 0.3j * rng.random() for _ in range(3)]
        full = complex_schur(xs, zs)
        for m in range(4):
            assert abs(split_expansion(xs, zs, m) - full) < 1e-10 * abs(full)


class TestResidueOracle:
    def test_k0_is_plain_schur(self):
        ys = [0.8, 1.2, 0.5]
        v = thm_schur_residue_oracle(0, 3, ys, [], P(2))
        ref = complex_schur(ys, staircase_exponents(P(2), 3))
        assert abs(v - ref) < 1e-13 * abs(v)

    def test_matches_closed_form(self):
        ys = [0.8 + 0.1j, 1.2 - 0.2j, 0.5 + 0.05j, 1.4]
        zs = [1.3 + 0.2j, 0.9]
        for lam in (P(), P(1), P(2), P(1, 1)):
            v1 = thm_schur_residue_oracle(2, 4, ys, zs, lam)
            v2 = thm_schur_closed(2, 4, ys, zs, lam)
            assert abs(v1 - v2) <= 1e-9 * max(1, abs(v2)), lam

    def test_overlong_partition_vanishes(self):
        ys = [0.8, 1.2, 0.5]
        v = thm_schur_residue_oracle(2, 3, ys, [1.3, 0.9], P(1, 1))
        assert abs(v) < 1e-12

    def test_spectator_padding(self):
        # value independent of which spectators carry the partition:
        # l(lam) <= ell - k - 1 leaves one spectator free
        ys = [0.8 + 0.1j, 1.2 - 0.2j, 0.5 + 0.05j, 1.4]
        zs = [1.1 + 0.15j]
        lam = P(2)
        v1 = thm_schur_residue_oracle(1, 4, ys, zs, lam)
        v2 = thm_schur_closed(1, 4, ys, zs, lam)
        assert abs(v1 - v2) < 1e-10 * abs(v2)


class TestBetaContour:
    def test_alpha_one(self):
        b = 0.37
        v = beta_contour_closed(1.0, b)
        assert abs(v - math.sin(math.pi * b) / (math.pi * b)) < 1e-13

    def test_beta_one_entire(self):
        # (x-1)^0 integrand is entire: closed form vanishes via 1/Gamma(0)
        assert beta_contour_closed(1.7, 1.0) == 0

    def test_quadrature(self):
        alpha, beta = 1.7, 0.4 + 0.2j

        def f(x):
            return x ** (alpha - 1) * (x - 1) ** (beta - 1)

        v = sector_integral(f, SectorSpec(n_ray=400, n_arc=400, eps0=1e-9))
        ref = beta_contour_closed(alpha, beta)
        assert abs(v - ref) < 1e-8 * abs(ref)

    def test_entire_integrand_vanishes(self):
        v = sector_integral(lambda x: x ** 2 + 1.5 * x,
                            SectorSpec(n_ray=200, n_arc=200))
        assert abs(v) < 1e-10


class TestBetaSchur:
    def test_paths_agree(self):
        zs = [1.2 + 0.3j, 0.7 - 0.1j, 1.5]
        beta = 0.4 + 0.2j
        for lam in partitions_up_to(3):
            v1 = beta_schur_exact_sum(3, zs, beta, lam)
            v2 = beta_schur_rhs(3, zs, beta, lam)
            assert abs(v1 - v2) <= 1e-9 * max(1e-12, abs(v2)), lam

    def test_integer_beta_cross_check(self):
        # beta = 1 - ell: the dualised sum equals the sector-integral
        # closed form at the all-ones (confluent) spectator point
        for k, ell, lam in ((1, 3, P(1)), (2, 4, P(2)), (2, 3, P(1))):
            beta = 1 - ell
            zs = [1.3 + 0.2j, 0.8 - 0.1j, 1.7][:k]
            dual = beta_schur_exact_sum(k, zs, beta, lam.conjugate())
            dual *= (-1.0) ** lam.size
            # the sector-integral theorem carries an extra 1/k! prefactor
            closed = math.factorial(k) * thm_schur_closed(
                k, ell, [1.0] * ell, zs, lam)
            assert abs(dual - closed) < 1e-9 * max(1e-12, abs(closed))

    def test_lambda_zero_reduces_to_beta_contour(self):
        z = 0.9 + 0.1j
        beta = 0.55
        v = beta_schur_exact_sum(1, [z], beta, P())
        ref = beta_contour_closed(z + 1, beta)
        assert abs(v - ref) < 1e-12 * abs(ref)


class TestRankN:
    def test_recursion_vs_closed(self):
        rng = random.Random(9)
        for trial in range(8):
            n = rng.choice([1, 2, 3])
            ks = sorted(rng.randint(1, 3) for _ in range(n))
            lams = []
            for r in range(n):
                cap_len = ks[r + 1] - ks[r] if r + 1 < n else 2
                pool = [p for p in partitions_up_to(2)]
                lams.append(rng.choice(pool))
            zs = [rng.uniform(0.5, 2.0) + 0.2j * rng.random()
                  for _ in range(ks[0])]
            alphas = [1.5 + 0.4 * rng.random() for _ in range(n)]
            beta = 0.5 + 0.3 * rng.random()
            v1 = complex_an_aflt_recursive(n, ks, zs, lams, alphas, beta)
            v2 = complex_an_aflt_closed(n, ks, zs, lams, alphas, beta)
            assert abs(v1 - v2) <= 1e-8 * max(1e-12, abs(v1)), (n, ks, lams)

    def test_an_one_consistency(self):
        for n, ks in ((1, [1]), (2, [1, 2]), (3, [1, 2, 2])):
            alphas = [1.8 - 0.1 * r for r in range(n)]
            beta = 0.6
            va = an_one_staircase(n, ks, alphas, beta)
            vb = an_one_rhs(n, ks, alphas, beta)
            vc = an_one_alt(n, ks, alphas, beta)
            assert abs(va - vb) < 1e-10 * abs(vb)
            assert abs(vc - vb) < 1e-12 * abs(vb)

    def test_thm_nplusone_as_ratio(self):
        rng = random.Random(21)
        for n, ks in ((1, [2]), (2, [1, 2])):
            lams = [rng.choice(list(partitions_up_to(2)))
                    for _ in range(n + 1)]
            if len(lams[0]) > ks[0]:
                lams[0] = P()
            alphas = [1.9 - 0.2 * r for r in range(n)]
            beta = 0.67
            zs = [complex(v) for v in staircase_exponents(lams[0], ks[0])]
            full = complex_an_aflt_closed(n, ks, zs, lams[1:], alphas, beta)
            norm = an_one_staircase(n, ks, alphas, beta)
            ref = nplusone_rhs(n, ks, alphas, beta, lams)
            assert abs(full / norm - ref) <= 1e-8 * max(1e-12, abs(ref))


class TestSectorSmoke:
    def test_thm_schur_quadrature_smoke(self):
        # k=1, ell=2 direct contour quadrature vs the residue oracle
        ys = [0.55 + 0.1j, 0.8 - 0.05j]
        zs = [0.9 + 0.1j]
        lam = P(1)
        oracle = thm_schur_residue_oracle(1, 2, ys, zs, lam)

        def f(x):
            sl = ys[0] + ys[1] - x  # s_(1)[y - x], x subtracted once
            return x ** zs[0] * sl / ((x - ys[0]) * (x - ys[1]))

        spec = SectorSpec(theta=2.6, radius=1.6, n_ray=600, n_arc=600,
                          eps0=1e-8)
        v = sector_integral(f, spec)
        assert abs(v - oracle) < 1e-6 * max(1.0, abs(oracle))

    def test_sector_contour_validation(self):
        for bad in ({"theta": 3.5}, {"theta": 0.0}, {"radius": 0.0},
                    {"eps0": -1e-7}):
            with pytest.raises(ValueError):
                SectorSpec(**bad)
