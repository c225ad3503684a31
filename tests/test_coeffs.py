import cmath
import math
import random
from fractions import Fraction

import pytest

from oracles import hooks_row_form, qt_poch_cells
from selbergkit.coeffs import (
    c_minus, c_plus, delta0, ell_gamma, ell_qt_poch, gamma,
    gamma_poch, gamma_ratio, hooks, inv_qpoch, poch, qpoch,
    qpoch_inf, qt_poch, theta, theta_poch,
)
from selbergkit.field import PoleError, fe, var
from selbergkit.partitions import P, bipartite_spectral_vector, Bipartition, partitions_up_to

q, t, b = var("q"), var("t"), var("b")


class TestPoch:
    def test_basic(self):
        assert poch(2, 3) == 24
        assert poch(b, 0) == 1
        assert poch(Fraction(1, 2), 2) == Fraction(3, 4)

    def test_negative_index(self):
        # (a)_{-n} = 1/((a-1)...(a-n))
        assert poch(5, -2) == Fraction(1, 12)

    def test_complex_index_vs_gamma(self):
        val = poch(1.5, 2.25 + 0.5j)
        ref = gamma(1.5 + 2.25 + 0.5j) / gamma(1.5)
        assert abs(val - ref) < 1e-12 * abs(ref)


class TestQPoch:
    def test_symbolic(self):
        assert qpoch(b, q, 2) == (1 - b) * (1 - b * q)

    def test_reciprocal_zero_convention(self):
        # (q;q)_{-3} has the factor 1 - q q^{-1}: a pole, whose reciprocal
        # is exactly zero
        assert inv_qpoch(q, q, -3).is_zero()
        with pytest.raises(PoleError):
            qpoch(q, q, -3)

    def test_reciprocal_of_an_exact_product_stays_exact(self):
        # 1/(b;q)_0 is the exact 1, and 1/(2;3)_1 the Fraction -1: no float
        # enters the field
        assert inv_qpoch(t, q, 0) * q == q
        assert not isinstance(inv_qpoch(t, q, 0), float)
        assert inv_qpoch(2, 3, 1) == Fraction(-1)
        assert isinstance(inv_qpoch(2, 3, 1), Fraction)
        assert inv_qpoch(b, q, 2) * qpoch(b, q, 2) == fe(1)

    def test_negative_index_symbolic(self):
        got = qpoch(b, q, -2)
        want = 1 / ((1 - b / q) * (1 - b / q ** 2))
        assert got == want

    def test_negative_index_ratio_display(self):
        # (a;q)_{-n}/(b;q)_{-n} = (b/a)^n (q/b;q)_n/(q/a;q)_n, exact
        a = var("a")
        for n in range(1, 6):
            lhs = qpoch(a, q, -n) / qpoch(b, q, -n)
            rhs = (b / a) ** n * qpoch(q / b, q, n) / qpoch(q / a, q, n)
            assert lhs == rhs

    def test_infinite_product(self):
        val = qpoch_inf(0.5, 0.5)
        # Euler pentagonal-number series as the independent oracle
        euler = sum((-1) ** n * 0.5 ** (n * (3 * n - 1) // 2)
                    for n in range(-20, 21))
        assert abs(val - euler) < 1e-14
        assert abs(val - 0.2887880951) < 1e-9

    @pytest.mark.parametrize("b_, q_", [(math.nan, 0.3), (math.inf, 0.3),
                                        (0.5, math.nan)])
    def test_infinite_product_rejects_a_non_finite_argument(self, b_, q_):
        # the loop runs while |b q^j| > 1e-16: forever for an infinite b,
        # and never for a nan, which would give 1
        with pytest.raises(ValueError):
            qpoch_inf(b_, q_)

    def test_closed_form_rejects_a_nan_parameter(self):
        from selbergkit.closedform import mac_aflt_rhs
        with pytest.raises(ValueError):
            mac_aflt_rhs(1, P(), P(), math.nan, 0.35, 0.3, 0.4)


class TestPartitionFactorials:
    def test_qt_poch_examples(self):
        assert qt_poch(b, q, t, P()) == fe(1)
        assert qt_poch(b, q, t, P(1)) == 1 - b
        assert qt_poch(b, q, t, P(1, 1)) == (1 - b) * (1 - b / t)

    def test_row_vs_cell_forms(self):
        for lam in partitions_up_to(6):
            assert qt_poch(b, q, t, lam) == qt_poch_cells(b, q, t, lam)

    def test_gamma_poch(self):
        g = var("gamma")
        assert gamma_poch(fe(1), g, P(2)) == fe(2)
        bb = var("b")
        assert gamma_poch(bb, g, P(1, 1)) == bb * (bb - g)
        assert gamma_poch(bb, g, P()) == fe(1)


class TestHooks:
    def test_single_cell(self):
        c, cp, bl = hooks(P(1), q, t)
        assert c == 1 - t and cp == 1 - q and bl == (1 - t) / (1 - q)

    def test_row_two(self):
        c, cp, _ = hooks(P(2), q, t)
        assert c == (1 - t) * (1 - q * t)
        assert cp == (1 - q) * (1 - q ** 2)

    def test_empty(self):
        assert hooks(P(), q, t) == (1, 1, 1.0) or hooks(P(), q, t)[0] == 1

    def test_cell_vs_row_forms_any_padding(self):
        for lam in partitions_up_to(5):
            c, cp, _ = hooks(lam, q, t)
            for pad in (len(lam), len(lam) + 2):
                if pad == 0:
                    continue
                cr, cpr = hooks_row_form(lam, q, t, pad)
                assert c == cr and cp == cpr


class TestGamma:
    def test_factorial(self):
        assert abs(gamma(5) - 24) < 1e-12

    def test_reflection_accuracy(self):
        rng = random.Random(4)
        for _ in range(60):
            z = complex(rng.uniform(-40, 40), rng.uniform(-20, 20))
            if abs(z.real - round(z.real)) < 1e-2 and z.real < 0.5:
                continue
            # functional equation Gamma(z+1) = z Gamma(z)
            g1 = gamma(z + 1)
            g0 = gamma(z)
            assert abs(g1 - z * g0) < 1e-12 * abs(g1)

    def test_pole(self):
        with pytest.raises(PoleError):
            gamma(-3)

    def test_gamma_ratio_pole_pairing(self):
        # 1/Gamma(0) = 0
        assert gamma_ratio([1.0], [0.0]) == 0
        # Gamma(-1+e)/Gamma(-2+e) -> (-1) * 2!/1! = -2
        val = gamma_ratio([-1.0], [-2.0])
        assert abs(val - (-2.0)) < 1e-12


class TestThetaEllGamma:
    def test_theta_p0(self):
        assert abs(theta(0.3, 0) - 0.7) < 1e-15

    def test_ell_gamma_p0(self):
        z, qq = 0.35 + 0.1j, 0.25
        assert abs(ell_gamma(z, 0, qq) - 1 / qpoch_inf(z, qq)) < 1e-12

    def test_reflection(self):
        z, p, qq = 0.3, 0.2, 0.25
        val = ell_gamma(z, p, qq) * ell_gamma(p * qq / z, p, qq)
        assert abs(val - 1) < 1e-10

    def test_quasi_periodicity(self):
        z, p, qq = 0.4 + 0.2j, 0.3, 0.2
        lhs = ell_gamma(p * z, p, qq)
        rhs = theta(z, qq) * ell_gamma(z, p, qq)
        assert abs(lhs - rhs) < 1e-11 * abs(rhs)

    @pytest.mark.parametrize("p,qq", [(0.2, 0.25), (1e-3, 0.45)])
    def test_ell_gamma_vanishes_at_pq(self, p, qq):
        # 1 - pq/z is the first numerator factor
        assert ell_gamma(p * qq, p, qq) == 0

    @pytest.mark.parametrize("p,qq", [(0.25, 0.375), (0.5, 0.25)])
    def test_ell_gamma_poles_and_origin(self, p, qq):
        # poles at z = p^-j q^-k; p is a power of 2, so p (1/p) is exactly 1
        for z in (1.0, 1 / p):
            with pytest.raises(PoleError):
                ell_gamma(z, p, qq)
        with pytest.raises(ZeroDivisionError):
            ell_gamma(0, p, qq)

    def test_ell_gamma_on_an_array(self):
        # the array call against one call per point, and the checks of
        # the scalar call on the whole array
        import numpy as np
        p, qq = 0.2, 0.25
        z = np.array([[0.3, 0.7 + 0.2j], [1.1j, p * qq]])
        got = ell_gamma(z, p, qq)
        assert got.shape == (2, 2)
        for zz, g in zip(z.flat, got.flat):
            want = ell_gamma(zz, p, qq)
            assert isinstance(want, complex)
            assert abs(g - want) <= 1e-13 * abs(want)
        assert got[1, 1] == 0
        with pytest.raises(PoleError, match=r"z=\(4\+0j\)"):
            ell_gamma(np.array([0.3, 4.0, 1.0]), p, qq)
        with pytest.raises(ZeroDivisionError):
            ell_gamma(np.array([0.3, 0.0]), p, qq)


class TestEllipticFactorials:
    def test_p0_reduction(self):
        bb, qq = 0.3 + 0.1j, 0.4
        assert abs(theta_poch(bb, qq, 0, 2) - qpoch(bb, qq, 2)) < 1e-12
        assert theta_poch(bb, qq, 0.2, 0) == 1

    def test_delta0_symmetry(self):
        rng = random.Random(11)
        for lam in (P(2), P(1, 1), P(3, 1)):
            aa = 0.4 * cmath.exp(1j * rng.uniform(0, 6.28))
            bb = 0.55 * cmath.exp(1j * rng.uniform(0, 6.28))
            p, qq, tt = 0.2, 0.25, 0.3
            lhs = delta0(aa, [bb], qq, tt, p, lam)
            rhs = delta0(aa, [p * qq * aa / bb], qq, tt, p, lam)
            assert abs(lhs * rhs - 1) < 1e-10

    def test_c_plusminus_p0(self):
        for lam in (P(2, 1), P(3, 1, 1)):
            c, cp, _ = hooks(lam, q, t)
            qq, tt = 0.23, 0.37
            cm_t = c_minus(tt, qq, tt, 0, lam)
            cm_q = c_minus(qq, qq, tt, 0, lam)
            cval = c.eval({"q": qq, "t": tt})
            cpval = cp.eval({"q": qq, "t": tt})
            assert abs(cm_t - complex(cval)) < 1e-12
            assert abs(cm_q - complex(cpval)) < 1e-12

    def test_ell_qt_poch_rows(self):
        lam = P(2, 1)
        bb, qq, tt, p = 0.3, 0.25, 0.35, 0.2
        direct = ell_qt_poch(bb, qq, tt, p, lam)
        rows = (theta_poch(bb, qq, p, 2) * theta_poch(bb / tt, qq, p, 1))
        assert abs(direct - rows) < 1e-12

    def test_delta0_spectral_double_product(self):
        # Delta0_mu(a | b <lam>) against the explicit Gamma double product
        n, m = 2, 2
        blam = Bipartition(P(2, 1), P(1))
        mu = P(2, 1)
        p, qq, tt = 0.15, 0.2, 0.35
        aa, bb = 0.6 + 0.2j, 0.45 - 0.1j
        sv = [complex(x.eval({"q": qq, "p": p, "t": tt}))
              for x in bipartite_spectral_vector(blam, n)]
        lhs = delta0(aa, [bb * v for v in sv], qq, tt, p, mu)
        rhs = 1.0 + 0.0j
        l1, l2 = blam.first, blam.second
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                rhs *= ell_gamma(tt ** (n - i - j + 1) * qq ** (l1.part(i) + mu.part(j))
                                 * p ** l2.part(i) * bb, p, qq)
                rhs *= ell_gamma(p * qq * tt ** (i - j - n + 1) * qq ** (-l1.part(i))
                                 * p ** (-l2.part(i)) * aa / bb, p, qq)
                rhs /= ell_gamma(tt ** (n - i - j + 1) * qq ** l1.part(i)
                                 * p ** l2.part(i) * bb, p, qq)
                rhs /= ell_gamma(p * qq * tt ** (i - j - n + 1)
                                 * qq ** (-l1.part(i) + mu.part(j))
                                 * p ** (-l2.part(i)) * aa / bb, p, qq)
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)
