import cmath
import math

import pytest

from selbergkit.closedform import (
    aflt_rhs, an_aflt_rhs, an_alt_avg_rhs, an_alt_norm_rhs, an_one_alt,
    an_one_rhs, an_selberg_rhs, gamma_one_rhs, hyper_pfq, hyper_qphi, jack_spec, mac_aflt_rhs,
    nplusone_rhs, ortho_norm_rhs, r_function,
    schur_binomial, seven_two_gamma_one, seven_two_rhs,
)
from selbergkit.coeffs import ell_gamma, gamma
from selbergkit.elliptic import eaflt_rhs, elliptic_selberg_rhs
from selbergkit.field import PoleError, fe, var
from selbergkit.macdonald import macdonald_P, single_row_xminusy
from selbergkit.partitions import Bipartition, P
from selbergkit.symfunc import Difference, Letters, plethysm

ALPHAS = [1.93, 1.37]
BETA = 0.72


class TestSelberg:
    def test_k1_euler_beta(self):
        v = selberg = an_selberg_rhs(1, [1], [1.3], 0.8, 0.5)
        ref = gamma(1.3) * gamma(0.8) / gamma(2.1)
        assert abs(v - ref) < 1e-13 * abs(ref)

    def test_k2_unit(self):
        from selbergkit.closedform import selberg_rhs
        assert abs(selberg_rhs(2, 1, 1, 1) - 1 / 6) < 1e-13

    def test_gamma_zero_decouples(self):
        from selbergkit.closedform import selberg_rhs
        v = selberg_rhs(2, 1.5, 2.5, 0)
        b = gamma(1.5) * gamma(2.5) / gamma(4.0)
        assert abs(v - b * b) < 1e-13 * abs(v)


class TestAflt:
    def test_reduces_to_selberg(self):
        from selbergkit.closedform import selberg_rhs
        v = aflt_rhs(2, P(), P(), 1.7, 2.2, 0.6)
        assert abs(v - selberg_rhs(2, 1.7, 2.2, 0.6)) < 1e-13 * abs(v)

    def test_k1_row_one(self):
        v = aflt_rhs(1, P(1), P(), 1.7, 2.2, 0.6)
        ref = gamma(2.2) * gamma(2.7) / gamma(4.9)
        assert abs(v - ref) < 1e-13 * abs(ref)

    def test_padding_independence(self):
        v1 = aflt_rhs(2, P(2), P(1), 1.7, 2.2, 0.6, m=1)
        v2 = aflt_rhs(2, P(2), P(1), 1.7, 2.2, 0.6, m=4)
        assert abs(v1 - v2) < 1e-12 * abs(v1)

    def test_length_vanishing(self):
        assert aflt_rhs(1, P(1, 1), P(), 1.7, 2.2, 0.6) == 0.0


class TestRankN:
    def test_an_selberg_n1_is_ordered_selberg(self):
        from selbergkit.closedform import selberg_rhs
        v = an_selberg_rhs(1, [2], [1.7], 2.2, 0.6)
        ref = selberg_rhs(2, 1.7, 2.2, 0.6) / 2
        assert abs(v - ref) < 1e-12 * abs(ref)

    def test_an_one_conventions_agree(self):
        v1 = an_one_rhs(2, [1, 2], [1.6, 2.3], 1.4)
        v2 = an_one_alt(2, [1, 2], [1.6, 2.3], 1.4)
        assert abs(v1 - v2) < 1e-12 * abs(v1)

    def test_nplusone_padding(self):
        args = (2, [1, 2], ALPHAS, BETA, [P(1), P(1), P(2)])
        v1 = nplusone_rhs(*args, ells=[1, 1, 1])
        v2 = nplusone_rhs(*args, ells=[2, 2, 2])
        assert abs(v1 - v2) < 1e-12 * abs(v1)

    def test_nplusone_rank_reduction(self):
        vA = nplusone_rhs(2, [0, 2], ALPHAS, BETA, [P(), P(1), P(2)])
        vB = nplusone_rhs(1, [2], [ALPHAS[1]], BETA, [P(1), P(2)])
        assert abs(vA - vB) < 1e-12 * abs(vB)

    def test_nplusone_vanishing(self):
        v = nplusone_rhs(2, [1, 2], ALPHAS, BETA, [P(), P(1, 1), P()])
        assert v == 0

    def test_gamma_one_duality_bridge(self):
        # dual form at lam^{n+1} equals the straight form at its conjugate
        v1 = gamma_one_rhs(2, [1, 2], ALPHAS, BETA, [P(1), P(2), P(1, 1)])
        v2 = nplusone_rhs(2, [1, 2], ALPHAS, BETA, [P(1), P(2), P(2)])
        assert abs(v1 - v2) < 1e-12 * abs(v2)


class TestRFunction:
    def test_gamma_one_specialisation(self):
        lams = [P(1), P(1), P(2)]
        vr = r_function(2, [1, 2], ALPHAS, BETA, 1.0, lams)
        vg = gamma_one_rhs(2, [1, 2], ALPHAS, BETA, lams)
        assert abs(vr - vg) < 1e-10 * abs(vg)

    def test_middle_zero_is_an_aflt(self):
        vr = r_function(2, [1, 2], ALPHAS, BETA, 0.55, [P(1), P(), P(2)])
        va = an_aflt_rhs(2, [1, 2], ALPHAS, BETA, 0.55, P(1), P(2))
        assert abs(vr - va) < 1e-12 * abs(va)

    def test_padding_independence(self):
        lams = [P(1), P(1), P(2)]
        v1 = r_function(2, [1, 2], ALPHAS, BETA, 0.55, lams, ells=[1, 1, 2])
        v2 = r_function(2, [1, 2], ALPHAS, BETA, 0.55, lams, ells=[1, 2, 3])
        assert abs(v1 - v2) < 1e-12 * abs(v1)

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            r_function(2, [1, 2], ALPHAS, BETA, 0.55,
                       [P(1, 1), P(), P()], ells=[2, 1, 1])


class TestCompanion:
    def test_alt_final_product_forms_agree(self):
        g = 0.5
        b1 = 0.75
        b2 = g + 1 - b1
        v1 = an_alt_norm_rhs(2, [1, 1], [1.2, 1.4], b1, b2, g)
        v2 = an_alt_norm_rhs(2, [1, 1], [1.2, 1.4], b1, b2, g,
                             alt_final_product=True)
        assert abs(v1 - v2) < 1e-12 * abs(v1)

    def test_beta_eq_gamma_coincides_with_aflt(self):
        # beta = gamma in the straight chain matches (beta1, beta2) = (1, gamma)
        g = 0.45
        lam, mu = P(1), P(1)
        v1 = an_aflt_rhs(2, [1, 1], [1.2, 1.4], g, g, lam, mu)
        v2 = an_alt_avg_rhs(2, [1, 1], [1.2, 1.4], 1.0, g, g, lam, mu)
        assert abs(v1 - v2) < 1e-10 * abs(v1)


class TestMacdonaldForms:
    def test_complementation_N_independence(self):
        # complement lam in (N^n), scale a -> a q^{-N}: after dividing by
        # the explicit prefactor ((-a)^N q^{-binom(N+1,2)})^n the value is
        # independent of N
        a, b, q, t = 0.45, 0.35, 0.3, 0.4
        lam, mu, n = P(1), P(1), 2
        vals = []
        for N in (lam.part(1), lam.part(1) + 1):
            lam_hat = lam.complement(N, n)
            raw = mac_aflt_rhs(n, lam_hat, mu, a * q ** (-N), b, q, t)
            pref = ((-a) ** N * q ** (-N * (N + 1) // 2)) ** n
            vals.append(raw / pref)
        assert abs(vals[0] - vals[1]) < 1e-10 * abs(vals[0])

    def test_ortho_diag(self):
        # <P_1, Q_1>'_1 = b_(1) = (1-t)/(1-q)
        v = ortho_norm_rhs(1, P(1), 0.3, 0.4)
        assert abs(v - (1 - 0.4) / (1 - 0.3)) < 1e-12


class TestEllipticForms:
    def test_balancing_enforced(self):
        with pytest.raises(ValueError):
            elliptic_selberg_rhs(1, [0.3] * 6, 0.4, 0.1, 0.2)

    def test_one_batched_call_matches_the_scalar_gammas(self):
        q_, t_ = 0.45, 0.4
        ts = [0.4, 0.15, 0.4, 0.35, 0.4, 0.2]
        p_ = 0.4 * 0.15 * 0.4 * 0.35 * 0.4 * 0.2 / q_
        for n in (1, 2):
            ts_n = ts[:5] + [ts[5] / t_ ** (2 * n - 2)]
            ref = 1.0 + 0.0j
            for i in range(1, n + 1):
                ref *= ell_gamma(t_ ** i, p_, q_)
                for r in range(6):
                    for s in range(r + 1, 6):
                        ref *= ell_gamma(t_ ** (i - 1) * ts_n[r] * ts_n[s],
                                         p_, q_)
            got = elliptic_selberg_rhs(n, ts_n, t_, p_, q_)
            assert abs(got - ref) <= 1e-14 * abs(ref), n

    def test_a_pole_argument_is_named(self):
        # t_1 t_2 = 1 is a pole of Gamma(t_1 t_2); t_6 keeps the balancing
        p_, q_ = 0.1, 0.2
        ts = [2.0, 0.5, 0.5, 0.5, 0.5, p_ * q_ / 0.125]
        with pytest.raises(PoleError, match=r"pole at z=\(1\+0j\)"):
            elliptic_selberg_rhs(1, ts, 0.4, p_, q_)

    def test_eaflt_reduces_to_selberg(self):
        import numpy as np
        q_ = 0.45
        t1, t2, t3, t4, t5, t6 = 0.4, 0.15, 0.4, 0.35, 0.4, 0.2
        p_ = t1 * t2 * t3 * t4 * t5 * t6 / q_
        ts = [t1, t2, t3, t4, t5, t6]
        B0 = Bipartition(P(), P())
        v = eaflt_rhs(1, B0, B0, 0.4, ts, p_, q_)
        ref = elliptic_selberg_rhs(1, ts, 0.4, p_, q_)
        assert abs(v - ref) < 1e-12 * abs(ref)

    def test_hua_kadell_symmetry(self):
        # at t4 t5 = t the value is invariant under the stated swap
        q_ = 0.45
        t_ = 0.4
        t4, t5 = 0.5, t_ / 0.5
        t1, t2, t3 = 0.35, 0.12, 0.3
        t6 = 0.18
        p_ = t1 * t2 * t3 * t4 * t5 * t6 / q_
        ts = [t1, t2, t3, t4, t5, t6]
        bl = Bipartition(P(1), P())
        bm = Bipartition(P(2), P())
        v1 = eaflt_rhs(1, bl, bm, t_, ts, p_, q_)
        ts_swap = [t3, t6, t1, t4, t5, t2]
        v2 = eaflt_rhs(1, bm, bl, t_, ts_swap, p_, q_)
        assert abs(v1 - v2) < 1e-9 * abs(v1)


class TestHypergeometric:
    def test_empty_sum(self):
        assert hyper_pfq([0, 1.3], [2.2], 1.0) == 1.0

    def test_terminating_vs_binomial(self):
        # 2F1(-n, b; b; -1) = 2^n
        v = hyper_pfq([-3, 1.7], [1.7], -1.0)
        assert abs(v - 8) < 1e-12

    def test_rejects_nonterminating(self):
        with pytest.raises(ValueError):
            hyper_pfq([0.3, 1.2], [2.0], 1.0)

    def test_qphi_vs_plethysm_oracle(self):
        # terminating 2phi1 against the exact single-row expansion
        x, y, q, t = var("x"), var("y"), var("q"), var("t")
        r = 2
        sym_val = fe(single_row_xminusy(r, x, y))
        num = sym_val.eval({"x": 0.8, "y": 0.3, "q": 0.23, "t": 0.41})
        qq = 0.23
        phi = hyper_qphi([1 / 0.41, qq ** -r], [qq ** (1 - r) / 0.41],
                         qq, 0.3 * qq / 0.8) * 0.8 ** r
        assert abs(num - phi) < 1e-11 * abs(num)

    def test_3f2_delta_collapse(self):
        # the gamma = 1 3F2 factor collapses to delta_{u,0}
        for u in (1, 2, 3):
            a1 = 1.83
            v = hyper_pfq([-1.0, a1, -u], [1 - 1.0 - u, 1 + a1 - 1.0], 1.0)
            assert abs(v) < 1e-12
        v0 = hyper_pfq([-1.0, 1.83, 0], [1 - 1.0 - 0 + 1e-9, 2.83], 1.0)
        assert abs(v0 - 1) < 1e-8

    def test_seven_two_gamma_limit(self):
        for u2 in (0, 1, 2):
            lim = seven_two_rhs(1.7, 1.9, 0.8, 1 - 1e-7 + 1 - 0.8, 1 - 1e-7,
                                1, u2, 1)
            ref = seven_two_gamma_one(1.7, 1.9, 0.8, 1.2, 1, u2, 1)
            assert abs(lim - ref) < 1e-5 * abs(ref)


class TestJackSpec:
    def test_schur_case(self):
        assert abs(schur_binomial(P(2, 1), 3.0) - 8) < 1e-12

    def test_matches_symbolic(self):
        from selbergkit.macdonald import jack_binomial_spec
        z = var("z")
        g = var("gamma")
        sym_val = fe(jack_binomial_spec(P(2), z))
        num = sym_val.eval({"z": 1.7, "gamma": 0.6})
        assert abs(jack_spec(P(2), 1.7, 0.6) - num) < 1e-13
