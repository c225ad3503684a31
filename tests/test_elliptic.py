import cmath
import random

import numpy as np
import pytest

from selbergkit.coeffs import delta0
from selbergkit.elliptic import (
    bc1_interp, bipartite_skew_interp_pm, connection_check, eaflt_lhs_n1,
    eaflt_rhs, elliptic_beta_lhs, elliptic_binomial, elliptic_selberg_rhs,
    jackson_sum_check, mac_side_limit, normalised_binomial, skew_interp,
    skew_interp_pm, skew_limit_value, thm92_lhs_n1, thm92_rhs_n1,
)
from selbergkit.partitions import Bipartition, P

Q0, P0, T0 = 0.45, 0.0015, 0.4
A0, B0 = 0.52, 0.31


def balanced_params():
    q = 0.45
    t1, t2, t3, t4, t5, t6 = 0.4, 0.15, 0.4, 0.35, 0.4, 0.2
    p = t1 * t2 * t3 * t4 * t5 * t6 / q
    return [t1, t2, t3, t4, t5, t6], p, q


class TestBC1:
    def test_m0(self):
        assert bc1_interp(0, 0.7, A0, B0, Q0, P0) == 1

    def test_vanishing_at_spectral_points(self):
        # R*_m(a q^l) = 0 for m > l
        for l in (0, 1):
            for m in range(l + 1, l + 3):
                v = bc1_interp(m, A0 * Q0 ** l, A0, B0, Q0, P0)
                assert abs(v) < 1e-12, (m, l)

    def test_cauchy_factorisation(self):
        # t a b = pq makes the function factor through Delta0
        t, p, q = T0, 0.12, 0.3
        a = 0.6
        b = p * q / (t * a)
        z = 0.77 + 0.2j
        for m in (1, 2):
            lhs = bc1_interp(m, z, a, b, q, p)
            rhs = delta0(a / b, [a * z, a / z], q, t, p, P(m))
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_evaluation_symmetry(self):
        v, b = 0.37, 0.29
        lam, mu = 2, 1
        a = 0.52
        ap = v * cmath.sqrt(b) / a
        lhs = bc1_interp(mu, v * Q0 ** lam / a, a, b / a, Q0, P0) \
            / bc1_interp(mu, v / a, a, b / a, Q0, P0)
        rhs = bc1_interp(lam, v * Q0 ** mu / ap, ap, b / ap, Q0, P0) \
            / bc1_interp(lam, v / ap, ap, b / ap, Q0, P0)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


class TestBinomials:
    def test_trivialises_at_mu_zero(self):
        for m in (1, 2, 3):
            v = elliptic_binomial(P(m), P(), A0, B0, Q0, T0, P0)
            assert abs(v - 1) < 1e-12

    def test_vanishes_off_containment(self):
        assert elliptic_binomial(P(1), P(2), A0, B0, Q0, T0, P0) == 0

    def test_rejects_long_partitions(self):
        with pytest.raises(ValueError):
            elliptic_binomial(P(1, 1), P(), A0, B0, Q0, T0, P0)


class TestJackson:
    def test_collapse(self):
        e = A0 * P0 * Q0 / (B0 * 0.41 * 0.62)
        tot, rhs = jackson_sum_check(P(1), P(1), A0, B0, 0.41, 0.62, e,
                                     Q0, T0, P0)
        assert abs(tot - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_two_and_three_term(self):
        e = A0 * P0 * Q0 / (B0 * 0.41 * 0.62)
        for lam in (P(1), P(2)):
            tot, rhs = jackson_sum_check(lam, P(), A0, B0, 0.41, 0.62,
                                         e, Q0, T0, P0)
            assert abs(tot - rhs) <= 1e-10 * max(1.0, abs(rhs)), lam

    def test_balancing_enforced(self):
        with pytest.raises(ValueError):
            jackson_sum_check(P(1), P(), A0, B0, 0.4, 0.6, 0.5, Q0, T0, P0)


class TestSkewInterp:
    def test_two_argument_shortcut(self):
        v1, v2 = 0.77 + 0.1j, 0.6 - 0.2j
        for lm, nm in [(1, 0), (2, 0), (2, 1)]:
            lam, nu = P(lm), P(nm) if nm else P()
            lhs = skew_interp(lam, nu, [v1, v2], A0, B0, Q0, T0, P0)
            rhs = normalised_binomial(lam, nu, A0 / B0, v1 * v2,
                                      [A0 / v1, A0 / v2], Q0, T0, P0)
            assert abs(lhs - rhs) < 1e-10 * max(1e-12, abs(rhs))

    def test_branching(self):
        vs = [0.77 + 0.1j, 0.6 - 0.2j, 0.9 + 0.05j, 0.55]
        V12 = vs[0] * vs[1]
        for lam in (P(1), P(2)):
            lhs = skew_interp(lam, P(), vs, A0, B0, Q0, T0, P0)
            tot = 0
            for mm in range(lam.part(1) + 1):
                mu = P(mm) if mm else P()
                tot += (skew_interp(lam, mu, vs[:2], A0, B0, Q0, T0, P0)
                        * skew_interp(mu, P(), vs[2:], A0 / V12, B0,
                                      Q0, T0, P0))
            assert abs(lhs - tot) < 1e-10 * abs(lhs)

    def test_reduction_to_plain(self):
        rt = cmath.sqrt(T0)
        t1, t2 = 0.4, 0.15
        x = 0.83 + 0.2j
        for m in (1, 2):
            lhs = skew_interp_pm(P(m), P(), rt, [x], [], rt * t1, rt * t2,
                                 Q0, T0, P0)
            rhs = delta0(t1 / t2, [T0], Q0, T0, P0, P(m)) \
                * bc1_interp(m, x, t1, t2, Q0, P0)
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)


class TestConnection:
    def test_single_and_bipartite(self):
        bl = Bipartition(P(2), P())
        lhs, tot = connection_check(bl, 0.83 + 0.2j, 0.52, 0.37, 0.31,
                                    T0, P0, Q0)
        assert abs(tot - lhs) <= 1e-10 * max(1.0, abs(lhs))
        bl2 = Bipartition(P(1), P(1))
        lhs, tot = connection_check(bl2, 0.7 - 0.3j, 0.52, 0.37, 0.31,
                                    T0, 0.25, 0.3)
        assert abs(tot - lhs) <= 1e-10 * max(1.0, abs(lhs))


class TestBalancing:
    def test_rank_two_balancing(self):
        # t^2 t1...t6 = p q holds at n = 2 and not at n = 1, and the
        # other way round
        p, q, t = 0.12, 0.45, 0.5
        ts = [0.8, 0.8, 0.75, 0.75, 0.75]
        ts.append(p * q / (t ** 2 * np.prod(ts)))
        val = elliptic_selberg_rhs(2, ts, t, p, q)
        assert cmath.isfinite(val) and val != 0
        with pytest.raises(ValueError, match="balancing"):
            elliptic_selberg_rhs(1, ts, t, p, q)
        ts1 = ts[:5] + [p * q / np.prod(ts[:5])]
        assert cmath.isfinite(elliptic_selberg_rhs(1, ts1, t, p, q))
        with pytest.raises(ValueError, match="balancing"):
            elliptic_selberg_rhs(2, ts1, t, p, q)


class TestEllipticIntegrals:
    def test_spiridonov_beta(self):
        ts, p, q = balanced_params()
        lhs = elliptic_beta_lhs(ts, T0, p, q, npts=128)
        rhs = elliptic_selberg_rhs(1, ts, T0, p, q)
        assert abs(lhs - rhs) < 1e-8 * abs(rhs)

    def test_thm92(self):
        ts, p, q = balanced_params()
        bl = Bipartition(P(1), P())
        bm = Bipartition(P(1), P())
        lhs = thm92_lhs_n1(bl, bm, ts, T0, p, q, npts=160)
        rhs = thm92_rhs_n1(bl, bm, ts, T0, p, q)
        assert abs(lhs - rhs) < 1e-7 * abs(rhs)

    def test_eaflt_cases(self):
        ts, p, q = balanced_params()
        B00 = Bipartition(P(), P())
        for bl, bm in [(B00, B00), (Bipartition(P(1), P()), B00),
                       (Bipartition(P(1), P()), Bipartition(P(1), P()))]:
            lhs = eaflt_lhs_n1(bl, bm, T0, ts, p, q, npts=160)
            rhs = eaflt_rhs(1, bl, bm, T0, ts, p, q)
            assert abs(lhs - rhs) < 1e-7 * abs(rhs), (bl, bm)


class TestSkewLimit:
    def test_degeneration_trend(self):
        lam = P(1)
        xs = [0.6 + 0.1j]
        c, d, a, b, q, t = 0.35, 0.55, 0.6, 0.8, 0.3, 0.4
        target = mac_side_limit(lam, xs, c, d, a, q, t)
        errs = []
        for p in (1e-2, 1e-3, 1e-4):
            v = skew_limit_value(lam, xs, c, d, a, b, q, t, p)
            errs.append(abs(v - target) / abs(target))
        assert errs[0] > errs[1] > errs[2]
        # error tracks p^(1/4) for the chosen scaling exponents
        ratio = errs[1] / errs[2]
        assert 1.5 < ratio < 4.0

    @pytest.mark.parametrize("m", range(5))
    def test_target_is_macdonald_p_of_the_row(self, m):
        from selbergkit.coeffs import hooks
        from selbergkit.macdonald import macdonald_P, plethysm_eval
        lam = P(m) if m else P()
        xs = [0.6 + 0.1j, 0.3 - 0.2j]
        c, d, a, q, t = 0.35, 0.55, 0.6, 0.3, 0.4

        def pk(k):
            return sum(x ** k for x in xs) + (d ** k - c ** k) / (1 - t ** k)

        cl = complex(hooks(lam, q, t)[0])
        pref = ((-a * t ** -0.5) ** lam.size * q ** lam.conjugate().n_stat()
                * t ** (-2 * lam.n_stat()) * cl)
        want = pref * plethysm_eval(macdonald_P(lam), pk, {"q": q, "t": t})
        got = mac_side_limit(lam, xs, c, d, a, q, t)
        assert abs(got - want) <= 1e-14 * abs(want)


class TestBatchedInterpolationFactors:
    """The torus integrands evaluate their interpolation factors once per
    array of points; on the pole-scan rings these must equal the values the
    functions give one point at a time."""

    RINGS = [rho * np.exp(2j * np.pi * np.arange(64) / 64)
             for rho in (0.82, 1.0, 1.22)]

    @staticmethod
    def _assert_close(batched, pointwise):
        # a factor that is constant in z (an empty row) may be a scalar
        pointwise = np.asarray(pointwise)
        batched = np.broadcast_to(batched, pointwise.shape)
        rel = np.abs(batched - pointwise) / np.abs(pointwise)
        assert np.max(rel) < 1e-12

    def test_thm92_factors(self):
        from selbergkit.suites_elliptic import cases_thm92
        for case in cases_thm92({"seed": 7}):
            ts, p, q = case["ts"], case["p"], case["q"]
            for row, a, b in ((case["lam"], ts[0], ts[1]),
                              (case["mu"], ts[2], ts[5])):
                m = row[0] if row else 0
                for z in self.RINGS:
                    # the second bipartition component is empty in the suite
                    batched = (bc1_interp(m, z, a, b, q, p)
                               * bc1_interp(0, z, a, b, p, q))
                    pointwise = [bc1_interp(m, zz, a, b, q, p)
                                 * bc1_interp(0, zz, a, b, p, q) for zz in z]
                    self._assert_close(batched, pointwise)

    def test_eaflt_factors(self):
        from selbergkit.suites_elliptic import cases_elliptic_aflt
        for case in cases_elliptic_aflt({"seed": 7}):
            ts, p, q, t = case["ts"], case["p"], case["q"], case["t"]
            t1, t2, t3, t4, t5, t6 = ts
            rt = cmath.sqrt(t)
            factors = [
                (Bipartition(P(*case["lam"]), P()), [], rt * t1, rt * t2),
                (Bipartition(P(*case["mu"]), P()), [t4 / rt, t5 / rt],
                 t3 * t4 * t5 / rt, rt * t6),
            ]
            for blam, extra, a, b in factors:
                for z in self.RINGS:
                    batched = bipartite_skew_interp_pm(blam, rt, [z], extra,
                                                       a, b, t, p, q)
                    pointwise = [bipartite_skew_interp_pm(
                        blam, rt, [zz], extra, a, b, t, p, q) for zz in z]
                    self._assert_close(batched, pointwise)
                # the general skew_interp, which takes V as the product of
                # its arguments, agrees with the z-free V of the +- form
                z = self.RINGS[0]
                general = [skew_interp(blam.first, P(),
                                       [rt * zz, rt / zz] + extra,
                                       a, b, q, t, p)
                           * skew_interp(blam.second, P(),
                                         [rt * zz, rt / zz] + extra,
                                         a, b, p, t, q) for zz in z]
                self._assert_close(bipartite_skew_interp_pm(
                    blam, rt, [z], extra, a, b, t, p, q), general)
