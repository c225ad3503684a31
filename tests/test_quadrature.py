import math
import random

import numpy as np
import pytest

from selbergkit.closedform import (
    aflt_rhs, an_aflt_rhs, an_alt_avg_rhs, an_alt_norm_rhs, an_selberg_rhs,
    mac_aflt_rhs, ortho_norm_rhs, selberg_rhs,
)
from selbergkit.coeffs import gamma
from selbergkit.partitions import P
from selbergkit.quadrature import (
    QuadratureSpec, aflt_lhs, an_selberg_lhs, enumerate_chain,
    enumerate_companion_chain, gauss_jacobi_01, jack_pair_callback,
    mac_aflt_lhs, ortho_norm_lhs, region_covering_check, torus_integral,
)


class TestGaussJacobi:
    def test_moments(self):
        # integral t^p (1-t)^q t^j dt against exact Beta values
        t, w = gauss_jacobi_01(20, 1.3, 0.7)
        for j in range(5):
            got = np.sum(w * t ** j)
            ref = (gamma(2.3 + j) * gamma(1.7) / gamma(4.0 + j)).real
            assert abs(got - ref) < 1e-14

    def test_cached_rule_is_read_only(self):
        t, w = gauss_jacobi_01(12, 0.25, 0.5)
        for arr in (t, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
            with pytest.raises(ValueError):
                arr *= 2.0
        again = gauss_jacobi_01(12, 0.25, 0.5)
        assert again[0] is t and again[1] is w

    def test_matches_legendre(self):
        t, w = gauss_jacobi_01(16, 0.0, 0.0)
        x, wl = np.polynomial.legendre.leggauss(16)
        assert np.max(np.abs(np.sort(t) - (x + 1) / 2)) < 1e-13
        assert np.max(np.abs(w - wl / 2)) < 1e-13

    def test_convergence_order(self):
        # error drops at least 10x per doubling on a smooth integrand
        def err(n):
            t, w = gauss_jacobi_01(n, 0.3, 0.4)
            val = np.sum(w * np.cos(3 * t))
            t2, w2 = gauss_jacobi_01(96, 0.3, 0.4)
            ref = np.sum(w2 * np.cos(3 * t2))
            return abs(val - ref)

        e4, e8 = err(4), err(8)
        assert e8 < e4 / 10


class TestChainRegions:
    def test_simplex_for_n1(self):
        regions = enumerate_chain(1, [3], 0.4)
        assert len(regions) == 1 and regions[0].weight == 1.0

    def test_k11_single_map(self):
        regions = enumerate_chain(2, [1, 1], 0.5)
        assert len(regions) == 1
        assert abs(regions[0].weight - 1.0) < 1e-14

    def test_k12_two_maps(self):
        g = 0.4
        regions = enumerate_chain(2, [1, 2], g)
        assert len(regions) == 2
        weights = sorted(r.weight for r in regions)
        expect = sorted([1.0, math.sin(math.pi * g)
                         / math.sin(2 * math.pi * g)])
        assert np.allclose(weights, expect)

    def test_weights_analytic_continuation_at_gamma_zero(self):
        # the gamma -> 0 continuation is the ratio of the sine arguments;
        # numeric weights stabilise onto it along gamma = 10^{-m}
        def continued(m1, k1, k2):
            out = 1.0
            for i in range(1, k1 + 1):
                out *= (i + k2 - k1 - m1[i - 1] + 1) / (i + k2 - k1)
            return out

        limits = {(1,): continued((1,), 1, 2), (2,): continued((2,), 1, 2)}
        prev = None
        for g in (1e-2, 1e-3, 1e-4):
            regions = enumerate_chain(2, [1, 2], g)
            worst = max(abs(r.weight - lim) for r, lim in
                        zip(regions, limits.values()))
            if prev is not None:
                assert worst < prev
            prev = worst
        assert prev < 1e-6

    def test_region_covering(self):
        rng = random.Random(7)
        assert region_covering_check(enumerate_chain(2, [1, 2], 0.4),
                                     2, [1, 2], rng)
        assert region_covering_check(enumerate_chain(2, [2, 2], 0.4),
                                     2, [2, 2], rng)
        assert region_covering_check(
            enumerate_companion_chain(2, [1, 1], 0.75, 0.5), 2, [1, 1],
            rng, companion=True)
        assert region_covering_check(
            enumerate_companion_chain(2, [1, 2], 0.75, 0.4), 2, [1, 2],
            rng, companion=True)


class TestAfltQuadrature:
    def test_k1_beta(self):
        v = aflt_lhs(1, P(), P(), 1.3, 0.8, 0.5)
        ref = selberg_rhs(1, 1.3, 0.8, 0.5).real
        assert abs(v - ref) < 1e-12 * ref

    def test_k1_moment(self):
        v = aflt_lhs(1, P(1), P(), 1.7, 2.2, 0.6)
        ref = (gamma(2.2) * gamma(2.7) / gamma(4.9)).real
        assert abs(v - ref) < 1e-12 * abs(ref)

    def test_k2_sanity_anchor(self):
        assert abs(aflt_lhs(2, P(), P(), 1.0, 1.0, 1.0) - 1 / 6) < 1e-12

    def test_k2_full(self):
        v = aflt_lhs(2, P(1), P(1), 2.0, 2.0, 1.0, npts=48)
        ref = aflt_rhs(2, P(1), P(1), 2.0, 2.0, 1.0).real
        assert abs(v - ref) < 1e-10 * abs(ref)


class TestChainQuadrature:
    def test_n2_selberg(self):
        g = 0.4
        spec = QuadratureSpec(points=24, tol=1e-8, max_refine=2)
        v, _ = an_selberg_lhs(2, [1, 2], [1.1, 1.3], 1.2, g, spec=spec)
        ref = an_selberg_rhs(2, [1, 2], [1.1, 1.3], 1.2, g).real
        assert abs(v - ref) < 1e-6 * abs(ref)

    def test_n2_aflt_average(self):
        g = 0.5
        spec = QuadratureSpec(points=32, tol=1e-9, max_refine=1)
        cb = jack_pair_callback(2, P(1), P(1), 1.3, g)
        num, _ = an_selberg_lhs(2, [1, 1], [1.2, 1.4], 1.3, g,
                                integrand=cb, spec=spec)
        den, _ = an_selberg_lhs(2, [1, 1], [1.2, 1.4], 1.3, g, spec=spec)
        ref = an_aflt_rhs(2, [1, 1], [1.2, 1.4], 1.3, g, P(1), P(1)).real
        assert abs(num / den - ref) < 1e-8 * abs(ref)

    def test_companion(self):
        g = 0.5
        b1 = 0.75
        b2 = g + 1 - b1
        spec = QuadratureSpec(points=32, tol=1e-8, max_refine=2)
        v, _ = an_selberg_lhs(2, [1, 1], [1.2, 1.4], None, g,
                              companion=(b1, b2), spec=spec)
        ref = an_alt_norm_rhs(2, [1, 1], [1.2, 1.4], b1, b2, g).real
        assert abs(v - ref) < 1e-4 * abs(ref)


class TestTorus:
    def test_unit(self):
        v = torus_integral(1, lambda z: np.ones_like(z), 1.0, 32)
        assert abs(v - 1) < 1e-14

    def test_laurent_coefficients(self):
        # picks out the z^0 coefficient
        v = torus_integral(1, lambda z: 3.0 + 2.0 * z + 0.5 / z, 0.8, 64)
        assert abs(v - 3.0) < 1e-13

    def test_mac_aflt(self):
        a, b, q, t = 0.45, 0.35, 0.3, 0.4
        v = mac_aflt_lhs(1, P(2), P(1), a, b, q, t, npts=256)
        ref = mac_aflt_rhs(1, P(2), P(1), a, b, q, t)
        assert abs(v - ref) < 1e-9 * abs(ref)

    def test_radius_independence(self):
        a, b, q, t = 0.45, 0.35, 0.3, 0.4
        v1 = mac_aflt_lhs(1, P(1), P(1), a, b, q, t, rho=(1 + b) / 2)
        v2 = mac_aflt_lhs(1, P(1), P(1), a, b, q, t, rho=(3 + b) / 4)
        assert abs(v1 - v2) < 1e-9 * abs(v1)

    def test_ortho(self):
        q, t = 0.3, 0.4
        v = ortho_norm_lhs(2, P(1), P(1), q, t, npts=96)
        ref = ortho_norm_rhs(2, P(1), q, t)
        assert abs(v - ref) < 1e-9 * abs(ref)
        off = ortho_norm_lhs(2, P(2), P(1, 1), q, t, npts=96)
        assert abs(off) < 1e-10

    def test_doubling_stability(self):
        a, b, q, t = 0.45, 0.35, 0.3, 0.4
        v1 = mac_aflt_lhs(1, P(1), P(1), a, b, q, t, npts=128)
        v2 = mac_aflt_lhs(1, P(1), P(1), a, b, q, t, npts=256)
        assert abs(v1 - v2) < 1e-10 * abs(v2)
