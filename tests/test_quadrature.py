import math
import random
import tracemalloc

import numpy as np
import pytest

from selbergkit.closedform import (
    aflt_rhs, an_aflt_rhs, an_alt_avg_rhs, an_alt_norm_rhs, an_selberg_rhs,
    mac_aflt_rhs, ortho_norm_rhs, selberg_rhs,
)
from selbergkit import quadrature
from selbergkit.coeffs import gamma
from selbergkit.partitions import P
from selbergkit.quadrature import (
    QuadratureSpec, aflt_lhs, an_selberg_lhs, enumerate_chain,
    enumerate_companion_chain, gauss_jacobi_01, integrate_region,
    jack_pair_callback, mac_aflt_lhs, ortho_norm_lhs, region_covering_check,
    tanh_sinh_01,
)
from selbergkit import kernels
from selbergkit.kernels import torus_integral


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

    @pytest.mark.parametrize("p, q, bad", [(-1.5, 0.2, "p"), (-1.0, 0.2, "p"),
                                           (0.3, -1.0, "q")])
    def test_non_integrable_weight_is_rejected(self, p, q, bad):
        with pytest.raises(ValueError, match=f"exponent {bad} = "):
            gauss_jacobi_01(8, p, q)


class TestTanhSinh:
    @pytest.mark.parametrize("p, q", [(0.3, 0.4), (-0.9, 0.2), (2.5, -0.4),
                                      (0.0, 0.0)])
    def test_beta_mass(self, p, q):
        ref = math.gamma(1 + p) * math.gamma(1 + q) / math.gamma(2 + p + q)
        _, _, w = tanh_sinh_01(64, p, q, min(p, q))
        assert abs(w.sum() - ref) <= 1e-14 * ref

    def test_complements_are_accurate_where_nodes_round_to_one(self):
        v, u, _ = tanh_sinh_01(64, 0.2, -0.9, -0.9)
        assert np.all(v + u == pytest.approx(1.0, abs=1e-15))
        # below 1e-17 the complement carries digits that 1 - v has lost
        tiny = u < 1e-17
        assert tiny.any() and np.all(u[tiny] > 0) and np.all(v[tiny] == 1)

    @pytest.mark.parametrize("p", [-0.9, -0.99])
    def test_tail_left_out_is_negligible(self, p):
        # the truncation drops (e^{-pi sinh s_max})^{1 + p} <= 1e-17 of the
        # mass; 512 nodes leave only that and rounding
        ref = math.gamma(1 + p) / math.gamma(3 + p)
        _, _, w = tanh_sinh_01(512, p, 1.0, p)
        assert abs(w.sum() - ref) <= 1e-15 * ref

    def test_truncation_follows_the_worst_exponent(self):
        # a region's most negative exponent widens the rule of every axis
        reach = [tanh_sinh_01(32, 1.0, 1.0, worst)[0].min()
                 for worst in (1.0, 0.0, -0.4, -0.9)]
        assert reach == sorted(reach, reverse=True)
        assert reach[-1] < 1e-100

    def test_cached_rule_is_read_only(self):
        rule = tanh_sinh_01(12, 0.25, 0.5, 0.25)
        for arr in rule:
            with pytest.raises(ValueError):
                arr[0] = 0.0
        again = tanh_sinh_01(12, 0.25, 0.5, 0.25)
        assert all(a is b for a, b in zip(again, rule))

    @pytest.mark.parametrize("p, q, worst, bad", [
        (-1.0, 0.2, -1.0, "p"), (0.3, -1.5, -1.5, "q"),
        (0.3, 0.2, -1.0, "worst")])
    def test_non_integrable_weight_is_rejected(self, p, q, worst, bad):
        with pytest.raises(ValueError, match=f"exponent {bad} = "):
            tanh_sinh_01(8, p, q, worst)


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
        assert abs(v - ref) < 1e-12 * abs(ref)

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
        assert abs(v - ref) < 1e-12 * abs(ref)

    @pytest.mark.parametrize("alphas, g", [([0.0, 1.3], 0.4),
                                           ([1.1, 1.3], 1.0)])
    def test_non_integrable_chain_exponent_is_rejected(self, alphas, g):
        # alpha_1 = 0 puts t^{-1} on the smallest variable; gamma = 1 puts
        # |t1 - t2|^{-1} on a cross pair
        spec = QuadratureSpec(points=8, tol=0, max_refine=0)
        with pytest.raises(ValueError, match="must be > -1"):
            an_selberg_lhs(2, [1, 1], alphas, 1.2, g, spec=spec)


def _grid_shape(levels):
    return np.broadcast_shapes(*[a.shape for lv in levels if lv for a in lv])


def _ones(levels):
    return np.ones(_grid_shape(levels))


def _meshgrid_oracle(region, n, alphas, betas, g, integrand, npts):
    """The chain rule on full npts^m meshgrids, one array per factor.

    Each pointwise 1 - prod v is -expm1(sum log v), with log v taken from
    the complement 1 - v where v is near 1, not as a telescoping sum.
    """
    order, m = region.order, len(region.order)
    c = [[2 * g if a[0] == b[0] else -g for b in order] for a in order]
    mono = [alphas[key[0] - 1] - 1 for key in order]
    v_exp = [sum(mono[: j + 1]) + j
             + sum(c[i][l] for l in range(1, j + 1) for i in range(l))
             for j in range(m)]
    q_exp = [c[j][j + 1] for j in range(m - 1)] \
        + [betas[order[-1][0] - 1] - 1]
    worst = min(v_exp + q_exp)
    rules = [tanh_sinh_01(npts, p, q, worst) for p, q in zip(v_exp, q_exp)]
    grids = np.meshgrid(*[v for v, _, _ in rules], indexing="ij")
    logs = np.meshgrid(*[np.where(v < 0.5, np.log(v),
                                  np.log1p(-np.minimum(u, 0.5)))
                         for v, u, _ in rules], indexing="ij")
    weight = np.prod(np.meshgrid(*[w for _, _, w in rules], indexing="ij"),
                     axis=0)
    ws = [np.prod(grids[j:], axis=0) for j in range(m)]

    def one_minus(a, b):  # 1 - prod_{l=a}^{b} v_l
        return -np.expm1(np.sum(logs[a:b + 1], axis=0))

    rest = np.ones_like(grids[0])
    for i in range(m):
        for j in range(i + 2, m):
            rest = rest * one_minus(i, j - 1) ** c[i][j]
        if i < m - 1:
            rest = rest * one_minus(i, m - 1) ** (betas[order[i][0] - 1] - 1)
    levels = [[w for w, key in zip(ws, order) if key[0] == r]
              for r in range(1, n + 1)]
    arrays = [lv or None for lv in levels]
    return np.sum(weight * rest * integrand(arrays)) * region.weight


class TestSlabbedChainRule:
    G = 0.4

    def _check(self, region, ks, alphas, betas, integrand, npts, slabs):
        sizes = []

        def counted(levels):
            sizes.append(_grid_shape(levels))
            return integrand(levels)

        got = integrate_region(region, 2, ks, alphas, betas, self.G,
                               counted, npts)
        ref = _meshgrid_oracle(region, 2, alphas, betas, self.G, integrand,
                               npts)
        assert abs(got - ref) <= 1e-13 * abs(ref)
        nodes = [math.prod(shape) for shape in sizes]
        assert len(nodes) == slabs
        assert max(nodes) <= 1 << 16
        assert sum(nodes) == npts ** len(region.order)

    @pytest.mark.parametrize("which", ["jack-pair", "default"])
    def test_k12_with_a_ragged_last_slab(self, which):
        # 96 = 13 * 7 + 5: slabs of 7 rows of 96^2 nodes, then 5 rows
        integrand = jack_pair_callback(2, P(1), P(1), 1.3, self.G) \
            if which == "jack-pair" else _ones
        for region in enumerate_chain(2, [1, 2], self.G):
            self._check(region, [1, 2], [1.1, 1.3], [1.0, 1.3], integrand,
                        96, slabs=14)

    def test_companion_region(self):
        b1, b2 = 0.75, 0.65
        region = enumerate_companion_chain(2, [1, 2], b1, self.G)[-1]
        cb = jack_pair_callback(2, P(2), P(1), b2, self.G)
        # 48 = 28 + 20 rows of 48^2 nodes
        self._check(region, [1, 2], [1.1, 1.3], [b1, b2], cb, 48, slabs=2)

    def test_two_variables_fit_one_slab(self):
        region = enumerate_chain(2, [1, 1], self.G)[0]
        cb = jack_pair_callback(2, P(1), P(1), 1.3, self.G)
        self._check(region, [1, 1], [1.2, 1.4], [1.0, 1.3], cb, 64, slabs=1)

    def test_memory_does_not_grow_with_the_tensor_rule(self):
        # the full 96^3 tensor rule holds 884,736 nodes per array
        cb = jack_pair_callback(2, P(1), P(1), 1.3, self.G)
        spec = QuadratureSpec(points=96, tol=0, max_refine=0)

        def run():
            return an_selberg_lhs(2, [1, 2], [1.1, 1.3], 1.3, self.G,
                                  integrand=cb, spec=spec)

        run()  # warms the Gauss-Jacobi rules and the Jack polynomial
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_open_grid_memory(self):
        # the integrand sees per-axis arrays and the weights are contracted
        # axis by axis, so no slab-sized array is stacked or weighted whole
        cb = jack_pair_callback(2, P(1), P(1), 1.3, self.G)
        spec = QuadratureSpec(points=96, tol=0, max_refine=0)
        assert _traced_peak(lambda: an_selberg_lhs(
            2, [1, 2], [1.1, 1.3], 1.3, self.G, integrand=cb,
            spec=spec)) <= 4.5e6

    def test_levels_are_open_grid_arrays(self):
        region = enumerate_chain(2, [1, 2], self.G)[0]
        seen = []

        def record(levels):
            seen.append([[a.shape for a in lv] if lv else None
                         for lv in levels])
            return 1.0

        integrate_region(region, 2, [1, 2], [1.1, 1.3], [1.0, 1.3], self.G,
                         record, 8)
        # the variable at position j of the order varies along axes j..2
        shapes = {key: shape for key, shape in zip(
            region.order, [(8, 8, 8), (1, 8, 8), (1, 1, 8)])}
        assert seen == [[[shapes[(1, 1)]], [shapes[(2, 1)], shapes[(2, 2)]]]]


def _traced_peak(run):
    """Peak traced allocation of run(), after one warming call."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _full_torus(n, f, rho=1.0, npts=256):
    """The torus rule on flat arrays of the full npts^n meshgrid."""
    angles = 2 * np.pi * (np.arange(npts) + 0.5) / npts
    radii = [float(rho)] * n if np.ndim(rho) == 0 else list(rho)
    circles = [r * np.exp(1j * angles) for r in radii]
    flat = [g.reshape(-1) for g in np.meshgrid(*circles, indexing="ij")]
    return complex(np.sum(f(*flat))) / npts ** n


class TestOpenGrid:
    def test_simplex_memory(self):
        assert _traced_peak(lambda: aflt_lhs(
            2, P(1, 1), P(2), 2.0, 2.0, 0.5, npts=256)) <= 4.5e6

    def test_simplex_against_full_grid(self):
        s, ws = gauss_jacobi_01(32, 1.0, 1.0)
        v, wv = gauss_jacobi_01(32, 4.0, 1.0)
        S, V = np.meshgrid(s, v, indexing="ij")
        t1, t2 = S * V, V
        e1, e2 = t1 + t2, t1 * t2
        # P_(1,1) = e_2 at any gamma; the shift beta/gamma - 1 is 3, and
        # P_(1)[t + 3] = e_1 + 3
        ref = 2 * np.sum(np.outer(ws, wv) * (1 - t1) * e2 * (e1 + 3))
        got = aflt_lhs(2, P(1, 1), P(1), 2.0, 2.0, 0.5, npts=32)
        assert abs(got - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("lhs", [
        lambda: mac_aflt_lhs(2, P(1), P(2), 0.45, 0.35, 0.3, 0.4, npts=64),
        lambda: ortho_norm_lhs(2, P(1), P(1), 0.3, 0.4, npts=64),
        lambda: ortho_norm_lhs(2, P(2), P(2), 0.3, 0.4, npts=64),
    ], ids=["mac-aflt", "ortho-(1)", "ortho-(2)"])
    def test_torus_against_full_meshgrid(self, monkeypatch, lhs):
        got = lhs()
        monkeypatch.setattr(quadrature, "torus_integral", _full_torus)
        ref = lhs()
        assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_torus_counts_a_variable_the_integrand_ignores(self):
        assert torus_integral(2, lambda z1, z2: np.ones_like(z1),
                              1.0, 16) == 1
        assert torus_integral(3, lambda *zs: 2.0, 0.9, 8) == 2


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

    def test_gathered_pair_factors_at_n3(self):
        # no suite runs n = 3: the pair factors gathered by node offset
        # against a direct evaluation at every node of a 16-point torus
        q, t, npts = 0.3, 0.4, 16
        nt = kernels.trunc_order(q)
        angles = 2 * np.pi * (np.arange(npts) + 0.5) / npts
        zs = np.meshgrid(*[0.8 * np.exp(1j * angles)] * 3, indexing="ij",
                         sparse=True)
        direct = 1.0
        for i in range(3):
            for j in range(i + 1, 3):
                r = zs[i] / zs[j]
                direct = direct * kernels.qpoch_inf_arr(r, q, nt) \
                    * kernels.qpoch_inf_arr(1 / r, q, nt) \
                    / kernels.qpoch_inf_arr(t * r, q, nt) \
                    / kernels.qpoch_inf_arr(t / r, q, nt)
        got = quadrature._torus_pair_weight(3, q, t, npts)(zs)
        assert got.shape == direct.shape == (npts,) * 3
        assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))
        assert np.all(got[np.arange(npts), np.arange(npts), :] == 0)

    def test_unequal_radii_are_rejected(self):
        with pytest.raises(ValueError, match="one radius"):
            mac_aflt_lhs(2, P(1), P(1), 0.45, 0.35, 0.3, 0.4,
                         rho=[0.7, 0.8], npts=16)

    def test_doubling_stability(self):
        a, b, q, t = 0.45, 0.35, 0.3, 0.4
        v1 = mac_aflt_lhs(1, P(1), P(1), a, b, q, t, npts=128)
        v2 = mac_aflt_lhs(1, P(1), P(1), a, b, q, t, npts=256)
        assert abs(v1 - v2) < 1e-10 * abs(v2)
