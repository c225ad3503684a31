import tracemalloc

import mpmath
import numpy as np
import pytest

from selbergkit import kernels
from selbergkit.coeffs import ell_gamma, qpoch_inf, theta
from selbergkit.elliptic import _gamma_weight_factory, contour_pole_scan


def _sample_z(n=64, seed=0):
    rng = np.random.default_rng(seed)
    mod = 0.6 + 0.6 * rng.random(n)
    arg = 2 * np.pi * rng.random(n)
    return mod * np.exp(1j * arg)


def _ellgamma_log_sum(z, p, q, n_p, n_q):
    """Reference: the truncated elliptic gamma product as one sum of
    complex logarithms per factor, exponentiated at the end."""
    acc = np.zeros_like(z, dtype=np.complex128)
    pq_over_z = (p * q) / z
    ppow = 1.0 + 0.0j
    for _ in range(n_p):
        num = pq_over_z * ppow
        den = z * ppow
        for _ in range(n_q):
            acc += np.log(1.0 - num) - np.log(1.0 - den)
            num = num * q
            den = den * q
        ppow *= p
    return np.exp(acc)


def _ellgamma_rectangle(z, p, q, n_p, n_q):
    """Reference: the full n_p x n_q rectangle of factors, one p-power at a
    time, with no factor left out."""
    qpow = q ** np.arange(n_q, dtype=np.complex128)[:, None]
    out = np.ones(z.shape, dtype=np.complex128)
    ppow = 1.0 + 0.0j
    for _ in range(n_p):
        block = ppow * qpow
        out *= (np.prod(1.0 - block * (p * q / z), axis=0)
                / np.prod(1.0 - block * z, axis=0))
        ppow *= p
    return out


# the annulus grid of elliptic.contour_pole_scan
_SCAN_RADII = np.linspace(0.82, 1.22, 17)


def _ring(rho, n=64):
    return rho * np.exp(2j * np.pi * np.arange(n) / n)


class TestAgainstScalarReferences:
    def test_qpoch_inf(self):
        z = _sample_z()
        q = 0.3
        n = kernels.trunc_order(q)
        got = kernels.qpoch_inf_arr(z, q, n)
        ref = np.array([qpoch_inf(zz, q) for zz in z])
        assert np.max(np.abs(got - ref)) < 1e-12

    @pytest.mark.parametrize("z", [
        _sample_z().reshape(8, 8), _sample_z()[:, None],
        np.linspace(-1.5, 1.5, 21), np.array([0.5, np.nan, np.inf]),
    ], ids=["complex-2d", "column", "real", "non-finite"])
    def test_qpoch_inf_in_place_is_the_per_term_product(self, z):
        q = 0.35 - 0.2j
        n = kernels.trunc_order(abs(q))
        ref = np.ones_like(z, dtype=np.complex128)
        qp = 1.0 + 0.0j
        with np.errstate(invalid="ignore"):
            for _ in range(n):
                ref = ref * (1.0 - z * qp)
                qp *= q
            got = kernels.qpoch_inf_arr(z, q, n)
        assert got.shape == z.shape
        assert np.array_equal(got, ref, equal_nan=True)

    def test_theta(self):
        z = _sample_z(seed=1)
        p = 0.25
        n = kernels.trunc_order(p)
        got = kernels.theta_arr(z, p, n)
        ref = np.array([theta(zz, p) for zz in z])
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_ellgamma(self):
        z = _sample_z(seed=2)
        p, q = 0.2, 0.25
        np_, nq = kernels.trunc_order(p), kernels.trunc_order(q)
        got = kernels.ellgamma_arr(z, p, q, np_, nq)
        ref = _ellgamma_log_sum(z, p, q, np_, nq)
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-11

    def test_scalar_routes_at_twice_the_orders(self):
        # coeffs.ell_gamma (the kernel at one point, at the trunc_order
        # caps) and the scalar theta against both references at twice the
        # caps.  With q = 0 and one q-power a reference is 1/(z; p)_inf.
        for z, p, q in [(0.7 + 0.3j, 0.4, 0.35),
                        (0.95 * np.exp(2j), 1e-3, 0.45),
                        (0.3 - 0.5j, 0.2 * np.exp(1j), 0.25)]:
            n_p = 2 * kernels.trunc_order(abs(p))
            n_q = 2 * kernels.trunc_order(q)
            for ref in (_ellgamma_log_sum, _ellgamma_rectangle):
                want = ref(np.array([z]), p, q, n_p, n_q)[0]
                assert abs(ell_gamma(z, p, q) - want) <= 1e-12 * abs(want)
                want = 1 / (ref(np.array([z]), p, 0.0, n_p, 1)[0]
                            * ref(np.array([p / z]), p, 0.0, n_p, 1)[0])
                assert abs(theta(z, p) - want) <= 1e-12 * abs(want)


class TestEllgammaAgainstLogSum:
    """ellgamma_arr against the log-sum reference, on
    the arguments of the elliptic torus weights over the pole-scan annulus."""

    @pytest.mark.parametrize("p,q,t", [(1e-3, 0.45, 0.4),
                                       (0.0015, 0.42, 0.15),
                                       (0.2, 0.25, 0.4)])
    def test_scan_annulus_arguments(self, p, q, t):
        n_p, n_q = kernels.trunc_order(p), kernels.trunc_order(q)
        worst = 0.0
        for rho in _SCAN_RADII:
            z = _ring(rho)
            for arg in (t * z, t / z, z ** 2, z ** -2):
                got = kernels.ellgamma_arr(arg, p, q, n_p, n_q)
                ref = _ellgamma_log_sum(arg, p, q, n_p, n_q)
                worst = max(worst, np.max(np.abs(got - ref) / np.abs(ref)))
        assert worst < 1e-13

    def test_shape_is_kept(self):
        z = _sample_z(seed=6).reshape(8, 8)
        got = kernels.ellgamma_arr(z, 0.2, 0.25, 24, 27)
        assert got.shape == (8, 8)
        ref = _ellgamma_log_sum(z.reshape(-1), 0.2, 0.25, 24, 27)
        assert np.max(np.abs(got.reshape(-1) - ref) / np.abs(ref)) < 1e-13

    @pytest.mark.parametrize("p,q", [(1e-3, 0.45), (0.2, 0.25)])
    def test_pole_is_not_finite(self, p, q):
        # poles of Gamma(z; p, q) at z = p^-j q^-k: z = 1 and z = 1/q
        z = np.array([1.0, 1.0 / q, 0.9 + 0.1j], dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            got = kernels.ellgamma_arr(z, p, q, kernels.trunc_order(p),
                                       kernels.trunc_order(q))
        assert not np.isfinite(got[0])
        assert not np.isfinite(got[1])
        assert np.isfinite(got[2])

    @pytest.mark.parametrize("p,q", [(1e-3, 0.45), (0.2, 0.25)])
    def test_zero_at_pq(self, p, q):
        # 1 - pq/z is the first numerator factor
        z = np.array([p * q, 0.9 + 0.1j], dtype=np.complex128)
        got = kernels.ellgamma_arr(z, p, q, kernels.trunc_order(p),
                                   kernels.trunc_order(q))
        assert got[0] == 0
        assert got[1] != 0 and np.isfinite(got[1])

    def test_pole_scan_rejects_a_pole_on_its_grid(self):
        p, q = 1e-3, 0.45
        n_p, n_q = kernels.trunc_order(p), kernels.trunc_order(q)
        rho0 = _SCAN_RADII[4]

        def with_pole(z):
            # z / rho0 = 1 at the first angle of the ring of radius rho0
            return kernels.ellgamma_arr(z / rho0, p, q, n_p, n_q)

        def without_pole(z):
            return kernels.ellgamma_arr(0.4 * z, p, q, n_p, n_q)

        with np.errstate(divide="ignore", invalid="ignore"):
            assert contour_pole_scan(with_pole) is False
        assert contour_pole_scan(without_pole) is True

    def test_many_chunks_against_log_sum(self):
        # more points than one chunk of the series' buffers holds, so the
        # call works through several chunks with one set of coefficients
        p, q = 0.2, 0.25
        n_p, n_q = kernels.trunc_order(p), kernels.trunc_order(q)
        z = _sample_z(n=5000, seed=7)
        got = kernels.ellgamma_arr(z, p, q, n_p, n_q)
        ref = _ellgamma_log_sum(z, p, q, n_p, n_q)
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13

    @pytest.mark.parametrize("p,q", [(1e-3, 0.45), (0.2, 0.25)])
    def test_wide_spread_of_magnitudes(self, p, q):
        # |z| from 1e-2 to 1e5, smallest first: the multiplied-out factors
        # of z and of pq/z run out at different p-powers, set by the
        # largest and the smallest point.  Against the full rectangle: at
        # |z| ~ 1e4 the log sum itself is off by about 4e-13.
        n_p, n_q = kernels.trunc_order(p), kernels.trunc_order(q)
        z = np.logspace(-2, 5, 257) * np.exp(1j * np.linspace(0.3, 6, 257))
        got = kernels.ellgamma_arr(z, p, q, n_p, n_q)
        ref = _ellgamma_rectangle(z, p, q, n_p, n_q)
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13

    def test_non_finite_point_keeps_every_factor(self):
        p, q = 1e-3, 0.45
        n_p, n_q = kernels.trunc_order(p), kernels.trunc_order(q)
        z = np.array([np.nan, 0.9 + 0.1j, 0.5j])
        with np.errstate(invalid="ignore"):
            got = kernels.ellgamma_arr(z, p, q, n_p, n_q)
        assert np.isnan(got[0])
        ref = _ellgamma_log_sum(z[1:], p, q, n_p, n_q)
        assert np.max(np.abs(got[1:] - ref) / np.abs(ref)) < 1e-13

    def test_empty_input(self):
        got = kernels.ellgamma_arr(np.zeros((0, 3), dtype=np.complex128),
                                   0.2, 0.25, 24, 27)
        assert got.shape == (0, 3)


def _scan_arguments(t):
    """The arguments t z, t/z, z^2 and z^-2 of the torus weights, over
    the 17 rings of the pole scan, one ring per array."""
    for rho in _SCAN_RADII:
        z = _ring(rho)
        yield from (t * z, t / z, z ** 2, z ** -2)


def _ellgamma_mpmath(z, p, q, n_p, n_q):
    """Reference: the n_p x n_q rectangle of factors at the float inputs,
    multiplied out in mpmath at 30 digits."""
    out = []
    with mpmath.workdps(30):
        p, q = mpmath.mpc(p), mpmath.mpc(q)
        for x in z:
            x = mpmath.mpc(x)
            y = p * q / x
            num = den = pj = mpmath.mpc(1)
            for _ in range(n_p):
                b = pj
                for _ in range(n_q):
                    num *= 1 - b * y
                    den *= 1 - b * x
                    b *= q
                pj *= p
            out.append(complex(num / den))
    return np.array(out)


class TestEllgammaSeriesRoute:
    """ellgamma_arr multiplies out the factors above 1/4 over the call's
    points and sums the rest as one series; the references multiply out
    every factor."""

    @pytest.mark.parametrize("p,q,t", [
        (1e-3, 0.45, 0.4),
        (1e-3 * np.exp(0.7j), 0.45 * np.exp(-0.4j), 0.4 * np.exp(0.3j)),
        (0.45, 1e-3, 0.4),          # |p| > |q|: the call swaps them
        (0.0, 0.45, 0.4),
        (0.05, 0.3, 0.35),
    ], ids=["real", "complex", "swapped", "p-zero", "larger-p"])
    def test_scan_rings_against_both_references(self, p, q, t):
        n_p, n_q = kernels.trunc_order(abs(p)), kernels.trunc_order(abs(q))
        worst = 0.0
        for arg in _scan_arguments(t):
            got = kernels.ellgamma_arr(arg, p, q, n_p, n_q)
            for ref in (_ellgamma_log_sum(arg, p, q, n_p, n_q),
                        _ellgamma_rectangle(arg, p, q, n_p, n_q)):
                worst = max(worst, np.max(np.abs(got - ref) / np.abs(ref)))
        assert worst < 1e-13

    def test_far_points_in_one_call(self):
        # ring points and points of modulus about 1e3 in one call: the far
        # points set what is multiplied out, and the ring points keep their
        # values
        p, q = 1e-3, 0.45
        n_p, n_q = kernels.trunc_order(p), kernels.trunc_order(q)
        z = np.concatenate([_ring(0.9), 1e3 * _ring(1.02, 16)])
        got = kernels.ellgamma_arr(z, p, q, n_p, n_q)
        ref = _ellgamma_rectangle(z, p, q, n_p, n_q)
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13
        ring = kernels.ellgamma_arr(z[:64], p, q, n_p, n_q)
        assert np.max(np.abs(ring - got[:64]) / np.abs(ref[:64])) < 1e-13

    @pytest.mark.parametrize("p,q", [
        (0.45, 0.47), (0.3 * np.exp(0.4j), 0.4 * np.exp(-1j)), (0.2, 0.25),
    ], ids=["large", "complex", "p0.2"])
    def test_wide_spread_against_mpmath(self, p, q):
        # |z| from 1e-2 to 1e5 in one call; the numpy references drift by
        # up to 4e-13 here
        n_p, n_q = kernels.trunc_order(abs(p)), kernels.trunc_order(abs(q))
        z = np.logspace(-2, 5, 11) * np.exp(1j * np.linspace(0.3, 6, 11))
        got = kernels.ellgamma_arr(z, p, q, n_p, n_q)
        ref = _ellgamma_mpmath(z, p, q, n_p, n_q)
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13

    def test_points_far_apart_overflow_nothing(self):
        # at |z| = 1e-13 the series' powers (1/z)^n would overflow by
        # n = 24, within its degree; it takes them as powers of min|z| / z
        # and z / max|z|
        p, q = 1e-3, 0.45
        n_p, n_q = kernels.trunc_order(p), kernels.trunc_order(q)
        z = np.array([1e-13 * np.exp(0.3j), 0.9 + 0.1j, 1e9 * np.exp(2j)])
        got = kernels.ellgamma_arr(z, p, q, n_p, n_q)
        ref = _ellgamma_mpmath(z, p, q, n_p, n_q)
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_a_zero_or_non_finite_point_leaves_the_others(self, bad):
        p, q = 0.2, 0.25
        n_p, n_q = kernels.trunc_order(p), kernels.trunc_order(q)
        z = _sample_z(n=16, seed=3)
        want = kernels.ellgamma_arr(z, p, q, n_p, n_q)
        z[5] = bad
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            got = kernels.ellgamma_arr(z, p, q, n_p, n_q)
        assert not np.isfinite(got[5])
        assert np.array_equal(np.delete(got, 5), np.delete(want, 5))

    def test_rows_are_the_product_of_one_row_calls(self):
        # Gamma(c_r z^e_r)^s_r over rows of every power and sign
        p, q = 0.05 * np.exp(0.3j), 0.42
        n_p, n_q = kernels.trunc_order(abs(p)), kernels.trunc_order(q)
        c, e, s = [0.4, 0.7j, 1.0, 0.3], [1, -1, 2, -2], [1, -1, -1, 1]
        z = _sample_z(n=48, seed=4)
        got = kernels.ellgamma_product(z, c, e, s, p, q, n_p, n_q)
        want = np.ones_like(z)
        for cr, er, sr in zip(c, e, s):
            want *= _ellgamma_rectangle(cr * z ** er, p, q, n_p, n_q) ** sr
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13

    def test_a_nome_outside_the_disc_is_rejected(self):
        with pytest.raises(ValueError, match="modulus 1.0"):
            kernels.ellgamma_arr(_sample_z(n=4), 0.2, 1.0, 24, 40)


@pytest.mark.parametrize("m", [1.0, 1.5, float("nan")])
def test_trunc_order_rejects_a_modulus_outside_the_disc(m):
    with pytest.raises(ValueError, match=f"modulus {m}"):
        kernels.trunc_order(m)


def _weight_rectangle(ts, p, q):
    """Reference weight prod_r Gamma(t_r z^pm) / (Gamma(z^2) Gamma(z^-2)),
    one full-rectangle product per argument."""
    n_p, n_q = kernels.trunc_order(abs(p)), kernels.trunc_order(abs(q))

    def weight(z):
        num = np.ones_like(z)
        for tr in ts:
            num = num * _ellgamma_rectangle(tr * z, p, q, n_p, n_q)
            num = num * _ellgamma_rectangle(tr / z, p, q, n_p, n_q)
        return num / (_ellgamma_rectangle(z ** 2, p, q, n_p, n_q)
                      * _ellgamma_rectangle(z ** -2, p, q, n_p, n_q))

    return weight


def _half_step_nodes(npts):
    return np.exp(2j * np.pi * (np.arange(npts) + 0.5) / npts)


# two balanced draws like the elliptic suites', and p = 0.2, q = 0.25,
# where the kept q-range shrinks with the p-power
_WEIGHT_PARAMS = [
    ([0.4, 0.15, 0.4, 0.35, 0.4, 0.2], 0.4 * 0.15 * 0.4 * 0.35 * 0.4 * 0.2
     / 0.45, 0.45),
    ([0.43, 0.13, 0.37, 0.32, 0.39, 0.16], 0.43 * 0.13 * 0.37 * 0.32 * 0.39
     * 0.16 / 0.47, 0.47),
    ([0.4, 0.1, 0.4, 0.35, 0.4, 0.1], 0.2, 0.25),
]


class TestGammaWeight:
    """elliptic._gamma_weight_factory, one ellgamma_product call on the 14
    rows, against the weight built from full-rectangle products."""

    @pytest.mark.parametrize("ts,p,q", _WEIGHT_PARAMS)
    def test_against_full_rectangle(self, ts, p, q):
        got = _gamma_weight_factory(ts, p, q)
        ref = _weight_rectangle(ts, p, q)
        points = [_ring(rho) for rho in _SCAN_RADII]
        points += [_half_step_nodes(160), _half_step_nodes(192)]
        worst = 0.0
        for z in points:
            want = ref(z)
            worst = max(worst, np.max(np.abs(got(z) - want) / np.abs(want)))
        assert worst <= 1e-13

    def test_keeps_the_shape(self):
        ts, p, q = _WEIGHT_PARAMS[0]
        z = _ring(0.9, 600).reshape(20, 30)
        got = _gamma_weight_factory(ts, p, q)(z)
        assert got.shape == (20, 30)
        want = _weight_rectangle(ts, p, q)(z.reshape(-1))
        assert np.max(np.abs(got.reshape(-1) - want) / np.abs(want)) <= 1e-13

    def test_pole_on_a_scan_ring_fails_the_scan(self):
        ts, p, q = _WEIGHT_PARAMS[0]
        rho0 = _SCAN_RADII[4]
        # Gamma(t_1 z) has a pole at t_1 z = 1: the first point of ring 4
        with_pole = _gamma_weight_factory([1 / rho0] + ts[1:], p, q)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert contour_pole_scan(with_pole) is False
        assert contour_pole_scan(_gamma_weight_factory(ts, p, q)) is True

    def test_peak_memory_does_not_grow_with_the_points(self):
        ts, p, q = _WEIGHT_PARAMS[0]
        weight = _gamma_weight_factory(ts, p, q)
        z = _half_step_nodes(96 * 96)
        tracemalloc.start()
        try:
            weight(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 ** 20, peak


def _suite_draws():
    """The (ts, p, q) of every torus case of the elliptic suites at three
    seeds."""
    from selbergkit.suites_elliptic import (
        cases_elliptic_aflt, cases_elliptic_beta, cases_thm92)
    return [(c["ts"], c["p"], c["q"]) for seed in (5, 7, 11)
            for cases in (cases_elliptic_beta, cases_thm92,
                          cases_elliptic_aflt)
            for c in cases({"seed": seed})]


class TestWeightSeriesRoute:
    """The weight as one ellgamma_product call, against the weight built
    from full-rectangle products."""

    def test_suite_draws_take_the_series_route(self):
        draws = _suite_draws()
        assert len(draws) == 33
        for ts, p, q in draws:
            weight = _gamma_weight_factory(ts, p, q)
            assert contour_pole_scan(weight) is True
            for npts in (160, 192):
                assert np.isfinite(weight(_half_step_nodes(npts))).all()

    def test_suite_draws_against_full_rectangle(self):
        points = [_ring(rho) for rho in _SCAN_RADII]
        points += [_half_step_nodes(160), _half_step_nodes(192)]
        worst = 0.0
        for ts, p, q in _suite_draws()[::4]:
            got, ref = _gamma_weight_factory(ts, p, q), _weight_rectangle(
                ts, p, q)
            for z in points:
                w = ref(z)
                worst = max(worst, np.max(np.abs(got(z) - w) / np.abs(w)))
        assert worst <= 1e-13

    def test_large_p_against_full_rectangle(self):
        # pq = 0.05 and t_2 = 0.1 put |pq| / min|t_2 z| above 1/4, so
        # numerator factors are multiplied out too
        ts, p, q = _WEIGHT_PARAMS[2]
        ref = _weight_rectangle(ts, p, q)
        weight = _gamma_weight_factory(ts, p, q)
        for z in (_ring(_SCAN_RADII[0]), _half_step_nodes(160)):
            got = weight(z)
            want = ref(z)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    def test_a_ratio_just_above_a_quarter_against_full_rectangle(self):
        # on the unit circle |p| max|z^2| = 0.3 and |pq| / min|t_r z| =
        # 0.3: the first p-row's first factors of both sides are
        # multiplied out
        ts, p, q = [0.35] * 6, 0.3, 0.35
        z = _half_step_nodes(160)
        got = _gamma_weight_factory(ts, p, q)(z)
        want = _weight_rectangle(ts, p, q)(z)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_a_zero_or_non_finite_point_leaves_the_others(self, bad):
        ts, p, q = _WEIGHT_PARAMS[0]
        weight = _gamma_weight_factory(ts, p, q)
        z = _half_step_nodes(16)
        want = weight(z)
        z[3] = bad
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            got = weight(z)
        assert not np.isfinite(got[3])
        assert np.array_equal(np.delete(got, 3), np.delete(want, 3))


class TestPoleScanGrid:
    def test_one_call_on_the_whole_grid(self):
        shapes = []

        def f(z):
            shapes.append(z.shape)
            return np.ones_like(z)

        assert contour_pole_scan(f) is True
        assert shapes == [(17, 64)]

    @pytest.mark.parametrize("value", [np.inf, 1e7])
    def test_the_last_ring_alone_fails_the_scan(self, value):
        def f(z):
            return np.where(np.abs(z) > 1.2, value, 1.0)

        assert contour_pole_scan(f) is False
