import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

from selbergkit import kernels
from selbergkit.coeffs import ell_gamma, qpoch_inf, theta
from selbergkit.elliptic import contour_pole_scan


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
        ref = np.array([ell_gamma(zz, p, q) for zz in z])
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-11


class TestEllgammaAgainstLogSum:
    """ellgamma_arr (blockwise products) against the log-sum reference, on
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


class TestPathsAgree:
    def test_numpy_twin_matches_active_path(self):
        z = _sample_z(seed=3)
        q = 0.35
        n = kernels.trunc_order(q)
        a = kernels.qpoch_inf_arr(z, q, n)
        b = kernels.qpoch_inf_arr_numpy(z, q, n)
        assert np.max(np.abs(a - b)) < 1e-13

        p = 0.2
        a = kernels.ellgamma_arr(z, p, q, kernels.trunc_order(p), n)
        b = kernels.ellgamma_arr_numpy(z, p, q, kernels.trunc_order(p), n)
        assert np.max(np.abs(a - b) / np.abs(b)) < 1e-12

        ts = np.random.default_rng(4).random((40, 3))
        ss = np.random.default_rng(5).random((40, 2))
        if kernels.HAS_NUMBA:
            a = kernels.vandermonde_pow_nb(ts, 1.0)
            b = kernels.vandermonde_pow_numpy(ts, 1.0)
            assert np.max(np.abs(a - b)) < 1e-14
            a = kernels.cross_pow_nb(ts, ss, -0.5)
            b = kernels.cross_pow_numpy(ts, ss, -0.5)
            assert np.max(np.abs(a - b) / np.abs(b)) < 1e-13

    def test_env_flag_forces_numpy(self):
        code = (
            "import os\n"
            "os.environ['SELBERGKIT_NO_NUMBA'] = '1'\n"
            "from selbergkit import kernels\n"
            "assert not kernels.HAS_NUMBA\n"
            "assert kernels.qpoch_inf_arr is kernels.qpoch_inf_arr_numpy\n"
            "print('fallback ok')\n"
        )
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert "fallback ok" in out.stdout
