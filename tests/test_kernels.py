"""Unit tests for heat kernels and the boundary-constant quadrature."""

import numpy as np
import pytest

from openkpz import kernels


class TestGauss:
    def test_normalization(self):
        x = np.linspace(-12, 12, 20001)
        for t in (0.05, 0.3, 1.0):
            mass = np.trapezoid(kernels.gauss_kernel(t, x), x)
            assert abs(mass - 1.0) < 1e-12

    def test_variance_matches_half_laplacian(self):
        # d/dt p = (1/2) d^2/dx^2 p => variance t.
        x = np.linspace(-12, 12, 20001)
        p = kernels.gauss_kernel(0.7, x)
        assert abs(np.trapezoid(x**2 * p, x) - 0.7) < 1e-10


class TestNeumann:
    def test_matches_spectral(self):
        xs = np.linspace(0, 1, 17)
        for t in (0.05, 0.2, 1.0):
            img, tail = kernels.neumann_kernel(t, xs[:, None], xs[None, :])
            spec = kernels.neumann_kernel_spectral(t, xs[:, None], xs[None, :])
            assert np.max(np.abs(img - spec)) < 1e-10
            assert tail < 1e-10

    def test_mass_conservation(self):
        xs = np.linspace(0, 1, 513)
        img, _ = kernels.neumann_kernel(0.3, xs[:, None], xs[None, :])
        masses = np.trapezoid(img, xs, axis=1)
        assert np.max(np.abs(masses - 1.0)) < 1e-8

    def test_tail_bound_decreasing_in_images(self):
        assert kernels.neumann_tail_bound(0.5, 30) < kernels.neumann_tail_bound(0.5, 10)

    def test_symmetry(self):
        xs = np.linspace(0, 1, 33)
        img, _ = kernels.neumann_kernel(0.2, xs[:, None], xs[None, :])
        assert np.max(np.abs(img - img.T)) < 1e-13


class TestRobin:
    def test_symmetry(self):
        k = kernels.robin_kernel(0.2, 1.0, 2.0, n=128)
        assert np.max(np.abs(k - k.T)) < 1e-10

    def test_reduces_to_neumann_at_half(self):
        n = 256
        xs = np.linspace(0, 1, n + 1)
        robin = kernels.robin_kernel(0.1, 0.5, 0.5, n=n)
        neu, _ = kernels.neumann_kernel(0.1, xs[:, None], xs[None, :])
        assert np.max(np.abs(robin - neu)) < 1e-4

    def test_converges_to_neumann_at_second_order(self):
        # sup errors 3.2e-3, 9.1e-4, 2.5e-4, 6.1e-5 at n = 32..256: orders 1.84, 1.88, 2.00
        errors = []
        for n in (32, 64, 128, 256):
            xs = np.linspace(0, 1, n + 1)
            neu, _ = kernels.neumann_kernel(0.1, xs[:, None], xs[None, :], M=20)
            errors.append(np.max(np.abs(kernels.robin_kernel(0.1, 0.5, 0.5, n=n) - neu)))
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all(orders >= 1.75), (errors, orders)

    def test_positive_at_long_times(self):
        k = kernels.robin_kernel(1.0, 1.0, 1.0, n=64)
        assert k.min() > 0

    def test_semigroup_property(self):
        # P_{s+t} = P_s P_t with trapezoid weights on the shared variable.
        n, dx = 128, 1.0 / 128
        k1 = kernels.robin_kernel(0.1, 1.0, 0.0, n=n)
        k2 = kernels.robin_kernel(0.2, 1.0, 0.0, n=n)
        w = np.full(n + 1, dx)
        w[0] = w[-1] = dx / 2
        composed = k1 @ (w[:, None] * k1)
        assert np.max(np.abs(composed - k2)) < 2e-3

    @pytest.mark.parametrize("u, v", [(np.nan, 0.5), (0.5, np.inf)])
    def test_nonfinite_slope_rejected(self, u, v):
        with pytest.raises(ValueError, match=rf"slopes must be finite \(u={u}, v={v}\)"):
            kernels.robin_laplacian(4, u, v)


class TestMollifier:
    def test_unit_mass(self):
        for rho in (kernels.Mollifier(1.0, 1.0), kernels.Mollifier(0.5, 0.7)):
            s = np.linspace(-rho.time_radius, rho.time_radius, 4001)
            y = np.linspace(-rho.space_radius, rho.space_radius, 4001)
            vals = rho(s[:, None], y[None, :])
            mass = np.trapezoid(np.trapezoid(vals, y, axis=1), s)
            assert abs(mass - 1.0) < 1e-5

    def test_support(self):
        rho = kernels.Mollifier(0.5, 0.7)
        assert rho(0.51, 0.0) == 0.0
        assert rho(0.0, 0.71) == 0.0
        assert rho(0.0, 0.0) > 0.0


class TestConstantA:
    def test_bracket_even_in_space(self):
        s = np.array([0.3, 0.7])
        y = np.array([0.2, -0.2])
        b = kernels._bracket(s[:, None], y[None, :])
        assert np.allclose(b[:, 0], b[:, 1])

    def test_bracket_limits(self):
        # F -> 1/2 on the time axis, 0 far out in space.
        assert abs(kernels._bracket(np.array(1.0), np.array(0.0)) - 0.5) < 1e-12
        assert abs(kernels._bracket(np.array(0.01), np.array(5.0))) < 1e-12

    def test_default_value_frozen(self):
        value, err = kernels.constant_a(n=128)
        assert abs(value - (-0.02742750513831)) < 1e-9
        assert err < 1e-9

    def test_resolution_stability(self):
        coarse, _ = kernels.constant_a(n=64)
        fine, _ = kernels.constant_a(n=128)
        assert abs(coarse - fine) < 1e-10

    def test_narrow_mollifier(self):
        value, _ = kernels.constant_a(kernels.Mollifier(0.5, 0.7), n=128)
        assert abs(value - (-0.025673671293518146)) < 1e-9


class TestPropagators:
    def test_crank_nicolson_smooth_decay(self):
        n = 64
        L = kernels.robin_laplacian(n, 0.5, 0.5)
        cn = kernels.CrankNicolson(L, dt=1e-4)
        x = np.linspace(0, 1, n + 1)
        z = np.cos(np.pi * x)
        out = cn.advance(z, 1000)  # t = 0.1, decay e^{-pi^2 t / 2}
        assert np.max(np.abs(out - np.exp(-np.pi**2 * 0.05) * z)) < 1e-3

    def test_rannacher_damps_rough_data(self):
        n = 128
        L = kernels.robin_laplacian(n, 0.5, 0.5)
        delta = np.zeros(n + 1)
        delta[n // 2] = n  # discrete delta
        dt = 1e-4
        rough = kernels.RannacherPropagator(L, dt).advance(delta, 1000)
        assert np.all(np.isfinite(rough))
        assert np.max(np.abs(np.diff(rough))) < 1.0  # no high-mode ringing

    def test_rannacher_factors_once(self, monkeypatch):
        calls = []
        splu = kernels.splu

        def counting_splu(matrix):
            calls.append(matrix.shape)
            return splu(matrix)

        monkeypatch.setattr(kernels, "splu", counting_splu)
        kernels.RannacherPropagator(kernels.robin_laplacian(16, 1.0, 0.0), 1e-3)
        assert len(calls) == 1
