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

    def test_array_of_horizons(self):
        ts = np.array([[0.05], [0.2]])
        img, tail = kernels.neumann_kernel(ts, 0.3, np.array([0.1, 0.9]))
        for row, t in zip(img, ts[:, 0]):
            assert np.array_equal(row, kernels.neumann_kernel(t, 0.3, np.array([0.1, 0.9]))[0])
        assert tail == kernels.neumann_tail_bound(0.05, 20)
        with pytest.raises(ValueError, match=r"positive and finite \(t=\[ 0.05 -0.2 \]\)"):
            kernels.neumann_kernel(np.array([0.05, -0.2]), 0.3, 0.1)

    @pytest.mark.parametrize("t", [-0.1, 0.0, np.inf, np.nan])
    def test_spectral_series_rejects_a_horizon_that_is_not_positive_and_finite(self, t):
        with pytest.raises(ValueError, match=rf"positive and finite \(t={t}\)"):
            kernels.neumann_kernel_spectral(t, 0.3, 0.1)


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

    def test_long_horizon_runs_the_step_count_it_chose(self, monkeypatch):
        # at this horizon n_steps * dt misses t by more than grid.time_steps'
        # 1e-9 tolerance through float rounding alone
        class Recorder:
            def __init__(self, laplacian, dt):
                self.dt = dt

            def advance(self, z, n_steps):
                return self.dt, n_steps

        monkeypatch.setattr(kernels, "RannacherPropagator", Recorder)
        t = 10221459.13
        dt, n_steps = kernels.robin_kernel(t, 0.5, 0.5, n=1)
        assert n_steps == round(8 * t)
        assert dt == t / n_steps

    @pytest.mark.parametrize("n", [2, 4, 32, 64])
    @pytest.mark.parametrize("u, v", [(0.5, 0.5), (1.0, 0.0), (-0.5, 2.0), (-60.0, -60.0),
                                      (300.0, -7.0)])
    def test_laplacian_self_adjoint_in_end_weights(self, n, u, v):
        # the ghost points give each end node half a cell: W = diag(1/2, 1, ..., 1, 1/2)
        L = kernels.robin_laplacian(n, u, v).toarray()
        w = np.ones(n + 1)
        w[[0, -1]] = 0.5
        assert np.array_equal(w[:, None] * L, (w[:, None] * L).T)
        # so S = W^1/2 A W^-1/2 with A = I - dt/2 L is symmetric to rounding
        A = np.eye(n + 1) - 0.25 / n**2 * L
        S = np.sqrt(w)[:, None] * A / np.sqrt(w)
        assert np.max(np.abs(S - S.T)) <= 4 * np.finfo(float).eps * np.max(np.abs(S))

    @pytest.mark.parametrize("u, v", [(np.nan, 0.5), (0.5, np.inf)])
    def test_nonfinite_slope_rejected(self, u, v):
        with pytest.raises(ValueError, match=rf"slopes must be finite \(u={u}, v={v}\)"):
            kernels.robin_laplacian(4, u, v)


class TestMollifier:
    def test_unit_mass(self):
        for rho in (kernels.Mollifier(1.0, 1.0), kernels.Mollifier(0.5, 0.7)):
            s = np.linspace(-rho.time_radius, rho.time_radius, 4001)
            y = np.linspace(-rho.space_radius, rho.space_radius, 4001)
            vals = (rho.bump(s[:, None] / rho.time_radius) * rho.bump(y[None, :] / rho.space_radius)
                    / (rho.time_radius * rho.space_radius))
            mass = np.trapezoid(np.trapezoid(vals, y, axis=1), s)
            assert abs(mass - 1.0) < 1e-5

    def test_support(self):
        bump = kernels.Mollifier.bump
        assert bump(0.51 / 0.5) == 0.0
        assert bump(0.71 / 0.7) == 0.0
        assert bump(0.0) > 0.0


class TestConstantA:
    def test_default_value_frozen(self):
        value, err = kernels.constant_a(kernels.Mollifier(1.0, 1.0), n=128)
        assert abs(value - (-0.02742750513831)) < 1e-9
        assert err < 1e-9

    def test_resolution_stability(self):
        coarse, _ = kernels.constant_a(kernels.Mollifier(1.0, 1.0), n=64)
        fine, _ = kernels.constant_a(kernels.Mollifier(1.0, 1.0), n=128)
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
