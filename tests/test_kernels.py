"""Unit tests for heat kernels and the boundary-constant quadrature."""

import numpy as np
import pytest

from dense_laplacian import dense_laplacian
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

    def test_image_count_follows_the_largest_horizon(self):
        # 20 images, the old fixed count, left the t = 100 row 4.4e-5 off
        xs = np.linspace(0, 1, 33)
        img, tail = kernels.neumann_kernel(np.array([[0.1], [100.0]]), 0.3, xs)
        assert np.max(np.abs(img[1] - kernels.neumann_kernel_spectral(100.0, 0.3, xs))) < 1e-14
        assert tail == 0.0

    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 2.0, 100.0, 1e4])
    def test_tail_bound_underflows_to_zero(self, t):
        assert kernels.neumann_kernel(t, 0.3, 0.1)[1] == 0.0

    def test_horizon_needing_over_ten_thousand_images_named(self):
        with pytest.raises(ValueError, match=r"at t=300000\.0 needs 10580 > 10000 images"):
            kernels.neumann_kernel(np.array([0.1, 3e5]), 0.3, 0.1)

    @pytest.mark.parametrize("t", [1e-5, 1e-4])
    def test_spectral_mode_count_follows_the_horizon(self, t):
        # 200 modes, the old fixed count, left t = 1e-5 11.7 off (values up to 252)
        xs = np.linspace(0, 1, 9)
        img, _ = kernels.neumann_kernel(t, xs[:, None], xs[None, :])
        spec = kernels.neumann_kernel_spectral(t, xs[:, None], xs[None, :])
        assert np.max(np.abs(img - spec)) < 1e-11

    def test_horizon_needing_over_ten_thousand_modes_named(self):
        kernels.neumann_kernel_spectral(2e-6, 0.3, 0.1)  # about 8700 modes
        with pytest.raises(ValueError, match=r"at t=1e-06 needs over 10000 modes"):
            kernels.neumann_kernel_spectral(1e-6, 0.3, 0.1)

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
            neu, _ = kernels.neumann_kernel(0.1, xs[:, None], xs[None, :])
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
        L = dense_laplacian(n, u, v)
        w = kernels.end_weights(n)
        assert w.tolist() == [0.5] + [1.0] * (n - 1) + [0.5]
        assert np.array_equal(w[:, None] * L, (w[:, None] * L).T)
        # so S = W^1/2 L W^-1/2 is symmetric, and robin_laplacian returns its bands to rounding
        S = np.sqrt(w)[:, None] * L / np.sqrt(w)
        diagonal, off = kernels.robin_laplacian(n, u, v)
        bands = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
        assert np.max(np.abs(S - bands)) <= 4 * np.finfo(float).eps * np.max(np.abs(S))

    @pytest.mark.parametrize("u, v", [(np.nan, 0.5), (0.5, np.inf)])
    def test_nonfinite_slope_rejected(self, u, v):
        with pytest.raises(ValueError, match=rf"slopes must be finite \(u={u}, v={v}\)"):
            kernels.robin_laplacian(4, u, v)


class TestMollifier:
    def test_unit_mass(self):
        # 4-node Gauss-Legendre is exact for the degree-6 bump in each dimension
        nodes, weights = np.polynomial.legendre.leggauss(4)
        for rho in (kernels.Mollifier(1.0, 1.0), kernels.Mollifier(0.5, 0.7)):
            s, ws = rho.time_radius * nodes, rho.time_radius * weights
            y, wy = rho.space_radius * nodes, rho.space_radius * weights
            vals = (rho.bump(s[:, None] / rho.time_radius) * rho.bump(y[None, :] / rho.space_radius)
                    / (rho.time_radius * rho.space_radius))
            mass = ws @ vals @ wy
            assert abs(mass - 1.0) < 1e-14

    def test_support(self):
        bump = kernels.Mollifier.bump
        assert bump(0.51 / 0.5) == 0.0
        assert bump(0.71 / 0.7) == 0.0
        assert bump(0.0) > 0.0


def _quadrature_autocorrelation(z, radius):
    """A_r(z) by 13-node Gauss-Legendre over the overlap of the two bumps,
    exact for the degree-12 integrand up to rounding: the closed form's
    reference, built on ``Mollifier.bump``."""
    z = np.asarray(z, dtype=float) / radius
    lo = np.maximum(-1.0, z - 1.0)
    hi = np.minimum(1.0, z + 1.0)
    nodes, weights = np.polynomial.legendre.leggauss(13)
    mid = 0.5 * (lo + hi)
    half = np.clip(0.5 * (hi - lo), 0.0, None)
    w = mid[:, None] + half[:, None] * nodes[None, :]
    vals = kernels.Mollifier.bump(w - z[:, None]) * kernels.Mollifier.bump(w)
    return (vals @ weights) * half / radius


RADII = (1.0, 0.7, 0.5)


def _autocorrelation_grid(radius):
    """z over [-2.5r, 2.5r], with 0, +-2r and points past 2r included."""
    return radius * np.concatenate([np.linspace(-2.5, 2.5, 1001), [0.0, 2.0, -2.0, 3.0, -7.0]])


class TestBumpAutocorrelation:
    def test_coefficients_are_the_exact_integral(self):
        import sympy

        w, z, p = sympy.symbols("w z p")
        b = lambda x: sympy.Rational(35, 32) * (1 - x**2) ** 3  # noqa: E731
        # for 0 <= z <= 2 the bumps overlap on [z - 1, 1]
        exact = sympy.integrate(b(w - z) * b(w), (w, z - 1, 1))
        centred = sympy.Poly(sympy.expand(exact.subs(z, p + 1)), p).all_coeffs()[::-1]
        assert len(centred) == len(kernels._AUTOCORRELATION_COEFFS) == 14
        for coeff, rational in zip(kernels._AUTOCORRELATION_COEFFS, centred):
            assert coeff == int(rational.p) / int(rational.q)

    @pytest.mark.parametrize("radius", RADII)
    def test_matches_quadrature_of_the_bump(self, radius):
        z = _autocorrelation_grid(radius)
        closed = kernels._bump_autocorrelation(z, radius)
        assert np.max(np.abs(closed - _quadrature_autocorrelation(z, radius))) < 1e-15 / radius

    @pytest.mark.parametrize("radius", RADII)
    def test_even_supported_and_normalised(self, radius):
        z = _autocorrelation_grid(radius)
        closed = kernels._bump_autocorrelation(z, radius)
        assert np.array_equal(closed, kernels._bump_autocorrelation(-z, radius))
        assert np.all(closed[np.abs(z) >= 2.0 * radius] == 0.0)
        # the centred basis is accurate to ~1e-16 absolute, not relative: within
        # an ulp of 2r, where A is ~1e-110, it can read -1e-17
        assert np.all(closed[np.abs(z) < 2.0 * radius] > -1e-16 / radius)
        peak = kernels._bump_autocorrelation(np.array([0.0]), radius)[0]
        assert abs(peak - 350.0 / (429.0 * radius)) < 1e-15 / radius
        # 7-node Gauss-Legendre is exact for the degree-13 polynomial on [0, 2r]
        nodes, weights = np.polynomial.legendre.leggauss(7)
        half = radius * weights @ kernels._bump_autocorrelation(radius * (nodes + 1.0), radius)
        assert abs(2.0 * half - 1.0) < 1e-14


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

    def test_error_estimate_covers_rounding(self):
        # |fine - coarse| / 3 reads 1.2e-18 here, but rounding alone moves a by 1.4e-17
        value, err = kernels.constant_a(kernels.Mollifier(1.0, 1.0), 256)
        assert value == -0.02742750513832859
        assert err >= 4.0 * np.finfo(float).eps * abs(value) > 1.4e-17

    @pytest.mark.parametrize("rho, n, before", [
        (kernels.Mollifier(1.0, 1.0), 256, -0.027427505138328603),
        (kernels.Mollifier(0.5, 0.7), 128, -0.025673671293533342),
    ])
    def test_value_of_the_quadrature_autocorrelation_kept(self, rho, n, before):
        # `before`: the same quadrature with the 13-node rule for A
        value, _ = kernels.constant_a(rho, n)
        assert abs(value - before) < 1e-15


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

    @staticmethod
    def _no_splu(matrix):
        raise AssertionError("splu was called")

    @pytest.mark.parametrize("propagator", [kernels.CrankNicolson, kernels.RannacherPropagator])
    def test_building_and_advancing_call_no_splu(self, monkeypatch, propagator):
        # only the reference step factors a sparse LU, and only when it is called
        monkeypatch.setattr(kernels, "splu", self._no_splu)
        prop = propagator(kernels.robin_laplacian(16, 1.0, 0.0), 1e-3)
        assert np.all(np.isfinite(prop.advance(np.ones(17), 40)))
        assert np.all(np.isfinite(kernels.robin_kernel(0.1, 1.0, 0.0, 16)))

    # The closed form against the sparse-LU step it replaces in ``advance``: the
    # reference is m calls of ``step``, Rannacher's first two each replaced by
    # two implicit half-steps solved with the dense I - dt/2 L.  At (-60, -60)
    # and dx = 1/8 the CN matrix I - dt/2 L is indefinite and some modes grow.
    @pytest.mark.parametrize("columns", [(), (3,)], ids=["vector", "matrix"])
    @pytest.mark.parametrize("n_steps", [0, 1, 2, 3, 40])
    @pytest.mark.parametrize("u, v, n", [(0.5, 0.5, 32), (1.0, 0.0, 32), (-0.5, 2.0, 32),
                                         (3.0, 3.0, 32), (-60.0, -60.0, 8)])
    @pytest.mark.parametrize("propagator", [kernels.CrankNicolson, kernels.RannacherPropagator])
    def test_closed_form_matches_steps(self, propagator, u, v, n, n_steps, columns):
        prop = propagator(kernels.robin_laplacian(n, u, v), 0.5 / n**2)
        implicit = np.eye(n + 1) - 0.5 * prop.dt * dense_laplacian(n, u, v)
        want = z = np.random.default_rng(n).normal(size=(n + 1, *columns))
        for k in range(n_steps):
            if propagator is kernels.RannacherPropagator and k < kernels.RANNACHER_STEPS:
                want = np.linalg.solve(implicit, np.linalg.solve(implicit, want))
            else:
                want = prop.step(want)
        got = prop.advance(z, n_steps)
        assert got.shape == z.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_advance_takes_no_steps(self, monkeypatch):
        # a horizon of 10^7 steps costs one diagonal power, and nothing is solved
        prop = kernels.RannacherPropagator(kernels.robin_laplacian(16, 1.0, 1.0), 1e-3)
        monkeypatch.setattr(kernels, "splu", self._no_splu)
        monkeypatch.setattr(prop, "step_with_forcing", None)
        monkeypatch.setattr(prop, "step", None)
        out = prop.advance(np.ones(17), 10**7)  # t = 10^4: every mode has decayed
        assert np.all(np.isfinite(out)) and np.max(np.abs(out)) < 1e-300

    @pytest.mark.parametrize("propagator", [kernels.CrankNicolson, kernels.RannacherPropagator])
    def test_singular_implicit_matrix_is_named(self, propagator):
        # n = 1, u = v = -3/2: L = [[1, 1], [1, 1]] has the eigenvalue 2 = 2/dt at dt = 1
        assert np.array_equal(dense_laplacian(1, -1.5, -1.5), np.ones((2, 2)))
        # W = I/2 is a multiple of I, so the symmetric form is L itself
        laplacian = kernels.robin_laplacian(1, -1.5, -1.5)
        assert [band.tolist() for band in laplacian] == [[1.0, 1.0], [1.0]]
        with pytest.raises(ValueError, match=r"I - dt/2 L is singular \(L's eigenvalue "):
            propagator(laplacian, 1.0)  # not a divide warning: the suite turns warnings into errors

    @pytest.mark.parametrize("t, u, v, n", [(0.1, 0.5, 0.5, 64), (1.0, 1.0, 1.0, 64),
                                            (0.1, -0.5, 2.0, 32), (0.02, -60.0, -60.0, 8)])
    def test_robin_kernel_is_symmetric(self, t, u, v, n):
        # K = W^-1/2 Q diag(f) Q^T W^-1/2 n: symmetric up to the rounding of two products
        K = kernels.robin_kernel(t, u, v, n)
        assert np.max(np.abs(K - K.T)) <= 1e-14 * np.max(np.abs(K))
