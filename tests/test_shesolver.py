"""Unit tests for the Monte Carlo SHE solver and Hopf-Cole utilities."""

import itertools
from dataclasses import fields

import numpy as np
import pytest

from openkpz import shesolver
from openkpz.grid import default_dt, grid_size, time_steps
from openkpz.kernels import robin_laplacian
from openkpz.shesolver import BoundaryParams, SimConfig, simulate_she


def _ones(cfg):
    return np.ones(cfg.n + 1)


class TestConfig:
    def test_default_dt_is_stability_bound(self):
        cfg = SimConfig(dx=1.0 / 32)
        assert cfg.dt == pytest.approx(0.5 / 32**2)

    def test_time_step_is_the_grids(self):
        assert [f.name for f in fields(SimConfig)] == [
            "dx", "t_final", "n_paths", "seed", "save_times"]
        cfg = SimConfig(dx=0.0625)
        assert cfg.dt == default_dt(cfg.dx)
        with pytest.raises(TypeError):
            SimConfig(dx=0.0625, dt=1e-3)
        with pytest.raises(ValueError, match="dx must divide 1"):
            SimConfig(dx=0.03)

    def test_save_times_must_lie_on_grid(self):
        cfg = SimConfig(dx=1.0 / 32, t_final=0.5, save_times=(0.1234,))
        with pytest.raises(ValueError):
            cfg.save_step_indices()

    @pytest.mark.parametrize("dx", [0.0, -0.25, float("nan"), float("inf")])
    def test_grid_rejects_dx_that_is_not_positive_and_finite(self, dx):
        with pytest.raises(ValueError, match=rf"positive and finite \(dx={dx}\)"):
            grid_size(dx)

    def test_horizon_shorter_than_one_step_rejected(self):
        cfg = SimConfig(dx=1.0 / 16, t_final=1e-10)
        with pytest.raises(ValueError):
            cfg.n_steps


class TestBoundaryParams:
    def test_c_uv(self):
        assert BoundaryParams(0.3, 0.3).c_uv == pytest.approx(0.6)
        assert BoundaryParams(1.5, 0.0).c_uv == 2.0


class TestDeterministicLimit:
    """The solver's step with zero forcing is the noise-free scheme of the oracle."""

    @staticmethod
    def _advance(z0, params, dx, t, n_paths):
        dt = default_dt(dx)
        step = shesolver._TridiagonalStep(robin_laplacian(grid_size(dx), params.u, params.v), dt)
        z = np.tile(z0, (n_paths, 1))
        zero = np.zeros_like(z)
        for _ in range(time_steps(t, dt)):
            z = step(z, zero)
        return z

    def test_neumann_constant_invariant(self):
        # With u = v = 1/2 the transformed equation is pure Neumann heat flow,
        # which preserves constants exactly.
        z = self._advance(np.ones(33), BoundaryParams(0.5, 0.5), 1.0 / 32, 0.0625, 3)
        assert np.max(np.abs(z - 1.0)) < 1e-12

    def test_matches_semigroup_oracle(self):
        params = BoundaryParams(1.0, 0.0)
        z0 = 1.0 + 0.3 * np.cos(np.pi * np.linspace(0, 1, 65))
        z = self._advance(z0, params, 1.0 / 64, 0.25, 4)  # 2048 steps
        oracle = shesolver.robin_semigroup_apply(z0, params, 1.0 / 64, 0.25)
        assert np.max(np.abs(z - oracle)) < 1e-12

    def test_step_requires_the_forcing(self):
        step = shesolver._TridiagonalStep(robin_laplacian(4, 0.5, 0.5), default_dt(0.25))
        with pytest.raises(TypeError):
            step(np.ones((1, 5)))

    def test_oracle_rejects_dx_that_does_not_divide_one(self):
        # 1/0.03 is not an integer: the grid of 34 values and dt = dx^2/2
        # would describe two different discretisations
        with pytest.raises(ValueError, match="dx must divide 1"):
            shesolver.robin_semigroup_apply(
                np.ones(34), BoundaryParams(1.0, 0.0), 0.03, 10 * 0.5 * 0.03**2
            )


class TestNoise:
    def test_full_run_deterministic_in_seed(self):
        cfg = SimConfig(dx=1.0 / 32, t_final=0.125, n_paths=40, seed=5)
        a = simulate_she(_ones(cfg), BoundaryParams(0.0, 0.0), cfg)
        b = simulate_she(_ones(cfg), BoundaryParams(0.0, 0.0), cfg)
        assert np.array_equal(a.snapshots[0.125], b.snapshots[0.125])

    def test_seed_changes_output(self):
        cfg1 = SimConfig(dx=1.0 / 32, t_final=0.125, n_paths=8, seed=1)
        cfg2 = SimConfig(dx=1.0 / 32, t_final=0.125, n_paths=8, seed=2)
        a = simulate_she(_ones(cfg1), BoundaryParams(0.0, 0.0), cfg1)
        b = simulate_she(_ones(cfg2), BoundaryParams(0.0, 0.0), cfg2)
        assert not np.array_equal(a.snapshots[0.125], b.snapshots[0.125])

    def test_positivity_exclusion_rare(self):
        cfg = SimConfig(dx=1.0 / 64, t_final=1.0, n_paths=200, seed=0)
        res = simulate_she(_ones(cfg), BoundaryParams(0.0, 0.0), cfg)
        assert res.exclusion_rate < 0.01

    def test_coupled_pair_shares_noise(self):
        # the one-force coupling: two runs with one config from different starts
        cfg = SimConfig(dx=1.0 / 32, t_final=0.0625, n_paths=30, seed=3)
        params = BoundaryParams(0.0, 0.0)
        res_a = simulate_she(np.ones(cfg.n + 1), params, cfg)
        res_b = simulate_she(1.0 + 0.1 * np.linspace(0, 1, cfg.n + 1), params, cfg)
        d = np.abs(np.log(res_a.snapshots[0.0625]) - np.log(res_b.snapshots[0.0625]))
        # shared noise keeps the pair far closer than independent paths would be
        assert d.max() < 0.2


class TestPositivity:
    def test_flag_survives_nan_after_a_nonpositive_value(self, monkeypatch):
        # NaN compares false with 0, so a path that only ever holds NaN stays
        # unflagged, but one that reached -1 before turning NaN stays flagged
        steps = itertools.count()

        def fake_step(self, z, forcing):
            out = np.ones_like(z)
            out[0] = -1.0 if next(steps) == 0 else np.nan
            out[1] = np.nan
            return out

        monkeypatch.setattr(shesolver._TridiagonalStep, "__call__", fake_step)
        cfg = SimConfig(dx=1.0 / 8, t_final=4 * 0.5 / 8**2, n_paths=3)
        res = simulate_she(_ones(cfg), BoundaryParams(0.5, 0.5), cfg)
        assert res.positivity_lost.tolist() == [True, False, False]

    def test_nan_initial_data_rejected(self):
        cfg = SimConfig(dx=0.25, t_final=0.25, n_paths=1)
        with pytest.raises(ValueError, match="strictly positive"):
            simulate_she(np.array([1.0, 1.0, np.nan, 1.0, 1.0]), BoundaryParams(0.5, 0.5), cfg)


class TestThreads:
    def test_bit_identical_for_any_thread_count(self, monkeypatch):
        # 1100 paths make three RNG chunks, so 1, 2 and 3 threads each split
        # them differently.  On the coarse dx = 1/4 grid some paths of every
        # chunk lose positivity, and saving every step lets the flags be
        # checked against the snapshots themselves.
        steps = 32
        cfg = SimConfig(dx=1.0 / 4, t_final=1.0, n_paths=1100, seed=9,
                        save_times=tuple(k / steps for k in range(1, steps + 1)))
        params = BoundaryParams(1.0, 0.0)
        z0 = 1.0 + 0.5 * np.cos(np.pi * np.linspace(0, 1, cfg.n + 1))
        runs = []
        for threads in (1, 2, 3):
            monkeypatch.setattr(shesolver, "_usable_cpus", lambda: threads)
            runs.append(simulate_she(z0, params, cfg))
        want = runs[0]
        nonpositive = np.any([np.any(z <= 0, axis=1) for z in want.snapshots.values()], axis=0)
        assert np.array_equal(want.positivity_lost, nonpositive)
        assert nonpositive.any()
        for got in runs[1:]:
            assert np.array_equal(got.positivity_lost, want.positivity_lost)
            for t, z in want.snapshots.items():
                assert np.array_equal(got.snapshots[t], z)


class TestHopfCole:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(4, 33))
        assert np.allclose(shesolver.hopf_cole(np.exp(h)), h)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            shesolver.hopf_cole(np.array([1.0, -0.5, 2.0]))

    def test_burgers_slope(self):
        x = np.linspace(0, 1, 65)
        h = 3.0 * x
        slope = shesolver.burgers_field(h, 1.0 / 64)
        assert np.allclose(slope, 3.0)

    def test_anchor_idempotent(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(5, 17))
        a = shesolver.anchor(h)
        assert np.allclose(a[:, 0], 0.0)
        assert np.allclose(shesolver.anchor(a), a)

    def test_boundary_residuals_vanish_for_compatible_profile(self):
        n, dx = 256, 1.0 / 256
        params = BoundaryParams(1.0, -1.0)  # h with slope u at 0 and -v at 1
        x = np.linspace(0, 1, n + 1)
        h = params.u * x + 0.5 * (-params.v - params.u) * x**2
        left, right = shesolver.boundary_residuals(h, dx, params)
        assert abs(left) < 1e-2 and abs(right) < 1e-2
