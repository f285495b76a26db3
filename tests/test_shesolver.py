"""Unit tests for the Monte Carlo SHE solver and Hopf-Cole utilities."""

import hashlib
import itertools
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from dense_laplacian import dense_laplacian
from openkpz import shesolver, streams
from openkpz.grid import MAX_STEPS, default_dt, grid_size, snap_time, time_steps
from openkpz.kernels import CrankNicolson, robin_laplacian
from openkpz.shesolver import BoundaryParams, SimConfig, simulate_she


def _ones(cfg):
    return np.ones(cfg.n + 1)


class TestConfig:
    def test_default_dt_is_stability_bound(self):
        cfg = SimConfig(dx=1.0 / 32, t_final=1.0, n_paths=100)
        assert cfg.dt == pytest.approx(0.5 / 32**2)

    def test_time_step_is_the_grids(self):
        assert [f.name for f in fields(SimConfig)] == [
            "dx", "t_final", "n_paths", "seed", "save_times"]
        cfg = SimConfig(dx=0.0625, t_final=1.0, n_paths=100)
        assert cfg.dt == default_dt(cfg.dx)
        with pytest.raises(TypeError):
            SimConfig(dx=0.0625, t_final=1.0, n_paths=100, dt=1e-3)
        with pytest.raises(ValueError, match="dx must divide 1"):
            SimConfig(dx=0.03, t_final=1.0, n_paths=100)

    def test_save_times_must_lie_on_grid(self):
        cfg = SimConfig(dx=1.0 / 32, t_final=0.5, n_paths=100, save_times=(0.1234,))
        with pytest.raises(ValueError):
            cfg.save_step_indices()

    def test_save_time_past_the_horizon_names_t_final(self):
        cfg = SimConfig(dx=0.25, t_final=1.0, n_paths=2, save_times=(0.5, 2.0))
        with pytest.raises(ValueError, match=r"save time 2\.0 lies outside \[0, t_final\] = "
                                             r"\[0, 1\.0\]"):
            cfg.save_step_indices()

    @pytest.mark.parametrize("shape", [(3, 5), (2, 4), (4,), (1, 5), (2, 5, 1)])
    def test_initial_data_of_another_shape_named(self, shape):
        cfg = SimConfig(dx=0.25, t_final=0.25, n_paths=2)
        with pytest.raises(ValueError, match=re.escape(
                f"initial data must have shape (5,) or (2, 5), not {shape}")):
            simulate_she(np.ones(shape), BoundaryParams(0.0, 0.0), cfg)

    def test_two_save_times_on_one_step_rejected(self):
        equal = SimConfig(dx=0.25, t_final=1.0, n_paths=100, save_times=(0.5, 0.5, 1.0))
        assert equal.save_step_indices() == {16: 0.5, 32: 1.0}
        # dt = 1/32: both times are within time_steps' tolerance of step 16
        cfg = SimConfig(dx=0.25, t_final=1.0, n_paths=2, save_times=(0.5, 0.5 + 1e-12))
        with pytest.raises(ValueError, match=r"save times 0\.5 and 0\.500000000001 fall on "
                                             r"one step \(k=16\)"):
            cfg.save_step_indices()

    @pytest.mark.parametrize("dx", [0.0, -0.25, float("nan"), float("inf")])
    def test_grid_rejects_dx_that_is_not_positive_and_finite(self, dx):
        with pytest.raises(ValueError, match=rf"positive and finite \(dx={dx}\)"):
            grid_size(dx)

    def test_step_count_is_bounded(self):
        # the longest run of the tests, criteria and benchmark: single-path's ergodic run
        assert time_steps(20.0, default_dt(1.0 / 32)) == 40_960 < MAX_STEPS
        for t, steps in [(1e300, "3.2e+301"), (1e308, "inf")]:
            message = rf"time {t} at dt=0.03125 takes {steps} steps > MAX_STEPS"
            for call in (time_steps, snap_time):
                with pytest.raises(ValueError, match=message.replace("+", r"\+")):
                    call(t, 0.03125)

    def test_nan_save_time_or_horizon_named(self):
        cfg = SimConfig(dx=0.25, t_final=1.0, n_paths=2, save_times=(0.5, float("nan")))
        with pytest.raises(ValueError, match=r"time must be a number \(t=nan, dt=0\.03125\)"):
            cfg.save_step_indices()
        with pytest.raises(ValueError, match=r"time must be a number \(t=nan"):
            time_steps(float("nan"), 0.03125)

    @pytest.mark.parametrize("t_final", [0.0, -1.0, float("nan"), float("inf")])
    def test_horizon_that_is_not_positive_and_finite_rejected(self, t_final):
        with pytest.raises(ValueError, match=rf"positive and finite \(t={t_final}\)"):
            SimConfig(dx=1.0 / 16, t_final=t_final, n_paths=100)

    def test_path_count_below_one_named(self):
        with pytest.raises(ValueError, match=r"n_paths=0"):
            SimConfig(dx=1.0 / 16, t_final=1.0, n_paths=0)

    def test_horizon_shorter_than_one_step_rejected(self):
        cfg = SimConfig(dx=1.0 / 16, t_final=1e-10, n_paths=100)
        with pytest.raises(ValueError):
            cfg.n_steps


class TestDeterministicLimit:
    """The solver's step with factor 2 (zero noise) is the noise-free scheme of the oracle.

    The step acts on y = W^1/2 z, with W^1/2's diagonal in ``step.scale``, and
    takes the factor c = 2 + s eta: y' = S^{-1}(c y) - y."""

    @staticmethod
    def _advance(z0, params, dx, t, n_paths):
        dt = default_dt(dx)
        step = shesolver._TridiagonalStep(robin_laplacian(grid_size(dx), params.u, params.v), dt)
        y = np.tile(z0, (n_paths, 1)) * step.scale
        for _ in range(time_steps(t, dt)):
            y = step(y, np.full_like(y, 2.0))  # the step overwrites its factor
        return y / step.scale

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

    def test_forced_step_matches_reference_propagator(self):
        dx, params = 1.0 / 32, BoundaryParams(-0.5, 2.0)
        L = robin_laplacian(grid_size(dx), params.u, params.v)
        rng = np.random.default_rng(4)
        z = np.exp(rng.normal(size=(4, grid_size(dx) + 1)))
        factor = 2.0 + rng.normal(size=z.shape)
        step = shesolver._TridiagonalStep(L, default_dt(dx))
        y = z * step.scale
        got = step(y, factor.copy())  # the step overwrites its factor
        # a factor that is not C-ordered is solved in a copy, to the same bits
        assert np.array_equal(step(y, np.asfortranarray(factor)), got)
        got /= step.scale
        cn = CrankNicolson(L, default_dt(dx))
        for row, zi, ci in zip(got, z, factor):
            want = cn.step_with_forcing(zi, (ci - 2.0) * zi)
            assert np.max(np.abs(row - want)) < 1e-13 * np.max(np.abs(want))

    def test_step_requires_the_forcing(self):
        step = shesolver._TridiagonalStep(robin_laplacian(4, 0.5, 0.5), default_dt(0.25))
        with pytest.raises(TypeError):
            step(np.ones((1, 5)) * step.scale)

    @pytest.mark.parametrize("dx, u, v", [(1.0 / 32, 1.0, 0.0), (1.0 / 32, -0.5, 2.0),
                                          (1.0 / 64, 3.0, 3.0), (0.25, 0.5, -0.5),
                                          (0.125, -20.0, -20.0), (0.125, -60.0, -60.0)])
    def test_step_matches_a_dense_solve(self, dx, u, v):
        # z' = A^{-1}(c z) - z with A = I - dt/2 L; at (-60, -60) and
        # dx = 1/8 A is indefinite, and its pivot-free LDL^T must still hold
        n, dt = grid_size(dx), default_dt(dx)
        A = np.eye(n + 1) - 0.5 * dt * dense_laplacian(n, u, v)
        rng = np.random.default_rng(8)
        z = np.exp(rng.normal(size=(6, n + 1)))
        c = 2.0 + 0.3 * rng.normal(size=z.shape)
        want = np.linalg.solve(A, (c * z).T).T - z
        step = shesolver._TridiagonalStep(robin_laplacian(n, u, v), dt)
        got = step(z * step.scale, c.copy()) / step.scale
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape", [(1, 33), (512, 65), (76, 9)])
    def test_new_state_is_built_in_the_factor(self, shape):
        # simulate_she reads each block's positivity off its rows, so the step
        # must return a view of the row it is given, at every chunk shape
        n = shape[1] - 1
        step = shesolver._TridiagonalStep(robin_laplacian(n, 1.0, 0.0), default_dt(1.0 / n))
        row = np.full(shape, 2.0)
        assert np.shares_memory(step(np.ones(shape) * step.scale, row), row)

    def test_zero_pivot_is_singular(self):
        # A = I - dt/2 L with L's first diagonal entry 2/dt has A[0, 0] = 0
        bands = np.array([4.0, -2.0, -2.0]), np.array([1.0, 1.0])
        with pytest.raises(ValueError, match=r"I - dt/2 L is singular \(zero pivot at node 0\)"):
            shesolver._TridiagonalStep(bands, 0.5)

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


def _osc_rise(params, seed_offset):
    """Largest one-step rise of osc_x(log Z_a - log Z_b) over 64 paths and 256
    steps, less the rounding tolerance 8 eps max|h|: positive means a rise."""
    dt = default_dt(1.0 / 32)
    cfg = SimConfig(dx=1.0 / 32, t_final=256 * dt, n_paths=64, seed=11,
                    save_times=tuple(k * dt for k in range(257)))
    x = np.linspace(0, 1, cfg.n + 1)
    res_a = simulate_she(np.ones_like(x), params, cfg)
    res_b = simulate_she(np.exp(np.sin(np.pi * x)), params,
                         replace(cfg, seed=cfg.seed + seed_offset))
    # with s = sqrt(dt/dx) = 1/8 the explicit half I + dt/2 L + diag(s eta) is
    # nonnegative unless some eta < -6, so no path loses positivity here
    assert not (res_a.positivity_lost | res_b.positivity_lost).any()
    h_a, h_b = (np.log([res.snapshots[t] for t in cfg.save_times]) for res in (res_a, res_b))
    r = h_a - h_b
    osc = r.max(axis=2) - r.min(axis=2)
    tol = 8 * np.finfo(float).eps * max(np.abs(h_a).max(), np.abs(h_b).max())
    return float(np.diff(osc, axis=0).max()) - tol


COUPLING_PARAMS = pytest.mark.parametrize(
    "params", [BoundaryParams(1.0, 0.0), BoundaryParams(0.5, -0.5),
               BoundaryParams(-0.5, 2.0), BoundaryParams(3.0, 3.0)],
    ids=lambda p: f"u={p.u},v={p.v}")


class TestCoupling:
    """One shared noise multiplies both runs by one positive matrix per step,
    so Hilbert's projective distance osc_x(h_a - h_b) never increases
    (Birkhoff's contraction theorem)."""

    @COUPLING_PARAMS
    def test_projective_distance_never_increases(self, params):
        assert _osc_rise(params, seed_offset=0) <= 0

    @COUPLING_PARAMS
    def test_unshared_noise_breaks_the_contraction(self, params):
        assert _osc_rise(params, seed_offset=1) > 0


class TestPositivity:
    def test_flag_survives_nan_after_a_nonpositive_value(self, monkeypatch):
        # NaN compares false with 0, so a path that holds NaN stays unflagged,
        # but one that reached -1 before turning NaN stays flagged.  The last of
        # the four steps is finite again: a NaN left standing is an overflow.
        steps = itertools.count()

        def fake_step(self, z, factor):
            # like the real step, build the new state in the row it is given
            k = next(steps)
            factor[...] = 1.0
            if k < 3:
                factor[0] = -1.0 if k == 0 else np.nan
                factor[1] = np.nan
            return factor

        monkeypatch.setattr(shesolver._TridiagonalStep, "__call__", fake_step)
        cfg = SimConfig(dx=1.0 / 8, t_final=4 * 0.5 / 8**2, n_paths=3)
        res = simulate_she(_ones(cfg), BoundaryParams(0.5, 0.5), cfg)
        assert res.positivity_lost.tolist() == [True, False, False]

    @pytest.mark.parametrize("uv", [-20.0, -60.0])
    def test_overflow_is_a_named_failure(self, uv):
        # -20 overflows to NaN, which no positivity flag catches; -60 reaches a
        # value <= 0 first, so the overflow is named before the flags are read
        cfg = SimConfig(dx=0.125, t_final=20.0, n_paths=4)
        with pytest.raises(RuntimeError, match=rf"overflow at \(u, v\) = \({uv}, {uv}\), "
                                               r"dx = 0\.125: 4 of the 4 paths 0\.\.3 left"):
            simulate_she(_ones(cfg), BoundaryParams(uv, uv), cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_initial_data_rejected(self, bad):
        # +inf would step to all-NaN snapshots that no positivity flag catches
        cfg = SimConfig(dx=0.25, t_final=0.25, n_paths=1)
        with pytest.raises(ValueError, match="strictly positive"):
            simulate_she(np.array([1.0, 1.0, bad, 1.0, 1.0]), BoundaryParams(0.5, 0.5), cfg)


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


def _single_path():
    # 600 steps: two full noise blocks of K = 248 and a partial one
    dt = default_dt(1.0 / 32)
    cfg = SimConfig(dx=1.0 / 32, t_final=600 * dt, n_paths=1, seed=21,
                    save_times=tuple(8 * k * dt for k in range(1, 76)))
    return np.ones(cfg.n + 1), BoundaryParams(0.5, -0.5), cfg


def _multi_chunk():
    # chunks of 512, 512 and 76 paths; some paths of each lose positivity
    cfg = SimConfig(dx=1.0 / 8, t_final=2.0, n_paths=1100, seed=9, save_times=(0.5, 1.0, 2.0))
    return 1.0 + 0.5 * np.cos(np.pi * np.linspace(0, 1, cfg.n + 1)), BoundaryParams(1.0, 0.0), cfg


def _one_draw_per_step(z0, params, cfg):
    """The block code's reference: each chunk draws one step's noise at a time
    and builds its factor and new state out of place."""
    step = shesolver._TridiagonalStep(robin_laplacian(cfg.n, params.u, params.v), cfg.dt)
    z_all = np.broadcast_to(z0, (cfg.n_paths, cfg.n + 1))
    saves = cfg.save_step_indices()
    snaps = {t: np.array(z_all) for t in saves.values()}
    lost = np.zeros(cfg.n_paths, dtype=bool)
    for chunk, start in enumerate(range(0, cfg.n_paths, shesolver.RNG_CHUNK)):
        rows = slice(start, start + shesolver.RNG_CHUNK)
        rng = streams.stream(cfg.seed, streams.SHE_NOISE, chunk)
        y = z_all[rows] * step.scale
        for k in range(1, cfg.n_steps + 1):
            y = step(y, 2.0 + rng.standard_normal(y.shape) * np.sqrt(cfg.dt / cfg.dx))
            lost[rows] |= (y <= 0).any(axis=1)
            if k in saves:
                snaps[saves[k]][rows] = y / step.scale
    return shesolver.SheResult(snaps, lost, cfg)


def _digest(res):
    digest = hashlib.sha256()
    for t in sorted(res.snapshots):
        digest.update(res.snapshots[t].tobytes())
    digest.update(res.positivity_lost.tobytes())
    return digest.hexdigest()


class TestBlocks:
    # SHA-256 of the snapshots in time order and then the flags, as
    # _one_draw_per_step gave them (numpy 2.4, scipy 1.17, x86-64): block draws
    # and the in-place step must give every bit.
    PINNED = {"single-path": "36da2272fea3d6fe04fe3bc75805d8c38015fb270509ed41d73ee8ae14472172",
              "multi-chunk": "966a34805e874ec6419cf3dc8ed014f2e9b884e7e2c66378fa908f23fd1eaed9"}
    RUNS = pytest.mark.parametrize("name, run", [("single-path", _single_path),
                                                 ("multi-chunk", _multi_chunk)])

    @RUNS
    def test_bytes_pinned(self, name, run):
        res = simulate_she(*run())
        assert res.positivity_lost.any() == (name == "multi-chunk")
        assert _digest(res) == self.PINNED[name]

    @RUNS
    def test_block_code_matches_one_draw_per_step(self, name, run):
        assert _digest(simulate_she(*run())) == _digest(_one_draw_per_step(*run()))

    @RUNS
    def test_bit_identical_for_any_block_size(self, name, run, monkeypatch):
        # budgets giving K = 1, an odd K (7 steps of a first chunk; 47 for the
        # 76-path chunk) and K = n_steps, where more would fit
        z0, params, cfg = run()
        want = simulate_she(z0, params, cfg)
        step_bytes = min(cfg.n_paths, shesolver.RNG_CHUNK) * (cfg.n + 1) * 8
        for budget in (8, 7 * step_bytes, 1 << 40):
            monkeypatch.setattr(shesolver, "_BLOCK_BYTES", budget)
            assert _digest(simulate_she(z0, params, cfg)) == _digest(want)

    def test_initial_array_is_never_written(self):
        cfg = SimConfig(dx=1.0 / 8, t_final=0.25, n_paths=3, seed=2)
        z0 = np.exp(np.random.default_rng(0).normal(size=(3, cfg.n + 1)))
        before = z0.copy()
        want = simulate_she(z0, BoundaryParams(1.0, 0.0), cfg)
        assert np.array_equal(z0, before)
        z0.flags.writeable = False
        got = simulate_she(z0, BoundaryParams(1.0, 0.0), cfg)
        assert np.array_equal(got.snapshots[0.25], want.snapshots[0.25])


class TestHopfCole:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(4, 33))
        assert np.allclose(shesolver.hopf_cole(np.exp(h)), h)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            shesolver.hopf_cole(np.array([1.0, -0.5, 2.0]))

    def test_anchor_idempotent(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(5, 17))
        a = shesolver.anchor(h)
        assert np.allclose(a[:, 0], 0.0)
        assert np.allclose(shesolver.anchor(a), a)
