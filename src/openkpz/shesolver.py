"""Monte Carlo solver for the stochastic heat equation with Robin boundaries.

Scheme: semi-implicit Euler-Maruyama.  The linear part (1/2) d^2/dx^2 with
Robin ghost points is treated by Crank-Nicolson, written as the implicit
midpoint rule so that a step is one tridiagonal solve; the Ito forcing is
Z_j eta_j sqrt(dt/dx) per cell and step with independent standard Gaussians
(the space-time white noise discretization).  Paths that lose positivity
are flagged and excluded from statistics, never clamped.

Determinism and threads: noise streams are derived from (seed, chunk index)
with a fixed chunk size of paths.  The chunks run concurrently, one thread
each up to the number of usable CPUs, and every chunk steps only its own
paths with its own stream through a step that holds no shared mutable state,
so results are bit-identical for a given seed whatever the thread count.
The one-force coupling is two runs with the same seed, same config: the
noise does not depend on the initial data.
The step solves with LAPACK's tridiagonal LU (``dgttrf``/``dgttrs``), which
calls no BLAS and releases the GIL, so the threads overlap.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from openkpz.grid import check_time, default_dt, grid_size, time_steps
from openkpz.kernels import CrankNicolson, robin_laplacian

RNG_CHUNK = 512  # paths per independent noise stream


@dataclass(frozen=True)
class BoundaryParams:
    """Boundary slopes (u, v)."""

    u: float
    v: float


@dataclass(frozen=True)
class SimConfig:
    """A run of the SHE; its time step is the grid's, dt = dx^2/2."""

    dx: float = 1.0 / 64
    t_final: float = 1.0
    n_paths: int = 100
    seed: int = 0
    save_times: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        grid_size(self.dx)
        check_time(self.t_final)
        if self.n_paths < 1:
            raise ValueError(f"a run needs at least 1 path (n_paths={self.n_paths})")

    @property
    def dt(self) -> float:
        return default_dt(self.dx)

    @property
    def n(self) -> int:
        return grid_size(self.dx)

    @property
    def n_steps(self) -> int:
        return time_steps(self.t_final, self.dt)

    def save_step_indices(self) -> Dict[int, float]:
        """Step index -> save time; equal times collapse, two times on one step are an error."""
        dt, n_steps = self.dt, self.n_steps
        out: Dict[int, float] = {}
        for t in self.save_times or (self.t_final,):
            k = time_steps(t, dt)
            if not 0 <= k <= n_steps:
                raise ValueError(f"save time {t} lies outside [0, t_final]")
            if out.setdefault(k, t) != t:
                raise ValueError(f"save times {out[k]} and {t} fall on one step (k={k})")
        return out


@dataclass
class SheResult:
    """Snapshots (n_paths, n+1) at requested times, plus positivity flags."""

    snapshots: Dict[float, np.ndarray]
    positivity_lost: np.ndarray
    config: SimConfig

    @property
    def exclusion_rate(self) -> float:
        return float(np.mean(self.positivity_lost))

    def kept(self, min_paths: int) -> np.ndarray:
        """Mask of the paths that kept positivity; RuntimeError if fewer than ``min_paths``."""
        kept = ~self.positivity_lost
        if kept.sum() < min_paths:
            raise RuntimeError(f"positivity exclusion left {kept.sum()} of {len(kept)} paths, "
                               f"fewer than the {min_paths} needed; refine the grid")
        return kept

    def valid(self, t: float) -> np.ndarray:
        """Snapshot rows from paths that kept positivity throughout."""
        return self.snapshots[t][~self.positivity_lost]


def _noise_stream(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, chunk]))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _TridiagonalStep:
    """One Crank-Nicolson step (I - dt/2 L) z' = (I + dt/2 L) z + forcing.

    With A = I - dt/2 L the explicit half is 2I - A, so the step is the
    implicit midpoint rule z' = A^{-1}(2z + forcing) - z: one solve with the
    tridiagonal LU of A, factored once here.  The transposed (paths, n+1)
    right-hand side is Fortran-ordered, so ``dgttrs`` solves it in place; the
    arguments are never written.  ``dgttrs`` calls no BLAS and releases the
    GIL, so threads may share one instance: it is read-only after construction.
    """

    def __init__(self, L, dt: float):
        lower, diag, upper = (-0.5 * dt * L.diagonal(k) for k in (-1, 0, 1))
        *self._lu, info = dgttrf(lower, 1.0 + diag, upper)
        if info != 0:
            raise ValueError(f"I - dt/2 L is singular (dgttrf info {info})")

    def __call__(self, z: np.ndarray, forcing: np.ndarray) -> np.ndarray:
        rhs = 2.0 * z
        rhs += forcing
        x = dgttrs(*self._lu, rhs.T, overwrite_b=True)[0].T
        x -= z
        return x


def simulate_she(z0: np.ndarray, params: BoundaryParams, cfg: SimConfig) -> SheResult:
    """Evolve n_paths copies of the SHE from z0 under independent noise.

    The noise depends only on ``cfg`` (its seed, the chunk index and the
    chunk's shape), so two runs with the same config from different starts
    see the identical noise realization: that is the one-force coupling.

    The ``RNG_CHUNK``-path chunks run in a pool of min(chunks, usable CPUs)
    threads; each writes only its own slices of the outputs.  A path is flagged
    if a value is ever <= 0: a running ``fmin`` (which skips NaN, as ``<= 0``
    does) keeps each value's minimum, read once per chunk.
    """
    n = cfg.n
    z_all = np.asarray(z0, dtype=float)
    if z_all.ndim == 1:
        z_all = np.broadcast_to(z_all, (cfg.n_paths, n + 1))
    if z_all.shape != (cfg.n_paths, n + 1):
        raise ValueError(f"initial data must have shape {(cfg.n_paths, n + 1)}")
    if not np.all(z_all > 0):
        raise ValueError("initial data must be strictly positive")
    step = _TridiagonalStep(robin_laplacian(n, params.u, params.v), cfg.dt)
    noise_scale = np.sqrt(cfg.dt / cfg.dx)
    saves = cfg.save_step_indices()
    snaps = {t: np.empty(z_all.shape) for t in saves.values()}
    lost = np.zeros(cfg.n_paths, dtype=bool)

    def run_chunk(chunk_idx: int) -> None:
        start = chunk_idx * RNG_CHUNK
        stop = min(start + RNG_CHUNK, cfg.n_paths)
        rng = _noise_stream(cfg.seed, chunk_idx)
        z = z_all[start:stop]
        low = np.full(z.shape, np.inf)
        eta = np.empty(z.shape)
        for k in range(cfg.n_steps + 1):
            if k > 0:
                rng.standard_normal(out=eta)
                z = step(z, z * eta * noise_scale)
            np.fmin(low, z, out=low)
            if k in saves:
                snaps[saves[k]][start:stop] = z
        lost[start:stop] = low.min(axis=1) <= 0

    n_chunks = -(-cfg.n_paths // RNG_CHUNK)
    with ThreadPoolExecutor(min(n_chunks, _usable_cpus())) as pool:
        list(pool.map(run_chunk, range(n_chunks)))  # re-raises a chunk's exception
    return SheResult(snaps, lost, cfg)


def robin_semigroup_apply(
    z0: np.ndarray, params: BoundaryParams, dx: float, t: float
) -> np.ndarray:
    """Deterministic oracle: the noise-free scheme applied to z0."""
    cn = CrankNicolson(robin_laplacian(grid_size(dx), params.u, params.v), default_dt(dx))
    return cn.advance(np.asarray(z0, dtype=float), time_steps(t, cn.dt))


def hopf_cole(z: np.ndarray) -> np.ndarray:
    """h = log Z pointwise; errors name the first nonpositive grid index."""
    values = np.asarray(z, dtype=float)
    if np.any(values <= 0):
        idx = np.argwhere(values <= 0)[0]
        raise ValueError(f"nonpositive value at grid index {tuple(idx)}")
    return np.log(values)


def anchor(h: np.ndarray) -> np.ndarray:
    """Subtract h(0): the anchored field x -> h(x) - h(0)."""
    h = np.asarray(h, dtype=float)
    return h - h[..., :1]
