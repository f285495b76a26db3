"""Monte Carlo solver for the stochastic heat equation with Robin boundaries.

Scheme: semi-implicit Euler-Maruyama.  The linear part (1/2) d^2/dx^2 with
Robin ghost points is treated by Crank-Nicolson, written as the implicit
midpoint rule so that a step is one symmetric tridiagonal solve on the scaled
state y = W^1/2 z, W = diag(1/2, 1, ..., 1, 1/2), in which L is self-adjoint;
the Ito forcing is Z_j eta_j sqrt(dt/dx) per cell and step with independent
standard Gaussians (the space-time white noise discretization).  Paths that
lose positivity are flagged and excluded from statistics, never clamped.

Determinism and threads: noise streams are derived from (seed, chunk index)
with a fixed chunk size of paths.  The chunks run concurrently, one thread
each up to the number of usable CPUs, and every chunk steps only its own
paths with its own stream through a step that holds no shared mutable state,
so results are bit-identical for a given seed whatever the thread count.
A chunk draws the noise of K steps at once into a reused block and builds
each step's forcing, and then its new state, in place in that step's noise
row; one draw of K steps is the same stream as K draws of one, so the output
does not depend on the block size either.
The one-force coupling is two runs with the same seed, same config: the
noise does not depend on the initial data.
The step solves with LAPACK's ``dpttrs``, which calls no BLAS but holds the
GIL, so the chunk threads overlap their noise draws and not their solves.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np
from scipy.linalg.lapack import dpttrs

from openkpz.grid import check_time, default_dt, grid_size, time_steps
from openkpz.kernels import CrankNicolson, robin_laplacian

RNG_CHUNK = 512  # paths per independent noise stream
# Noise bytes per block draw; no bit depends on it.  It gives K = 248 steps for
# one path at dx = 1/32, where a step takes 6.2 us against 9.3 us at K = 1, and
# K = 1 at 512 x 65, where K = 8 was no faster (933 against 821 us a step);
# medians of alternating rounds on 2 vCPUs, one BLAS thread.
_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class BoundaryParams:
    """Boundary slopes (u, v)."""

    u: float
    v: float


@dataclass(frozen=True)
class SimConfig:
    """A run of the SHE; its time step is the grid's, dt = dx^2/2."""

    dx: float
    t_final: float
    n_paths: int
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
    """One Crank-Nicolson step (I - dt/2 L) z' = (I + dt/2 L) z + forcing, on y = W^1/2 z.

    With A = I - dt/2 L the step is the implicit midpoint rule
    z' = A^{-1}(2z + forcing) - z, so on y (``scale`` is W^1/2's diagonal) it
    is y' = S^{-1}(2y + W^1/2 forcing) - y with the symmetric S = W^1/2 A W^-1/2.
    S's LDL^T factors are computed once here, without pivoting or a test of
    definiteness (A is indefinite for steep negative slopes); a zero pivot is
    an error.  ``dpttrs`` solves the Fortran-ordered transposed (paths, n+1)
    forcing in place and returns it (one that is not C-ordered is solved in a
    copy); y is never written.  Threads may share the read-only instance, but
    scipy's ``dpttrs`` holds the GIL, so their solves do not overlap.
    """

    def __init__(self, L, dt: float):
        self.scale = np.sqrt(np.r_[0.5, np.ones(L.shape[0] - 2), 0.5])
        d = (1.0 - 0.5 * dt * L.diagonal()).tolist()
        e = (-0.5 * dt * L.diagonal(1) * self.scale[:-1] / self.scale[1:]).tolist()
        for i, ei in enumerate(e):  # dpttrf's recurrence, without its test d > 0
            if d[i] == 0.0:
                break
            e[i] = ei / d[i]
            d[i + 1] -= e[i] * ei
        if 0.0 in d:
            raise ValueError(f"I - dt/2 L is singular (zero pivot at node {d.index(0.0)})")
        self._ldl = np.array(d), np.array(e)

    def __call__(self, y: np.ndarray, forcing: np.ndarray) -> np.ndarray:
        forcing += y + y  # 2y exactly, without a scalar operand
        x = dpttrs(*self._ldl, forcing.T, overwrite_b=True)[0].T
        x -= y
        return x


def simulate_she(z0: np.ndarray, params: BoundaryParams, cfg: SimConfig) -> SheResult:
    """Evolve n_paths copies of the SHE from z0 under independent noise.

    The noise depends only on ``cfg`` (its seed, the chunk index and the
    chunk's shape), so two runs with the same config from different starts
    see the identical noise realization: that is the one-force coupling.

    The ``RNG_CHUNK``-path chunks run in a pool of min(chunks, usable CPUs)
    threads; each writes only its own slices of the outputs.  A path is flagged
    if a value is ever <= 0: a running ``fmin`` (which skips NaN, as ``<= 0``
    does) keeps each value's minimum, read once per chunk.  A path that leaves
    the float range is a RuntimeError naming overflow, (u, v) and dx.
    """
    n = cfg.n
    z_all = np.asarray(z0, dtype=float)
    if z_all.ndim == 1:
        z_all = np.broadcast_to(z_all, (cfg.n_paths, n + 1))
    if z_all.shape != (cfg.n_paths, n + 1):
        raise ValueError(f"initial data must have shape {(cfg.n_paths, n + 1)}")
    if not np.all(np.isfinite(z_all) & (z_all > 0)):
        raise ValueError("initial data must be finite and strictly positive")
    step = _TridiagonalStep(robin_laplacian(n, params.u, params.v), cfg.dt)
    noise_scale = np.array(np.sqrt(cfg.dt / cfg.dx))  # 0-d: no scalar conversion per step
    saves = cfg.save_step_indices()
    snaps = {t: np.empty(z_all.shape) for t in saves.values()}
    lost = np.zeros(cfg.n_paths, dtype=bool)

    def run_chunk(chunk_idx: int) -> None:
        start = chunk_idx * RNG_CHUNK
        stop = min(start + RNG_CHUNK, cfg.n_paths)
        rng = _noise_stream(cfg.seed, chunk_idx)
        if 0 in saves:
            snaps[saves[0]][start:stop] = z_all[start:stop]
        y = z_all[start:stop] * step.scale  # W^1/2 z, with z's signs and finiteness
        low = y.copy()  # the running minimum, from finite data
        # each step's new state is built in its noise row, so draws alternate
        # between two halves: the state in one half's last row outlives the next
        n_block = max(1, min(cfg.n_steps, _BLOCK_BYTES // y.nbytes))
        block = np.empty((2, n_block) + y.shape)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
            for b, first in enumerate(range(1, cfg.n_steps + 1, n_block)):
                noise = block[b % 2, : cfg.n_steps + 1 - first]
                rng.standard_normal(out=noise)
                for k, forcing in enumerate(noise, first):
                    forcing *= y
                    forcing *= noise_scale
                    y = step(y, forcing)
                    np.fmin(low, y, low)
                    if k in saves:
                        np.divide(y, step.scale, out=snaps[saves[k]][start:stop])
        # the step turns inf into NaN and keeps NaN, so the last state shows every overflow
        overflowed = ~np.isfinite(y).all(axis=1)
        if overflowed.any():
            raise RuntimeError(
                f"overflow at (u, v) = ({params.u}, {params.v}), dx = {cfg.dx}: {overflowed.sum()} "
                f"of the {stop - start} paths {start}..{stop - 1} left the float range")
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
