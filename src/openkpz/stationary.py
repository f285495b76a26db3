"""Samplers for the stationary measure of the open KPZ equation.

Case u + v = 0: the anchored stationary field is exactly a standard
Brownian motion with drift u, sampled directly.

Case u + v > 0, min(u, v) > -1: the stationary field is h = W + Y with W an
independent Brownian motion of variance 1/2 and Y - Y(0) = beta distributed
according to a density against a variance-1/2 Brownian motion:

    weight(beta) ~ exp(-2 v beta(1)) * (int_0^1 exp(-2 beta(x)) dx)^(-(u+v)).

beta is sampled by preconditioned Crank-Nicolson (pCN) Metropolis, whose
proposal preserves the Gaussian reference exactly, so acceptance uses only
the weight ratio.  The proposal noise does not depend on the state, so the
chain draws it NOISE_ROWS steps at a time from its stream of the seed, and the
acceptance uniforms as many at a time from theirs; W has a third stream
(``streams``, as every draw here): no bit depends on the block size.

The importance-sampling cross-check oracles stream N iid reference paths
beta in row blocks, bit-identical to a full-size draw, and draw W only at
the k points they report, with the same law as a full path: O(N (k + 1))
floats plus two increment blocks and one path block.  A one-worker
ThreadPoolExecutor draws the next blocks while the current one is weighted;
it is the only thread that draws, and it runs the draws in the order they
were submitted, which is stream order, so the output does not depend on the
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from openkpz import streams
from openkpz.grid import grid_size

# Rows per block; no bit depends on it.  The pipelined pass over 300 000 paths
# at dx = 1/64 took 0.44 s at 1024 rows and 0.41 s at 2048, 4096 and 8192
# (2 vCPUs, medians of 5 alternating rounds); more rows only add memory.
BLOCK_ROWS = 4096

# pCN steps whose proposal noise is drawn at once, into two reused buffers of
# this many rows rather than the whole chain's noise; no bit depends on it.
NOISE_ROWS = 256


class RegimeError(ValueError):
    """(u, v) outside the regime that pCN and importance sampling serve."""


def check_regime(u: float, v: float) -> None:
    """Accept u + v > 0, min(u, v) > -1, where pCN and importance sampling apply."""
    if not np.isfinite([u, v]).all():
        raise RegimeError(f"(u, v) = ({u}, {v}): the slopes must be finite")
    if u + v > 0 and min(u, v) > -1:
        return
    need = "pCN and importance sampling need u + v > 0, min(u, v) > -1"
    if exact_sampler(u, v):
        raise RegimeError(f"(u, v) = ({u}, {v}): {need}; u + v = 0 is sample_bm_drift's")
    raise RegimeError(f"(u, v) = ({u}, {v}): {need}")


def exact_sampler(u: float, v: float) -> bool:
    """u + v = 0: sample_bm_drift is exact; elsewhere use sample_stationary_mcmc."""
    return abs(u + v) < 1e-12


def _grid_paths(increments: np.ndarray) -> np.ndarray:
    """One grid path from 0 per row of increments, shape (rows, n+1)."""
    out = np.zeros((len(increments), increments.shape[1] + 1))
    np.cumsum(increments, axis=1, out=out[:, 1:])
    return out


def sample_bm_drift(u: float, dx: float, n_samples: int, seed: int) -> np.ndarray:
    """Standard Brownian motion with drift u on the grid, h(0) = 0.

    Together with v = -u this is the anchored stationary field.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples = {n_samples}: need at least 1 path")
    rng = streams.stream(seed, streams.BM_DRIFT)
    return _grid_paths(rng.normal(u * dx, np.sqrt(dx), size=(n_samples, grid_size(dx))))


def _half_increments(rng: np.random.Generator, out: np.ndarray, dx: float) -> np.ndarray:
    """Fill ``out`` with grid increments of a variance-1/2 Brownian motion and return it."""
    rng.standard_normal(out=out)
    out *= np.sqrt(dx / 2.0)
    return out


def brownian_half(dx: float, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Brownian motion of variance 1/2 on the grid, path(0) = 0."""
    return _grid_paths(_half_increments(rng, np.empty((n_samples, grid_size(dx))), dx))


def rn_log_weight(beta: np.ndarray, u: float, v: float, dx: float) -> np.ndarray:
    """log of the unnormalized stationary density of beta against the reference.

    -2 v beta(1) - (u + v) log int_0^1 exp(-2 beta) dx; np.trapezoid's arithmetic,
    less its call cost, in two block-sized temporaries in place of five.
    """
    beta = np.asarray(beta, dtype=float)
    e = np.multiply(beta, -2.0)
    np.exp(e, out=e)
    trapezoids = np.add(e[..., 1:], e[..., :-1])
    trapezoids *= dx
    trapezoids /= 2.0
    return -2.0 * v * beta[..., -1] - (u + v) * np.log(np.add.reduce(trapezoids, axis=-1))


@dataclass(frozen=True)
class McmcConfig:
    rho: float = 0.5
    burn_in: int = 2000
    thinning: int = 10
    n_samples: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"pCN step rho must lie in (0, 1) (rho={self.rho})")
        for name, least in (("burn_in", 0), ("thinning", 1), ("n_samples", 1)):
            length = getattr(self, name)
            if length < least:
                raise ValueError(f"{name} must be at least {least} ({name}={length})")

    @property
    def chain_length(self) -> int:
        return self.burn_in + self.n_samples * self.thinning


@dataclass
class McmcResult:
    samples: np.ndarray          # h = W + beta, shape (n_samples, n+1)
    beta_samples: np.ndarray     # the chain states that produced them
    acceptance_rate: float
    autocorr_time: float
    config: McmcConfig

    def warnings(self) -> Tuple[str, ...]:
        out = []
        if not 0.05 < self.acceptance_rate < 0.95:
            suggestion = (
                self.config.rho / 2 if self.acceptance_rate <= 0.05 else min(0.9, self.config.rho * 2)
            )
            out.append(
                f"acceptance rate {self.acceptance_rate:.3f} outside (0.05, 0.95); "
                f"try rho around {suggestion:.3f}"
            )
        return tuple(out)


def _integrated_autocorr(series: np.ndarray) -> float:
    """Initial-positive-sequence estimate of the integrated autocorrelation.

    The lag products are summed by numpy's pairwise sum, not by BLAS ``ddot``,
    whose summation order, and so whose last bits, depend on the CPU's kernel.
    """
    x = series - series.mean()
    var = float(np.add.reduce(x * x)) / len(x)
    if var == 0.0:
        return 1.0
    tau = 1.0
    for lag in range(1, len(x) // 2):
        rho = float(np.add.reduce(x[:-lag] * x[lag:])) / ((len(x) - lag) * var)
        if rho <= 0:
            break
        tau += 2.0 * rho
    return tau


def sample_stationary_mcmc(
    u: float,
    v: float,
    cfg: McmcConfig,
    dx: float,
) -> McmcResult:
    """pCN Metropolis chain for beta, with target weight ``rn_log_weight``;
    output samples h = W + beta."""
    check_regime(u, v)
    rng = streams.stream(cfg.seed, streams.PCN_PROPOSALS)
    accept_rng = streams.stream(cfg.seed, streams.PCN_ACCEPT)
    root = np.sqrt(1.0 - cfg.rho**2)
    beta = brownian_half(dx, 1, rng)[0]
    current_logw = float(rn_log_weight(beta, u, v, dx))
    rows = min(NOISE_ROWS, cfg.chain_length)
    inc, noise = np.empty((rows, len(beta) - 1)), np.zeros((rows, len(beta)))
    proposal = np.empty_like(beta)
    accepted = 0
    beta_samples = np.empty((cfg.n_samples, len(beta)))
    logw_series = np.empty(cfg.chain_length)
    for start in range(0, cfg.chain_length, rows):
        block = noise[: min(rows, cfg.chain_length - start)]
        np.cumsum(_half_increments(rng, inc[: len(block)], dx), axis=1, out=block[:, 1:])
        block *= cfg.rho
        log_uniforms = np.log(accept_rng.random(len(block))).tolist()
        for step, (xi, log_uniform) in enumerate(zip(block, log_uniforms), start):
            np.multiply(root, beta, out=proposal)
            proposal += xi
            proposal_logw = float(rn_log_weight(proposal, u, v, dx))
            if log_uniform < proposal_logw - current_logw:
                beta, proposal = proposal, beta
                current_logw = proposal_logw
                accepted += 1
            logw_series[step] = current_logw
            kept, offset = divmod(step - cfg.burn_in, cfg.thinning)
            if kept >= 0 and offset == 0:
                beta_samples[kept] = beta
    w_fresh = brownian_half(dx, cfg.n_samples, streams.stream(cfg.seed, streams.PCN_FRESH_W))
    return McmcResult(
        samples=w_fresh + beta_samples,
        beta_samples=beta_samples,
        acceptance_rate=accepted / cfg.chain_length,
        autocorr_time=_integrated_autocorr(logw_series[cfg.burn_in :]),
        config=cfg,
    )


def _grid_indices(x_indices: Sequence[int], dx: float) -> np.ndarray:
    """x_indices as an index array, each an integer in [0, 1/dx]; else name the bad one."""
    n = grid_size(dx)
    indices = list(x_indices)
    if not indices:
        raise ValueError("x_indices is empty: name at least one grid index")
    for index in indices:
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
            raise ValueError(f"x_indices entry {index!r} is not an integer grid index")
        if not 0 <= index <= n:
            raise ValueError(f"x_indices entry {index} lies outside the grid 0..{n}")
    return np.array(indices, dtype=np.intp)


def _add_brownian_half_at(h, dx, rng, x_indices) -> None:
    """h[:, i] += W(x_indices[i]) for len(h) iid variance-1/2 Brownian motions W.

    W is drawn only at the sorted distinct indices j_1 < ... < j_m, as partial
    sums of independent N(0, (j_i - j_{i-1}) dx / 2) increments (j_0 = 0) in one
    (len(h), m) block: the law of full grid paths at those points.
    """
    points, where = np.unique(x_indices, return_inverse=True)
    w = rng.standard_normal(size=(len(h), len(points)))
    w *= np.sqrt(np.diff(points, prepend=0) * dx / 2.0)
    np.cumsum(w, axis=1, out=w)
    for column, point in enumerate(where):
        h[:, column] += w[:, point]


def _reference_pass(u, v, dx, n_samples, seed, x_indices=()):
    """logw of n_samples paths block-drawn from the seed's REFERENCE_BETA stream, and
    their x_indices values F-ordered as a full draw.

    A one-worker ThreadPoolExecutor draws block i's increments into buffer
    i % 2, two draws in flight: this thread cumulates block i into a reused
    path buffer (column 0 stays zero), submits draw i + 2 into the buffer it
    has read, then weighs block i with rn_log_weight and keeps its x_indices
    columns.  One worker runs the draws in the order they were submitted, so
    every bit is a full draw's whatever the scheduling.  ``result()`` raises
    the worker's error here, and leaving the ``with`` block joins the worker.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples = {n_samples}: need at least 2 reference paths")
    from concurrent.futures import ThreadPoolExecutor  # here, not at module import

    rng = streams.stream(seed, streams.REFERENCE_BETA)
    starts = range(0, n_samples, BLOCK_ROWS)
    logw, kept = np.empty(n_samples), np.empty((n_samples, len(x_indices)), order="F")
    paths = np.zeros((min(BLOCK_ROWS, n_samples), grid_size(dx) + 1))
    buffers = np.empty((2, len(paths), grid_size(dx)))
    outs = [buffers[i % 2][: min(BLOCK_ROWS, n_samples - start)] for i, start in enumerate(starts)]
    with ThreadPoolExecutor(1) as pool:
        draws = [pool.submit(_half_increments, rng, out, dx) for out in outs[:2]]
        for i, start in enumerate(starts):
            beta = paths[: len(outs[i])]
            np.cumsum(draws[i].result(), axis=1, out=beta[:, 1:])
            if i + 2 < len(outs):
                draws.append(pool.submit(_half_increments, rng, outs[i + 2], dx))
            logw[start : start + len(beta)] = rn_log_weight(beta, u, v, dx)
            kept[start : start + len(beta)] = beta[:, x_indices]
    return logw, kept


def estimate_normalization(
    u: float,
    v: float,
    dx: float,
    n_samples: int,
    seed: int,
) -> Tuple[float, float]:
    """Monte Carlo normalization: mean of exp(log weight) over iid paths, O(N) + three blocks."""
    check_regime(u, v)
    logw = _reference_pass(u, v, dx, n_samples, seed)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        weights = np.exp(logw)
        estimate, se = float(weights.mean()), float(weights.std(ddof=1) / np.sqrt(n_samples))
    if not np.isfinite([estimate, se]).all():
        raise RuntimeError(f"normalization overflows at u + v = {u + v}: ({estimate}, {se})")
    return estimate, se


def importance_sampling_moments(
    u: float,
    v: float,
    dx: float,
    n_samples: int,
    seed: int,
    x_indices: Sequence[int],
) -> dict:
    """Independent oracle for stationary marginals at the given grid indices.

    iid reference paths beta reweighted by the stationary density; h = W + beta
    with independent W.  The beta pass streams in row blocks, bit-identical to
    a full-size draw whatever the scheduling of its one-worker executor, which
    draws the next blocks while this one is weighted; W is drawn only at the k
    points, with a full path's law, after the pass.  Returns means, variances,
    their standard errors, the ESS and the largest normalised weight, in
    O(N (k + 1)) floats plus two increment blocks and one path block.
    """
    check_regime(u, v)
    x_indices = _grid_indices(x_indices, dx)
    logw, h = _reference_pass(u, v, dx, n_samples, seed, x_indices)
    _add_brownian_half_at(h, dx, streams.stream(seed, streams.REFERENCE_W), x_indices)
    logw -= logw.max()
    weights = np.exp(logw)
    weights /= weights.sum()
    ess = 1.0 / float(np.sum(weights**2))
    mean = weights @ h
    spread = h - mean  # squared and shifted in place: one (N, k) temporary, the same arithmetic
    spread **= 2
    var = weights @ spread
    mean_se = np.sqrt(var / ess)
    spread -= var
    spread **= 2
    var_se = np.sqrt(weights @ spread / ess)
    return {
        "mean": mean,
        "var": var,
        "mean_se": mean_se,
        "var_se": var_se,
        "ess": ess,
        "max_weight": float(weights.max()),
    }

