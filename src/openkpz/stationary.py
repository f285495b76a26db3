"""Samplers for the stationary measure of the open KPZ equation.

Case u + v = 0: the anchored stationary field is exactly a standard
Brownian motion with drift u, sampled directly.

Case u + v > 0, min(u, v) > -1: the stationary field is h = W + Y with W an
independent Brownian motion of variance 1/2 and Y - Y(0) = beta distributed
according to a density against a variance-1/2 Brownian motion:

    weight(beta) ~ exp(-2 v beta(1)) * (int_0^1 exp(-2 beta(x)) dx)^(-(u+v)).

beta is sampled by preconditioned Crank-Nicolson (pCN) Metropolis, whose
proposal preserves the Gaussian reference exactly, so acceptance uses only
the weight ratio.  The importance-sampling cross-check oracles stream N iid
reference paths in row blocks: O(N (k + 1)) floats for k points plus one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from openkpz.grid import grid_size

BLOCK_ROWS = 4096  # 2048-8192 rows ran alike; 32768 ran slower


class RegimeError(ValueError):
    """(u, v) outside the proven stationarity regime."""


def check_regime(u: float, v: float) -> None:
    if not np.isfinite([u, v]).all():
        raise RegimeError(f"(u, v) = ({u}, {v}): the slopes must be finite")
    if u + v > 0 and min(u, v) > -1:
        return
    raise RegimeError(
        f"(u, v) = ({u}, {v}) is outside the proven regime "
        "u + v > 0, min(u, v) > -1"
    )


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
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return _grid_paths(rng.normal(u * dx, np.sqrt(dx), size=(n_samples, grid_size(dx))))


def brownian_half(dx: float, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Brownian motion of variance 1/2 on the grid, path(0) = 0."""
    return _grid_paths(rng.normal(0.0, np.sqrt(dx / 2.0), size=(n_samples, grid_size(dx))))


def rn_log_weight(beta: np.ndarray, u: float, v: float, dx: float) -> np.ndarray:
    """log of the unnormalized stationary density of beta against the reference.

    -2 v beta(1) - (u + v) log int_0^1 exp(-2 beta) dx; np.trapezoid's arithmetic, less its call cost.
    """
    beta = np.asarray(beta, dtype=float)
    e = np.exp(-2.0 * beta)
    integral = (dx * (e[..., 1:] + e[..., :-1]) / 2.0).sum(axis=-1)
    return -2.0 * v * beta[..., -1] - (u + v) * np.log(integral)


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
    """Initial-positive-sequence estimate of the integrated autocorrelation."""
    x = series - series.mean()
    var = float(np.dot(x, x)) / len(x)
    if var == 0.0:
        return 1.0
    tau = 1.0
    for lag in range(1, len(x) // 2):
        rho = float(np.dot(x[:-lag], x[lag:])) / ((len(x) - lag) * var)
        if rho <= 0:
            break
        tau += 2.0 * rho
    return tau


def sample_stationary_mcmc(
    u: float,
    v: float,
    cfg: McmcConfig,
    dx: float,
    zero_exponents: bool = False,
) -> McmcResult:
    """pCN Metropolis chain for beta, output samples h = W + beta.

    ``zero_exponents`` turns the weight off (target = reference), the
    calibration mode used to validate the chain against the exact Gaussian.
    """
    check_regime(u, v)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    root = np.sqrt(1.0 - cfg.rho**2)

    def logw(b: np.ndarray) -> float:
        if zero_exponents:
            return 0.0
        return float(rn_log_weight(b, u, v, dx))

    beta = brownian_half(dx, 1, rng)[0]
    current_logw = logw(beta)
    accepted = 0
    kept = []
    logw_series = np.empty(cfg.chain_length)
    for step in range(cfg.chain_length):
        xi = brownian_half(dx, 1, rng)[0]
        proposal = root * beta + cfg.rho * xi
        proposal_logw = logw(proposal)
        if np.log(rng.uniform()) < proposal_logw - current_logw:
            beta = proposal
            current_logw = proposal_logw
            accepted += 1
        logw_series[step] = current_logw
        if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.thinning == 0:
            kept.append(beta.copy())
    beta_samples = np.array(kept[: cfg.n_samples])
    w_fresh = brownian_half(dx, len(beta_samples), rng)
    return McmcResult(
        samples=w_fresh + beta_samples,
        beta_samples=beta_samples,
        acceptance_rate=accepted / cfg.chain_length,
        autocorr_time=_integrated_autocorr(logw_series[cfg.burn_in :]),
        config=cfg,
    )


def _reference_pass(u, v, dx, n_samples, rng, x_indices=()):
    """logw of n_samples block-drawn paths, and their x_indices values F-ordered as a full draw."""
    if n_samples < 2:
        raise ValueError(f"n_samples = {n_samples}: need at least 2 reference paths")
    blocks = [slice(i, min(i + BLOCK_ROWS, n_samples)) for i in range(0, n_samples, BLOCK_ROWS)]
    logw, kept = np.empty(n_samples), np.empty((n_samples, len(x_indices)), order="F")
    for rows in blocks:
        beta = brownian_half(dx, rows.stop - rows.start, rng)
        logw[rows] = rn_log_weight(beta, u, v, dx)
        kept[rows] = beta[:, x_indices]
    return logw, kept, blocks


def estimate_normalization(
    u: float,
    v: float,
    dx: float,
    n_samples: int,
    seed: int,
) -> Tuple[float, float]:
    """Monte Carlo normalization: mean of exp(log weight) over iid paths, O(N) + one block."""
    check_regime(u, v)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    logw = _reference_pass(u, v, dx, n_samples, rng)[0]
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
    with independent W.  Returns means, variances, their standard errors, the ESS
    and the largest normalised weight, in O(N (k + 1)) floats plus one block.
    """
    check_regime(u, v)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    logw, h, blocks = _reference_pass(u, v, dx, n_samples, rng, x_indices)
    for rows in blocks:
        h[rows] += brownian_half(dx, rows.stop - rows.start, rng)[:, x_indices]
    logw -= logw.max()
    weights = np.exp(logw)
    weights /= weights.sum()
    ess = 1.0 / float(np.sum(weights**2))
    mean = weights @ h
    var = weights @ (h - mean) ** 2
    mean_se = np.sqrt(weights @ (h - mean) ** 2 / ess)
    var_se = np.sqrt(weights @ ((h - mean) ** 2 - var) ** 2 / ess)
    return {
        "mean": mean,
        "var": var,
        "mean_se": mean_se,
        "var_se": var_se,
        "ess": ess,
        "max_weight": float(weights.max()),
    }

