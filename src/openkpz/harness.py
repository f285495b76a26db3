"""Statistical experiments: stationarity, ergodic averages, coupling.

Every experiment returns a TestReport of its statistics, the pre-declared
thresholds of any pass/fail verdict, and as ``parameters`` the keyword
arguments of its call, the seed and the snapped t_final included:
``f(**report.parameters)`` returns the same report.  The arrays a call takes
are not recorded: coupling's two starts, and stationarity's wrong laws, for
which it returns one report each after its own, in one tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Tuple

import numpy as np

from openkpz.grid import default_dt, grid_size, snap_time, time_steps
from openkpz.shesolver import (
    BoundaryParams,
    SimConfig,
    anchor,
    hopf_cole,
    simulate_she,
)
from openkpz.stationary import (
    McmcConfig,
    exact_sampler,
    sample_bm_drift,
    sample_stationary_mcmc,
)

MARGINAL_POINTS = (0.25, 0.5, 0.75, 1.0)
KS_ALPHA = 0.01  # family-wise level, Bonferroni-split across marginals
KS_MIN_SAMPLES = 50  # per side, for the asymptotic KS p-value
BATCHES = 20  # batch means for the standard error of a time average
MAX_ABS_Z = 3.0  # an ergodic average passes within this many standard errors
CHECKPOINTS = 8  # times along [0, t_final] at which a coupling run records D(t)


@dataclass
class TestReport:
    experiment: str
    parameters: Dict
    statistics: Dict
    thresholds: Dict
    passed: bool | None


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> Tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    from scipy import stats  # slow to import, and only needed here

    a = np.asarray(a)
    b = np.asarray(b)
    if len(a) < KS_MIN_SAMPLES or len(b) < KS_MIN_SAMPLES:
        raise ValueError(f"ks_two_sample needs at least {KS_MIN_SAMPLES} samples per side, "
                         f"got {len(a)} and {len(b)}")
    res = stats.ks_2samp(a, b, method="asymp")
    return float(res.statistic), float(res.pvalue)


def _initial_ensemble(u: float, v: float, n_samples: int, dx: float, seed: int) -> np.ndarray:
    """Anchored stationary samples h with h(0) = 0, shape (n_samples, n+1)."""
    if exact_sampler(u, v):
        return sample_bm_drift(u, dx, n_samples, seed)
    return sample_stationary_mcmc(u, v, McmcConfig(n_samples=n_samples, seed=seed), dx).samples


def _evolve(h0: np.ndarray, u: float, v: float, dx: float, seed: int,
            times: Tuple[float, ...], min_paths: int = 1) -> Tuple[np.ndarray, float]:
    """Run the SHE from exp(h0) to times[-1]; read the anchored log-fields at ``times``.

    ``h0`` is one start (n+1,) or one per path.  Returns the fields of the paths
    that kept positivity, stacked as (len(times), kept, n+1), and the exclusion
    rate; fewer than ``min_paths`` kept paths is a numerical failure.
    """
    h0 = np.atleast_2d(h0)
    cfg = SimConfig(dx=dx, t_final=times[-1], n_paths=len(h0), seed=seed, save_times=times)
    result = simulate_she(np.exp(h0), BoundaryParams(u, v), cfg)
    kept = result.kept(min_paths)
    # popped, so that each snapshot is freed once it is in the stack
    h = hopf_cole(np.stack([result.snapshots.pop(t) for t in times])[:, kept])
    return anchor(h), result.exclusion_rate


def stationarity_experiment(
    u: float,
    v: float,
    n_samples: int,
    t_final: float,
    dx: float,
    seed: int,
    wrong_laws: Mapping[str, np.ndarray] | None = None,
) -> Tuple[TestReport, ...]:
    """KS-compare anchored marginals of a stationary start at times 0 and T.

    The time-0 reference is the first half of 2 n_samples stationary draws and
    the evolved start the second: iid rows at u + v = 0, as at the CLI default
    (1/2, -1/2); at u + v > 0 two thinned stretches of one pCN chain, whose kept
    states have lag-1 autocorrelation 0.12-0.25 at McmcConfig's defaults, so the
    asymptotic KS p-values are only approximate there.  ``wrong_laws`` maps
    labels to further reference ensembles: the evolved one is KS-tested against each.
    Returns one report per reference, the fresh reference's first.  A
    deliberately wrong reference law is a control that must fail at any
    horizon: the dynamics relax wrong starts, never wrong references.
    """
    if n_samples < KS_MIN_SAMPLES:
        raise ValueError(f"n_samples = {n_samples}; the KS test needs at least {KS_MIN_SAMPLES}")
    t_final = snap_time(t_final, default_dt(dx))
    drawn = _initial_ensemble(u, v, 2 * n_samples, dx, seed)
    (h_t,), exclusion_rate = _evolve(drawn[n_samples:], u, v, dx, seed, (t_final,),
                                     KS_MIN_SAMPLES)

    n = grid_size(dx)
    per_marginal = KS_ALPHA / len(MARGINAL_POINTS)
    reports = []
    for name, reference in [("stationarity", drawn[:n_samples]), *(wrong_laws or {}).items()]:
        reference = anchor(reference)
        ks_stats, p_values = {}, {}
        for x in MARGINAL_POINTS:
            j = round(x * n)
            ks_stats[str(x)], p_values[str(x)] = ks_two_sample(reference[:, j], h_t[:, j])
        reports.append(TestReport(
            experiment=name,
            parameters={"u": u, "v": v, "n_samples": n_samples, "t_final": t_final, "dx": dx,
                        "seed": seed},
            statistics={
                "ks": ks_stats,
                "p_values": p_values,
                "exclusion_rate": exclusion_rate,
            },
            thresholds={
                "family_alpha": KS_ALPHA,
                "per_marginal_alpha": per_marginal,
                "correction": f"Bonferroni over {len(MARGINAL_POINTS)} marginals",
            },
            passed=all(p > per_marginal for p in p_values.values()),
        ))
    return tuple(reports)


FUNCTIONALS: Dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    "endpoint": lambda h, dx: h[..., -1],
    "max": lambda h, dx: h.max(axis=-1),
    "integral": lambda h, dx: np.trapezoid(h, dx=dx, axis=-1),
}


def batch_means_se(series: np.ndarray) -> float:
    if len(series) < BATCHES:
        raise ValueError(f"{len(series)} samples cannot fill {BATCHES} batch means")
    usable = (len(series) // BATCHES) * BATCHES
    batches = series[:usable].reshape(BATCHES, -1).mean(axis=1)
    return float(batches.std(ddof=1) / np.sqrt(BATCHES))


def ergodic_average(
    u: float,
    v: float,
    functional: str,
    t_final: float,
    dx: float,
    seed: int,
    n_reference: int = 4000,
    sample_stride: int = 8,
) -> TestReport:
    """Time average of F along one long stationary path vs. the ensemble mean: of
    n_reference + 1 stationary draws, row 0 starts the path and the rest are the
    ensemble, independent at u + v = 0 (iid rows), two stretches of one pCN chain."""
    if functional not in FUNCTIONALS:
        raise ValueError(f"unknown functional {functional!r}; choose from {sorted(FUNCTIONALS)}")
    if n_reference < 2:
        raise ValueError(f"n_reference = {n_reference}: the ensemble error needs at least 2")
    if sample_stride < 1:
        raise ValueError(f"sample_stride = {sample_stride}: need at least 1 step between samples")
    F = FUNCTIONALS[functional]
    dt = default_dt(dx)
    t_final = snap_time(t_final, dt)
    saved_steps = range(sample_stride, time_steps(t_final, dt) + 1, sample_stride)
    if len(saved_steps) < BATCHES:
        raise ValueError(
            f"t_final = {t_final} gives {len(saved_steps)} samples along the path; "
            f"the batch-means error needs at least {BATCHES}"
        )
    drawn = _initial_ensemble(u, v, n_reference + 1, dx, seed)
    h, _ = _evolve(drawn[0], u, v, dx, seed, tuple(k * dt for k in saved_steps))
    series = F(h[:, 0], dx)
    time_avg = float(series.mean())
    se_time = batch_means_se(series)

    ref_vals = F(anchor(drawn[1:]), dx)
    ref_mean = float(ref_vals.mean())
    se_ref = float(ref_vals.std(ddof=1) / np.sqrt(n_reference))
    se = float(np.hypot(se_time, se_ref))
    z = (time_avg - ref_mean) / se if se > 0 else 0.0
    return TestReport(
        experiment="ergodic_average",
        parameters={"u": u, "v": v, "functional": functional, "t_final": t_final, "dx": dx,
                    "seed": seed, "n_reference": n_reference, "sample_stride": sample_stride},
        statistics={
            "time_average": time_avg,
            "ensemble_mean": ref_mean,
            "se_time": se_time,
            "se_ensemble": se_ref,
            "z_score": z,
        },
        thresholds={"max_abs_z": MAX_ABS_Z},
        passed=abs(z) <= MAX_ABS_Z,
    )


def coupling_experiment(
    u: float,
    v: float,
    h0_a: np.ndarray,
    h0_b: np.ndarray,
    t_final: float,
    dx: float,
    seed: int,
) -> TestReport:
    """Evolve two initial states under the same noise; report D(t) decay.

    Exploratory (no pass/fail): D(t) = max_j |anchored difference| at
    checkpoints; passed is None.
    """
    dt = default_dt(dx)
    t_final = snap_time(t_final, dt)
    steps = time_steps(t_final, dt)
    ks = sorted({max(1, round(steps * i / CHECKPOINTS)) for i in range(1, CHECKPOINTS + 1)})
    save_times = tuple(k * dt for k in ks)
    # same seed, same config: both runs draw the identical noise
    (h_a, _), (h_b, _) = (_evolve(h0, u, v, dx, seed, save_times) for h0 in (h0_a, h0_b))
    d0 = float(np.max(np.abs(anchor(h0_a) - anchor(h0_b))))
    curve = {"0.0": d0}
    curve.update(zip((f"{t:.6g}" for t in save_times), np.abs(h_a - h_b).max(axis=(1, 2))))
    return TestReport(
        experiment="coupling",
        parameters={"u": u, "v": v, "t_final": t_final, "dx": dx, "seed": seed},
        statistics={"distance_curve": curve, "d_initial": d0, "d_final": curve[f"{t_final:.6g}"]},
        thresholds={"note": "exploratory: decay curve only, no pass/fail"},
        passed=None,
    )
