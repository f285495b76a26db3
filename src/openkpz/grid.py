"""The space grid x_j = j dx on [0,1] and the time grid t_k = k dt.

Every module that discretises [0,1] or a time horizon takes its grid
decisions from here: dx must divide 1, times must be positive, finite and on
the dt grid, and the default step is the solver's stability bound dx^2/2.
"""

from __future__ import annotations

import math

import numpy as np

MAX_STEPS = 10**8  # per horizon; the longest run in the tests and benchmark takes 40 960
# cells on [0,1]; the tests use at most 4096.  At 2^16, 1000 sampled paths take 0.5 GB,
# the SHE needs 2 n^2 = 8.6e9 steps per unit time (past MAX_STEPS); dx^2/2 never underflows
_MAX_CELLS = 2**16


def grid_size(dx: float) -> int:
    """Number of cells n = 1/dx; dx must be positive and divide 1."""
    if not 0 < dx < math.inf:
        raise ValueError(f"dx must be positive and finite (dx={dx})")
    if 1.0 / dx > _MAX_CELLS + 0.5:  # round(1/dx) > _MAX_CELLS, or 1/dx is inf
        raise ValueError(f"dx is too small: 1/dx = {1.0 / dx:.4g} cells > {_MAX_CELLS} (dx={dx})")
    n = round(1.0 / dx)
    if abs(n * dx - 1.0) > 1e-12:
        raise ValueError(f"dx must divide 1 exactly (dx={dx})")
    return n


def default_dt(dx: float) -> float:
    """The stability bound dx^2/2 of a valid grid, used as the default time step."""
    grid_size(dx)
    return 0.5 * dx**2


def check_time(t) -> None:
    """Reject a time, or an array of times, that is not positive and finite."""
    if not np.all(np.isfinite(t) & np.greater(t, 0)):
        raise ValueError(f"time must be positive and finite (t={t})")


def step_count(t: float, dt: float) -> float:
    """t / dt, which may not exceed MAX_STEPS."""
    steps = t / dt
    if math.isnan(steps):
        raise ValueError(f"time must be a number (t={t}, dt={dt})")
    if steps > MAX_STEPS:
        raise ValueError(f"time {t} at dt={dt} takes {steps:.4g} steps > MAX_STEPS = {MAX_STEPS}")
    return steps


def time_steps(t: float, dt: float) -> int:
    """Number of steps k with k dt = t; t must lie on the dt grid."""
    k = round(step_count(t, dt))
    if abs(k * dt - t) > 1e-9 or (k == 0 and t != 0):
        raise ValueError(f"time {t} is not an integer multiple of dt={dt}")
    return k


def snap_time(t: float, dt: float) -> float:
    """The time on the dt grid nearest to t, at least one step; t must be positive and finite."""
    check_time(t)
    return max(1, round(step_count(t, dt))) * dt
