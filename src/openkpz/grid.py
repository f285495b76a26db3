"""The space grid x_j = j dx on [0,1] and the time grid t_k = k dt.

Every module that discretises [0,1] or a time horizon takes its grid
decisions from here: dx must divide 1, times must lie on the dt grid, and
the default step is the solver's stability bound dt = dx^2/2.
"""

from __future__ import annotations

import math


def grid_size(dx: float) -> int:
    """Number of cells n = 1/dx; dx must be positive and divide 1."""
    if not 0 < dx < math.inf:
        raise ValueError(f"dx must be positive and finite (dx={dx})")
    n = round(1.0 / dx)
    if abs(n * dx - 1.0) > 1e-12:
        raise ValueError(f"dx must divide 1 exactly (dx={dx})")
    return n


def default_dt(dx: float) -> float:
    """The stability bound dx^2/2 of a valid grid, used as the default time step."""
    grid_size(dx)
    return 0.5 * dx**2


def time_steps(t: float, dt: float) -> int:
    """Number of steps k with k dt = t; t must lie on the dt grid."""
    k = round(t / dt)
    if abs(k * dt - t) > 1e-9 or (k == 0 and t != 0):
        raise ValueError(f"time {t} is not an integer multiple of dt={dt}")
    return k


def snap_time(t: float, dt: float) -> float:
    """The time on the dt grid nearest to t, at least one step; t must be positive and finite."""
    if not 0 < t < math.inf:
        raise ValueError(f"time must be positive and finite (t={t})")
    return max(1, round(t / dt)) * dt
