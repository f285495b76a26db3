"""The ghost-point Robin Laplacian as a dense matrix, assembled from its rows with
no package code: the tests' independent reference for ``kernels.robin_laplacian``."""

import numpy as np


def dense_laplacian(n: int, u: float, v: float) -> np.ndarray:
    """L = (1/2) d^2/dx^2 on the n+1 points of [0,1], dx = 1/n.

    Row i is (Z_{i-1} - 2 Z_i + Z_{i+1}) / (2 dx^2), with the ghost values
    Z_{-1} = Z_1 - 2 dx (u - 1/2) Z_0 and Z_{n+1} = Z_{n-1} - 2 dx (v - 1/2) Z_n
    substituted in the end rows.
    """
    dx = 1.0 / n
    rows = np.zeros((n + 1, n + 3))  # columns: Z_{-1}, Z_0, ..., Z_{n+1}
    for i in range(n + 1):
        rows[i, i:i + 3] = 1.0, -2.0, 1.0
    rows[:, 2] += rows[:, 0]  # Z_{-1} -> Z_1 - 2 dx (u - 1/2) Z_0
    rows[:, 1] -= 2.0 * dx * (u - 0.5) * rows[:, 0]
    rows[:, n] += rows[:, n + 2]  # Z_{n+1} -> Z_{n-1} - 2 dx (v - 1/2) Z_n
    rows[:, n + 1] -= 2.0 * dx * (v - 0.5) * rows[:, n + 2]
    return rows[:, 1:-1] / (2.0 * dx**2)
