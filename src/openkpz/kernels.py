"""Heat kernels on the line and on [0,1], and the boundary constant `a`.

Convention: all kernels solve d/dt = (1/2) d^2/dx^2, so the whole-line
kernel is (2*pi*t)^(-1/2) exp(-x^2/(2t)).  The Neumann kernel on [0,1] is
the image sum; the Robin kernel is computed as a discrete semigroup:
Rannacher-started Crank-Nicolson with centered ghost points, evaluated in
closed form from one eigendecomposition of the Laplacian symmetrised by the
ghost points' end weights W, so m steps cost one diagonal power and not m
solves; only the reference step, factored when called, solves by sparse LU.
The constant `a` is a quadrature of the mollifier autocorrelation, in closed
form as an exact polynomial, against a bracket of erf and the whole-line kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from openkpz.grid import check_time, step_count

RANNACHER_STEPS = 2  # CN steps replaced by implicit-Euler half-step pairs


def gauss_kernel(t, x):
    """Whole-line heat kernel (2*pi*t)^(-1/2) exp(-x^2/(2t)) for t > 0."""
    check_time(t)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.exp(-x * x / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)


def neumann_tail_bound(t: float, M: int) -> float:
    """Bound on the image-sum truncation error at level M."""
    return 2.0 * math.exp(-((2 * M - 2) ** 2) / (2.0 * t))


def neumann_kernel(t, x, y) -> Tuple[np.ndarray, float]:
    """Neumann heat kernel on [0,1] by the method of images.

    Returns (value, tail_bound); the sum runs over images |m| <= M, where
    M = 1 + ceil(sqrt(373 t)) at the largest t puts the bound's exponent below
    -746, so the bound is 0.0 and no image left out can change a bit.
    """
    check_time(t)
    t_max = float(np.max(t))
    M = 1 + math.ceil(math.sqrt(373.0 * t_max))
    if M > 10**4:
        raise ValueError(f"the Neumann image sum at t={t_max} needs {M} > 10000 images")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = np.zeros(np.broadcast(x, y).shape, dtype=float)
    for m in range(-M, M + 1):
        total = total + gauss_kernel(t, x + y + 2 * m) + gauss_kernel(t, x - y + 2 * m)
    return total, neumann_tail_bound(t_max, M)


def neumann_kernel_spectral(t, x, y) -> np.ndarray:
    """Eigenfunction-expansion oracle: 1 + 2 sum e^{-k^2 pi^2 t/2} cos cos, for t > 0,
    summed until the factor e^{-k^2 pi^2 t/2} underflows to 0.0, at most 10^4 modes."""
    check_time(t)
    if math.exp(-(10**4 + 1) ** 2 * math.pi * math.pi * t / 2.0) != 0.0:
        raise ValueError(f"the Neumann eigenfunction sum at t={t} needs over 10000 modes")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = np.ones(np.broadcast(x, y).shape, dtype=float)
    for k in range(1, 10**4 + 2):  # the factor is 0.0 at k = 10^4 + 1
        lam = math.exp(-(k * k) * math.pi * math.pi * t / 2.0)
        if lam == 0.0:
            break
        total = total + 2.0 * lam * np.cos(k * math.pi * x) * np.cos(k * math.pi * y)
    return total


def robin_laplacian(n: int, u: float, v: float) -> Tuple[np.ndarray, np.ndarray]:
    """Discrete (1/2) d^2/dx^2 on n+1 points of [0,1] with Robin ghost points, as the
    bands (diagonal, off_diagonal) of the symmetric S = W^1/2 L W^-1/2 (``end_weights``).

    Ghost elimination Z_{-1} = Z_1 - 2 dx (u - 1/2) Z_0, Z_{n+1} = Z_{n-1} - 2 dx (v - 1/2) Z_n
    gives L's rows, times 2 dx^2: [-2 - 2 dx (u - 1/2), 2], then [1, -2, 1] inside, then
    [2, -2 - 2 dx (v - 1/2)]; S keeps L's diagonal, and L[i, i+1] (W_i / W_{i+1})^1/2 above it.
    """
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"boundary slopes must be finite (u={u}, v={v})")
    dx = 1.0 / n
    main = np.full(n + 1, -2.0)
    upper = np.ones(n)
    main[0] -= 2.0 * dx * (u - 0.5)
    main[-1] -= 2.0 * dx * (v - 0.5)
    upper[0] = 2.0
    scale = np.sqrt(end_weights(n))
    return (0.5 / dx**2) * main, (0.5 / dx**2) * upper * scale[:-1] / scale[1:]


def end_weights(n: int) -> np.ndarray:
    """W = diag(1/2, 1, ..., 1, 1/2) on n+1 points: the ghost points give each end half a cell.

    The Robin Laplacian is self-adjoint in the inner product weighted by W, and
    W / n is the trapezoid rule on [0,1].
    """
    w = np.ones(n + 1)
    w[[0, -1]] = 0.5
    return w


class CrankNicolson:
    """Propagator of dZ/dt = L Z by (I - dt/2 L) Z' = (I + dt/2 L) Z.

    ``laplacian`` is ``robin_laplacian``'s bands of S = W^1/2 L W^-1/2, whose eigendecomposition
    Q diag(lam) Q^T is computed once here.  m steps are then one diagonal power,
    W^-1/2 Q diag(r^m) Q^T W^1/2 with r = (1 + dt/2 lam) / (1 - dt/2 lam).
    ``step`` and ``step_with_forcing`` are the reference step, factored when called.
    """

    def __init__(self, laplacian: Tuple[np.ndarray, np.ndarray], dt: float):
        if dt <= 0:
            raise ValueError("time step must be positive")
        self.dt = dt
        self._bands = diagonal, off = laplacian
        n = len(diagonal)
        self._scale = np.sqrt(end_weights(n - 1))
        lam, self._modes = np.linalg.eigh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
        implicit = 1.0 - 0.5 * dt * lam
        # eigh's eigenvalues are accurate to about n eps max|lam|, so within that of 0 is 0
        near = np.abs(implicit) <= n * np.finfo(float).eps * max(1.0, 0.5 * dt * np.abs(lam).max())
        if near.any():
            raise ValueError(f"I - dt/2 L is singular (L's eigenvalue {lam[near][0]!r} is 2/dt "
                             "to rounding)")
        self._implicit = 1.0 / implicit  # one implicit-Euler half-step per mode
        self._cn = (1.0 + 0.5 * dt * lam) * self._implicit  # one CN step per mode

    def step(self, z: np.ndarray) -> np.ndarray:
        return self.step_with_forcing(z, np.zeros_like(z))

    def step_with_forcing(self, z: np.ndarray, forcing: np.ndarray) -> np.ndarray:
        """(I - dt/2 L) z' = (I + dt/2 L) z + forcing, by sparse LU on y = W^1/2 z."""
        diagonal, off = self._bands
        half = 0.5 * self.dt * sparse.diags([off, diagonal, off], [-1, 0, 1], format="csc")
        eye = sparse.identity(len(diagonal), format="csc")
        scale = self._scale[(slice(None),) + (None,) * (np.ndim(z) - 1)]
        return splu(eye - half).solve((eye + half) @ (scale * z) + scale * forcing) / scale

    def _spectral(self, z: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """W^-1/2 Q diag(factors) Q^T W^1/2 z for z of shape (n+1,) or (n+1, k)."""
        z = np.asarray(z, dtype=float)
        column = (slice(None),) + (None,) * (z.ndim - 1)
        coeffs = self._modes.T @ (self._scale[column] * z)
        coeffs *= factors[column]
        out = self._modes @ coeffs
        out /= self._scale[column]
        return out

    def advance(self, z: np.ndarray, n_steps: int) -> np.ndarray:
        return self._spectral(z, self._cn**n_steps)


class RannacherPropagator(CrankNicolson):
    """Crank-Nicolson with an implicit-Euler startup (Rannacher smoothing).

    The first two CN steps are each replaced by two implicit-Euler
    half-steps, damping the high modes of rough (delta-like) initial data
    that plain Crank-Nicolson leaves oscillating; overall accuracy stays
    second order.  An implicit-Euler half-step solves with the CN matrix
    I - dt/2 L, so in the modes it is the factor 1 / (1 - dt/2 lam).
    """

    def advance(self, z: np.ndarray, n_steps: int) -> np.ndarray:
        startup = min(RANNACHER_STEPS, n_steps)
        return self._spectral(z, self._cn ** (n_steps - startup) * self._implicit ** (2 * startup))


def robin_kernel(t: float, u: float, v: float, n: int) -> np.ndarray:
    """Robin heat kernel matrix K[i, j] ~ P_t(x_i, y_j) on the n+1 points of [0,1].

    The semigroup acts through trapezoid weights: (P_t f)(x_i) =
    sum_j w_j K[i, j] f(x_j).  Second-order accurate in dt and dx.
    """
    check_time(t)
    if n < 1:
        raise ValueError(f"robin_kernel needs a grid of n >= 1 cells (n={n})")
    step_count(t, 1.0 / (8 * n))  # bounds the horizon before t * 8 * n can overflow
    n_steps = max(64, round(t * 8 * n))
    dt = t / n_steps
    weights = end_weights(n) / n
    prop = RannacherPropagator(robin_laplacian(n, u, v), dt)
    return prop.advance(np.diag(1.0 / weights), n_steps)


# --- the boundary constant a ------------------------------------------------


@dataclass(frozen=True)
class Mollifier:
    """Separable even bump rho(s, y) = b(s / rt) b(y / rs) / (rt * rs).

    b(z) = (35/32) (1 - z^2)^3 on [-1, 1], a probability density, so rho
    integrates to 1 for any radii.
    """

    time_radius: float
    space_radius: float

    def __post_init__(self) -> None:
        for name in ("time_radius", "space_radius"):
            radius = getattr(self, name)
            if not 0 < radius < math.inf:
                raise ValueError(f"mollifier {name} must be positive and finite ({name}={radius})")

    @staticmethod
    def bump(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        inside = np.clip(1.0 - z * z, 0.0, None)
        return (35.0 / 32.0) * inside**3


# A(z) for the unit bump as a polynomial in p = |z| - 1 on [0, 2], lowest
# degree first: the exact rationals of int b(w - z) b(w) dw.  The centred
# variable keeps Horner's absolute rounding error near 1e-16 on all of [0, 2].
_AUTOCORRELATION_COEFFS = (
    164885.0 / 1757184.0, -62195.0 / 135168.0, 17115.0 / 22528.0,
    -1505.0 / 6144.0, -7315.0 / 12288.0, 1995.0 / 4096.0, 175.0 / 1024.0,
    -245.0 / 1024.0, -105.0 / 4096.0, 665.0 / 12288.0, 35.0 / 6144.0,
    -105.0 / 22528.0, -175.0 / 135168.0, -175.0 / 1757184.0,
)


def _bump_autocorrelation(z: np.ndarray, radius: float) -> np.ndarray:
    """A_r(z) = integral b_r(w - z) b_r(w) dw for the scaled bump b_r.

    In closed form A_r(z) = A(z / r) / r, where the unit A is the degree-13
    polynomial q^7 (35/64 - 105/128 q + ... + 175/1757184 q^6), q = 2 - |z|,
    for |z| < 2 and 0 beyond.
    """
    x = np.abs(np.asarray(z, dtype=float)) / radius
    p = x - 1.0
    value = np.full_like(p, _AUTOCORRELATION_COEFFS[-1])
    for coeff in _AUTOCORRELATION_COEFFS[-2::-1]:
        value *= p
        value += coeff
    value[x >= 2.0] = 0.0
    return value / radius


def _constant_a_single(rho: Mollifier, n: int, u: np.ndarray, ug: np.ndarray) -> float:
    """One quadrature pass with n outer cells and the inner rule (u, ug).

    The bracket F(s, y) = 1/2 - (1/2) Erf(|y| / sqrt(2|s|)) - 2 |y| N(s, y),
    with N the heat kernel, is discontinuous at the space-time origin (it is
    constant along parabolas y ~ c sqrt(s)), which ruins plain tensor
    quadrature.  Substituting u = y / sqrt(2 s) makes the inner integral smooth:

        G(s) = int A_y(y) F(s, y) dy
             = 2 sqrt(2 s) int_0^inf A_y(sqrt(2 s) u) g(u) du,
        g(u) = Erfc(u) / 2 - (2 / sqrt(pi)) u exp(-u^2),

    and s = sigma^2 absorbs the remaining sqrt(s) factor, so both loops
    converge at full order.  ``ug`` holds the inner weights times g(u).
    """
    # outer rule: midpoint in sigma = sqrt(s) over (0, sqrt(2 rt)]
    smax = math.sqrt(2.0 * rho.time_radius)
    edges = np.linspace(0.0, smax, n + 1)
    sigma = 0.5 * (edges[:-1] + edges[1:])
    wsigma = smax / n
    s = sigma**2
    corr_s = _bump_autocorrelation(s, rho.time_radius)

    y = np.sqrt(2.0 * s)[:, None] * u[None, :]
    corr_y = _bump_autocorrelation(y.ravel(), rho.space_radius).reshape(y.shape)
    inner = 2.0 * np.sqrt(2.0 * s) * (corr_y @ ug)
    # a = 2 int_0^smax A_t(sigma^2) G(sigma^2) 2 sigma dsigma
    return float(np.sum(2.0 * corr_s * inner * 2.0 * sigma) * wsigma)


def constant_a(rho: Mollifier, n: int) -> Tuple[float, float]:
    """Boundary constant a = integral (rho_bar * rho)(s,y) F(s,y) ds dy.

    F is the bracket of ``_constant_a_single``.  Quadrature at n and 2n cells
    with Richardson extrapolation; returns (value, error_estimate >= 4 eps |value|).
    """
    if n < 1:
        raise ValueError(f"constant_a needs n >= 1 quadrature cells (n={n})")
    # inner rule, shared by both passes: Gauss-Legendre in u over [0, ucut];
    # g decays like exp(-u^2)
    ucut = 10.0
    un, uw = np.polynomial.legendre.leggauss(96)
    u = 0.5 * ucut * (un + 1.0)
    uw = 0.5 * ucut * uw
    # erfc, not 1 - erf: 1 - erf(u) rounds to 0 at 42 of the 96 nodes
    erfc = np.array([math.erfc(node) for node in u])
    g = 0.5 * erfc - (2.0 / math.sqrt(math.pi)) * u * np.exp(-u * u)
    ug = uw * g
    coarse = _constant_a_single(rho, n, u, ug)
    fine = _constant_a_single(rho, 2 * n, u, ug)
    value = (4.0 * fine - coarse) / 3.0
    # Richardson misses rounding: computing A another way moved a by 2.3 eps |a|
    return value, max(abs(fine - coarse) / 3.0, 4.0 * np.finfo(float).eps * abs(value))
