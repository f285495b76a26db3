"""Sector exponents of the fixed-point spaces, in exact Q + Q*kappa arithmetic.

Starting data: regularity gamma = 3/2 + kappa, initial-condition exponent
eta = kappa, boundary exponent sigma = 1/2 + 2*kappa, and the input sector
regularities alpha_0..alpha_5.  Each input i produces an output triple
(eta_i, sigma_i, mu_i) by the fixed-point arithmetic below; every gamma_i
equals kappa.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List

from openkpz.treealg.degree import ExactDegree


def _d(rational, kappa=0) -> ExactDegree:
    return ExactDegree(Fraction(rational), Fraction(kappa))


GAMMA = _d(Fraction(3, 2), 1)
ETA = _d(0, 1)
SIGMA = _d(Fraction(1, 2), 2)

ALPHAS: List[ExactDegree] = [
    _d(0, -4),                    # alpha_0
    _d(Fraction(-1, 2), -3),      # alpha_1
    _d(-1, -2),                   # alpha_2
    _d(0, -2),                    # alpha_3
    _d(Fraction(-1, 2), -1),      # alpha_4
    _d(0, 0),                     # alpha_5
]


def sector_table() -> Dict[str, ExactDegree]:
    """Name -> exponent: gamma, eta, sigma, then alpha_i, gamma_i, eta_i, sigma_i
    and mu_i of the six output sectors i = 0..5."""
    one = _d(1)
    a4 = ALPHAS[4]
    outputs = [  # (eta_i, sigma_i, mu_i)
        # squares of the rough derivative: exponents double and drop by 2
        ((ETA - one) * 2, (SIGMA - one) * 2, (ETA - one) * 2),
        # cross terms with the derivative remainder
        (ETA - one + a4, SIGMA - one + a4, ETA - one + a4),
        # the purely rough square keeps its own regularity everywhere
        (ALPHAS[2], ALPHAS[2], ALPHAS[2]),
        # linear terms in the derivative of the remainder
        (ETA - one, SIGMA - one, ETA - one),
        # linear terms in the rough derivative
        (a4, a4, a4),
        # constant (unit) contributions
        (ALPHAS[5], ALPHAS[5], ALPHAS[5]),
    ]
    out: Dict[str, ExactDegree] = {"gamma": GAMMA, "eta": ETA, "sigma": SIGMA}
    for i, (eta_i, sigma_i, mu_i) in enumerate(outputs):
        out[f"alpha_{i}"] = ALPHAS[i]
        out[f"gamma_{i}"] = _d(0, 1)  # kappa, for every i
        out[f"eta_{i}"] = eta_i
        out[f"sigma_{i}"] = sigma_i
        out[f"mu_{i}"] = mu_i
    return out
