"""Truncated fixed-point expansion of the remainder equation.

The remainder W solves an abstract mild equation whose right-hand side is
quadratic in the derivative dW + dPsi; Picard iteration from the purely
polynomial seed w*1 + wtilde*X1, truncated above the degree of <1d1>,
stabilizes after a few steps and yields the finite tree expansion of W.
From it: the derivative expansion dW, the degree-<=0 part of the squared
renormalized derivative, and the three counterterm constants produced by
the renormalization group.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from openkpz.treealg.basis import PSI, basis_tree
from openkpz.treealg.combination import SYMBOLS, Poly, TreeCombination
from openkpz.treealg.degree import ExactDegree
from openkpz.treealg.renorm import renormalize
from openkpz.treealg.trees import ONE, X1, tree_degree

_W_BOUND = tree_degree(basis_tree("<1d1>"))

_DPSI = TreeCombination.single(PSI)
PICARD_ITERATIONS = 10  # more than the truncated iteration needs to stabilize


def picard_W() -> TreeCombination:
    """Fixed point of the truncated mild equation, as a tree expansion.

    Returns w*1 + wtilde*X1 + (1/2)<2d1> + (1/4)<2d2d1> + (a10+wtilde/2)<1d1>.
    """
    w = SYMBOLS["w"]
    wt = SYMBOLS["wtilde"]
    a10 = SYMBOLS["a10"]
    seed = TreeCombination({ONE: w, X1: wt})
    current = seed
    for _ in range(PICARD_ITERATIONS):
        dw = current.deriv()
        quad = dw.mul(dw) + dw.mul(_DPSI) + _DPSI.mul(_DPSI)
        linear = (dw + _DPSI).scale(a10)
        nxt = seed + (
            quad.scale(Fraction(1, 2)).integrate() + linear.integrate()
        ).project_leq(_W_BOUND)
        if nxt == current:
            return current
        current = nxt
    raise RuntimeError("truncated Picard iteration did not stabilize")


def picard_dW() -> TreeCombination:
    """Derivative expansion: wtilde*1 + (1/2)<2d1d> + (1/4)<2d2d1d> + (a10+wtilde/2)<1d1d>."""
    return picard_W().deriv()


def q_leq0_nonlinearity(dw: TreeCombination) -> TreeCombination:
    """Degree-<=0 part of (dW)^2 + 2 (dW)(dPsi) + (dPsi)^2, for dW = ``dw``."""
    full = dw.mul(dw) + dw.mul(_DPSI).scale(2) + _DPSI.mul(_DPSI)
    return full.project_leq(ExactDegree(0))


class ConstantExtractionError(RuntimeError):
    """The renormalized nonlinearity does not have the expected shape."""

    def __init__(self, residual: TreeCombination):
        super().__init__(f"unmatched residual {residual!r}")
        self.residual = residual


def renorm_constants() -> Tuple[Poly, Poly, Poly]:
    """Counterterm constants (c1, c2, c3) of the renormalized equation, at the
    symbolic contraction weights C0-C3.

    The renormalization group changes the degree-<=0 nonlinearity by exactly
    -c1 * (degree-<=0 part of M_g dW) - c2 * <1d> - c3 * 1; the constants are
    read off by coefficient matching and the match is verified exactly.
    """
    dw = picard_dW()
    q = q_leq0_nonlinearity(dw)
    renorm_q = renormalize(q)
    mg_dw = renormalize(dw)
    q_of_renorm = q_leq0_nonlinearity(mg_dw)
    r = renorm_q - q_of_renorm

    mg_dw_leq0 = mg_dw.project_leq(ExactDegree(0))
    tree_2d1d = basis_tree("<2d1d>")
    tree_1d = basis_tree("<1d>")

    denom = mg_dw_leq0.coeff(tree_2d1d)
    if denom == 0:
        raise ConstantExtractionError(r)
    c1 = -r.coeff(tree_2d1d) / denom
    c2 = -r.coeff(tree_1d)
    c3 = -r.coeff(ONE) - c1 * mg_dw_leq0.coeff(ONE)

    residual = r + mg_dw_leq0.scale(c1) + TreeCombination({tree_1d: c2, ONE: c3})
    if residual.terms:
        raise ConstantExtractionError(residual)
    return c1, c2, c3
