"""Canonical tree symbols of the model space.

Grammar: the noise symbol Xi, monomials X0^l0 X1^l1 (the unit is X^0),
integration maps I and I' applied to non-polynomial symbols, and a
commutative associative product with the unit absorbed.  Canonical form:
products are flattened, factors sorted, monomial factors merged, and the
unit dropped.  ``I(X^l) = I'(X^l) = 0`` by convention, so the constructors
for integration refuse monomial children; linear maps built on top of the
grammar drop those terms instead (see :mod:`openkpz.treealg.combination`).
This module holds the grammar only; all tree text is in
:mod:`openkpz.treealg.basis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple, Union

from openkpz.treealg.degree import ExactDegree


class GrammarError(ValueError):
    """Raised when a symbol outside the grammar would be constructed."""


class _Node:
    """Every tree prints as ``basis.format_tree`` writes it, which ``parse_tree`` reads."""

    def __repr__(self) -> str:
        from openkpz.treealg.basis import format_tree  # basis imports this module

        return format_tree(self)


@dataclass(frozen=True, repr=False)
class Xi(_Node):
    """The noise symbol."""


@dataclass(frozen=True, repr=False)
class Monomial(_Node):
    l0: int
    l1: int

    def __post_init__(self) -> None:
        if self.l0 < 0 or self.l1 < 0:
            raise GrammarError(f"negative exponents in X^({self.l0},{self.l1})")


@dataclass(frozen=True, repr=False)
class Integ(_Node):
    child: "Tree"
    prime: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.child, Monomial):
            raise GrammarError("I/I' of a monomial is 0, not a tree")


@dataclass(frozen=True, repr=False)
class Product(_Node):
    factors: Tuple["Tree", ...]


Tree = Union[Xi, Monomial, Integ, Product]

XI = Xi()
ONE = Monomial(0, 0)
X1 = Monomial(0, 1)


def _sort_key(tree: Tree):
    if isinstance(tree, Xi):
        return (0,)
    if isinstance(tree, Monomial):
        return (1, tree.l0, tree.l1)
    if isinstance(tree, Integ):
        return (2, int(tree.prime)) + _sort_key(tree.child)
    return (3, len(tree.factors)) + tuple(k for f in tree.factors for k in _sort_key(f))


def prod(*trees: Tree) -> Tree:
    """Canonical commutative product of trees with the unit absorbed."""
    factors = []
    l0 = l1 = 0
    stack = list(trees)
    while stack:
        t = stack.pop()
        if isinstance(t, Product):
            stack.extend(t.factors)
        elif isinstance(t, Monomial):
            l0 += t.l0
            l1 += t.l1
        else:
            factors.append(t)
    if l0 or l1:
        factors.append(Monomial(l0, l1))
    factors.sort(key=_sort_key)
    if not factors:
        return ONE
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def tree_degree(tree: Tree) -> ExactDegree:
    """deg Xi = -3/2-k, deg X^l = 2*l0+l1, deg I = +2, deg I' = +1, additive on products."""
    if isinstance(tree, Xi):
        return ExactDegree(Fraction(-3, 2), Fraction(-1))
    if isinstance(tree, Monomial):
        return ExactDegree(Fraction(2 * tree.l0 + tree.l1))
    if isinstance(tree, Integ):
        shift = 1 if tree.prime else 2
        return tree_degree(tree.child) + ExactDegree(Fraction(shift))
    return sum((tree_degree(f) for f in tree.factors), ExactDegree(Fraction(0)))


def deriv_tree(tree: Tree) -> Iterable[Tuple[Tree, int]]:
    """Spatial derivative of a single tree as (tree, integer coefficient) terms.

    Monomials follow the standard rules (d1 = 0, dX1 = 1); I(tau) maps to
    I'(tau); products follow Leibniz.  Differentiating an already primed
    integral or the bare noise is outside the grammar.
    """
    if isinstance(tree, Monomial):
        if tree.l1 == 0:
            return []
        return [(Monomial(tree.l0, tree.l1 - 1), tree.l1)]
    if isinstance(tree, Integ):
        if tree.prime:
            raise GrammarError("second derivative of an integral is not in the grammar")
        return [(Integ(tree.child, True), 1)]
    if isinstance(tree, Product):
        terms = []
        for i, f in enumerate(tree.factors):
            rest = tree.factors[:i] + tree.factors[i + 1 :]
            for df, coeff in deriv_tree(f):
                terms.append((prod(df, *rest), coeff))
        return terms
    raise GrammarError(f"cannot differentiate {tree!r}")
