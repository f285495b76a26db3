"""Exact linear combinations of trees and tensor elements.

Coefficients are sympy expressions (polynomials over Q in named scalar
indeterminates); zero coefficients are pruned eagerly so that structural
equality of the underlying dicts is exact equality of combinations.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Hashable, Iterable, Mapping, Tuple

import sympy

from openkpz.treealg.degree import ExactDegree
from openkpz.treealg.trees import (
    Integ,
    Monomial,
    Tree,
    _sort_key,
    deriv_tree,
    prod,
    tree_degree,
)

Coeff = sympy.Expr

# The fixed indeterminates used across the package.
SYMBOLS: Dict[str, sympy.Symbol] = {
    name: sympy.Symbol(name)
    for name in (
        "a", "b", "c", "d", "g", "h", "w",
        "C0", "C1", "C2", "C3",
        "wtilde", "a10", "a11",
    )
}


def _as_coeff(value) -> Coeff:
    return sympy.sympify(value, locals=SYMBOLS, rational=True)


class _Combination:
    """Formal linear combination over hashable keys with exact coefficients.

    Subclasses supply the key product ``_key_mul``, the sort key ``_key_sort``
    and the key repr ``_key_repr``.
    """

    __slots__ = ("terms",)

    def __init__(
        self,
        terms: Mapping[Hashable, Coeff] | Iterable[Tuple[Hashable, Coeff]] = (),
    ):
        """Build from a mapping or from (key, coeff) pairs; repeated keys add up."""
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        summed: Dict[Hashable, Coeff] = {}
        for key, coeff in pairs:
            coeff = _as_coeff(coeff)
            summed[key] = summed[key] + coeff if key in summed else coeff
        self.terms: Dict[Hashable, Coeff] = {}
        for key, coeff in summed.items():
            coeff = sympy.expand(coeff)
            if coeff != 0:
                self.terms[key] = coeff

    def items(self) -> Iterable[Tuple[Hashable, Coeff]]:
        return self.terms.items()

    def __add__(self, other):
        return type(self)(chain(self.items(), other.items()))

    def __sub__(self, other):
        return type(self)(chain(self.items(), ((k, -c) for k, c in other.items())))

    def scale(self, scalar):
        scalar = _as_coeff(scalar)
        return type(self)((k, scalar * c) for k, c in self.items())

    def mul(self, other):
        """Bilinear extension of the key product."""
        return type(self)(
            (self._key_mul(k1, k2), c1 * c2)
            for k1, c1 in self.items()
            for k2, c2 in other.items()
        )

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return not (self - other).terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=self._key_sort):
            coeff = self.terms[key]
            head = self._key_repr(key)
            parts.append(head if coeff == 1 else f"({coeff})*{head}")
        return " + ".join(parts)


class TreeCombination(_Combination):
    """Formal linear combination of canonical trees with exact coefficients."""

    __slots__ = ()
    _key_sort = staticmethod(_sort_key)
    _key_repr = staticmethod(repr)

    @staticmethod
    def _key_mul(t1, t2):
        return prod(t1, t2)

    @classmethod
    def single(cls, tree: Tree) -> "TreeCombination":
        return cls({tree: 1})

    def coeff(self, tree: Tree) -> Coeff:
        return self.terms.get(tree, sympy.Integer(0))

    def integrate(self, prime: bool = False) -> "TreeCombination":
        """Linear extension of I/I'; monomial terms are annihilated."""
        return TreeCombination(
            (Integ(tree, prime), coeff)
            for tree, coeff in self.items()
            if not isinstance(tree, Monomial)
        )

    def deriv(self) -> "TreeCombination":
        return TreeCombination(
            (dt, k * coeff) for tree, coeff in self.items() for dt, k in deriv_tree(tree)
        )

    def project_leq(self, bound: ExactDegree) -> "TreeCombination":
        """Drop all trees of degree strictly above ``bound``."""
        return TreeCombination((t, c) for t, c in self.items() if tree_degree(t) <= bound)


RightMono = Tuple[Tree, ...]  # sorted tuple of plus-algebra generators


def right_mono(generators: Iterable[Tree]) -> RightMono:
    """Canonical (sorted) form of a product of plus-algebra generators."""
    return tuple(sorted(generators, key=_sort_key))


class TensorElement(_Combination):
    """Element of (model space) tensor (free commutative plus-algebra).

    Keys are pairs ``(tree, right)`` where ``right`` is a sorted tuple of
    generator trees (the empty tuple is the unit of the plus-algebra).
    """

    __slots__ = ()

    @staticmethod
    def _key_mul(k1, k2):
        return prod(k1[0], k2[0]), right_mono(k1[1] + k2[1])

    @staticmethod
    def _key_sort(key):
        return _sort_key(key[0]), [_sort_key(t) for t in key[1]]

    @staticmethod
    def _key_repr(key) -> str:
        left, right = key
        rtxt = "*".join(repr(t) for t in right) if right else "1"
        return f"{left!r} @ {rtxt}"

    @classmethod
    def single(cls, tree: Tree) -> "TensorElement":
        return cls({(tree, ()): 1})

    def apply_left(self, fn) -> "TensorElement":
        """Apply a linear map to the left legs.

        ``fn`` takes a tree and returns a TreeCombination (possibly zero).
        """
        return TensorElement(
            ((tree, right), coeff * c)
            for (left, right), coeff in self.items()
            for tree, c in fn(left).items()
        )
