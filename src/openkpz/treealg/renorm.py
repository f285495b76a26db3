"""Renormalization-group action M_g on the model space.

M_g = exp(-sum_i C_i L_i) where each L_i sums over all ways to contract one
occurrence of a fixed negative-degree pattern to the unit:

    L0 : a Psi factor, a primed-integral factor I'(t) at the same node, and
         a Psi factor at the root of t; the contracted pair is removed and
         the rest of t is spliced into the host node,
    L1 : a pair of Psi factors at one node,
    L2 : a pair of I'(Psi^2) factors at one node,
    L3 : a Psi factor and an I'(Psi*I'(Psi^2)) factor at one node,

with Psi = I'(Xi).  The exponential is realized as the sum over all sets of
pairwise-disjoint contractions (each weighted by -C_i): contractions sharing
a factor occurrence never combine, which is what makes repeated application
of an L_i vanish on every element of the model space.  The sets are built
node by node: a node's first factor is either kept, with the sets inside a
kept integral's content, or contracted with exactly one later factor, and
the remaining factors recurse the same way, so each set comes out exactly
once.  An integral whose content contracts to a monomial is zero
(I(X^l) = 0, the unit included).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from openkpz.treealg.basis import IP_PSI2, IP_PSI_IP_PSI2, PSI
from openkpz.treealg.combination import SYMBOLS, Poly, TreeCombination
from openkpz.treealg.trees import Integ, Monomial, Product, Tree, prod


# A node is the list of factors of a (sub)product; an Integ factor carries an
# edge to the node made of its child's factors.
def _node_factors(tree: Tree) -> List[Tree]:
    if isinstance(tree, Product):
        return list(tree.factors)
    return [tree]


# The pair patterns (L1, L2, L3) as unordered factor pairs, with their weights.
_PAIR_RULES: Tuple[Tuple[Poly, Tree, Tree], ...] = (
    (SYMBOLS["C1"], PSI, PSI),
    (SYMBOLS["C2"], IP_PSI2, IP_PSI2),
    (SYMBOLS["C3"], PSI, IP_PSI_IP_PSI2),
)

Terms = Iterator[Tuple[List[Tree], Poly]]


def _node(factors: Sequence[Tree]) -> Terms:
    """(factors, weight) for every set of disjoint contractions at or below one node."""
    if not factors:
        yield [], Poly.const(1)
        return
    first, rest = factors[0], factors[1:]
    for kept, w in _kept(first):
        for out, v in _node(rest):
            yield [kept, *out], w * v
    for j, other in enumerate(rest):
        others = [*rest[:j], *rest[j + 1 :]]
        # L1-L3: both subtrees are dropped.
        for weight, pat1, pat2 in _PAIR_RULES:
            if (first, other) in ((pat1, pat2), (pat2, pat1)):
                for out, v in _node(others):
                    yield out, -weight * v
        # L0: the Psi is dropped and the primed integral's content, minus one
        # Psi at its root, is spliced into this node.
        for psi, integ in ((first, other), (other, first)):
            if psi != PSI or not (isinstance(integ, Integ) and integ.prime):
                continue
            inner = _node_factors(integ.child)
            for k in (k for k, g in enumerate(inner) if g == PSI):
                for spliced, u in _node(inner[:k] + inner[k + 1 :]):
                    for out, v in _node(others):
                        yield [*spliced, *out], -SYMBOLS["C0"] * u * v


def _kept(factor: Tree) -> Iterator[Tuple[Tree, Poly]]:
    """(factor, weight) for every set of disjoint contractions inside a kept factor."""
    if not isinstance(factor, Integ):
        yield factor, Poly.const(1)
        return
    for child, w in _node(_node_factors(factor.child)):
        content = prod(*child)
        if not isinstance(content, Monomial):  # I(X^l) = 0
            yield Integ(content, factor.prime), w


def renormalize(x: TreeCombination | Tree) -> TreeCombination:
    """M_g x, the sum over sets of pairwise-disjoint contractions, at the symbolic
    weights C0-C3; numeric weights are a substitution into the result."""
    if not isinstance(x, TreeCombination):
        x = TreeCombination.single(x)
    return TreeCombination(
        (prod(*factors), coeff * w)
        for tree, coeff in x.items()
        for factors, w in _node(_node_factors(tree))
    )
