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
pairwise-disjoint contraction instances (each instance weighted by -C_i):
instances sharing any factor occurrence never combine, which is what makes
repeated application of an L_i vanish on every element of the model space.
An integral whose content contracts away entirely is zero (I(1) = 0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import sympy

from openkpz.treealg.basis import IP_PSI2, IP_PSI_IP_PSI2, PSI
from openkpz.treealg.combination import SYMBOLS, TreeCombination, _as_coeff
from openkpz.treealg.trees import Integ, Product, Tree, prod


@dataclass(frozen=True)
class RenormParams:
    """The four contraction weights; symbolic by default."""

    C0: sympy.Expr = SYMBOLS["C0"]
    C1: sympy.Expr = SYMBOLS["C1"]
    C2: sympy.Expr = SYMBOLS["C2"]
    C3: sympy.Expr = SYMBOLS["C3"]

    def __post_init__(self) -> None:
        for name in ("C0", "C1", "C2", "C3"):
            object.__setattr__(self, name, _as_coeff(getattr(self, name)))

    def weight(self, rule: int) -> sympy.Expr:
        return (self.C0, self.C1, self.C2, self.C3)[rule]

    @classmethod
    def zero(cls) -> "RenormParams":
        return cls(0, 0, 0, 0)


# A node is the list of factors of a (sub)product; an Integ factor carries an
# edge to the node made of its child's factors.  A slot addresses one factor
# occurrence: (path of factor indices descending through Integ factors, index).
Path = Tuple[int, ...]
Slot = Tuple[Path, int]


def _node_factors(tree: Tree) -> List[Tree]:
    if isinstance(tree, Product):
        return list(tree.factors)
    return [tree]


# The pair patterns (L1, L2, L3) as unordered factor pairs.
_PAIR_RULES: Tuple[Tuple[int, Tree, Tree], ...] = (
    (1, PSI, PSI),
    (2, IP_PSI2, IP_PSI2),
    (3, PSI, IP_PSI_IP_PSI2),
)


@dataclass(frozen=True)
class ContractionInstance:
    """One occurrence of a contraction pattern inside a tree.

    ``rule`` is the L-index.  ``removed`` are the slots that vanish; for L0
    the slot of the primed integral is additionally recorded in ``spliced``:
    the integral's remaining content is inlined into its host node.
    """

    rule: int
    removed: FrozenSet[Slot]
    spliced: Optional[Slot] = None

    @property
    def killed(self) -> FrozenSet[Slot]:
        """Slots whose whole subtree is destroyed (a spliced slot is not)."""
        if self.spliced is None:
            return self.removed
        return self.removed - {self.spliced}

    def disjoint(self, other: "ContractionInstance") -> bool:
        """No shared slot, and neither instance sits inside a destroyed subtree."""
        if self.removed & other.removed:
            return False

        def inside(slot: Slot, host: Slot) -> bool:
            path = host[0] + (host[1],)
            return slot[0][: len(path)] == path

        for a in self.killed:
            if any(inside(b, a) for b in other.removed):
                return False
        for b in other.killed:
            if any(inside(a, b) for a in self.removed):
                return False
        return True


def contraction_generator(tree: Tree) -> Iterator[ContractionInstance]:
    """Yield every single-contraction instance inside ``tree``."""

    def walk(factors: Sequence[Tree], path: Path) -> Iterator[ContractionInstance]:
        psi_idx = [i for i, f in enumerate(factors) if f == PSI]
        # L0: Psi here, primed integral here, Psi at the integral's root node.
        for j, f in enumerate(factors):
            if not (isinstance(f, Integ) and f.prime):
                continue
            inner = _node_factors(f.child)
            inner_psi = [k for k, g in enumerate(inner) if g == PSI]
            for i in psi_idx:
                if i == j:
                    continue
                for k in inner_psi:
                    yield ContractionInstance(
                        rule=0,
                        removed=frozenset(
                            {(path, i), (path, j), (path + (j,), k)}
                        ),
                        spliced=(path, j),
                    )
        # L1/L2/L3: unordered factor pairs at this node.
        for rule, pat1, pat2 in _PAIR_RULES:
            if pat1 == pat2:
                for i, j in itertools.combinations(
                    [i for i, f in enumerate(factors) if f == pat1], 2
                ):
                    yield ContractionInstance(rule, frozenset({(path, i), (path, j)}))
            else:
                for i, f1 in enumerate(factors):
                    if f1 != pat1:
                        continue
                    for j, f2 in enumerate(factors):
                        if f2 == pat2 and i != j:
                            yield ContractionInstance(
                                rule, frozenset({(path, i), (path, j)})
                            )
        # Recurse into integral children.
        for j, f in enumerate(factors):
            if isinstance(f, Integ):
                yield from walk(_node_factors(f.child), path + (j,))

    yield from walk(_node_factors(tree), ())


def _contract(tree: Tree, instances: Sequence[ContractionInstance]) -> Optional[Tree]:
    """Apply pairwise-disjoint instances simultaneously; None means zero."""
    removed: Dict[Path, set] = {}
    spliced: Dict[Path, set] = {}
    for inst in instances:
        for p, i in inst.removed:
            removed.setdefault(p, set()).add(i)
        if inst.spliced is not None:
            p, i = inst.spliced
            spliced.setdefault(p, set()).add(i)

    def rebuild(factors: Sequence[Tree], path: Path) -> Optional[List[Tree]]:
        out: List[Tree] = []
        gone = removed.get(path, set())
        inline = spliced.get(path, set())
        for idx, f in enumerate(factors):
            if isinstance(f, Integ):
                child = rebuild(_node_factors(f.child), path + (idx,))
                if idx in inline:
                    if child is None:
                        return None
                    out.extend(child)
                    continue
                if idx in gone:
                    continue
                if child is None or not child:
                    # the integral's content vanished: I(1) = 0
                    return None
                out.append(Integ(prod(*child), f.prime))
            else:
                if idx in gone:
                    continue
                out.append(f)
        return out

    top = rebuild(_node_factors(tree), ())
    if top is None:
        return None
    return prod(*top)


def _contracted_terms(tree: Tree, coeff: sympy.Expr, params: RenormParams):
    """(tree, weight) for every set of pairwise-disjoint contractions in ``tree``."""
    instances = list(contraction_generator(tree))
    for r in range(len(instances) + 1):
        for subset in itertools.combinations(instances, r):
            if any(not a.disjoint(b) for a, b in itertools.combinations(subset, 2)):
                continue
            contracted = _contract(tree, subset)
            if contracted is None:
                continue
            weight = coeff
            for inst in subset:
                weight = weight * (-params.weight(inst.rule))
            yield contracted, weight


def renormalize(params: RenormParams, x: TreeCombination | Tree) -> TreeCombination:
    """M_g x, the sum over sets of pairwise-disjoint contractions."""
    if not isinstance(x, TreeCombination):
        x = TreeCombination.single(x)
    return TreeCombination(
        term for tree, coeff in x.items() for term in _contracted_terms(tree, coeff, params)
    )
