"""The 14 basis trees, their diagram names, and all tree text: one reader,
``parse_tree``, and one writer, ``format_tree``, which every tree's ``repr`` calls.

Diagram names follow the pictures: ``<1d>`` is the primed integral of the
noise (written Psi below), ``<2d>`` is Psi^2, a trailing ``1``/``1d`` is a
plain/primed integration of the preceding diagram, and side-by-side diagrams
multiply.  Two extra trees (``<1d1d>`` and ``<2d2d1d>``) sit outside the
model space but inside the grammar; they are needed by the renormalized
nonlinearity expansion.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from openkpz.treealg.degree import ExactDegree
from openkpz.treealg.trees import (
    ONE,
    X1,
    XI,
    Integ,
    Monomial,
    Product,
    Tree,
    prod,
    tree_degree,
)

PSI = Integ(XI, prime=True)                    # <1d>
PSI2 = prod(PSI, PSI)                          # <2d>
IP_PSI = Integ(PSI, prime=True)                # <1d1d>
IP_PSI2 = Integ(PSI2, prime=True)              # <2d1d>
PSI_IP_PSI2 = prod(PSI, IP_PSI2)               # <2d2d>
IP_PSI_IP_PSI2 = Integ(PSI_IP_PSI2, prime=True)  # <2d2d1d>

_BASIS: Dict[str, Tree] = {
    "Xi": XI,
    "1": ONE,
    "X1": X1,
    "<1>": Integ(XI),
    "<1d>": PSI,
    "<1d1>": Integ(PSI),
    "<1d2d>": prod(PSI, IP_PSI),
    "<2d>": PSI2,
    "<2d1>": Integ(PSI2),
    "<2d1d>": IP_PSI2,
    "<2d2d>": PSI_IP_PSI2,
    "<2d2d1>": Integ(PSI_IP_PSI2),
    "<tree1>": prod(PSI, IP_PSI_IP_PSI2),
    "<tree2>": prod(IP_PSI2, IP_PSI2),
}

_NAMED: Dict[str, Tree] = {**_BASIS, "<1d1d>": IP_PSI, "<2d2d1d>": IP_PSI_IP_PSI2}

BASIS_NAMES: List[str] = list(_BASIS)

_NAME_BY_TREE: Dict[Tree, str] = {t: n for n, t in _NAMED.items()}


def basis_tree(name: str) -> Tree:
    """Canonical tree for a diagram name (basis or extended)."""
    if name not in _NAMED:
        raise KeyError(f"unknown diagram name {name!r}")
    return _NAMED[name]


def basis_W() -> List[Tuple[str, Tree, ExactDegree]]:
    """The 14 basis elements with their computed degrees, in table order."""
    return [(name, tree, tree_degree(tree)) for name, tree in _BASIS.items()]


def tree_name(tree: Tree) -> str | None:
    return _NAME_BY_TREE.get(tree)


# --- plain-text tree syntax: Xi | 1 | X1 | X^(l0,l1) | <name> | I(t) | I'(t) | t*t ---

_MONOMIAL = re.compile(r"X\^\((\d+),(\d+)\)")
_INTEG = re.compile(r"(I'?)\((.*)\)")


def _split_top(text: str, sep: str, count: int | None = None) -> List[str]:
    """Split on the character ``sep`` outside parentheses and angle brackets,
    into ``count`` parts if given; a ValueError names ``text`` when its
    brackets do not close or it splits into another number of parts."""
    parts: List[str] = []
    depth = start = 0
    for i, ch in enumerate(text):
        if ch == sep and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
        elif ch in "(<":
            depth += 1
        elif ch in ")>":
            depth -= 1
            if depth < 0:  # it closes a bracket that never opened
                break
    parts.append(text[start:].strip())
    if depth:
        raise ValueError(f"brackets do not close in {text!r}")
    if count is not None and len(parts) != count:
        raise ValueError(f"{text!r} does not split at {sep!r} into {count} parts")
    return parts


def parse_tree(text: str) -> Tree:
    """Read a tree in the syntax that ``format_tree`` and ``repr`` write."""
    return _parse(text.replace(" ", ""))


def _parse(text: str) -> Tree:
    factors = _split_top(text, "*")
    if len(factors) > 1:
        return prod(*map(_parse, factors))
    if text in _NAMED:
        return _NAMED[text]
    if match := _MONOMIAL.fullmatch(text):
        return Monomial(int(match[1]), int(match[2]))
    if match := _INTEG.fullmatch(text):
        return Integ(_parse(match[2]), prime=match[1] == "I'")
    raise ValueError(f"cannot read {text!r} as a tree")


def format_tree(tree: Tree) -> str:
    """Write a tree, using diagram names where they apply."""
    name = tree_name(tree)
    if name is not None:
        return name
    if isinstance(tree, Monomial):
        return f"X^({tree.l0},{tree.l1})"
    if isinstance(tree, Integ):
        head = "I'" if tree.prime else "I"
        return f"{head}({format_tree(tree.child)})"
    if isinstance(tree, Product):
        return "*".join(format_tree(f) for f in tree.factors)
    raise TypeError(f"not a tree: {tree!r}")
