"""The 14 basis trees, their diagram names, and a text syntax for trees.

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
    Xi,
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

_NAMED: Dict[str, Tree] = {
    **_BASIS,
    "<1d1d>": IP_PSI,
    "<2d2d1d>": IP_PSI_IP_PSI2,
}

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


# --- plain-text tree syntax: Xi | 1 | X1 | X^(l0,l1) | I(t) | I'(t) | t*t ---

_TOKEN = re.compile(r"<[^>]+>|I'|I|Xi|X1|X\^\(\d+,\d+\)|1|\(|\)|\*")


def parse_tree(text: str) -> Tree:
    tokens = _TOKEN.findall(text.replace(" ", ""))
    if "".join(tokens) != text.replace(" ", ""):
        raise ValueError(f"cannot tokenize tree {text!r}")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def parse_product() -> Tree:
        nonlocal pos
        factors = [parse_atom()]
        while peek() == "*":
            pos += 1
            factors.append(parse_atom())
        return prod(*factors)

    def parse_atom() -> Tree:
        nonlocal pos
        tok = peek()
        if tok is None:
            raise ValueError(f"unexpected end of tree {text!r}")
        pos += 1
        if tok == "Xi":
            return XI
        if tok == "1":
            return ONE
        if tok == "X1":
            return X1
        if tok.startswith("X^"):
            l0, l1 = map(int, tok[3:-1].split(","))
            return Monomial(l0, l1)
        if tok.startswith("<"):
            return basis_tree(tok)
        if tok in ("I", "I'"):
            if peek() != "(":
                raise ValueError(f"expected '(' after {tok} in {text!r}")
            pos += 1
            child = parse_product()
            if peek() != ")":
                raise ValueError(f"expected ')' in {text!r}")
            pos += 1
            return Integ(child, prime=(tok == "I'"))
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    out = parse_product()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return out


def format_tree(tree: Tree, use_names: bool = True) -> str:
    if use_names:
        name = tree_name(tree)
        if name is not None:
            return name
    if isinstance(tree, (Xi, Monomial)):
        return repr(tree)
    if isinstance(tree, Integ):
        head = "I'" if tree.prime else "I"
        return f"{head}({format_tree(tree.child, use_names)})"
    if isinstance(tree, Product):
        return "*".join(format_tree(f, use_names) for f in tree.factors)
    raise TypeError(f"not a tree: {tree!r}")
