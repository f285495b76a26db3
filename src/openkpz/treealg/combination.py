"""Exact linear combinations: of trees, of tensor elements, and of monomials.

One class, ``_Combination``, holds a dict from canonical keys to nonzero exact
coefficients, so structural equality of the dicts is exact equality of
combinations.  ``Poly``, the coefficient ring, is itself a combination: of
``PolyMonomial`` keys with ``Fraction`` coefficients, in named scalar
indeterminates.  Trees and tensor elements take ``Poly`` coefficients.
"""

from __future__ import annotations

import ast
import operator
import re
from fractions import Fraction
from itertools import chain
from keyword import iskeyword
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from openkpz.treealg.basis import _split_top, format_tree, parse_tree
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

# A monomial of a Poly: (symbol name, positive exponent) pairs sorted by name.
PolyMonomial = Tuple[Tuple[str, int], ...]

# The characters ``Poly.parse`` reads.  ``ast`` does not show brackets,
# comments or line continuations, so they are refused before it runs.
_ALPHABET = re.compile(r"[\w +\-*/]*", re.ASCII)
# The operators it reads besides ``name**k``, ``/ k`` and ``*``.
_UNARY = {ast.USub: operator.neg, ast.UAdd: lambda p: p}
_SIGNS = {ast.Add: 1, ast.Sub: -1}


def _monomial(factors) -> PolyMonomial:
    """(name, exponent) pairs in any order as a monomial: summed by name, zeros dropped."""
    exps: Dict[str, int] = {}
    for name, e in factors:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted((name, e) for name, e in exps.items() if e))


class _Combination:
    """Formal linear combination over canonical hashable keys with nonzero
    exact coefficients.

    Subclasses supply the key product ``_key_mul``; ``repr`` uses the sort key
    ``_key_sort`` and the key writer ``_key_repr``, and ``parse`` reads a key
    back with ``_key_parse``.  ``_coeff`` reads a coefficient (here: a
    ``Poly``, from a Poly, int or Fraction) and ``_lift`` reads the other
    operand of ``+``, ``-`` and ``mul`` (here: as it is).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Hashable, Poly] | Iterable[Tuple[Hashable, Poly]] = ()):
        """Build from a mapping or from (key, coeff) pairs; repeated keys add up."""
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        self.terms: Dict = self._of((key, self._coeff(coeff)) for key, coeff in pairs).terms

    @classmethod
    def _of(cls, pairs):
        """From (key, coeff) pairs already canonical and exact: summed, zeros
        dropped, and not validated again."""
        summed: Dict = {}
        for key, coeff in pairs:
            summed[key] = summed[key] + coeff if key in summed else coeff
        out = object.__new__(cls)
        out.terms = {key: coeff for key, coeff in summed.items() if coeff}
        return out

    @staticmethod
    def _coeff(value) -> Poly:
        return Poly._lift(value)

    @staticmethod
    def _lift(other):
        return other

    def items(self) -> Iterable[Tuple[Hashable, Poly]]:
        return self.terms.items()

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        return self._of(chain(self.items(), self._lift(other).items()))

    def __neg__(self):
        return self._of((k, -c) for k, c in self.items())

    def __sub__(self, other):
        return self + -self._lift(other)

    def scale(self, scalar):
        scalar = self._coeff(scalar)
        return self._of((k, scalar * c) for k, c in self.items())

    def mul(self, other):
        """Bilinear extension of the key product."""
        other = self._lift(other)
        return self._of((self._key_mul(k1, k2), c1 * c2)
                        for k1, c1 in self.items() for k2, c2 in other.items())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        """Terms ``(coeff) key``, or ``key`` for the coefficient 1, joined by ``+``."""
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=self._key_sort):
            coeff = self.terms[key]
            head = self._key_repr(key)
            parts.append(head if coeff == 1 else f"({coeff}) {head}")
        return " + ".join(parts)

    @classmethod
    def parse(cls, text: str):
        """Read a combination as ``repr`` writes it and the golden tables hold it."""
        pairs = []
        for term in [] if text.strip() == "0" else _split_top(text, "+"):
            coeff = Poly.const(1)
            if term.startswith("("):  # past it, the first ')' outside brackets closes it
                written, term = _split_top(term[1:], ")", 2)
                coeff = Poly.parse(written)
            pairs.append((cls._key_parse(term), coeff))
        return cls._of(pairs)


class Poly(_Combination):
    """Immutable, hashable polynomial over Q: a combination of ``PolyMonomial``
    keys with nonzero ``Fraction`` coefficients.

    It adds, subtracts and multiplies with other polys, ints and Fractions,
    divides only by a nonzero constant, compares equal to an int or Fraction
    when it is that constant, and prints as sympy prints the same polynomial.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[PolyMonomial, int | Fraction] = ()):
        """From monomial -> coefficient; a monomial's pairs may come in any order,
        and its names must be ones ``parse`` reads back: ASCII identifiers, no keyword."""
        terms = dict(terms)
        for mono in terms:
            for name, e in mono:
                readable = isinstance(name, str) and name.isascii() and name.isidentifier()
                if not readable or iskeyword(name) or not isinstance(e, int) or e < 0:
                    raise ValueError(f"bad factor {name!r}**{e!r} in monomial {mono!r}")
        super().__init__((_monomial(mono), coeff) for mono, coeff in terms.items())

    @staticmethod
    def _key_mul(m1: PolyMonomial, m2: PolyMonomial) -> PolyMonomial:
        return _monomial(m1 + m2) if m1 and m2 else m1 or m2

    @staticmethod
    def _coeff(value) -> Fraction:
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"{value!r} is not an exact coefficient (int or Fraction)")
        return Fraction(value)

    @classmethod
    def _lift(cls, value) -> "Poly":
        return value if isinstance(value, Poly) else cls.const(value)

    @classmethod
    def const(cls, value: int | Fraction) -> "Poly":
        return cls._of([((), cls._coeff(value))])

    @classmethod
    def symbol(cls, name: str) -> "Poly":
        return cls({((name, 1),): 1})

    def _constant(self) -> Optional[Fraction]:
        """The value of a constant poly (0 included), else None."""
        if not self.terms.keys() - {()}:
            return self.terms.get((), Fraction(0))
        return None

    __radd__ = _Combination.__add__
    __mul__ = __rmul__ = _Combination.mul

    def __rsub__(self, other) -> "Poly":
        return -self + other

    def __truediv__(self, other) -> "Poly":
        divisor = self._lift(other)._constant()
        if divisor is None:
            raise ValueError(f"cannot divide {self} by {other}: not a constant")
        if not divisor:
            raise ZeroDivisionError(f"cannot divide {self} by {other}")
        return self._of((mono, coeff / divisor) for mono, coeff in self.items())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self._constant() == other
        return super().__eq__(other)

    def __hash__(self) -> int:
        constant = self._constant()  # equal to an int or Fraction: hash as one
        return hash(frozenset(self.items()) if constant is None else constant)

    def subs(self, mapping: Mapping[str, int | Fraction | "Poly"]) -> "Poly":
        """Substitute values for symbols, given by name, all at once."""
        if bad := [name for name in mapping if not isinstance(name, str)]:
            raise TypeError(f"substitute for symbol names, not {bad[0]!r}")
        values = {name: self._lift(value) for name, value in mapping.items()}
        out = Poly()
        for mono, coeff in self.items():
            term = Poly._of([(tuple(f for f in mono if f[0] not in values), coeff)])
            for name, e in mono:
                for _ in range(e if name in values else 0):
                    term = term * values[name]
            out = out + term
        return out

    @classmethod
    def parse(cls, text: str) -> "Poly":
        """Read a poly written as ``str`` writes one or as the golden tables do
        (``d+a*g``, ``-2*C0``, ``C2/4``), in Python's syntax: decimal integers,
        names, ``name**k``, unary ``-`` and ``+``, ``+ - *``, and ``/`` by a
        nonzero integer.  Any other text is a ValueError naming it."""
        source = text.strip()

        def integer(node) -> Optional[int]:
            """The value of a decimal integer literal, else None."""
            if isinstance(node, ast.Constant) and type(node.value) is int:
                if ast.get_source_segment(source, node).isdigit():
                    return node.value
            return None

        def read(node) -> Poly:
            terms = []  # a sum is a left-nested chain of + and -: read it in a loop
            while isinstance(node, ast.BinOp) and type(node.op) in _SIGNS:
                terms.append(read(node.right).scale(_SIGNS[type(node.op)]))
                node = node.left
            if terms:  # and add its terms up at once
                return cls._of(chain(read(node).items(), *(term.items() for term in terms)))
            if (value := integer(node)) is not None:
                return cls.const(value)
            if isinstance(node, ast.Name):  # the alphabet leaves only readable names
                return cls.symbol(node.id)
            if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
                return _UNARY[type(node.op)](read(node.operand))
            if isinstance(node, ast.BinOp):
                op, k = type(node.op), integer(node.right)
                if op is ast.Pow and isinstance(node.left, ast.Name) and k is not None:
                    return cls({((node.left.id, k),): 1})
                if op is ast.Div and k:
                    return read(node.left) / k
                if op is ast.Mult:
                    return read(node.left) * read(node.right)
            raise ValueError(f"malformed coefficient {text!r}")

        try:  # text nested too deep for ast or for read is malformed too
            body = ast.parse(source, mode="eval").body if _ALPHABET.fullmatch(source) else None
            return read(body)
        except (SyntaxError, RecursionError):
            raise ValueError(f"malformed coefficient {text!r}") from None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # sympy's order: lex-descending exponents over the names in ASCII order
        names = sorted({name for mono in self.terms for name, _ in mono})

        def exponents(mono: PolyMonomial):
            exps = dict(mono)
            return tuple(exps.get(name, 0) for name in names)

        parts: List[str] = []
        for mono in sorted(self.terms, key=exponents, reverse=True):
            coeff = self.terms[mono]
            factors = [name if e == 1 else f"{name}**{e}" for name, e in mono]
            if abs(coeff.numerator) != 1 or not factors:
                factors.insert(0, str(abs(coeff.numerator)))
            text = "*".join(factors)
            if coeff.denominator != 1:
                text += f"/{coeff.denominator}"
            parts += ["-" if coeff < 0 else "+", text]
        head = "-" if parts[0] == "-" else ""
        return head + " ".join(parts[1:])

    __repr__ = __str__


# The fixed indeterminates used across the package.
SYMBOLS: Dict[str, Poly] = {
    name: Poly.symbol(name)
    for name in (
        "a", "b", "c", "d", "g", "h", "w",
        "C0", "C1", "C2", "C3",
        "wtilde", "a10", "a11",
    )
}


class TreeCombination(_Combination):
    """Formal linear combination of canonical trees with exact coefficients."""

    __slots__ = ()
    _key_sort = staticmethod(_sort_key)
    _key_repr = staticmethod(format_tree)
    _key_parse = staticmethod(parse_tree)

    @staticmethod
    def _key_mul(t1, t2):
        return prod(t1, t2)

    @classmethod
    def single(cls, tree: Tree) -> "TreeCombination":
        return cls({tree: 1})

    def coeff(self, tree: Tree) -> Poly:
        return self.terms.get(tree, Poly())

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
        return f"{format_tree(left)} @ {'*'.join(map(format_tree, right)) or '1'}"

    @staticmethod
    def _key_parse(text: str):
        left, right = _split_top(text, "@", 2)
        factors = () if right == "1" else map(parse_tree, _split_top(right, "*"))
        return parse_tree(left), right_mono(factors)

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
