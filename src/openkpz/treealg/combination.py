"""Exact linear combinations of trees and tensor elements.

Coefficients are ``Poly`` values: polynomials over Q, with ``Fraction``
coefficients, in named scalar indeterminates.  A ``Poly`` is always in
canonical form, and zero coefficients are pruned eagerly, so structural
equality of the underlying dicts is exact equality of combinations.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

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

_NAME = re.compile(r"[A-Za-z_]\w*")
# What ``Poly.parse`` reads: integers, names and the operators ** + - * /.
_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_]\w*|\*\*|[-+*/])")


def _mono_mul(m1: PolyMonomial, m2: PolyMonomial) -> PolyMonomial:
    if not m1 or not m2:
        return m1 or m2
    exps = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


class Poly:
    """Immutable, hashable polynomial over Q: a dict from ``PolyMonomial`` to a
    nonzero ``Fraction``.

    It adds, subtracts and multiplies with other polys, ints and Fractions,
    divides only by a nonzero constant, compares equal to an int or Fraction
    when it is that constant, and prints as sympy prints the same polynomial.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[PolyMonomial, int | Fraction] = ()):
        """From monomial -> coefficient; a monomial's pairs may come in any order."""
        summed: Dict[PolyMonomial, Fraction] = {}
        for mono, coeff in dict(terms).items():
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError(f"{coeff!r} is not an exact coefficient (int or Fraction)")
            exps: Dict[str, int] = {}
            for name, e in mono:
                if not _NAME.fullmatch(name) or not isinstance(e, int) or e < 0:
                    raise ValueError(f"bad factor {name!r}**{e!r} in monomial {mono!r}")
                exps[name] = exps.get(name, 0) + e
            key = tuple(sorted((name, e) for name, e in exps.items() if e))
            summed[key] = summed.get(key, 0) + Fraction(coeff)
        self._terms = {mono: coeff for mono, coeff in summed.items() if coeff}

    @classmethod
    def _canonical(cls, terms: Dict[PolyMonomial, Fraction]) -> "Poly":
        """A poly on ``terms``, whose monomials are canonical; zeros are dropped."""
        out = object.__new__(cls)
        out._terms = {mono: coeff for mono, coeff in terms.items() if coeff}
        return out

    @classmethod
    def const(cls, value: int | Fraction) -> "Poly":
        return cls._canonical({(): Fraction(value)})

    @classmethod
    def symbol(cls, name: str) -> "Poly":
        return cls({((name, 1),): 1})

    def items(self) -> Iterable[Tuple[PolyMonomial, Fraction]]:
        return self._terms.items()

    def _constant(self) -> Optional[Fraction]:
        """The value of a constant poly (0 included), else None."""
        if not self._terms.keys() - {()}:
            return self._terms.get((), Fraction(0))
        return None

    def __add__(self, other) -> "Poly":
        terms = dict(self._terms)
        for mono, coeff in _as_coeff(other).items():
            terms[mono] = terms.get(mono, 0) + coeff
        return Poly._canonical(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._canonical({mono: -coeff for mono, coeff in self.items()})

    def __sub__(self, other) -> "Poly":
        return self + -_as_coeff(other)

    def __rsub__(self, other) -> "Poly":
        return _as_coeff(other) + -self

    def __mul__(self, other) -> "Poly":
        terms: Dict[PolyMonomial, Fraction] = {}
        for m2, c2 in _as_coeff(other).items():
            for m1, c1 in self.items():
                mono = _mono_mul(m1, m2)
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return Poly._canonical(terms)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        divisor = _as_coeff(other)._constant()
        if divisor is None:
            raise ValueError(f"cannot divide {self} by {other}: not a constant")
        if not divisor:
            raise ZeroDivisionError(f"cannot divide {self} by {other}")
        return Poly._canonical({mono: coeff / divisor for mono, coeff in self.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self._constant() == other
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        constant = self._constant()  # equal to an int or Fraction: hash as one
        return hash(frozenset(self.items()) if constant is None else constant)

    def subs(self, mapping: Mapping[str, int | Fraction | "Poly"]) -> "Poly":
        """Substitute values for symbols, given by name, all at once."""
        if bad := [name for name in mapping if not isinstance(name, str)]:
            raise TypeError(f"substitute for symbol names, not {bad[0]!r}")
        values = {name: _as_coeff(value) for name, value in mapping.items()}
        out = Poly()
        for mono, coeff in self.items():
            term = Poly._canonical({tuple(f for f in mono if f[0] not in values): coeff})
            for name, e in mono:
                for _ in range(e if name in values else 0):
                    term = term * values[name]
            out = out + term
        return out

    @classmethod
    def parse(cls, text: str) -> "Poly":
        """Read a poly written as ``str`` writes one or as the golden tables do
        (``d+a*g``, ``-2*C0``, ``C2/4``): signed terms, each a product of
        integers and ``name`` or ``name**k`` factors, divided by integers.
        Any other text is a ValueError naming it."""
        tokens = _TOKEN.findall(text)[::-1]  # read by popping from the end
        if "".join(reversed(tokens)) != "".join(text.split()):
            raise ValueError(f"malformed coefficient {text!r}: unknown character")

        def peek() -> str:
            return tokens[-1] if tokens else ""

        def take(*allowed: str) -> str:
            """The next token, one of ``allowed`` ("int" or "name" for any such)."""
            token = tokens.pop() if tokens else ""
            kind = "int" if token.isdigit() else "name" if _NAME.fullmatch(token) else token
            if kind not in allowed:
                raise ValueError(
                    f"malformed coefficient {text!r}: unexpected {token or 'end of text'!r}")
            return token

        total = cls()
        sign = take("+", "-") if peek() in ("+", "-") else "+"
        while True:
            term, op = cls.const(1), "*"
            while op:
                token = take("int", "name") if op == "*" else take("int")
                if op == "/":
                    if not int(token):
                        raise ValueError(f"malformed coefficient {text!r}: division by zero")
                    term = term / int(token)
                elif token.isdigit():
                    term = term * int(token)
                elif peek() == "**":
                    take("**")
                    term = term * cls({((token, int(take("int"))),): 1})
                else:
                    term = term * cls.symbol(token)
                op = take("*", "/") if peek() in ("*", "/") else ""
            total = total + term if sign == "+" else total - term
            if not tokens:
                return total
            sign = take("+", "-")

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        # sympy's order: lex-descending exponents over the names in ASCII order
        names = sorted({name for mono in self._terms for name, _ in mono})

        def exponents(mono: PolyMonomial):
            exps = dict(mono)
            return tuple(exps.get(name, 0) for name in names)

        parts: List[str] = []
        for mono in sorted(self._terms, key=exponents, reverse=True):
            coeff = self._terms[mono]
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


def _as_coeff(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"{value!r} is not an exact coefficient (Poly, int or Fraction)")


# The fixed indeterminates used across the package.
SYMBOLS: Dict[str, Poly] = {
    name: Poly.symbol(name)
    for name in (
        "a", "b", "c", "d", "g", "h", "w",
        "C0", "C1", "C2", "C3",
        "wtilde", "a10", "a11",
    )
}


class _Combination:
    """Formal linear combination over hashable keys with exact coefficients.

    Subclasses supply the key product ``_key_mul``, the sort key ``_key_sort``
    and the key repr ``_key_repr``.
    """

    __slots__ = ("terms",)

    def __init__(
        self,
        terms: Mapping[Hashable, Poly] | Iterable[Tuple[Hashable, Poly]] = (),
    ):
        """Build from a mapping or from (key, coeff) pairs; repeated keys add up."""
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        summed: Dict[Hashable, Poly] = {}
        for key, coeff in pairs:
            coeff = _as_coeff(coeff)
            summed[key] = summed[key] + coeff if key in summed else coeff
        self.terms: Dict[Hashable, Poly] = {k: c for k, c in summed.items() if c != 0}

    def items(self) -> Iterable[Tuple[Hashable, Poly]]:
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
