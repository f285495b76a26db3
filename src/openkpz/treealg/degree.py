"""Exact degrees of the form q + r*kappa with q, r rational (int or Fraction).

kappa is the small regularity-loss parameter; it is constrained to the open
interval (0, 1/10).  Degrees are compared by substituting kappa at both ends
of a probe pair inside that interval; if the two substitutions disagree in
sign the comparison is ambiguous and an error is raised (this never happens
for the degrees generated by the basis trees).  A degree is written, and read
by ``degree_from_string``, as a polynomial in ``k`` of degree at most one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from fractions import Fraction
from typing import Union

_KAPPA_PROBES = (Fraction(1, 100), Fraction(9, 100))

RationalLike = Union[int, Fraction]


class AmbiguousDegreeError(ValueError):
    """Comparison depends on the choice of kappa in (0, 1/10)."""


@total_ordering
@dataclass(frozen=True)
class ExactDegree:
    rational: Fraction
    kappa: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for part in ("rational", "kappa"):  # a float is not the decimal it was written as
            value = getattr(self, part)
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"{value!r} is not an exact degree part (int or Fraction)")
            object.__setattr__(self, part, Fraction(value))

    def __add__(self, other: "ExactDegree") -> "ExactDegree":
        return ExactDegree(self.rational + other.rational, self.kappa + other.kappa)

    def __sub__(self, other: "ExactDegree") -> "ExactDegree":
        return ExactDegree(self.rational - other.rational, self.kappa - other.kappa)

    def __mul__(self, scalar: RationalLike) -> "ExactDegree":
        return ExactDegree(self.rational * scalar, self.kappa * scalar)

    def at(self, kappa_value: Fraction) -> Fraction:
        return self.rational + self.kappa * kappa_value

    def _sign(self) -> int:
        """Sign of this degree, constant over kappa in (0, 1/10)."""
        signs = set()
        for probe in _KAPPA_PROBES:
            value = self.at(probe)
            signs.add(0 if value == 0 else (1 if value > 0 else -1))
        if len(signs) != 1:
            raise AmbiguousDegreeError(
                f"sign of {self} changes over kappa in (0, 1/10)"
            )
        return signs.pop()

    def __lt__(self, other: "ExactDegree") -> bool:
        return (self - other)._sign() < 0

    def __str__(self) -> str:
        if self.kappa == 0:
            return str(self.rational)
        k = {1: "k", -1: "-k"}.get(self.kappa, f"{self.kappa}*k")
        if self.rational == 0:
            return k
        return f"{self.rational}{'' if k[0] == '-' else '+'}{k}"


def degree_from_string(text: str) -> ExactDegree:
    """Read ``-3/2-k``, ``1``, ``-2*k``, ``3/2-3*k``: ``Poly.parse``'s language,
    with no monomial but ``1`` and ``k``."""
    from openkpz.treealg.combination import Poly  # which imports this module

    try:
        terms = Poly.parse(text).terms
        if terms.keys() <= {(), (("k", 1),)}:
            return ExactDegree(terms.get((), 0), terms.get((("k", 1),), 0))
    except ValueError:
        pass
    raise ValueError(f"cannot read {text!r} as a degree")
