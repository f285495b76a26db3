"""Exact degrees of the form q + r*kappa with q, r rational.

kappa is the small regularity-loss parameter; it is constrained to the open
interval (0, 1/10).  Degrees are compared by substituting kappa at both ends
of a probe pair inside that interval; if the two substitutions disagree in
sign the comparison is ambiguous and an error is raised (this never happens
for the degrees generated by the basis trees).
"""

from __future__ import annotations

import re
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
        object.__setattr__(self, "rational", Fraction(self.rational))
        object.__setattr__(self, "kappa", Fraction(self.kappa))

    def __add__(self, other: "ExactDegree") -> "ExactDegree":
        return ExactDegree(self.rational + other.rational, self.kappa + other.kappa)

    def __sub__(self, other: "ExactDegree") -> "ExactDegree":
        return ExactDegree(self.rational - other.rational, self.kappa - other.kappa)

    def __mul__(self, scalar: RationalLike) -> "ExactDegree":
        scalar = Fraction(scalar)
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


# [q][±[r*]k]: a sign is required before the kappa term when q is present
_DEGREE = re.compile(r"(?P<q>[+-]?[\d/]+)?(?P<k>(?(q)[+-]|[+-]?)(?:[\d/]+\*)?k)?")


def degree_from_string(text: str) -> ExactDegree:
    """Parse strings like ``-3/2-k``, ``1``, ``-2*k``, ``3/2-3*k``."""
    match = _DEGREE.fullmatch(text.replace(" ", ""))
    if match is None or not text.strip():
        raise ValueError(f"cannot read {text!r} as a degree")
    r = (match["k"] or "0").rstrip("k*")
    if r in ("", "+", "-"):
        r += "1"
    return ExactDegree(Fraction(match["q"] or 0), Fraction(r))
