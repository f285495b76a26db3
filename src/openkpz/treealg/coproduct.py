"""Coproduct, structure-group maps Gamma_f, and group-closure checks.

The coproduct sends the model space into (model space) tensor (free
commutative algebra on seven generators).  Integration obeys two rules: a
plain rule, and an extended rule producing X1 corrections for the two
children whose plain integral has degree above 1.  Primed integration is
always primitive on the left, ``Delta I'(t) = (I' x id) Delta t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Tuple

from openkpz.treealg.basis import (
    IP_PSI,
    IP_PSI_IP_PSI2,
    PSI,
    PSI_IP_PSI2,
    basis_tree,
    basis_W,
    format_tree,
)
from openkpz.treealg.combination import (
    SYMBOLS,
    Poly,
    RightMono,
    TensorElement,
    TreeCombination,
)
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

# Children triggering the extended integration rule (their plain integral
# has degree above 1, so first-order recentering terms appear).
_EXTENDED_RULE_CHILDREN = (PSI, PSI_IP_PSI2)

# Generators of the plus algebra, paired with their conventional symbol names.
PLUS_GENERATORS: Tuple[Tuple[Tree, str], ...] = (
    (X1, "a"),
    (basis_tree("<1>"), "b"),
    (basis_tree("<2d1>"), "c"),
    (basis_tree("<1d1>"), "d"),
    (IP_PSI, "g"),
    (basis_tree("<2d2d1>"), "h"),
    (IP_PSI_IP_PSI2, "w"),
)


class CoproductDomainError(ValueError):
    """The tree is outside the domain of the coproduct recursion."""


def coproduct(tree: Tree) -> TensorElement:
    if isinstance(tree, Xi):
        return TensorElement.single(XI)
    if isinstance(tree, Monomial):
        if tree.l0 != 0:
            raise CoproductDomainError(f"{tree!r} does not occur in the recursion")
        return TensorElement(
            ((Monomial(0, k), (X1,) * (tree.l1 - k)), comb(tree.l1, k))
            for k in range(tree.l1 + 1)
        )
    if isinstance(tree, Product):
        out = TensorElement.single(ONE)
        for f in tree.factors:
            out = out.mul(coproduct(f))
        return out
    if isinstance(tree, Integ):
        inner = coproduct(tree.child).apply_left(
            lambda t: TreeCombination.single(t).integrate(tree.prime)
        )
        if tree.prime:
            return inner
        terms = [*inner.items(), ((ONE, (tree,)), 1)]
        if tree.child in _EXTENDED_RULE_CHILDREN:
            primed = Integ(tree.child, prime=True)
            # (X1, primed) is already sorted: monomials sort before integrals.
            terms += [((ONE, (X1, primed)), 1), ((X1, (primed,)), 1)]
        return TensorElement(terms)
    raise CoproductDomainError(f"cannot form the coproduct of {tree!r}")


@dataclass(frozen=True)
class CharacterF:
    """Multiplicative functional on the plus algebra, given on generators."""

    values: Tuple[Poly, ...]  # aligned with PLUS_GENERATORS

    def __post_init__(self) -> None:
        if len(self.values) != len(PLUS_GENERATORS):
            raise ValueError("a character needs one value per generator")
        object.__setattr__(self, "values", tuple(map(Poly._lift, self.values)))

    def value(self, generator: Tree) -> Poly:
        for (gen, _), val in zip(PLUS_GENERATORS, self.values):
            if gen == generator:
                return val
        raise KeyError(f"{generator!r} is not a plus-algebra generator")

    def of_monomial(self, right: RightMono) -> Poly:
        out = Poly.const(1)
        for gen in right:
            out = out * self.value(gen)
        return out


def generic_character() -> CharacterF:
    """Character whose generator values are the named symbols of ``SYMBOLS``."""
    return CharacterF(tuple(SYMBOLS[name] for _, name in PLUS_GENERATORS))


def gamma_f(f: CharacterF, x: TreeCombination | Tree) -> TreeCombination:
    """Gamma_f = (id x f) Delta, extended linearly."""
    if not isinstance(x, TreeCombination):
        x = TreeCombination.single(x)
    return TreeCombination(
        (left, coeff * c * f.of_monomial(right))
        for tree, coeff in x.items()
        for (left, right), c in coproduct(tree).items()
    )


def check_structure_group(f: CharacterF) -> List[Tuple[str, bool, str]]:
    """The four defining properties of the structure group on the basis, as
    (property, holds, witness) with a witness of each failure."""
    laws = []
    basis = basis_W()

    # (i) action on Xi, the unit, and X1.
    moved = [format_tree(t) for t in (XI, ONE) if gamma_f(f, t) != TreeCombination.single(t)]
    gx1 = gamma_f(f, X1)
    ok = not moved and set(gx1.terms) <= {X1, ONE} and gx1.coeff(X1) == 1
    laws.append(("fixes Xi and 1; shifts X1 by a multiple of 1", ok,
                 "" if ok else f"moves {moved}; X1 -> {gx1!r}"))

    # (ii) triangularity: Gamma_f(t) - t lives strictly below deg t.
    for name, tree, deg in basis:
        delta = gamma_f(f, tree) - TreeCombination.single(tree)
        bad = [t for t in delta.terms if not tree_degree(t) < deg]
        laws.append((f"triangular on {name}", not bad,
                     "" if not bad else f"term {format_tree(bad[0])} not below {deg}"))

    # (iii) multiplicativity on products staying inside the basis.
    trees_in_basis = {tree for _, tree, _ in basis}
    for n1, t1, _ in basis:
        for n2, t2, _ in basis:
            product = prod(t1, t2)
            if product not in trees_in_basis:
                continue
            lhs = gamma_f(f, product)
            rhs = gamma_f(f, t1).mul(gamma_f(f, t2))
            laws.append((f"multiplicative on {n1}*{n2}", lhs == rhs,
                         "" if lhs == rhs else f"{lhs!r} != {rhs!r}"))

    # (iv) commutation with integration up to polynomials.
    for name, tree, _ in basis:
        if isinstance(tree, Monomial):
            continue  # I(X^l) = I'(X^l) = 0
        for prime in (False, True):
            image = Integ(tree, prime)
            if image not in trees_in_basis:
                continue
            diff = gamma_f(f, image) - gamma_f(f, tree).integrate(prime)
            ok = all(isinstance(t, Monomial) for t in diff.terms)
            integral = "I'" if prime else "I"
            law = f"Gamma commutes with {integral} on {name} up to polynomials"
            laws.append((law, ok, "" if ok else f"non-polynomial remainder {diff!r}"))
    return laws


class GroupClosureError(RuntimeError):
    pass


def compose_gamma(f: CharacterF, g: CharacterF) -> CharacterF:
    """Character h with Gamma_f o Gamma_g = Gamma_h on the whole basis.

    The generator values of h are read off the composed action by matching
    coefficients, one rule for every generator; the resulting map is then
    verified on all basis elements.
    """

    def composed(tree: Tree) -> TreeCombination:
        return gamma_f(f, gamma_f(g, tree))

    a = composed(X1).coeff(ONE)  # Gamma(X1) = X1 + a 1

    def value(gen: Tree) -> Poly:
        if gen == X1:
            return a
        if isinstance(gen, Integ) and gen.prime:  # the X1 coefficient of Gamma(I(tau))
            return composed(Integ(gen.child)).coeff(X1)
        image = composed(gen)
        return image.coeff(ONE) - a * image.coeff(X1)

    h = CharacterF(tuple(value(gen) for gen, _ in PLUS_GENERATORS))
    for name, tree, _ in basis_W():
        if not gamma_f(h, tree) == composed(tree):
            raise GroupClosureError(
                f"no character reproduces the composition on {name}"
            )
    return h
