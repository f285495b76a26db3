"""Exact symbolic engine for the KPZ tree algebra.

Everything in this subpackage is exact: degrees live in Q + Q*kappa
(`ExactDegree`), coefficients are `Poly` values, polynomials with `Fraction`
coefficients in a fixed set of named scalar indeterminates, and numeric values
for those come from `Poly.subs`.  No floating point arithmetic is used
anywhere, and importing the engine loads no computer-algebra package.
"""

from openkpz.treealg.degree import ExactDegree, AmbiguousDegreeError
from openkpz.treealg.trees import (
    XI,
    ONE,
    X1,
    Integ,
    Monomial,
    Product,
    Tree,
    Xi,
    GrammarError,
    deriv_tree,
    prod,
    tree_degree,
)
from openkpz.treealg.combination import TreeCombination, TensorElement
from openkpz.treealg.basis import (
    BASIS_NAMES,
    basis_W,
    basis_tree,
    format_tree,
    parse_tree,
)
from openkpz.treealg.coproduct import (
    CharacterF,
    CoproductDomainError,
    check_structure_group,
    compose_gamma,
    coproduct,
    gamma_f,
    generic_character,
)
from openkpz.treealg.renorm import renormalize
from openkpz.treealg.expansion import (
    picard_W,
    picard_dW,
    q_leq0_nonlinearity,
    renorm_constants,
)
from openkpz.treealg.sector import sector_table
from openkpz.treealg.golden import verify_golden_tables

__all__ = [
    "ExactDegree",
    "AmbiguousDegreeError",
    "Tree",
    "Xi",
    "Monomial",
    "Integ",
    "Product",
    "XI",
    "ONE",
    "X1",
    "GrammarError",
    "prod",
    "deriv_tree",
    "tree_degree",
    "TreeCombination",
    "TensorElement",
    "BASIS_NAMES",
    "basis_W",
    "basis_tree",
    "parse_tree",
    "format_tree",
    "coproduct",
    "CoproductDomainError",
    "CharacterF",
    "generic_character",
    "gamma_f",
    "check_structure_group",
    "compose_gamma",
    "renormalize",
    "picard_W",
    "picard_dW",
    "q_leq0_nonlinearity",
    "renorm_constants",
    "sector_table",
    "verify_golden_tables",
]
