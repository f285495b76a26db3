"""Property tests for the tree algebra: combination laws, degrees and the text syntax."""

import re
from fractions import Fraction
from functools import reduce
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openkpz.treealg import (
    BASIS_NAMES,
    X1,
    XI,
    CharacterF,
    ExactDegree,
    Integ,
    Monomial,
    Product,
    Xi,
    basis_tree,
    compose_gamma,
    coproduct,
    format_tree,
    gamma_f,
    parse_tree,
    prod,
    renormalize,
    tree_degree,
)
from openkpz.treealg.basis import PSI, tree_name
from openkpz.treealg.combination import SYMBOLS, Poly, TensorElement, TreeCombination, right_mono
from openkpz.treealg.coproduct import PLUS_GENERATORS, generic_character
from openkpz.treealg.degree import degree_from_string

NAMED_TREES = [basis_tree(name) for name in BASIS_NAMES + ["<1d1d>", "<2d2d1d>"]]

# Fixed examples per test keep tier-1 deterministic and its cost bounded.
LAWS = settings(max_examples=50, deadline=None, derandomize=True)
SYNTAX = settings(max_examples=300, deadline=None, derandomize=True)
ALGEBRA = settings(max_examples=25, deadline=None, derandomize=True)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
symbolic = st.tuples(
    st.integers(-2, 2), st.sampled_from([SYMBOLS["a"], SYMBOLS["C0"], SYMBOLS["w"]])
).map(lambda pair: pair[0] * pair[1])
pairs = st.lists(
    st.tuples(st.sampled_from(NAMED_TREES), st.one_of(rationals, symbolic)), max_size=4
)
combinations = pairs.map(TreeCombination)


@LAWS
@given(combinations, combinations)
def test_addition_commutes_and_subtraction_inverts(a, b):
    assert a + b == b + a
    assert (a + b) - b == a


@LAWS
@given(combinations, combinations, combinations)
def test_product_is_commutative_associative_and_distributive(a, b, c):
    assert a.mul(b) == b.mul(a)
    assert a.mul(b).mul(c) == a.mul(b.mul(c))
    assert a.mul(b + c) == a.mul(b) + a.mul(c)


@LAWS
@given(pairs)
def test_repeated_keys_add_up(terms):
    doubled = TreeCombination(terms + terms)
    singles = [TreeCombination({tree: coeff}) for tree, coeff in terms + terms]
    assert doubled == reduce(add, singles, TreeCombination())
    assert doubled == TreeCombination(terms).scale(2)
    assert all(coeff != 0 for _, coeff in doubled.items())
    assert not TreeCombination(terms + [(t, -c) for t, c in terms]).terms


@LAWS
@given(st.sampled_from(NAMED_TREES), st.sampled_from(NAMED_TREES))
def test_coproduct_is_multiplicative(s, t):
    assert coproduct(prod(s, t)) == coproduct(s).mul(coproduct(t))


characters = st.tuples(*[rationals] * len(PLUS_GENERATORS)).map(CharacterF)
# the composed character of two symbolic ones, to substitute rational values into
F, G = (CharacterF(tuple(Poly.symbol(prefix + name) for _, name in PLUS_GENERATORS))
        for prefix in "fg")
COMPOSED = compose_gamma(F, G)


@ALGEBRA
@given(characters, characters)
def test_gamma_composition_with_rational_characters(f, g):
    h = compose_gamma(f, g)
    for name in BASIS_NAMES:
        tree = basis_tree(name)
        assert gamma_f(f, gamma_f(g, tree)) == gamma_f(h, tree), name
    values = dict(zip(map(str, F.values + G.values), f.values + g.values))  # by name
    assert h.values == tuple(v.subs(values) for v in COMPOSED.values)


ZERO_WEIGHTS = {f"C{i}": 0 for i in range(4)}


def renormalize_at_zero_weights(x):
    """M_g x with every contraction weight set to 0.  The weights are substituted
    into each tree's M_g, so a coefficient of x that holds a C_i keeps it."""
    if not isinstance(x, TreeCombination):
        x = TreeCombination.single(x)
    return TreeCombination((t, coeff * c.subs(ZERO_WEIGHTS))
                           for tree, coeff in x.items() for t, c in renormalize(tree).items())


@LAWS
@given(combinations)
def test_renormalize_with_zero_weights_is_the_identity(x):
    assert renormalize_at_zero_weights(x) == x


# Grammar trees: Xi and monomials, I/I' of a non-monomial, and products.
grammar_trees = st.recursive(
    st.just(XI) | st.builds(Monomial, st.integers(0, 2), st.integers(0, 2)),
    lambda children: st.builds(
        Integ, children.filter(lambda t: not isinstance(t, Monomial)), st.booleans()
    )
    | st.lists(children, min_size=2, max_size=3).map(lambda factors: prod(*factors)),
    max_leaves=8,
)


@LAWS
@given(grammar_trees)
@example(Integ(prod(PSI, PSI, X1), prime=True))  # a contraction leaves I'(X1) = 0
def test_renormalize_with_zero_weights_is_the_identity_on_trees(tree):
    assert renormalize_at_zero_weights(tree) == TreeCombination.single(tree)


@SYNTAX
@given(grammar_trees)
def test_trees_read_back_from_both_writers(tree):
    assert repr(tree) == format_tree(tree)
    assert parse_tree(format_tree(tree)) == tree
    assert parse_tree(repr(tree)) == tree


@pytest.mark.parametrize("tree", NAMED_TREES, ids=format_tree)
def test_named_trees_print_as_their_diagram_names(tree):
    assert repr(tree) == format_tree(tree) == tree_name(tree)
    assert parse_tree(repr(tree)) == tree


def test_every_tree_class_shares_one_writer():
    assert len({cls.__repr__ for cls in (Xi, Monomial, Integ, Product)}) == 1


# Multi-term coefficients: sums of rational multiples of products of symbols.
polys = st.lists(
    st.tuples(rationals, st.lists(st.sampled_from([SYMBOLS[n] for n in ("a", "C0", "a10")]),
                                  max_size=2)),
    min_size=1, max_size=3,
).map(lambda terms: sum((c * reduce(mul, factors, Poly.const(1))
                         for c, factors in terms), Poly()))
tree_combinations = st.lists(st.tuples(grammar_trees, polys), max_size=4).map(TreeCombination)
generators = st.sampled_from([gen for gen, _ in PLUS_GENERATORS])
tensor_keys = st.tuples(grammar_trees, st.lists(generators, max_size=3).map(right_mono))
tensor_elements = st.lists(st.tuples(tensor_keys, polys), max_size=4).map(TensorElement)


@LAWS
@given(tree_combinations, tensor_elements)
@example(TreeCombination({XI: Fraction(-1, 2) * SYMBOLS["a"] - 1}),
         TensorElement({(prod(PSI, PSI, PSI), (X1, X1)): SYMBOLS["C0"] + Fraction(1, 3)}))
def test_combinations_read_back_what_they_write(x, y):
    assert TreeCombination.parse(repr(x)) == x
    assert TensorElement.parse(repr(y)) == y


@pytest.mark.parametrize("name", BASIS_NAMES)
def test_every_computed_table_entry_reads_back(name):
    tree = basis_tree(name)
    assert TensorElement.parse(str(coproduct(tree))) == coproduct(tree)
    for image in (gamma_f(generic_character(), tree), renormalize(tree)):
        assert TreeCombination.parse(str(image)) == image


@LAWS
@given(grammar_trees, grammar_trees)
def test_degree_is_additive(s, t):
    assert tree_degree(prod(s, t)) == tree_degree(s) + tree_degree(t)


# 0 and +-1 take their own branches in ExactDegree.__str__
fractions = st.sampled_from([-1, 0, 1]).map(Fraction) | st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


@SYNTAX
@given(fractions, fractions)
def test_degrees_read_back(q, r):
    degree = ExactDegree(q, r)
    assert degree_from_string(str(degree)) == degree


@pytest.mark.parametrize("text", ["1/0", "1//2", "/", "k*k", "a", "", "k**2", "0.5", "(1)"])
def test_text_that_is_no_degree_is_named(text):
    with pytest.raises(ValueError, match=re.escape(f"cannot read {text!r} as a degree")):
        degree_from_string(text)


@pytest.mark.parametrize(
    "text", ["", "I(", "I(Xi", "Xi*", "*Xi", "I()", "X^(1)", "<nope>", "(Xi)", "I(Xi)(Xi)"]
)
def test_malformed_tree_rejected(text):
    with pytest.raises(ValueError):
        parse_tree(text)


@pytest.mark.parametrize("cls, text", [
    (TreeCombination, "(a"),
    (TreeCombination, "(a) Xi) Xi"),
    (TreeCombination, "(a Xi"),
    (TreeCombination, "<1> + (a) Xi) Xi"),
    (TensorElement, "Xi"),
    (TensorElement, "Xi @ 1 @ 1"),
])
def test_malformed_combination_names_the_whole_text(cls, text):
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        cls.parse(text)
