"""Property tests for exact tree combinations: the vector-space and algebra laws."""

from functools import reduce
from operator import add

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from openkpz.treealg import BASIS_NAMES, basis_tree, coproduct, prod
from openkpz.treealg.combination import SYMBOLS, TreeCombination

NAMED_TREES = [basis_tree(name) for name in BASIS_NAMES + ["<1d1d>", "<2d2d1d>"]]

# Fixed examples per test keep tier-1 deterministic and its cost bounded.
LAWS = settings(max_examples=50, deadline=None, derandomize=True)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(
    lambda q: sympy.Rational(q.numerator, q.denominator)
)
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
    singles = [TreeCombination.single(tree, coeff) for tree, coeff in terms + terms]
    assert doubled == reduce(add, singles, TreeCombination())
    assert doubled == TreeCombination(terms).scale(2)
    assert all(coeff != 0 for _, coeff in doubled.items())
    assert not TreeCombination(terms + [(t, -c) for t, c in terms]).terms


@LAWS
@given(st.sampled_from(NAMED_TREES), st.sampled_from(NAMED_TREES))
def test_coproduct_is_multiplicative(s, t):
    assert coproduct(prod(s, t)) == coproduct(s).mul(coproduct(t))
