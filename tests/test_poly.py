"""Property tests of the exact coefficient ring ``Poly``, with sympy as the oracle."""

import keyword
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from openkpz.treealg.combination import SYMBOLS, Poly

LAWS = settings(max_examples=100, deadline=None, derandomize=True)

# Polynomials over the package's symbols: Fraction coefficients, exponents up to 3.
monomials = st.dictionaries(st.sampled_from(sorted(SYMBOLS)), st.integers(1, 3),
                            max_size=3).map(lambda exps: tuple(sorted(exps.items())))
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.dictionaries(monomials, coefficients, max_size=5).map(Poly)
values = st.one_of(coefficients, polys)


def to_sympy(p: Poly) -> sympy.Expr:
    """The same polynomial built term by term in sympy, without going through text."""
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(sympy.Symbol(name) ** e for name, e in mono))
        for mono, c in p.items()
    ))


@LAWS
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - b == a + -b and -(-a) == a
    assert a - a == 0 and a + 0 == a and a * 1 == a and a * 0 == 0


@LAWS
@given(polys)
def test_str_is_sympys_str(p):
    assert str(p) == str(to_sympy(p))
    assert str(p) == str(sympy.sympify(str(p)))


@LAWS
@given(polys)
def test_parse_reads_str_back(p):
    assert Poly.parse(str(p)) == p


@LAWS
@given(polys, st.dictionaries(st.sampled_from(sorted(SYMBOLS)), values, max_size=3))
def test_subs_agrees_with_sympy(p, mapping):
    # sympy substitutes simultaneously too
    oracle = to_sympy(p).subs(
        {sympy.Symbol(name): to_sympy(Poly.const(v) if isinstance(v, Fraction) else v)
         for name, v in mapping.items()}, simultaneous=True)
    assert to_sympy(p.subs(mapping)) == sympy.expand(oracle)


@LAWS
@given(polys, coefficients.filter(bool))
def test_division_by_a_constant_inverts_the_product(p, q):
    assert (p * q) / q == p
    assert (p * q) / Poly.const(q) == p


def test_constants_compare_and_hash_as_numbers():
    assert Poly() == 0 and hash(Poly()) == hash(0)
    assert Poly.const(3) == 3 and hash(Poly.const(3)) == hash(3)
    assert Poly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(Poly.const(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert SYMBOLS["a"] != 0 and SYMBOLS["a"] != 1


@pytest.mark.parametrize("text, written", [
    ("d+a*g", "a*g + d"),
    ("-2*C0", "-2*C0"),
    ("C2/4", "C2/4"),
    ("C2/4 + C3/2 + 2*a10*C0 + C1", "2*C0*a10 + C1 + C2/4 + C3/2"),
    ("wtilde**2 - 1 - 3*a*C0/2", "-3*C0*a/2 + wtilde**2 - 1"),
    ("3/2*a*a", "3*a**2/2"),
    ("a - a", "0"),
])
def test_golden_table_syntax(text, written):
    assert str(Poly.parse(text)) == written


def test_a_long_sum_is_read_in_a_loop():
    # each + or - once cost a level of recursion: 1000 terms raised RecursionError
    names = [f"a{i}" for i in range(2000)]
    assert Poly.parse(" + ".join(names)) == Poly({((name, 1),): 1 for name in names})
    minus = Poly({((name, 1),): -1 if i else 1 for i, name in enumerate(names)})
    assert Poly.parse(" - ".join(names)) == minus


def test_a_sum_too_long_for_pythons_parser_is_malformed():
    text = "+".join(f"a{i}" for i in range(20_000))
    with pytest.raises(ValueError, match=re.escape(f"malformed coefficient {text!r}")):
        Poly.parse(text)


@pytest.mark.parametrize("text", ["2*", "a/0", "a/b", "C0 +", "", "a$b", "a**-1", "2 3",
                                  "a**b", "(a)", "a 10",
                                  "0x1F", "1_0", "1e3", "a # b", "a//2", "None", "True",
                                  "2**3", "a**2**2", "a/-2"])
def test_malformed_coefficient_names_the_text(text):
    with pytest.raises(ValueError, match=re.escape(f"malformed coefficient {text!r}")):
        Poly.parse(text)


@LAWS
@given(st.from_regex(r"\w+", fullmatch=True) | st.sampled_from(keyword.kwlist
                                                               + keyword.softkwlist))
def test_the_constructor_takes_only_names_parse_reads_back(name):
    try:
        p = Poly({((name, 2),): Fraction(-3, 2), ((name, 1), ("a", 1)): 1})
    except ValueError as exc:
        assert f"bad factor {name!r}**" in str(exc)
        return
    assert Poly.parse(str(p)) == p


@pytest.mark.parametrize("name", ["None", "True", "lambda", "é", "a b", "", "1a", "a-b"])
def test_a_name_parse_cannot_read_back_is_rejected(name):
    with pytest.raises(ValueError, match=re.escape(f"bad factor {name!r}**1")):
        Poly.symbol(name)


@pytest.mark.parametrize("divisor, error", [
    (SYMBOLS["a"], ValueError), (SYMBOLS["a"] + 1, ValueError), (0, ZeroDivisionError),
    (Poly(), ZeroDivisionError),
])
def test_division_by_anything_but_a_nonzero_constant_names_both(divisor, error):
    with pytest.raises(error, match=re.escape(f"cannot divide C0 + 1 by {divisor}")):
        (SYMBOLS["C0"] + 1) / divisor


def test_inexact_coefficients_and_non_symbols_are_rejected():
    with pytest.raises(TypeError, match="0.5"):
        SYMBOLS["a"] * 0.5
    with pytest.raises(TypeError, match="0.1"):
        Poly({(("a", 1),): 0.1})
    with pytest.raises(TypeError, match=re.escape("symbol names, not a")):
        SYMBOLS["a"].subs({SYMBOLS["a"]: 1})
