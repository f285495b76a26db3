"""Unit tests for the exact symbolic tree algebra."""

import operator
import re
from fractions import Fraction

import pytest
import sympy

from openkpz.treealg import (
    BASIS_NAMES,
    AmbiguousDegreeError,
    CharacterF,
    CoproductDomainError,
    ExactDegree,
    GrammarError,
    Integ,
    basis_tree,
    check_structure_group,
    compose_gamma,
    coproduct,
    deriv_tree,
    format_tree,
    gamma_f,
    generic_character,
    parse_tree,
    picard_W,
    picard_dW,
    q_leq0_nonlinearity,
    renorm_constants,
    renormalize,
    sector_table,
    tree_degree,
    verify_golden_tables,
)
from openkpz.treealg.basis import tree_name
from openkpz.treealg.combination import SYMBOLS, Poly, TreeCombination
from openkpz.treealg.coproduct import PLUS_GENERATORS
from openkpz.treealg.trees import XI, ONE, X1, prod

ZERO_WEIGHTS = {f"C{i}": 0 for i in range(4)}
# sympy is the independent oracle: expected values are sympy expressions, and an
# engine coefficient is compared through its text.
SYMPY = {name: sympy.Symbol(name) for name in SYMBOLS}


def as_sympy(coeff):
    return sympy.sympify(str(coeff))


def renormalize_at_zero_weights(tree):
    """M_g tree with every contraction weight set to 0, by substitution."""
    return TreeCombination((t, c.subs(ZERO_WEIGHTS)) for t, c in renormalize(tree).items())


class TestDegrees:
    def test_exact_arithmetic(self):
        d = ExactDegree(Fraction(-3, 2), Fraction(0))
        e = ExactDegree(Fraction(1), Fraction(-1))
        assert (d + e).rational == Fraction(-1, 2)
        assert (d + e).kappa == Fraction(-1)

    def test_inexact_components_rejected(self):
        # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
        for make in (lambda: ExactDegree(0.1), lambda: ExactDegree(1, 0.1),
                     lambda: ExactDegree(1, 1) * 0.1):
            with pytest.raises(TypeError, match=r"0\.1 is not an exact"):
                make()
        assert ExactDegree(Fraction(1, 2), 1) * 2 == ExactDegree(1, 2)

    def test_comparisons_hold_for_small_kappa(self):
        # -3/2 - kappa < -3/2 < -3/2 + kappa for every small kappa > 0
        lo = ExactDegree(Fraction(-3, 2), Fraction(-1))
        mid = ExactDegree(Fraction(-3, 2), Fraction(0))
        hi = ExactDegree(Fraction(-3, 2), Fraction(1))
        assert lo < mid < hi
        assert not hi < lo

    def test_ambiguous_pair_raises_on_every_comparison(self):
        # kappa - 1/20 changes sign inside kappa's interval (0, 1/10)
        kappa, twentieth = ExactDegree(0, 1), ExactDegree(Fraction(1, 20))
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(AmbiguousDegreeError):
                compare(kappa, twentieth)

    def test_basis_degrees(self):
        expected = {
            "Xi": "-3/2-k",
            "<1>": "1/2-k",
            "<1d>": "-1/2-k",
            "<1d1>": "3/2-k",
            "<2d>": "-1-2*k",
            "<2d1>": "1-2*k",
            "<2d1d>": "-2*k",
            "<2d2d>": "-1/2-3*k",
            "<2d2d1>": "3/2-3*k",
            "<1d2d>": "-2*k",
            "<tree1>": "-4*k",
            "<tree2>": "-4*k",
            "<1d1d>": "1/2-k",
            "<2d2d1d>": "1/2-3*k",
        }
        for name, deg in expected.items():
            assert str(tree_degree(basis_tree(name))) == deg, name

    def test_polynomial_degrees(self):
        assert str(tree_degree(ONE)) == "0"
        assert str(tree_degree(X1)) == "1"


class TestTrees:
    def test_parse_format_roundtrip(self):
        for name in BASIS_NAMES:
            tree = basis_tree(name)
            assert parse_tree(format_tree(tree)) == tree
            assert tree_name(tree) == name

    def test_parse_named_tokens(self):
        assert parse_tree("<1d>") == basis_tree("<1d>")
        assert parse_tree("<1d>*<2d1d>") == prod(
            basis_tree("<1d>"), basis_tree("<2d1d>")
        )
        assert dict(deriv_tree(basis_tree("<1>"))) == {basis_tree("<1d>"): 1}

    def test_product_is_canonical(self):
        a, b = basis_tree("<1d>"), basis_tree("<2d1d>")
        assert prod(a, b) == prod(b, a)

    def test_second_derivative_rejected(self):
        with pytest.raises(GrammarError):
            deriv_tree(basis_tree("<1d>"))

    @pytest.mark.parametrize("factors, expected", [
        # d(X1 * <1>) = <1> + X1*<1d>
        (["X1", "<1>"], [("<1>", 1), ("X1*<1d>", 1)]),
        # d(X^(0,2) * <1>) = 2 X1*<1> + X^(0,2)*<1d>
        (["X^(0,2)", "<1>"], [("X1*<1>", 2), ("X^(0,2)*<1d>", 1)]),
        # d(<1>*<1>) = 2 <1d>*<1>, one term per factor
        (["<1>", "<1>"], [("<1d>*<1>", 1), ("<1d>*<1>", 1)]),
        # d(<1>*<1d1>) = <1d>*<1d1> + <1>*<1d1d>
        (["<1>", "<1d1>"], [("<1d>*<1d1>", 1), ("<1>*<1d1d>", 1)]),
        # a monomial factor without X1 differentiates to nothing
        (["X^(1,0)", "<2d1>"], [("X^(1,0)*<2d1d>", 1)]),
    ])
    def test_products_follow_leibniz(self, factors, expected):
        tree = prod(*map(parse_tree, factors))
        got = sorted(deriv_tree(tree), key=repr)
        assert got == sorted(((parse_tree(t), k) for t, k in expected), key=repr)

    @pytest.mark.parametrize("factors", [["X1", "<1d>"], ["<1>", "<2d1d>"], ["<1>", "Xi"]])
    def test_product_with_a_primed_integral_or_the_noise_rejected(self, factors):
        with pytest.raises(GrammarError):
            deriv_tree(prod(*map(parse_tree, factors)))


class TestCoproduct:
    def test_primitive_noise(self):
        delta = coproduct(XI)
        assert delta.terms == {(XI, ()): 1}

    def test_extended_rule_only_for_planted_psi(self):
        # I(Psi) carries X_1 corrections; I'(Psi^2) stays primitive.
        planted = coproduct(basis_tree("<1d1>")).terms
        assert any(right for (_, right) in planted), "expected X_1 corrections"
        prime = coproduct(basis_tree("<2d1d>")).terms
        assert prime == {(basis_tree("<2d1d>"), ()): 1}

    def test_domain_error_for_time_monomials(self):
        from openkpz.treealg.trees import Monomial

        with pytest.raises(CoproductDomainError):
            coproduct(Monomial(1, 0))

    def test_matches_golden_table(self):
        report = verify_golden_tables()
        assert report.table_status()["coproduct"]

    @pytest.mark.parametrize("text, coeff", [("<1> + (b/) 1", "b/"), ("X1 + (a/c) 1", "a/c"),
                                             ("<1d1> + (d+) 1", "d+")])
    def test_malformed_golden_coefficient_is_named(self, text, coeff):
        # read as a fresh symbol, a typo would only show as a table mismatch
        with pytest.raises(ValueError, match=re.escape(f"malformed coefficient {coeff!r}")):
            TreeCombination.parse(text)


class TestStructureGroup:
    def test_generic_character_properties(self):
        laws = check_structure_group(generic_character())
        assert [law for law in laws if not law[1]] == []

    def test_report_covers_every_check(self):
        laws = check_structure_group(generic_character())
        kinds = [prop.split()[0] for prop, _, _ in laws]
        assert len(kinds) == 52
        assert all(holds for _, holds, _ in laws)
        assert {k: kinds.count(k) for k in set(kinds)} == {
            "fixes": 1, "triangular": 14, "multiplicative": 31, "Gamma": 6,
        }

    def test_identity_composition(self):
        f = generic_character()
        e = CharacterF((0,) * len(PLUS_GENERATORS))
        assert compose_gamma(f, e).values == f.values
        assert compose_gamma(e, f).values == f.values

    def test_composition_closure_on_basis(self):
        f = CharacterF(tuple(Poly.symbol("f" + name) for _, name in PLUS_GENERATORS))
        g = CharacterF(tuple(Poly.symbol("g" + name) for _, name in PLUS_GENERATORS))
        h = compose_gamma(f, g)
        for name in BASIS_NAMES:
            tree = basis_tree(name)
            lhs = gamma_f(f, gamma_f(g, TreeCombination.single(tree)))
            rhs = gamma_f(h, TreeCombination.single(tree))
            assert lhs == rhs, name

    def test_gamma_fixes_polynomials_degree_zero(self):
        f = generic_character()
        one = TreeCombination.single(ONE)
        assert gamma_f(f, one) == one


class TestRenormalization:
    def test_golden_table(self):
        report = verify_golden_tables()
        assert report.table_status()["renormalize"]

    def test_primitive_trees_fixed(self):
        for name in ("Xi", "<1d>", "<2d1>", "<1d1d>"):
            x = TreeCombination.single(basis_tree(name))
            assert renormalize(x) == x, name

    def test_pair_contraction(self):
        x = TreeCombination.single(basis_tree("<2d>"))
        out = renormalize(x)
        assert as_sympy(out.coeff(ONE)) == -SYMPY["C1"]

    def test_zero_params_is_identity(self):
        for name in BASIS_NAMES:
            x = TreeCombination.single(basis_tree(name))
            assert renormalize_at_zero_weights(x) == x, name

    def test_integral_of_a_contracted_monomial_is_zero(self):
        # L1 leaves I'(X1), which is 0: only the uncontracted tree survives
        psi = basis_tree("<1d>")
        tree = Integ(prod(psi, psi, X1), prime=True)
        assert renormalize_at_zero_weights(tree) == TreeCombination.single(tree)
        assert renormalize(tree) == TreeCombination.single(tree)

    @pytest.mark.parametrize("base, weight", [("<1d>", "C1"), ("<2d1d>", "C2")])
    @pytest.mark.parametrize("n", range(9))
    def test_power_sums_over_pair_matchings(self, base, weight, n):
        # Only one pair rule acts on base^n (inside I'(Psi^2), L1 leaves I'(1) = 0),
        # so M_g base^n = sum_j #(j-pair matchings) (-C)^j base^(n-2j).
        tree = basis_tree(base)
        expected = {
            prod(*[tree] * (n - 2 * j)):
            sympy.factorial(n) / (sympy.factorial(j) * 2**j * sympy.factorial(n - 2 * j))
            * (-SYMPY[weight]) ** j
            for j in range(n // 2 + 1)
        }
        got = renormalize(prod(*[tree] * n))
        assert {t: as_sympy(c) for t, c in got.items()} == expected


class TestExpansion:
    def test_w_contains_ansatz_terms(self):
        w = picard_W()
        half = sympy.Rational(1, 2)
        assert as_sympy(w.coeff(basis_tree("<2d1>"))) == half
        assert as_sympy(w.coeff(basis_tree("<2d2d1>"))) == sympy.Rational(1, 4)
        assert as_sympy(w.coeff(basis_tree("<1d1>"))) == SYMPY["a10"] + half * SYMPY["wtilde"]
        assert as_sympy(w.coeff(ONE)) == SYMPY["w"]
        assert as_sympy(w.coeff(X1)) == SYMPY["wtilde"]

    def test_dw_is_derivative(self):
        assert picard_dW() == picard_W().deriv()

    def test_q_leq0_has_eight_terms(self):
        q = q_leq0_nonlinearity(picard_dW())
        assert len(q.items()) == 8

    def test_constants(self):
        c1, c2, c3 = map(as_sympy, renorm_constants())
        s = SYMPY
        assert sympy.expand(c1 - s["C0"]) == 0
        assert sympy.expand(c2 - 2 * s["C0"]) == 0
        want = (
            sympy.Rational(1, 4) * s["C2"]
            + sympy.Rational(1, 2) * s["C3"]
            + 2 * s["a10"] * s["C0"]
            + s["C1"]
        )
        assert sympy.expand(c3 - want) == 0


class TestSectors:
    def test_table_shape(self):
        table = sector_table()
        assert len(table) == 33  # 6 rows x 5 exponents + 3 headline values

    def test_headline_exponents(self):
        table = sector_table()
        assert table["gamma"] == ExactDegree(Fraction(3, 2), Fraction(1))
        assert table["eta"] == ExactDegree(Fraction(0), Fraction(1))
        assert table["sigma"] == ExactDegree(Fraction(1, 2), Fraction(2))
