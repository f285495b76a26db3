"""Golden-table verification: encoded tables vs. recomputed algebra.

The four tables (degrees, coproduct, structure-group action with symbolic
generator values, renormalization-group action with symbolic weights) are
stored as a plain-text data file; this module parses it and checks exact
equality against the engine, so a correction to a table is a one-line data
edit, never a code change.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from openkpz.treealg.basis import _split_top, basis_W, parse_tree
from openkpz.treealg.combination import TensorElement, TreeCombination, right_mono
from openkpz.treealg.coproduct import coproduct, gamma_f, generic_character
from openkpz.treealg.degree import ExactDegree, degree_from_string
from openkpz.treealg.renorm import RenormParams, renormalize
from openkpz.treealg.trees import Tree, tree_degree

TABLE_NAMES = ("degree", "coproduct", "gamma", "renormalize")


def _parse_term(term: str) -> Tuple[Tree, str]:
    """Split an optional leading parenthesized coefficient off a tree term."""
    if not term.startswith("("):
        return parse_tree(term), "1"
    # past the opening '(', the first ')' outside brackets closes the coefficient
    coeff, tree = _split_top(term[1:], ")")
    return parse_tree(tree), coeff


def parse_combination(text: str) -> TreeCombination:
    return TreeCombination(_parse_term(term) for term in _split_top(text, "+"))


def _parse_tensor_term(term: str):
    left_text, right_text = _split_top(term, "@")
    left, coeff = _parse_term(left_text)
    right = () if right_text == "1" else map(parse_tree, _split_top(right_text, "*"))
    return (left, right_mono(right)), coeff


def parse_tensor(text: str) -> TensorElement:
    return TensorElement(_parse_tensor_term(term) for term in _split_top(text, "+"))


@dataclass
class GoldenRow:
    name: str
    term: Tree
    degree: ExactDegree
    delta: TensorElement
    gamma: TreeCombination
    mg: TreeCombination


def load_golden_rows() -> List[GoldenRow]:
    text = (
        importlib.resources.files("openkpz.treealg")
        .joinpath("data/golden_tables.txt")
        .read_text()
    )
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, term, degree, delta, gamma, mg = _split_top(line, "|")
        rows.append(
            GoldenRow(
                name=name,
                term=parse_tree(term),
                degree=degree_from_string(degree),
                delta=parse_tensor(delta),
                gamma=parse_combination(gamma),
                mg=parse_combination(mg),
            )
        )
    return rows


@dataclass
class GoldenReport:
    mismatches: List[Tuple[str, str, str]] = field(default_factory=list)
    rows_checked: int = 0

    @property
    def all_passed(self) -> bool:
        return not self.mismatches

    def table_status(self) -> Dict[str, bool]:
        failed = {table for table, _, _ in self.mismatches}
        return {table: table not in failed for table in TABLE_NAMES}

    def __str__(self) -> str:
        status = self.table_status()
        lines = [
            f"table {table:12s} {'exact' if ok else 'MISMATCH'}"
            for table, ok in status.items()
        ]
        for table, name, detail in self.mismatches:
            lines.append(f"  {table}[{name}]: {detail}")
        exact = sum(status.values())
        lines.append(f"{exact}/{len(TABLE_NAMES)} tables exact over {self.rows_checked} elements")
        return "\n".join(lines)


def verify_golden_tables() -> GoldenReport:
    """Recompute every table entry and compare with the encoded data."""
    report = GoldenReport()
    rows = load_golden_rows()
    report.rows_checked = len(rows)
    f = generic_character()
    params = RenormParams()

    computed_basis = {name: (tree, deg) for name, tree, deg in basis_W()}
    for row in rows:
        tree, deg = computed_basis.get(row.name, (None, None))
        if tree is None or tree != row.term:
            report.mismatches.append(
                ("degree", row.name, f"encoded term {row.term!r} != basis {tree!r}")
            )
            continue
        if deg != row.degree or tree_degree(row.term) != row.degree:
            report.mismatches.append(
                ("degree", row.name, f"computed {deg} != encoded {row.degree}")
            )
        delta = coproduct(tree)
        if not delta == row.delta:
            report.mismatches.append(
                ("coproduct", row.name, f"computed {delta!r} != encoded {row.delta!r}")
            )
        gamma = gamma_f(f, tree)
        if not gamma == row.gamma:
            report.mismatches.append(
                ("gamma", row.name, f"computed {gamma!r} != encoded {row.gamma!r}")
            )
        mg = renormalize(params, tree)
        if not mg == row.mg:
            report.mismatches.append(
                ("renormalize", row.name, f"computed {mg!r} != encoded {row.mg!r}")
            )
    if len(rows) != len(computed_basis):
        report.mismatches.append(
            ("degree", "*", f"{len(rows)} rows encoded, {len(computed_basis)} basis elements")
        )
    return report
