"""Golden-table verification: encoded algebra vs. recomputed algebra.

The four tables (degrees, coproduct, structure-group action with symbolic
generator values, renormalization-group action with symbolic weights) are
stored as a plain-text data file and the counterterms (c1, c2, c3) as one
triple below; this module reads them with the combinations' own ``parse`` and
checks exact equality against the engine, together with the structure-group
laws, so a correction to a golden value is a one-line data edit, never a code
change.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from openkpz.treealg.basis import _split_top, basis_W, parse_tree
from openkpz.treealg.combination import Poly, TensorElement, TreeCombination
from openkpz.treealg.coproduct import check_structure_group, coproduct, gamma_f, generic_character
from openkpz.treealg.degree import ExactDegree, degree_from_string
from openkpz.treealg.expansion import ConstantExtractionError, renorm_constants
from openkpz.treealg.renorm import renormalize
from openkpz.treealg.trees import Tree

TABLE_NAMES = ("degree", "coproduct", "gamma", "renormalize")
# (c1, c2, c3) of renorm_constants() at the symbolic weights C0-C3.
EXPECTED_CONSTANTS = ("C0", "2*C0", "C2/4 + C3/2 + 2*a10*C0 + C1")
# The columns after a row's name: their names in error messages, and their readers.
_READERS = (("term", parse_tree), ("degree", degree_from_string), ("Δ", TensorElement.parse),
            ("Γ_f", TreeCombination.parse), ("M_g", TreeCombination.parse))


@dataclass
class GoldenRow:
    name: str
    term: Tree
    degree: ExactDegree
    delta: TensorElement
    gamma: TreeCombination
    mg: TreeCombination


def load_golden_rows() -> List[GoldenRow]:
    """The table file's rows; a cell that does not parse is a ValueError naming row and column."""
    text = (importlib.resources.files("openkpz.treealg") / "data/golden_tables.txt").read_text()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, *cells = _split_top(line, "|", 6)
        values = []
        for (column, read), cell in zip(_READERS, cells):
            try:
                values.append(read(cell))
            except ValueError as exc:
                raise ValueError(f"golden table row {name}, column {column}: {exc}") from exc
        rows.append(GoldenRow(name, *values))
    return rows


@dataclass
class GoldenReport:
    """Failed checks as (check, element, detail); a check is a table, the
    "structure group" laws or the renormalization "constants"."""

    mismatches: List[Tuple[str, str, str]] = field(default_factory=list)
    rows_checked: int = 0
    constants: Tuple[Poly, ...] = ()

    @property
    def all_passed(self) -> bool:
        return not self.mismatches

    def table_status(self) -> Dict[str, bool]:
        failed = {check for check, _, _ in self.mismatches}
        checks = (*TABLE_NAMES, "structure group", "constants")
        return {check: check not in failed for check in checks}

    def __str__(self) -> str:
        status = self.table_status()
        lines = [
            f"table {table:12s} {'exact' if status[table] else 'MISMATCH'}"
            for table in TABLE_NAMES
        ]
        for check, name, detail in self.mismatches:
            lines.append(f"  {check}[{name}]: {detail}")
        exact = sum(status[table] for table in TABLE_NAMES)
        lines.append(f"{exact}/{len(TABLE_NAMES)} tables exact over {self.rows_checked} elements")
        lines.append("structure group: "
                     + ("all properties hold" if status["structure group"] else "FAIL"))
        lines.append(f"renormalization constants: ({', '.join(map(str, self.constants))})"
                     + ("" if status["constants"] else "  MISMATCH"))
        return "\n".join(lines)


def verify_golden_tables() -> GoldenReport:
    """Recompute every table entry, the structure-group laws and the
    renormalization constants, and compare them with the encoded data."""
    rows = load_golden_rows()
    report = GoldenReport(rows_checked=len(rows))
    f = generic_character()

    computed_basis = {name: (tree, deg) for name, tree, deg in basis_W()}
    for row in rows:
        tree, deg = computed_basis.get(row.name, (None, None))
        if tree != row.term:
            detail = (f"no basis element is named {row.name}" if tree is None
                      else f"encoded term {row.term!r} != basis {tree!r}")
            report.mismatches.append(("degree", row.name, detail))
            continue
        computed = (deg, coproduct(tree), gamma_f(f, tree), renormalize(tree))
        encoded = (row.degree, row.delta, row.gamma, row.mg)
        for table, got, want in zip(TABLE_NAMES, computed, encoded):
            if got != want:
                report.mismatches.append((table, row.name, f"computed {got} != encoded {want}"))
    if len(rows) != len(computed_basis):
        report.mismatches.append(
            ("degree", "*", f"{len(rows)} rows encoded, {len(computed_basis)} basis elements")
        )
    report.mismatches += [("structure group", law, witness)
                          for law, holds, witness in check_structure_group(f) if not holds]
    try:
        report.constants = renorm_constants()
    except ConstantExtractionError as exc:
        report.mismatches.append(("constants", "*", f"unmatched residual {exc.residual!r}"))
    for k, (got, text) in enumerate(zip(report.constants, EXPECTED_CONSTANTS), 1):
        want = Poly.parse(text)
        if got != want:
            report.mismatches.append(("constants", f"c{k}", f"computed {got} != expected {want}"))
    return report
