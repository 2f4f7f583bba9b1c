"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one pass/fail line per check; a criterion fails the
suite when any of its checks fails.  Budgets are wall-clock and enforced
inside the criterion functions themselves.
"""

import pytest

from aproots import compatibility
from aproots.verification import CRITERIA, criterion_axioms, run_all, run_for_type

ORDER = (
    "worked-example",
    "table",
    "axioms",
    "expansion",
    "clusters",
    "exchangeability",
    "doubled-mark",
    "oracle",
    "conjecture",
    "fan",
)


@pytest.mark.parametrize("name", ORDER)
def test_criterion(name, capsys):
    rows = CRITERIA[name]()
    assert rows, name
    for row in rows:
        mark = "PASS" if row["ok"] else "FAIL"
        detail = f"  {row['detail']}" if row["detail"] else ""
        with capsys.disabled():
            print(f"[{mark}] {name}: {row['name']}{detail}")
    failed = [row["name"] for row in rows if not row["ok"]]
    assert not failed, f"{name}: {failed}"


@pytest.mark.parametrize("label, untwisted", [("A3(1):k=1", True), ("D3(2)", False)])
def test_scoped_verification_checks_finite_simples_of_untwisted_types(label, untwisted):
    rows = run_for_type(label)
    assert all(row["ok"] for row in rows), rows
    simples = [row for row in rows if row["name"].startswith("finite-orbit simples")]
    assert len(simples) == untwisted
    # the fixed D3(2) row comes only with D3(2)
    fixed = [row for row in rows if row["name"] == "D3(2) has exactly 2 imaginary clusters"]
    assert len(fixed) == (label == "D3(2)")


def test_run_all_tags_each_row_with_its_criterion():
    rows = run_all(["worked-example"])
    assert [row["name"] for row in rows] == [row["name"] for row in CRITERIA["worked-example"]()]
    assert {row["criterion"] for row in rows} == {"worked-example"}


def test_axioms_report_a_planted_off_by_one_degree(monkeypatch):
    degree = compatibility.degree

    def off_by_one(cc, alpha, beta):
        return degree(cc, alpha, beta) + (tuple(beta) == (0, 1, 0))

    monkeypatch.setattr(compatibility, "degree", off_by_one)
    (row, timing) = criterion_axioms(["D3(2)"], level=2)
    assert row["name"].startswith("degree axioms D3(2)") and not row["ok"], row
    assert "('base', 0, (0, 1, 0))" in row["detail"], row
    assert timing["ok"], timing
