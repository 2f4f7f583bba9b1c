"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one pass/fail line per check; a criterion fails the
suite when any of its checks fails.  Budgets are wall-clock and enforced
inside the criterion functions themselves.
"""

from itertools import combinations

import pytest

from aproots import compatibility, fan_svg, oracle_bridge, verification
from aproots.clusters import is_exchangeable
from aproots.verification import (
    CRITERIA,
    RANK2_LABELS,
    RANK4_LABELS,
    criterion_axioms,
    criterion_exchangeability,
    criterion_expansion_oracle,
    criterion_fan_geometry,
    criterion_oracle_bridge,
    run_all,
    run_for_type,
)

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


def test_axioms_report_a_planted_off_by_one_cobase_degree(monkeypatch):
    degree = compatibility.degree

    def off_by_one(cc, alpha, beta):
        return degree(cc, alpha, beta) + (tuple(alpha) == (0, 1, 0) and tuple(beta) == (-1, 0, 0))

    monkeypatch.setattr(compatibility, "degree", off_by_one)
    (row, timing) = criterion_axioms(["D3(2)"], level=2)
    assert row["name"].startswith("degree axioms D3(2)") and not row["ok"], row
    # the base and cobase laws come first, and only (0, 1, 0) against -α1 is off
    assert row["detail"].startswith("[('cobase', 0, (0, 1, 0))"), row
    assert timing["ok"], timing


def test_expansion_reports_a_planted_wrong_coefficient(monkeypatch):
    expansion = verification.cluster_expansion
    planted = []

    def wrong_once(cc, v):
        terms = expansion(cc, v)
        if not planted:
            planted.append(v)
            root = min(terms)
            terms = {**terms, root: terms[root] + 1}
        return terms

    monkeypatch.setattr(verification, "cluster_expansion", wrong_once)
    row, timing = criterion_expansion_oracle(["A1(1)"], samples=10, depth=3)
    assert planted
    assert (row["name"], row["ok"], row["detail"]) == (
        "expansion oracle A1(1) (10 samples)", False, "1 failures")
    assert timing["ok"], timing


def test_expansion_reports_a_planted_second_containing_cone(monkeypatch):
    # every imaginary cone claims every point, so each sample drawn from a
    # real cone (9 of every 10) lies in two cones
    monkeypatch.setattr(verification, "in_simplicial_cone", lambda gens, v: ())
    row, timing = criterion_expansion_oracle(["A1(1)"], samples=10, depth=3)
    assert (row["name"], row["ok"], row["detail"]) == (
        "expansion oracle A1(1) (10 samples)", False, "9 failures")
    assert timing["ok"], timing


def test_exchangeability_reports_a_planted_non_real_cluster(monkeypatch):
    is_cluster = verification.is_cluster
    planted = []

    def wrong_once(cc, roots):
        if not planted:
            planted.append(roots)
            return None, "planted"
        return is_cluster(cc, roots)

    monkeypatch.setattr(verification, "is_cluster", wrong_once)
    rows = criterion_exchangeability()
    assert planted
    failed = [(row["name"], row["detail"]) for row in rows if not row["ok"]]
    assert failed == [("every facet exchanges to a real cluster A2(1):k=1", "")], failed


def test_fan_reports_a_planted_bad_pair_and_a_malformed_picture(monkeypatch):
    intersect = verification.cones_intersect_in_face
    planted = []

    def wrong_once(cc, gens1, gens2):
        if not planted:
            planted.append((gens1, gens2))
            return False
        return intersect(cc, gens1, gens2)

    monkeypatch.setattr(verification, "cones_intersect_in_face", wrong_once)
    monkeypatch.setattr(fan_svg, "render_fan_svg", lambda cc, clusters: "<svg")
    rows = criterion_fan_geometry()
    assert planted
    failed = [(row["name"], row["detail"]) for row in rows if not row["ok"]]
    assert failed == [("pairwise face intersections A2(1):k=1 (24 cones)", "1 bad pairs"),
                      ("fan picture is well-formed XML", ""),
                      ("negative-simple cone is the central triangle", "")], failed


def test_exchangeability_reports_a_planted_wrong_partner(monkeypatch):
    exchange = verification.exchange
    planted = []

    def wrong_once(cc, cluster, alpha):
        beta, new = exchange(cc, cluster, alpha)
        if not planted:
            # the first facet of the first label gets a root of the facet
            # itself as its partner, which has degree 0 with alpha
            planted.append(alpha)
            beta = next(r for r in cluster if r != alpha)
        return beta, new

    monkeypatch.setattr(verification, "exchange", wrong_once)
    rows = criterion_exchangeability()
    assert planted
    # the criterion has no timing row; every other row still passes
    failed = [row["name"] for row in rows if not row["ok"]]
    assert failed == ["exchanged pairs degree 1/1 A2(1):k=1 (38 clusters)"], failed


def test_tube_pair_dichotomy_over_rank_four_labels(monkeypatch):
    # every rank-4 label has tube pairs on both sides of the exchangeability
    # test, so the per-pair check skips some pairs and tests the others
    contexts = [verification._cc(label) for label in RANK4_LABELS]
    for label, cc in zip(RANK4_LABELS, contexts):
        pairs = list(combinations(cc.tube_roots(), 2))
        exchangeable = sum(is_exchangeable(cc, a, b) for a, b in pairs)
        assert 0 < exchangeable < len(pairs), label
        assert verification._tube_pair_dichotomy(cc), label
    real = verification.is_real_exchangeable
    monkeypatch.setattr(verification, "is_real_exchangeable",
                        lambda cc, a, b: not real(cc, a, b))
    assert not any(verification._tube_pair_dichotomy(cc) for cc in contexts)


def test_oracle_reports_a_planted_off_by_one_grading(monkeypatch):
    nu = oracle_bridge.nu

    def off_by_one(cc, d):
        g = nu(cc, d)
        return (g[0] + 1,) + g[1:] if d == (0, 1, 0) else g

    monkeypatch.setattr(oracle_bridge, "nu", off_by_one)
    *rows, timing = criterion_oracle_bridge()
    failed = [row for row in rows if not row["ok"]]
    assert failed, rows
    for row in failed:
        assert "('grading', (0, 1, 0), " in row["detail"], row
    assert all(row["ok"] for row in rows if row["name"].split()[2] in RANK2_LABELS), rows
    assert timing["name"] == "oracle bridge under 5 min" and timing["ok"], timing


def test_table_reports_a_planted_wrong_finite_orbit_simple(monkeypatch):
    cc_for = verification._cc

    def wrong_for_g2(label):
        cc = cc_for(label)
        if label == "G2(1)":
            cc.fin_simples = ((1, 2, 0),)
        return cc

    monkeypatch.setattr(verification, "_cc", wrong_for_g2)
    rows = CRITERIA["table"]()
    failed = [(row["name"], row["detail"]) for row in rows if not row["ok"]]
    assert failed == [("finite-orbit simples G2(1)",
                       "got [(1, 2, 0)] expected [(1, 1, 0)]")], failed


def test_clusters_report_a_planted_non_unimodular_real_cluster(monkeypatch):
    enumerate_clusters = verification.enumerate_clusters
    planted = []

    def doubled_once(cc, depth):
        real, imag = enumerate_clusters(cc, depth)
        if not planted:
            # the first root of one real cluster doubled: determinant ±2
            cluster = min(real)
            planted.append(cluster)
            real = real - {cluster} | {(tuple(2 * x for x in cluster[0]),) + cluster[1:]}
        return real, imag

    monkeypatch.setattr(verification, "enumerate_clusters", doubled_once)
    rows = CRITERIA["clusters"]()
    assert planted
    failed = [(row["name"], row["detail"]) for row in rows if not row["ok"]]
    assert failed == [("real clusters unimodular A1(1) (11)", "")], failed


def test_doubled_mark_reports_a_planted_wrong_degree_against_delta(monkeypatch):
    degree = compatibility.degree

    def off_by_one(cc, alpha, beta):
        # -α2 against delta = (1, 2) of A2(2); A4(2) has rank 3
        return degree(cc, alpha, beta) + (tuple(alpha) == (0, -1) and tuple(beta) == (1, 2))

    monkeypatch.setattr(compatibility, "degree", off_by_one)
    rows = CRITERIA["doubled-mark"]()
    failed = [(row["name"], row["detail"]) for row in rows if not row["ok"]]
    assert failed == [("degree of -α2 against delta is 2", "got 3")], failed


def test_conjecture_reports_a_planted_mismatching_d_vector(monkeypatch):
    planted = []
    mutate_d_vectors = oracle_bridge.mutate_d_vectors

    class WrongOnce(tuple):
        """A replay's d-vectors; the first one read off any replay is off."""

        def __getitem__(self, slot):
            d = super().__getitem__(slot)
            if not planted:
                planted.append(d)
                return (d[0] + 1,) + d[1:]
            return d

    def replayed(btilde, dvecs, k):
        btilde, dvecs = mutate_d_vectors(btilde, dvecs, k)
        return btilde, WrongOnce(dvecs)

    monkeypatch.setattr(oracle_bridge, "mutate_d_vectors", replayed)
    rows = CRITERIA["conjecture"]()
    assert planted
    failed = [(row["name"], row["detail"]) for row in rows if not row["ok"]]
    assert failed == [("conjecture match fraction A2(1):k=1", "0.999")], failed
    # the evidence row reports the mismatch and passes: a mismatch is a finding
    assert rows[0] == {"name": "conjecture evidence A2(1):k=1 (1452 comparisons)",
                       "ok": True, "detail": "1 mismatches (reportable finding)"}, rows[0]
