"""Model-versus-oracle agreement beyond the acceptance scope."""

import pytest

import aproots.compatibility as compat
import aproots.oracle_bridge as oracle_bridge
from aproots.clusters import REAL, is_cluster
from aproots.coxeter import CoxeterContext
from aproots.mutation import Seed, exchange_matrix_from_cartan, seed_bfs
from aproots.oracle_bridge import (
    conjecture_evidence,
    exchange_graphs_agree,
    verify_bijection,
)
from aproots.verification import RANK3_LABELS

from strategies import affine_for, cc_for


@pytest.mark.parametrize("label", ["C3(1)", "B3(1)", "A5(2)", "A6(2)", "D4(2)"])
def test_rank4_bridge(label):
    cc = cc_for(label)
    report = verify_bijection(cc, 4)
    assert report["ok"], report["failures"][:3]
    graphs = exchange_graphs_agree(cc, 3)
    assert graphs["ok"]


def test_rank5_bridge_spot_check():
    cc = cc_for("B4(1)")
    report = verify_bijection(cc, 3)
    assert report["ok"], report["failures"][:3]


def test_conjecture_rank4_spot_check():
    cc = cc_for("C3(1)")
    report = conjecture_evidence(cc, 3)
    assert report["comparisons"] > 0
    assert report["mismatches"] == []


def test_initial_cluster_is_negative_simples():
    cc = cc_for("D3(2)")
    report = verify_bijection(cc, 0)
    assert report["seeds"] == 1 and report["ok"]


def test_d_vector_collision_is_reported(monkeypatch):
    cc = cc_for("A1(1)")
    d_vector = Seed.d_vector

    def colliding(seed, slot):
        # x_2 takes the d-vector of x_1
        d = d_vector(seed, slot)
        return (-1, 0) if d == (0, -1) else d

    monkeypatch.setattr(Seed, "d_vector", colliding)
    report = verify_bijection(cc, 2)
    assert not report["d_injective"] and not report["ok"]
    assert ("injectivity", (-1, 0)) in report["failures"]


def reference_verify_bijection(cc, depth):
    """verify_bijection as it was when membership and grading were checked
    at every (seed, slot), not once per variable."""
    b = exchange_matrix_from_cartan(cc.cm, cc.word)
    reps, _ = seed_bfs(b, depth)
    report = {"seeds": len(reps), "all_d_in_set": True, "d_injective": True,
              "seed_clusters_real": True, "g_equals_nu_of_d": True, "failures": []}
    first_with_d = {}
    for seed in reps.values():
        dvecs = []
        for slot in range(seed.n):
            d = seed.d_vector(slot)
            g = seed.g_vector(slot)
            dvecs.append(d)
            if cc.phi_c_class(d) is None or d == cc.ctx.delta:
                report["all_d_in_set"] = False
                report["failures"].append(("membership", d))
            if oracle_bridge.nu(cc, d) != g:
                report["g_equals_nu_of_d"] = False
                report["failures"].append(("grading", d, g))
            var = seed.variable_key(slot)
            if first_with_d.setdefault(d, var) != var:
                report["d_injective"] = False
                report["failures"].append(("injectivity", d))
        kind, reason = is_cluster(cc, dvecs)
        if kind != REAL:
            report["seed_clusters_real"] = False
            report["failures"].append(("cluster", tuple(dvecs), reason))
    report["ok"] = (report["all_d_in_set"] and report["d_injective"]
                    and report["seed_clusters_real"] and report["g_equals_nu_of_d"])
    return report


def reference_conjecture_evidence(cc, depth):
    """conjecture_evidence as it was when each seed' re-rooted along its
    whole history and replayed every other seed's unreduced history."""
    b = exchange_matrix_from_cartan(cc.cm, cc.word)
    reps, _ = seed_bfs(b, depth)
    by_length = sorted(reps.values(), key=lambda seed: len(seed.history))
    comparisons = 0
    mismatches = []
    for seed_prime in reps.values():
        beta_labels = [seed_prime.d_vector(i) for i in range(seed_prime.n)]
        rerooted = Seed.initial(tuple(seed_prime.btilde[i] for i in range(seed_prime.n)))
        for k in reversed(seed_prime.history):
            rerooted = rerooted.mutate(k)
        for other in by_length:
            replay = rerooted
            for k in other.history:
                replay = replay.mutate(k)
            for slot in range(other.n):
                beta = other.d_vector(slot)
                d_prime = replay.d_vector(slot)
                expected = tuple(compat.degree(cc, label, beta) for label in beta_labels)
                comparisons += 1
                if d_prime != expected:
                    mismatches.append({"seed": seed_prime.history, "variable": beta,
                                       "denominator": d_prime, "degrees": expected})
    return {"comparisons": comparisons, "mismatches": mismatches,
            "match_fraction": 1.0 if not comparisons
            else (comparisons - len(mismatches)) / comparisons}


def catalog_and_reversed(label):
    ctx, word = affine_for(label)
    return [CoxeterContext(ctx, w) for w in (word, tuple(reversed(word)))]


@pytest.mark.parametrize("label", RANK3_LABELS)
def test_shared_replays_match_the_per_seed_reference(label):
    for cc in catalog_and_reversed(label):
        assert conjecture_evidence(cc, 3) == reference_conjecture_evidence(cc, 3)


@pytest.mark.parametrize("label", RANK3_LABELS)
def test_shared_replays_report_mismatches_in_reference_order(label, monkeypatch):
    degree = compat.degree
    for cc in catalog_and_reversed(label):
        wrong = tuple(int(i == cc.word[0]) for i in range(cc.n))

        def off_by_one(cc, alpha, beta, wrong=wrong):
            return degree(cc, alpha, beta) + (beta == wrong)

        monkeypatch.setattr(compat, "degree", off_by_one)
        report = conjecture_evidence(cc, 3)
        assert report["mismatches"]
        assert report == reference_conjecture_evidence(cc, 3)
        monkeypatch.setattr(compat, "degree", degree)


@pytest.mark.parametrize("label", RANK3_LABELS)
def test_grading_failures_reported_at_every_seed_and_slot(label, monkeypatch):
    nu = oracle_bridge.nu
    for cc in catalog_and_reversed(label):
        wrong = tuple(int(i == cc.word[0]) for i in range(cc.n))

        def shifted(cc, d, wrong=wrong):
            g = nu(cc, d)
            return tuple(x + 1 for x in g) if d == wrong else g

        monkeypatch.setattr(oracle_bridge, "nu", shifted)
        report = verify_bijection(cc, 4)
        reps, _ = seed_bfs(exchange_matrix_from_cartan(cc.cm, cc.word), 4)
        holders = sum(seed.d_vector(s) == wrong for seed in reps.values() for s in range(cc.n))
        assert holders > 1
        assert [f[:2] for f in report["failures"]] == [("grading", wrong)] * holders
        assert report == reference_verify_bijection(cc, 4)
        monkeypatch.setattr(oracle_bridge, "nu", nu)


@pytest.mark.parametrize("label", ["A2(2)", "D3(2)"])
def test_membership_failures_reported_at_every_seed_and_slot(label, monkeypatch):
    for cc in catalog_and_reversed(label):
        wrong = tuple(-int(i == cc.word[0]) for i in range(cc.n))
        member = cc.phi_c_class
        monkeypatch.setattr(cc, "phi_c_class", lambda d: None if d == wrong else member(d))
        report = verify_bijection(cc, 4)
        reps, _ = seed_bfs(exchange_matrix_from_cartan(cc.cm, cc.word), 4)
        holders = sum(seed.d_vector(s) == wrong for seed in reps.values() for s in range(cc.n))
        assert holders > 1
        assert report["failures"] == [("membership", wrong)] * holders
        assert not report["all_d_in_set"] and not report["ok"]
        assert report["d_injective"] and report["g_equals_nu_of_d"]


def test_self_loop_edge_fails_the_exchange_check(monkeypatch):
    cc = cc_for("A2(2)")
    reps, _ = seed_bfs(exchange_matrix_from_cartan(cc.cm, cc.word), 3)
    loop = {frozenset({next(iter(reps))})}
    monkeypatch.setattr(oracle_bridge, "seed_bfs", lambda b, depth: (reps, loop))
    report = exchange_graphs_agree(cc, 3)
    assert report["vertices_agree"]
    assert not report["edges_are_exchanges"] and not report["ok"]
