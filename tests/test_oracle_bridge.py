"""Model-versus-oracle agreement beyond the acceptance scope."""

import pytest

from aproots.cartan import context_from_label
from aproots.coxeter import CoxeterContext
from aproots.mutation import Seed
from aproots.oracle_bridge import (
    conjecture_evidence,
    exchange_graphs_agree,
    verify_bijection,
)


def cc_for(label):
    ctx, word = context_from_label(label)
    return CoxeterContext(ctx, word)


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
