"""Membership, bounded enumeration, and transversal structure."""

from aproots import almost_positive as ap
from aproots.cartan import catalog_labels
from aproots.coxeter import (
    DELTA,
    NEG_SIMPLE,
    TRANSIENT,
    TUBE,
    CoxeterContext,
)
from aproots.roots import roots_up_to_level

from strategies import cc_for, finite_positive_roots


def test_membership_classes():
    cc = cc_for("D3(2)")
    assert cc.phi_c_class((-1, 0, 0)) == NEG_SIMPLE
    assert cc.phi_c_class((1, 1, 1)) == DELTA
    assert cc.phi_c_class((2, 2, 2)) is None
    assert cc.phi_c_class((0, 1, 0)) == TUBE
    assert cc.phi_c_class((1, 0, 0)) == TRANSIENT
    assert cc.phi_c_class((2, 3, 2)) is None   # component-full support
    assert cc.phi_c_class((0, -1, -1)) is None
    assert cc.phi_c_class((7, 7, 7)) is None


def test_rank2_every_positive_root_is_transient():
    cc = cc_for("A1(1)")
    for root in roots_up_to_level(cc.ctx, 3):
        if all(x >= 0 for x in root) and cc.ctx.is_real_root(root):
            assert cc.phi_c_class(root) == TRANSIENT


def test_tube_root_counts():
    assert cc_for("A1(1)").tube_roots() == []
    assert len(cc_for("D3(2)").tube_roots()) == 2
    for label in ("A2(1):k=1", "C3(1)", "B3(1)"):
        cc = cc_for(label)
        expected = sum(comp.rank * (comp.rank - 1) for comp in cc.components)
        assert len(cc.tube_roots()) == expected


def test_enumeration_families_and_membership():
    cc = cc_for("A1(1)")
    out = ap.enumerate_phi_c(cc, 0)
    assert len(out) == 7
    assert set(out) == {(-1, 0), (0, -1), (1, 0), (2, 1), (1, 2), (0, 1), (1, 1)}
    for m in (0, 1, 3):
        members = ap.enumerate_phi_c(cc, m)
        assert len(members) == 2 * cc.n * (m + 1) + cc.n + len(cc.tube_roots()) + 1
        for v in members:
            assert cc.phi_c_class(v) is not None


def test_enumeration_counts_with_tubes():
    # the five families are pairwise disjoint: the merged enumeration has
    # exactly as many entries as the families together
    assert len(cc_for("D3(2)").tube_roots()) == 2
    for label in catalog_labels(6):
        cc = cc_for(label)
        for m in (0, 2):
            members = ap.enumerate_phi_c(cc, m)
            assert len(members) == 2 * cc.n * (m + 1) + cc.n + len(cc.tube_roots()) + 1, \
                (label, m)
            assert all(cc.phi_c_class(v) is not None for v in members), (label, m)


def test_inverse_invariance():
    # the set is the same for c and c^-1: bounded enumerations agree
    for label in ("A1(1)", "D3(2)", "G2(1)", "A4(2)"):
        cc = cc_for(label)
        inv = CoxeterContext(cc.ctx, cc.word[::-1])
        assert set(ap.enumerate_phi_c(cc, 3)) == set(ap.enumerate_phi_c(inv, 3))


def test_parabolic_restriction_of_membership():
    # inside any proper parabolic the set restricts to the classical
    # almost-positive roots of the finite subsystem
    for label in ("A2(1):k=1", "D3(2)", "A4(2)"):
        cc = cc_for(label)
        n = cc.n
        for drop in range(n):
            keep = [j for j in range(n) if j != drop]
            fin = finite_positive_roots(cc.ctx.cm, keep)
            classical = set(fin)
            classical.update(tuple(-1 if j == i else 0 for j in range(n))
                             for i in keep)
            for v in classical:
                assert cc.phi_c_class(v) is not None, (label, drop, v)
            # conversely: members supported inside the parabolic are classical
            for v in ap.enumerate_phi_c(cc, 3):
                if all(v[j] == 0 for j in range(n) if j not in keep):
                    assert v in classical, (label, drop, v)


def test_full_support_characterization():
    # positive real roots off the hyperplane always enter the set, and some
    # c-power of them drops full support or becomes a negative simple
    for label in ("D3(2)", "G2(1)", "A4(2)"):
        cc = cc_for(label)
        for root in roots_up_to_level(cc.ctx, 3):
            if not (cc.ctx.is_real_root(root) and all(x >= 0 for x in root)):
                continue
            if cc.phi(root) == 0:
                continue
            assert cc.phi_c_class(root) is not None
            cur = root
            hits = False
            for _ in range(4 * cc.m_bound):
                if 0 in cur or cc.neg_simple_index(cur) is not None:
                    hits = True
                    break
                cur = (cc.c_action(cur) if cc.phi(root) < 0
                       else cc.c_inverse_action(cur))
            assert hits, (label, root)


def test_tau_preserves_membership_and_transversals():
    for label in ("D3(2)", "C2(1)"):
        cc = cc_for(label)
        members = ap.enumerate_phi_c(cc, 2)
        for v in members:
            assert cc.phi_c_class(cc.tau(v)) is not None
        # negative simples are a transversal of the infinite orbits
        reps = set()
        for v in members:
            kind, rep, _ = cc.orbit_classification(v)
            if kind == "infinite":
                assert cc.neg_simple_index(rep) is not None
                reps.add(rep)
        assert len(reps) == cc.n
        # omega is a transversal of the finite orbits
        finite_reps = {cc.orbit_classification(t)[1] for t in cc.tube_roots()}
        assert finite_reps == set(cc.omega)


def test_export_enumeration_is_json_ready():
    import json

    cc = cc_for("A4(2)")
    data = ap.export_enumeration(cc, 1)
    text = json.dumps(data)
    assert "negative-simple" in text and "delta" in text
