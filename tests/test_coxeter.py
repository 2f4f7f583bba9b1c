"""Coxeter-element context: forms, eigen data, tubes, deformed maps."""

import random
import sys
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aproots import almost_positive as ap
from aproots import linalg
from aproots.cartan import (
    AffineContext,
    catalog,
    catalog_labels,
    context_from_label,
    validate_cartan,
)
from aproots.clusters import nu, nu_inverse
from aproots.compatibility import compat_arrows
from aproots.coxeter import TRANSIENT, CoxeterContext, source_sink_counts
from aproots.errors import IndexOutOfRange, NotAlmostPositive, NotInPhiC
from aproots.linalg import mat_vec
from aproots.roots import deformed_reflection, roots_up_to_level

from strategies import (
    DenseWordOrder,
    affine_for,
    cc_for,
    count_member_calls,
    coxeter_contexts,
    euler,
    euler_roots,
    finite_positive_roots,
    kernel_delta_vee_coroot,
    outcome,
    reference_tau,
    solved_phi,
    word_sources,
)


def rand_vec(rng, n):
    return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))


def action_matrix(action, n):
    """The matrix of a linear map, from its columns on the unit vectors."""
    return tuple(zip(*(action(tuple(int(i == j) for i in range(n))) for j in range(n))))


def unitriangular(part):
    """I + part, densely, for a strict part of an Euler matrix."""
    n = len(part)
    return tuple(tuple(dict(row).get(j, int(i == j)) for j in range(n))
                 for i, row in enumerate(part))


def test_rank2_coxeter_matrix():
    cc = cc_for("A1(1)")
    assert action_matrix(cc.c_action, cc.n) == ((3, -2), (2, -1))


def test_c_fixes_delta_and_inverts():
    for label in ("A1(1)", "D3(2)", "G2(1)", "C3(1)"):
        cc = cc_for(label)
        assert cc.c_action(cc.ctx.delta) == cc.ctx.delta
        rng = random.Random(3)
        v = rand_vec(rng, cc.n)
        assert cc.c_inverse_action(cc.c_action(v)) == v


def test_euler_diagonal_and_example():
    cc = cc_for("A1(1)")
    assert euler(cc, (1, 0), (1, 0)) == 1
    assert euler(cc, (0, 1), (0, 1)) == 1
    assert euler(cc, (0, 1), (1, 0)) == -2   # below-diagonal entry
    assert euler(cc, (1, 0), (0, 1)) == 0


def test_euler_on_coroot_root_pairs():
    for label in ("D3(2)", "A4(2)", "C2(1)"):
        cc = cc_for(label)
        for root in roots_up_to_level(cc.ctx, 2):
            if not cc.ctx.is_real_root(root):
                continue
            assert euler(cc, cc.ctx.coroot_coords(root), root) == 1


def test_euler_identities_random_vectors():
    rng = random.Random(11)
    for label in ("D3(2)", "G2(1)", "B3(1)"):
        cc = cc_for(label)
        n = cc.n
        s = cc.word[0]
        moved = cc.source_sink_move(s)
        inv = CoxeterContext(cc.ctx, cc.word[::-1])
        for _ in range(25):
            a, b = rand_vec(rng, n), rand_vec(rng, n)
            e = euler_roots(cc, a, b)
            # invariance under the move, applied to both arguments
            assert e == euler_roots(moved, cc.cm.reflect(s, a), cc.cm.reflect(s, b))
            # invariance under c on both sides
            assert e == euler_roots(cc, cc.c_action(a), cc.c_action(b))
            # transposed form of the inverse element
            assert e == euler_roots(inv, b, a)
            # twisted relation through the action of c
            assert e == -euler_roots(inv, a, cc.c_action(b))
            # the symmetrization is the invariant form
            assert cc.ctx.k(a, b) == e + euler_roots(cc, b, a)


def test_euler_vanishing_on_hyperplane_roots():
    for label in ("D3(2)", "C3(1)", "A4(2)"):
        cc = cc_for(label)
        dvee = cc.ctx.delta_vee_coroot
        for root in roots_up_to_level(cc.ctx, 2):
            if not cc.ctx.is_real_root(root) or cc.phi(root) != 0:
                continue
            assert euler(cc, cc.ctx.coroot_coords(root), cc.ctx.delta) == 0
            assert euler(cc, dvee, root) == 0


def test_euler_on_tube_simples():
    for label in ("D3(2)", "C3(1)", "D4(2)", "G2(1)"):
        cc = cc_for(label)
        for comp in cc.components:
            for b1 in comp.cycle:
                for b2 in comp.cycle:
                    val = euler(cc, cc.ctx.coroot_coords(b1), b2)
                    if b2 == b1:
                        assert val == 1
                    elif b2 == cc.c_inverse_action(b1):
                        assert val == -1
                    else:
                        assert val == 0


def test_phi_proportional_to_antisymmetrized_weight_sum():
    for label in ("A1(1)", "A2(1):k=1", "D3(2)", "G2(1)", "B3(1)"):
        cc = cc_for(label)
        n = cc.n
        a, delta = cc.cm.a, cc.ctx.delta
        ref = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                ref[i] += delta[j] * a[i][j]
                ref[j] -= delta[i] * a[j][i]
        # phi in weight coordinates must be a negative multiple of ref
        ratios = [Fraction(w) / Fraction(r)
                  for w, r in zip(cc.phi_weight, ref) if r != 0 or w != 0]
        assert all(r == ratios[0] for r in ratios)
        assert ratios[0] < 0


def test_tube_simples_transported_by_moves():
    for label in ("D3(2)", "C3(1)", "B3(1)"):
        cc = cc_for(label)
        for s in (cc.word[0], cc.word[-1]):
            moved = cc.source_sink_move(s)
            image = {cc.cm.reflect(s, r) for comp in cc.components for r in comp.cycle}
            theirs = {r for comp in moved.components for r in comp.cycle}
            assert image == theirs


def test_table_spot_checks():
    cc = cc_for("G2(1)")
    assert set(cc.fin_simples) == {(1, 1, 0)}
    cc = cc_for("B4(1)")   # rank 5: last listed simple is the full fin sum
    assert tuple(1 if i < 4 else 0 for i in range(5)) in set(cc.fin_simples)
    cc = cc_for("D3(2)")
    assert len(cc.components) == 1 and cc.components[0].rank == 2


def test_component_cycles_sum_to_delta_multiples():
    for label in ("A2(1):k=1", "C3(1)", "D3(2)", "D4(3)", "A5(2)", "E6(1)"):
        cc = cc_for(label)
        for comp in cc.components:
            total = [0] * cc.n
            for r in comp.cycle:
                total = [a + b for a, b in zip(total, r)]
            assert tuple(total) == tuple(comp.delta_multiple * x for x in cc.ctx.delta)
            # c rotates the cycle
            for p, r in enumerate(comp.cycle):
                assert cc.c_action(r) == comp.cycle[(p + 1) % comp.rank]


def test_untwisted_multiplier_is_one():
    for label in ("A2(1):k=1", "C2(1)", "G2(1)", "B3(1)", "E6(1)"):
        cc = cc_for(label)
        assert all(comp.delta_multiple == 1 for comp in cc.components)


def test_kappa_minimality():
    for label in ("G2(1)", "D3(2)", "D4(3)", "A6(2)"):
        cc = cc_for(label)
        for beta, k in cc.kappa.items():
            target = tuple(k * d - b for d, b in zip(cc.ctx.delta, beta))
            assert cc.ctx.is_root(target)
            for smaller in range(1, k):
                cand = tuple(smaller * d - b for d, b in zip(cc.ctx.delta, beta))
                assert not cc.ctx.is_root(cand)


def test_sigma_involution_and_fixed_points():
    rng = random.Random(5)
    for label in ("D3(2)", "A4(2)"):
        cc = cc_for(label)
        s = cc.word[0]
        neg_other = tuple(-1 if j == (s + 1) % cc.n else 0 for j in range(cc.n))
        assert cc.sigma(s, neg_other) == neg_other
        neg_s = tuple(-1 if j == s else 0 for j in range(cc.n))
        assert cc.sigma(s, neg_s) == tuple(-x for x in neg_s)
        pool = [r for r in roots_up_to_level(cc.ctx, 2)
                if all(x >= 0 for x in r) or cc.neg_simple_index(r) is not None]
        for _ in range(100):
            v = pool[rng.randrange(len(pool))]
            assert cc.sigma(s, cc.sigma(s, v)) == v
        with pytest.raises(NotAlmostPositive):
            cc.sigma(s, tuple(-x for x in cc.ctx.delta))


def test_sigma_rejects_a_letter_out_of_range():
    cc = cc_for("D3(2)")
    assert cc.sigma(cc.n - 1, (0, 0, 1)) == (0, 0, -1)
    for s in (-1, cc.n):
        with pytest.raises(IndexOutOfRange, match="out of range 1..3"):
            cc.sigma(s, (0, 0, 1))


def test_vectors_of_the_wrong_length_are_no_roots():
    cc = cc_for("D3(2)")
    ctx, n = cc.ctx, cc.n
    members = [r for r in roots_up_to_level(ctx, 1) if cc.phi_c_class(r) is not None]
    probes = {p for v in members for p in (v[:-1], v + (0,), v + (5,))} | {(0,) * n + (5,)}
    for p in probes:
        assert not ctx.is_real_root(p) and not ctx.is_imaginary_root(p), p
        assert cc.phi_c_class(p) is None, p
        with pytest.raises(NotInPhiC):
            cc.member(p)
        for s in range(n):
            with pytest.raises(NotAlmostPositive):
                cc.sigma(s, p)


def test_tau_cases():
    cc = cc_for("A1(1)")
    assert cc.tau(cc.ctx.delta) == cc.ctx.delta
    assert cc.tau((-1, 0)) == (1, 0)            # psi-to of the first letter
    assert cc.tau((1, 0)) == (3, 2)
    assert reference_tau(cc, cc.tau((1, 0)), True) == (1, 0)
    assert cc.tau(cc.psi_from[0]) == (-1, 0)
    with pytest.raises(NotInPhiC):
        cc.tau((2, 2))


def test_tau_round_trip_on_pool():
    for label in ("D3(2)", "G2(1)"):
        cc = cc_for(label)
        pool = [r for r in roots_up_to_level(cc.ctx, 2)
                if cc.phi_c_class(r) is not None]
        for v in pool:
            assert reference_tau(cc, cc.tau(v), True) == v
            assert cc.tau(reference_tau(cc, v, True)) == v


@settings(max_examples=30, deadline=None)
@given(coxeter_contexts(), st.data())
def test_memoized_deformed_maps_match_the_unmemoized_ones(cc, data):
    # the shared context is warm: its memos already hold earlier images,
    # and each call below is made twice, once to fill and once to hit
    pool = [r for r in roots_up_to_level(cc.ctx, 2)
            if min(r) >= 0 or cc.neg_simple_index(r) is not None]
    for v in data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20)):
        for s in range(cc.n):
            assert cc.sigma(s, v) == cc.sigma(s, v) == deformed_reflection(cc.cm, s, v)
        if cc.phi_c_class(v) is not None:
            assert cc.tau(v) == cc.tau(v) == reference_tau(cc, v)
            assert cc.tau(reference_tau(cc, v, True)) == v
    # a hit skips the -Π ∪ Φ+ check, so a warm memo must still reject
    for _ in range(2):
        with pytest.raises(NotAlmostPositive):
            cc.sigma(cc.word[0], tuple(-x for x in cc.ctx.delta))
        for s in (-1, cc.n):
            with pytest.raises(IndexOutOfRange):
                cc.sigma(s, pool[0])


def test_orbit_classification():
    cc = cc_for("D3(2)")
    assert cc.orbit_classification(cc.ctx.delta) == ("delta", cc.ctx.delta, 0)
    neg = (-1, 0, 0)
    assert cc.orbit_classification(neg) == ("infinite", neg, 0)
    for tube in cc.tube_roots():
        kind, rep, power = cc.orbit_classification(tube)
        assert kind == "finite"
        assert rep in cc.kappa
        # the orbit closes after the component rank
        cur = tube
        for _ in range(2):
            cur = cc.c_action(cur)
        assert cur == tube
    # transversal powers are consistent
    beta = cc.psi_to[1]
    kind, rep, power = cc.orbit_classification(beta)
    assert kind == "infinite" and power > 0
    for _ in range(power):
        rep = cc.tau(rep)
    assert rep == beta


def reference_orbit_walk(cc, v):
    """(kind, representative, power) of a transient root by the walk with
    no memo: reference_tau^{±1} toward the negative simple on its side of
    phi = 0, each step admitted again."""
    inverse, sign = (True, 1) if cc.phi(v) > 0 else (False, -1)
    cur = v
    for m in range(1, 4 * cc.m_bound + 8 * sum(abs(x) for x in v) + 8):
        cur = reference_tau(cc, cc.member(cur)[0], inverse)
        if cc.neg_simple_index(cur) is not None:
            return ("infinite", cur, sign * m)
    raise AssertionError("infinite-orbit walk exhausted")


@settings(max_examples=30, deadline=None)
@given(coxeter_contexts())
def test_orbit_walk_matches_the_unmemoized_walk(warm):
    # the shared context is warm, the fresh one cold
    fresh = CoxeterContext(warm.ctx, warm.word)
    transient = [v for v in ap.enumerate_phi_c(warm, 3) if warm.phi_c_class(v) == TRANSIENT]
    assert transient
    for v in transient:
        expected = reference_orbit_walk(warm, v)
        for cc in (warm, fresh, warm):
            assert cc.orbit_classification(v) == expected, (cc.word, v)


def test_orbit_classification_admits_its_argument_once(monkeypatch):
    # the walk applies c^∓1 to the roots it holds: one admission, and no
    # entry in any table of the context but at most one membership record,
    # whatever its length
    def entries(cc):
        return sum(len(table) for table in vars(cc).values() if isinstance(table, dict))

    for k in (10, 100, 1000):
        for j in (0, 2):    # phi(α_1) > 0 > phi(α_3) in B3(1)
            cc = cc_for("B3(1)")
            v = tuple(int(i == j) + k * d for i, d in enumerate(cc.ctx.delta))
            before = entries(cc)
            calls = count_member_calls(monkeypatch, cc)
            kind, _, power = cc.orbit_classification(v)
            assert kind == "infinite" and abs(power) > k, (k, power)
            assert calls == [v], k
            assert entries(cc) <= before + 1, k


def test_tube_orbit_powers_reach_their_representative():
    rng = random.Random(53)
    for label in catalog_labels(6):
        ctx, word = affine_for(label)
        for w in (word, tuple(rng.sample(word, len(word)))):
            cc = CoxeterContext(ctx, w)
            for tube in cc.tube_roots():
                kind, rep, power = cc.orbit_classification(tube)
                rank = cc.components[cc.tube_arcs[tube][0]].rank
                assert kind == "finite" and rep in cc.kappa, (label, w, tube)
                assert 0 <= power < rank, (label, w, tube)
                cur = tube
                for _ in range(power):
                    cur = cc.c_inverse_action(cur)
                assert cur == rep, (label, w, tube)


def test_orbit_power_matches_hyperplane_side():
    # the functional of the eigenvector is positive exactly on the forward
    # side of each infinite orbit
    for label in ("D3(2)", "A4(2)"):
        cc = cc_for(label)
        for i in range(cc.n):
            neg = tuple(-1 if j == i else 0 for j in range(cc.n))
            cur = neg
            for m in range(1, 6):
                cur = cc.tau(cur)
                assert cc.phi(cur) > 0, (label, i, m)
            cur = neg
            for m in range(1, 6):
                cur = reference_tau(cc, cur, True)
                assert cc.phi(cur) < 0, (label, i, m)


def _orientation_counts_by_enumeration(cm):
    """Reference for source_sink_counts: build every orientation of the
    Dynkin diagram, keep the acyclic ones and join them under source/sink
    flips; returns (acyclic orientations, flip classes)."""
    n = cm.n
    diagram = [(i, j) for i in range(n) for j in range(i + 1, n) if cm.a[i][j] != 0]

    def acyclic(orient):
        succ = {i: [j for a, j in orient if a == i] for i in range(n)}
        seen, done = set(), set()

        def dfs(u):
            seen.add(u)
            for w in succ[u]:
                if w in seen and w not in done:
                    return False
                if w not in seen and not dfs(w):
                    return False
            done.add(u)
            return True

        return all(dfs(u) for u in range(n) if u not in seen)

    vertices = set()
    for mask in range(1 << len(diagram)):
        orient = frozenset(
            (j, i) if (mask >> e) & 1 else (i, j) for e, (i, j) in enumerate(diagram)
        )
        if acyclic(orient):
            vertices.add(orient)

    def flips(orient):
        outs = {i for i, _ in orient}
        ins = {j for _, j in orient}
        for v in range(n):
            if v not in ins or v not in outs:  # a source or a sink
                yield frozenset((j, i) if v in (i, j) else (i, j) for i, j in orient)

    classes = 0
    unseen = set(vertices)
    while unseen:
        classes += 1
        stack = [unseen.pop()]
        while stack:
            for other in flips(stack.pop()):
                if other in unseen:
                    unseen.remove(other)
                    stack.append(other)
    return len(vertices), classes


def test_source_sink_counts_match_enumeration_in_every_node_order():
    rng = random.Random(59)
    for label in catalog_labels(9):
        cm, aff, _ = catalog(label)
        shuffled = list(range(cm.n))
        rng.shuffle(shuffled)
        for order in (list(range(cm.n)), list(range(cm.n))[::-1], shuffled):
            raw = [[cm.a[p][q] for q in order] for p in order]
            ctx = AffineContext(validate_cartan(raw),
                                aff=None if aff is None else order.index(aff))
            assert source_sink_counts(ctx) == _orientation_counts_by_enumeration(ctx.cm), \
                (label, order)


def test_rank_20_cycle_builds_without_enumerating_orientations():
    n = 20
    raw = [[2 if i == j else (-1 if (i - j) % n in (1, n - 1) else 0) for j in range(n)]
           for i in range(n)]
    cc = CoxeterContext(AffineContext(validate_cartan(raw)), tuple(range(n)))
    ranks = [comp.rank for comp in cc.components]
    assert cc.m_bound == 2 ** n - 2 + n * lcm(*ranks)


def test_source_sink_move_rejects_a_middle_letter():
    cc = cc_for("A2(1):k=1")
    with pytest.raises(IndexOutOfRange, match="neither initial nor final"):
        cc.source_sink_move(1)


def test_coxeter_words_validate():
    ctx, _ = affine_for("D3(2)")
    with pytest.raises(Exception):
        CoxeterContext(ctx, (0, 0, 1))
    alt = CoxeterContext(ctx, (2, 1, 0))
    assert alt.c_action(ctx.delta) == ctx.delta


def reflection_product(cm, word):
    """c = s_{w_1}···s_{w_n}, column by column: each simple root is reflected
    by the letters from the last to the first."""
    columns = []
    for j in range(cm.n):
        v = tuple(int(i == j) for i in range(cm.n))
        for s in reversed(word):
            v = cm.reflect(s, v)
        columns.append(v)
    return tuple(zip(*columns))


def reference_kappa(cc, beta):
    """Least m ≥ 1 with m·delta - beta real, by search: -beta is real, so m
    is at most the period of the real roots."""
    ctx = cc.ctx
    for m in range(1, ctx.period):
        if ctx.is_real_root(tuple(m * dx - bx for dx, bx in zip(ctx.delta, beta))):
            return m
    return ctx.period


def phi_zero_simples(cc):
    """Simple roots of the finite-orbit subsystem by the all-pairs scan: the
    positive roots on which phi vanishes that are no sum of two others."""
    ctx = cc.ctx
    ups = {r for r in finite_positive_roots(cc.cm, [j for j in range(cc.n) if j != ctx.aff])
           if cc.phi(r) == 0}
    return {r for r in ups
            if not any(tuple(a - b for a, b in zip(r, s)) in ups for s in ups if s != r)}


def assert_construction_invariants(cc, where):
    """The invariants the context construction relies on but does not check;
    `where` names the context in a failure."""
    ctx, n = cc.ctx, cc.n
    assert (action_matrix(cc.c_action, n) == reflection_product(cc.cm, cc.word)
            == DenseWordOrder(cc).coxeter()), where
    assert cc.c_action(ctx.delta) == ctx.delta, where
    # gamma exists: (c - 1)·gamma = delta with gamma_aff = 0
    gamma = cc.gamma()
    assert gamma is not None and gamma[ctx.aff] == 0, where
    assert tuple(a - b for a, b in zip(cc.c_action(gamma), gamma)) == ctx.delta, where
    assert any(cc.phi_weight), where
    for i in range(n):
        assert cc.phi(cc.psi_to[i]) > 0 > cc.phi(cc.psi_from[i]), (where, i)
    assert len(cc.fin_simples) == n - 2, where
    assert set(cc.fin_simples) == phi_zero_simples(cc), where
    for comp in cc.components:
        assert len(set(comp.cycle)) == comp.rank, where
        assert [p for p, r in enumerate(comp.cycle) if r[ctx.aff]] == [comp.affine_pos], where
        for p, r in enumerate(comp.cycle):
            assert cc.c_action(r) == comp.cycle[(p + 1) % comp.rank], where
        total = [sum(col) for col in zip(*comp.cycle)]
        assert total == [comp.delta_multiple * x for x in ctx.delta], where
    assert cc.kappa == {w: reference_kappa(cc, w) for w in cc.omega}, where


def test_construction_invariants_on_every_catalog_type():
    rng = random.Random(41)
    for label in catalog_labels(9):
        ctx, word = affine_for(label)
        shuffled = list(word)
        rng.shuffle(shuffled)
        for w in (word, word[::-1], tuple(shuffled)):
            assert_construction_invariants(CoxeterContext(ctx, w), (label, w))


@settings(max_examples=60, deadline=None)
@given(coxeter_contexts())
def test_construction_invariants_over_random_coxeter_words(cc):
    assert_construction_invariants(cc, (cc.cm.a, cc.word))


def assert_word_order_readers_match_the_dense_reference(cc, rng, where):
    """Everything read off `lower` and `upper`, and the reflection walks,
    against the readers built from the positions of the letters; values are
    compared with their types (an int is not a Fraction)."""
    ref = DenseWordOrder(cc)
    assert unitriangular(cc.lower) == ref.E, where
    assert unitriangular(cc.upper) == ref.E_inverse_word, where
    c, c_inverse = ref.coxeter(), ref.coxeter(inverse_element=True)
    assert action_matrix(cc.c_action, cc.n) == reflection_product(cc.cm, cc.word) == c, where
    assert (action_matrix(cc.c_inverse_action, cc.n)
            == reflection_product(cc.cm, cc.word[::-1]) == c_inverse), where
    assert repr((cc.psi_to, cc.psi_from)) == repr((ref.psi(True), ref.psi(False))), where
    assert [s for s in cc.word if not cc.lower[s]] == word_sources(cc.cm, cc.word), where
    assert ([s for s in reversed(cc.word) if not cc.upper[s]]
            == word_sources(cc.cm, cc.word[::-1])), where
    for s in {cc.word[0], cc.word[len(cc.word) // 2], cc.word[-1], -1, cc.n}:
        got = outcome(lambda s: cc.source_sink_move(s).word, s)
        assert got == outcome(ref.source_sink_move, s), (where, s)
    roots = roots_up_to_level(cc.ctx, 1)
    pool = [r for r in rng.sample(roots, min(30, len(roots))) if cc.phi_c_class(r) is not None]
    for a in pool:
        for b in pool:
            assert repr(compat_arrows(cc, a, b)) == repr(ref.arrows(a, b)), (where, a, b)
    for _ in range(10):
        v = rand_vec(rng, cc.n)
        assert repr(cc.c_action(v)) == repr(mat_vec(c, v)), (where, v)
        assert repr(cc.c_inverse_action(v)) == repr(mat_vec(c_inverse, v)), (where, v)
        w = nu(cc, v)
        assert repr(w) == repr(ref.nu(v)), (where, v)
        assert repr(nu_inverse(cc, w)) == repr(ref.nu_inverse(w)), (where, w)
        assert repr(nu_inverse(cc, v)) == repr(ref.nu_inverse(v)), (where, v)


def test_word_order_readers_match_the_dense_reference_over_the_catalog():
    rng = random.Random(53)
    for label in catalog_labels(9):
        ctx, word = affine_for(label)
        for w in (word, word[::-1], tuple(rng.sample(word, len(word)))):
            assert_word_order_readers_match_the_dense_reference(
                CoxeterContext(ctx, w), rng, (label, w))


@settings(max_examples=60, deadline=None)
@given(coxeter_contexts(), st.randoms(use_true_random=False))
def test_word_order_readers_match_the_dense_reference_over_random_words(cc, rng):
    assert_word_order_readers_match_the_dense_reference(cc, rng, (cc.cm.a, cc.word))


def assert_matches_the_solved_reference(cc, where):
    """gamma, phi_c and delta^vee against the dense solve and the kernel of
    the transpose, compared by repr so that entry types count."""
    assert repr((cc.gamma(), cc._phi_fun, cc.phi_weight)) == repr(solved_phi(cc)), where
    assert repr(cc.ctx.delta_vee_coroot) == repr(kernel_delta_vee_coroot(cc.cm)), where


def test_phi_and_delta_vee_match_the_solved_reference_over_the_catalog():
    for label in catalog_labels(12):
        ctx, word = affine_for(label)
        rng = random.Random(label)
        for w in (word, tuple(rng.sample(word, len(word))), tuple(rng.sample(word, len(word)))):
            assert_matches_the_solved_reference(CoxeterContext(ctx, w), (label, w))


@settings(max_examples=60, deadline=None)
@given(coxeter_contexts())
def test_phi_and_delta_vee_match_the_solved_reference_over_random_words(cc):
    assert_matches_the_solved_reference(cc, (cc.cm.a, cc.word))


def test_catalog_context_construction_runs_two_eliminations(monkeypatch):
    # the kernel of A in classify and the hyperplane inverse; gamma, phi and
    # delta^vee come without a solve or a dense product
    originals = {name: getattr(linalg, name)
                 for name in ("kernel_basis", "inverse", "solve_general", "mat_vec")}
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for module in [m for key, m in sys.modules.items() if key.startswith("aproots")]:
        for name, f in originals.items():
            if getattr(module, name, None) is f:
                monkeypatch.setattr(module, name, counted(name, f))
    for label in ("A1(1)", "D3(2)", "G2(1)", "E6(1)", "A5(1):k=2", "A8(2)"):
        calls.clear()
        ctx, word = context_from_label(label)
        CoxeterContext(ctx, word)
        assert dict(calls) == {"kernel_basis": 1, "inverse": 1}, label


def reference_omega(cc):
    """ω with each reflection s_β(v) = v - (2·K(β, v)/K(β, β))·β formed
    through Fraction pairings, the construction before int arithmetic."""
    def reflect_in(beta, v):
        t = Fraction(2) * cc.ctx.k(beta, v) / cc.ctx.k(beta, beta)
        return tuple(a - t * b for a, b in zip(v, beta))

    ordered = []
    for comp in cc.components:
        k = comp.rank
        start = (comp.affine_pos + 1) % k
        ordered.extend(comp.cycle[(start + t) % k] for t in range(k - 1))
    omega = []
    for i, beta in enumerate(ordered):
        v = beta
        for b in reversed(ordered[:i]):
            v = reflect_in(b, v)
        omega.append(v)
    return tuple(omega)


def test_omega_reflects_in_int_arithmetic_like_the_fraction_reference():
    rng = random.Random(47)
    for label in catalog_labels(9):
        ctx, word = affine_for(label)
        for w in (word, word[::-1], tuple(rng.sample(word, len(word)))):
            cc = CoxeterContext(ctx, w)
            omega = reference_omega(cc)
            assert cc.omega == omega, (label, w)
            assert all(type(x) is int for v in cc.omega for x in v)
