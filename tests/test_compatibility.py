"""Compatibility degree: computation paths and structural laws."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aproots import almost_positive as ap
from aproots import compatibility as compat
from aproots.cartan import AffineContext, catalog_labels, validate_cartan
from aproots.coxeter import TUBE, CoxeterContext
from aproots.errors import DeltaHasNoTubeSupport, NotDistinct, NotInPhiC, NotInTube
from aproots.linalg import vec
from aproots.roots import roots_up_to_level

from strategies import (
    FrozensetArcs, affine_for, cc_for, count_member_calls, coxeter_contexts, euler, gram, outcome)


def pool_for(cc, level=2):
    return [r for r in roots_up_to_level(cc.ctx, level)
            if cc.phi_c_class(r) is not None]


# the forms a caller may pass a root in; the canonical tuple comes last, so a
# cold context meets the other forms first
ROOT_FORMS = (list, lambda v: tuple(Fraction(x) for x in v), tuple)


@settings(max_examples=30, deadline=None)
@given(coxeter_contexts(), st.data())
def test_root_forms_agree_and_degree_is_tau_and_sigma_invariant(warm, data):
    pool = pool_for(warm)
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                               min_size=1, max_size=4))
    fresh = CoxeterContext(warm.ctx, warm.word)
    first = warm.word[0]
    for a, b in pairs:
        # repr tells an int from an integral Fraction
        results = {
            repr((cc.phi_c_class(f(a)), compat.coroot_coordinates(cc, f(a)),
                  compat.compatibility_degree(cc, f(a), f(b)), compat.degree(cc, f(a), f(b)),
                  cc.tau(f(a)), cc.sigma(first, f(a)),
                  cc.orbit_classification(f(a))))
            for cc in (fresh, warm) for f in ROOT_FORMS
        }
        assert len(results) == 1, (a, b, results)
    moved = {s: warm.source_sink_move(s) for s in (warm.word[0], warm.word[-1])}
    for a, b in pairs:
        d = compat.degree(warm, a, b)
        assert compat.degree(warm, warm.tau(a), warm.tau(b)) == d
        for s, other in moved.items():
            assert compat.degree(other, warm.sigma(s, a), warm.sigma(s, b)) == d


def test_worked_example():
    cc = cc_for("D3(2)")
    value = compat.compatibility_degree(cc, (2, 1, 0), (0, 1, 0))
    assert value.arrow_to == -1
    assert value.arrow_from == 1
    assert value.degree == 1
    assert value.branch == "coordinate-max"


def test_tube_support_and_errors():
    cc = cc_for("D3(2)")
    sup = compat.tube_support(cc, (0, 1, 0))
    assert len(sup.arc) == 1 < cc.components[sup.component].rank
    sup2 = compat.tube_support(cc, (2, 1, 2))
    assert len(sup2.arc) == 1
    with pytest.raises(DeltaHasNoTubeSupport):
        compat.tube_support(cc, (1, 1, 1))
    with pytest.raises(NotInTube, match=r"^\(1, 0, 0\) is not a tube root$"):
        compat.tube_support(cc, (1, 0, 0))
    # affine tube simple has a singleton arc
    comp = cc.components[0]
    assert len(compat.tube_support(cc, comp.affine_simple).arc) == 1


def test_tube_table_arcs_are_proper_and_sum_to_their_roots():
    for label in catalog_labels(6):
        ctx, word = affine_for(label)
        for w in (word, tuple(word)[::-1]):
            cc = CoxeterContext(ctx, w)
            assert cc.arc_roots == {arc: root for root, arc in cc.tube_arcs.items()}
            for ci, comp in enumerate(cc.components):
                k = comp.rank
                entries = [(r, s, l) for r, (cj, s, l) in cc.tube_arcs.items() if cj == ci]
                assert len(entries) == k * (k - 1), (label, w)
                for root, start, length in entries:
                    assert 0 <= start < k and 0 < length < k, (label, w, root)
                    arc = frozenset((start + t) % k for t in range(length))
                    total = vec(sum(comp.cycle[p][i] for p in arc) for i in range(cc.n))
                    assert total == root, (label, w, root)
                    assert compat.tube_support(cc, root) == compat.TubeSupport(ci, arc)
                    with pytest.raises(NotInTube):
                        compat.tube_support(cc, vec(a + d for a, d in zip(root, ctx.delta)))


def _assert_arc_rules_match_reference(cc):
    ref = FrozensetArcs(cc)
    tubes = cc.tube_roots()
    d = cc.ctx.delta
    extra = [d, vec(-x for x in d), vec([1, -1] + [0] * (cc.n - 2))]
    for v in tubes + extra:
        want = outcome(lambda v: compat.TubeSupport(*ref.arc(v)), v)
        assert outcome(compat.tube_support, cc, v) == want, v
        if v in ref.table:
            assert cc.orbit_classification(v) == ref.orbit(v), v
    pairs = [(a, b) for a in tubes for b in tubes]
    pairs += [(x, y) for x in extra for y in tubes + extra]
    pairs += [(y, x) for x in extra for y in tubes]
    for a, b in pairs:
        for new, old in ((compat.compat_circ, ref.compat_circ),
                         (compat.adjacency_count, ref.adjacency_count),
                         (compat._joint_component_full, ref.joint_full)):
            assert outcome(new, cc, a, b) == outcome(old, a, b), (new.__name__, a, b)


def test_arc_rules_match_the_frozenset_reference_over_the_catalog():
    rng = random.Random(19)
    for label in catalog_labels(9):
        ctx, word = affine_for(label)
        for w in (word, tuple(rng.sample(word, len(word)))):
            cc = CoxeterContext(ctx, w)
            _assert_arc_rules_match_reference(cc)


@settings(max_examples=30, deadline=None)
@given(coxeter_contexts())
def test_arc_rules_match_the_frozenset_reference(cc):
    _assert_arc_rules_match_reference(cc)


def test_compat_circ_looks_up_both_arcs_before_comparing():
    cc = cc_for("D3(2)")
    d = cc.ctx.delta
    for a, b in (((9, 9, 9), (9, 9, 9)), (d, d), (d, (0, 1, 0))):
        with pytest.raises(DeltaHasNoTubeSupport):
            compat.compat_circ(cc, a, b)
    with pytest.raises(NotInTube, match=r"^\(1, -1, 0\) is not a tube root$"):
        compat.compat_circ(cc, (1, -1, 0), (1, -1, 0))
    # a tube root with itself is -1, as the degree is
    tube = (0, 1, 0)
    assert compat.compat_circ(cc, tube, tube) == -1 == compat.degree(cc, tube, tube)


def test_tube_rules_take_every_root_form():
    cc = cc_for("A3(1):k=1")
    tubes = cc.tube_roots()
    for rule in (compat.compat_circ, compat.adjacency_count):
        for a, b in product(tubes, repeat=2):
            expected = rule(cc, a, b)
            assert all(rule(cc, f(a), f(b)) == expected for f in ROOT_FORMS), (rule, a, b)
        for f in ROOT_FORMS:
            with pytest.raises(NotInTube, match=r"^\(1, 0, 0, 0\) is not a tube root$"):
                rule(cc, tubes[0], f((1, 0, 0, 0)))


def test_degree_admits_each_root_once(monkeypatch):
    # compat_arrows is the degree's one admission; a tube pair needs none
    cc = cc_for("A3(1):k=1")
    calls = count_member_calls(monkeypatch, cc)
    a, b = (-1, 0, 0, 0), cc.psi_to[1]
    assert compat.compatibility_degree(cc, a, b).branch == "coordinate-max"
    assert calls == [a, b]
    full = [(x, y) for x, y in permutations(cc.tube_roots(), 2)
            if compat._joint_component_full(cc, x, y)]
    assert full
    for x, y in full:
        calls.clear()
        assert compat.compatibility_degree(cc, x, y).branch == "tube-adjacency"
        assert calls == [], (x, y)
    compat.degree(cc, a, b)
    calls.clear()
    compat.degree(cc, a, b)
    assert calls == []
    tube = cc.tube_roots()[0]
    with pytest.raises(NotInPhiC):
        compat.compatibility_degree(cc, tube, (1, -1, 0, 0))


def test_adjacency_counts_on_three_cycle():
    cc = cc_for("C3(1)")
    comp = cc.components[0]
    assert comp.rank == 3
    arcs = {}
    for start in range(3):
        for length in (1, 2):
            total = [0] * cc.n
            for t in range(length):
                total = [a + b for a, b in zip(total, comp.cycle[(start + t) % 3])]
            arcs[(start, length)] = tuple(total)
    # nested pair: degree 0 whatever adjacency says
    inner, outer = arcs[(0, 1)], arcs[(0, 2)]
    assert compat.degree(cc, inner, outer) == 0
    # one-side overlap: adjacency 1
    a, b = arcs[(0, 2)], arcs[(1, 2)]
    assert compat.adjacency_count(cc, a, b) == 1
    assert compat.degree(cc, a, b) == 1
    # single arcs of a three-cycle around opposite sides: adjacent on both
    # sides means joint support is component-full and count is 2
    s0, s12 = arcs[(0, 1)], arcs[(1, 2)]
    assert compat.adjacency_count(cc, s0, s12) == 2
    assert compat.degree(cc, s0, s12) == 2


def test_cross_component_adjacency_is_zero():
    cc = cc_for("B3(1)")
    c1, c2 = cc.components
    assert compat.adjacency_count(cc, c1.cycle[0], c2.cycle[0]) == 0
    assert compat.degree(cc, c1.cycle[0], c2.cycle[0]) == 0


def test_arrow_special_cases():
    cc = cc_for("D3(2)")
    for beta in pool_for(cc):
        to, frm = compat.compat_arrows(cc, (-1, 0, 0), beta)
        assert to == frm == beta[0]
    for alpha in pool_for(cc):
        cv = compat.coroot_coordinates(cc, alpha)
        to, frm = compat.compat_arrows(cc, alpha, (0, -1, 0))
        assert to == frm == cv[1]


def test_arrows_match_euler_forms_on_positive_pairs():
    for label in ("D3(2)", "G2(1)"):
        cc = cc_for(label)
        inv = CoxeterContext(cc.ctx, cc.word[::-1])
        positives = [r for r in pool_for(cc) if all(x >= 0 for x in r)]
        for a in positives:
            cv = compat.coroot_coordinates(cc, a)
            for b in positives:
                to, frm = compat.compat_arrows(cc, a, b)
                assert to == -euler(cc, cv, b)
                assert frm == -euler(inv, cv, b)


def test_diagonal_values():
    cc = cc_for("A4(2)")
    d = cc.ctx.delta
    assert compat.degree(cc, d, d) == 0
    for r in pool_for(cc):
        if r != d:
            assert compat.degree(cc, r, r) == -1


def test_degree_lower_bound_off_diagonal():
    for label in ("D3(2)", "A2(2)"):
        cc = cc_for(label)
        pool = pool_for(cc)
        for a, b in combinations(pool, 2):
            assert compat.degree(cc, a, b) > -1


def test_compatibility_predicate():
    cc = cc_for("D3(2)")
    assert compat.is_compatible(cc, (-1, 0, 0), (0, -1, 0))
    assert compat.is_compatible(cc, (1, 1, 1), (0, 1, 0))
    assert not compat.is_compatible(cc, (1, 1, 1), (0, -1, 0))
    with pytest.raises(NotDistinct, match="must differ"):
        compat.is_compatible(cc, (1, 0, 0), (1, 0, 0))
    with pytest.raises(NotInPhiC, match="not in the almost-positive set"):
        compat.degree(cc, (9, 9, 9), (1, 0, 0))


def test_inverse_element_gives_same_degree():
    for label in ("D3(2)", "G2(1)", "A4(2)"):
        cc = cc_for(label)
        inv = CoxeterContext(cc.ctx, cc.word[::-1])
        pool = pool_for(cc)
        for a, b in combinations(pool, 2):
            assert compat.degree(cc, a, b) == compat.degree(inv, a, b)


def test_duality_through_coroots():
    # degree(a, b) here equals degree(b^vee, a^vee) in the dual system,
    # away from the joint-full tube exception
    for label in ("D3(2)", "C2(1)", "A4(2)"):
        cc = cc_for(label)
        dual_ctx = AffineContext(validate_cartan([list(r) for r in zip(*cc.cm.a)]))
        dd = CoxeterContext(dual_ctx, cc.word)
        pool = pool_for(cc)
        for a, b in combinations(pool, 2):
            both_tube = (cc.phi_c_class(a) == TUBE and cc.phi_c_class(b) == TUBE)
            if both_tube and compat._joint_component_full(cc, a, b):
                va = compat.degree(cc, a, b)
                assert va in (1, 2)
                continue
            av = _dual_vector(cc, a)
            bv = _dual_vector(cc, b)
            assert compat.degree(cc, a, b) == compat.degree(dd, bv, av), (a, b)


def _dual_vector(cc, v):
    # coroot coordinates, which are root coordinates in the dual system
    cls = cc.phi_c_class(v)
    if cc.neg_simple_index(v) is not None:
        return v
    return compat.coroot_coordinates(cc, v)


def test_symmetrization_law():
    for label in ("D3(2)", "G2(1)"):
        cc = cc_for(label)
        pool = [r for r in pool_for(cc) if r != cc.ctx.delta]
        for a, b in combinations(pool, 2):
            if (cc.phi_c_class(a) == TUBE and cc.phi_c_class(b) == TUBE
                    and compat._joint_component_full(cc, a, b)):
                continue
            ka = cc.ctx.k(a, a)
            kb = cc.ctx.k(b, b)
            assert compat.degree(cc, b, a) * kb == compat.degree(cc, a, b) * ka


def test_tube_counting_formula():
    # on finite-orbit pairs the arrows count rotated-support overlaps
    for label in ("C3(1)", "D4(2)", "D3(2)"):
        cc = cc_for(label)
        tubes = cc.tube_roots()
        for a in tubes:
            sa = compat.tube_support(cc, a)
            for b in tubes:
                sb = compat.tube_support(cc, b)
                to, frm = compat.compat_arrows(cc, a, b)
                if sa.component != sb.component:
                    assert to == frm == 0
                    continue
                # derived from the tube values of the Euler form: the first
                # arrow counts backward rotations of the support, the second
                # forward ones (E(γ^vee, c^{-1}γ) = -1 pins the direction)
                comp = cc.components[sa.component]
                fwd = sum(1 for p in sa.arc if (p + 1) % comp.rank in sb.arc)
                bwd = sum(1 for p in sa.arc if (p - 1) % comp.rank in sb.arc)
                overlap = len(sa.arc & sb.arc)
                assert to == bwd - overlap
                assert frm == fwd - overlap
                if not compat._joint_component_full(cc, a, b):
                    assert max(to, frm) == compat.compat_circ(cc, a, b)


def test_axioms_hold_in_exceptional_types_at_level_one():
    from aproots.verification import _axiom_failures, _cc

    for label in ("E6(1)", "F4(1)"):
        failures, pool = _axiom_failures(_cc(label), 1)
        assert not failures, (label, failures[:3])
        assert pool > 50


def test_restriction_to_parabolics():
    # degrees agree with the classical finite-type computation inside every
    # proper parabolic of rank-3 types
    for label in ("A2(1):k=1", "D3(2)", "A4(2)"):
        cc = cc_for(label)
        n = cc.n
        members = ap.enumerate_phi_c(cc, 3)
        for drop in range(n):
            keep = [j for j in range(n) if j != drop]
            sub = [v for v in members
                   if all(v[j] == 0 for j in range(n) if j not in keep)]
            fin_word = [s for s in cc.word if s != drop]
            for a in sub:
                for b in sub:
                    got = compat.degree(cc, a, b)
                    expected = _finite_degree(cc.cm, fin_word, a, b)
                    assert got == expected, (label, drop, a, b)


def _finite_degree(cm, word, alpha, beta):
    """Classical finite-type degree: max of the two arrow sums, computed
    directly from the sub-word positions (independent oracle)."""
    pos = {s: p for p, s in enumerate(word)}
    active = set(word)
    norm = None
    # coroot coordinates inside the parabolic: same formula as ambient
    from aproots.linalg import canon

    k = gram(cm)
    kaa = canon(sum(alpha[i] * sum(k[i][j] * alpha[j] for j in active)
                    for i in active))
    neg = [i for i, x in enumerate(alpha) if x == -1]
    if all(x == 0 for i, x in enumerate(alpha) if i not in neg) and len(neg) == 1:
        cv = [0] * cm.n
        cv[neg[0]] = -1
    else:
        cv = [canon(Fraction(2) * cm.d[i] * alpha[i] / kaa) for i in range(cm.n)]
    base = sum(cv[i] * beta[i] for i in active)
    lower = upper = 0
    for i in active:
        if cv[i] <= 0:
            continue
        for j in active:
            if j == i or beta[j] <= 0 or cm.a[i][j] == 0:
                continue
            term = cm.a[i][j] * cv[i] * beta[j]
            if pos[i] > pos[j]:
                lower += term
            else:
                upper += term
    return max(canon(-base - lower), canon(-base - upper))


def _rescaling_pairs(cc1, cc2, mu, level=3):
    """Map members of cc1's set to cc2's through the basis change
    alpha_i' = mu_i alpha_i plus a per-root positive scalar; returns the map
    and the scalars (the ratio of the two roots as ambient vectors)."""
    pool = pool_for(cc1, level)
    scaled = {}
    factors = {}
    for r in pool:
        converted = vec(Fraction(x) / m for x, m in zip(r, mu))
        for t in (1, 2, Fraction(1, 2), 3, Fraction(1, 3), 4, Fraction(1, 4)):
            cand = vec(t * x for x in converted)
            if cc2.phi_c_class(cand) is not None:
                scaled[r] = cand
                factors[r] = t
                break
        assert r in scaled, r
    return pool, scaled, factors


@pytest.mark.parametrize(
    "label1,label2,mu",
    [("A1(1)", "A2(2)", (2, 1)), ("C2(1)", "D3(2)", (1, 2, 1))],
)
def test_rescaling_law(label1, label2, mu):
    cc1 = cc_for(label1)
    cc2 = cc_for(label2)
    # the two gram forms agree on the common ambient space up to one global
    # scalar, which is the consistency requirement for a rescaling pair
    s = None
    k1, k2 = gram(cc1.cm), gram(cc2.cm)
    for i in range(cc1.n):
        for j in range(cc1.n):
            lhs = Fraction(mu[i]) * mu[j] * k1[i][j]
            rhs = k2[i][j]
            if lhs:
                ratio = Fraction(rhs) / lhs
                assert s is None or s == ratio
                s = ratio
    pool, scaled, factors = _rescaling_pairs(cc1, cc2, mu)
    for a, b in combinations(pool, 2):
        if a == cc1.ctx.delta:
            continue
        lhs = compat.degree(cc2, scaled[a], scaled[b])
        rhs = compat.degree(cc1, a, b) * factors[b] / factors[a]
        assert lhs == rhs, (a, b)
