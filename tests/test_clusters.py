"""Clusters, exchange, enumeration, the weight map, face intersections."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import aproots.cartan as cartan
import aproots.linalg as linalg
from aproots.cartan import catalog_labels, context_from_label
from aproots.clusters import (
    IMAGINARY,
    REAL,
    _component_facets,
    cone_contains,
    cones_intersect_in_face,
    enumerate_clusters,
    exchange,
    imaginary_cluster_spans_hyperplane_lattice,
    imaginary_clusters,
    is_cluster,
    is_exchangeable,
    is_pair_exchangeable_with_delta,
    is_real_exchangeable,
    nu,
    nu_inverse,
    real_clusters,
)
from aproots.compatibility import degree
from aproots.coxeter import DELTA, TUBE, CoxeterContext
from aproots.errors import NotACluster, NotInPhiC, RootNotInCluster
from aproots.expansion import cluster_expansion
from aproots.linalg import canon, cross, det, in_simplicial_cone, vec
from aproots.roots import roots_up_to_level
from aproots.verification import RANK2_LABELS, RANK3_LABELS, RANK4_LABELS

from strategies import (
    FrozensetArcs, affine_for, cc_for, count_member_calls, coxeter_contexts, reference_tau,
    run_here, run_python_O)


def neg_pi(n):
    return tuple(sorted(tuple(-1 if j == i else 0 for j in range(n))
                        for i in range(n)))


def test_is_cluster_basic():
    cc = cc_for("D3(2)")
    kind, _ = is_cluster(cc, neg_pi(3))
    assert kind == REAL
    kind, _ = is_cluster(cc, [(1, 1, 1), (0, 1, 0)])
    assert kind == IMAGINARY
    kind, reason = is_cluster(cc, [(-1, 0, 0), (1, 0, 0)])
    assert kind is None and "degree" in reason
    assert is_cluster(cc, [(-1, 0, 0), (0, -1, 0)]) == (None, "not maximal")
    assert is_cluster(cc, [cc.ctx.delta]) == (None, "imaginary cluster must have 2 roots")
    kind, reason = is_cluster(cc, [(9, 9, 9), (0, 1, 0)])
    assert kind is None


def test_hyperplane_lattice_check_needs_roots_on_the_hyperplane():
    # phi(alpha_1) = 1 in D3(2), so {alpha_1, alpha_2} does not lie on phi = 0
    cc = cc_for("D3(2)")
    assert not imaginary_cluster_spans_hyperplane_lattice(cc, [(1, 0, 0), (0, 1, 0)])
    for label in catalog_labels(6):
        cc = cc_for(label)
        for cl in imaginary_clusters(cc):
            assert imaginary_cluster_spans_hyperplane_lattice(cc, cl), (label, cl)


def test_only_tube_roots_have_degree_zero_with_delta_both_ways():
    # is_cluster relies on this: a compatible set holding delta is delta
    # and tube roots
    rng = random.Random(53)
    for label in catalog_labels(6):
        ctx, word = affine_for(label)
        for w in (word, tuple(rng.sample(word, len(word)))):
            cc = CoxeterContext(ctx, w)
            pool = set(ctx.positive_real_roots(2)) | {
                tuple(-int(j == i) for j in range(cc.n)) for i in range(cc.n)}
            for v in pool:
                if cc.phi_c_class(v) in (None, DELTA, TUBE):
                    continue
                assert (degree(cc, v, ctx.delta), degree(cc, ctx.delta, v)) != (0, 0), \
                    (label, w, v)


def test_pair_exchange_with_delta_skips_imaginary_clusters_holding_a_root():
    cc = cc_for("D3(2)")
    tube = (0, 1, 0)
    assert any(tube in cim for cim in imaginary_clusters(cc))
    assert not is_pair_exchangeable_with_delta(cc, tube, (-1, 0, 0))
    assert not is_pair_exchangeable_with_delta(cc, (0, -1, 0), (0, 0, -1))
    assert is_pair_exchangeable_with_delta(cc, (-1, 0, 0), (0, 0, -1))


def reference_pair_exchangeable_with_delta(cc, alpha, beta):
    """The search the per-component one replaced: every imaginary cluster,
    one facet per component in all combinations, tested by `is_cluster`."""
    alpha, beta = vec(alpha), vec(beta)
    if alpha == beta:
        return False
    for cim in imaginary_clusters(cc):
        rest = tuple(r for r in cim if r != cc.ctx.delta)
        if alpha in rest or beta in rest:
            continue
        kind, _ = is_cluster(cc, tuple(sorted(rest + (alpha, beta))))
        if kind == REAL:
            return True
    return False


def test_pair_exchange_with_delta_matches_the_product_search():
    rng = random.Random(61)
    found = 0
    for label in RANK2_LABELS + RANK3_LABELS + RANK4_LABELS:
        cc = cc_for(label)
        pool = [r for r in roots_up_to_level(cc.ctx, 1) if cc.phi_c_class(r) is not None]
        pairs = [(a, b) for a in pool for b in pool]
        for a, b in rng.sample(pairs, min(300, len(pairs))):
            expected = reference_pair_exchangeable_with_delta(cc, a, b)
            assert is_pair_exchangeable_with_delta(cc, a, b) == expected, (label, a, b)
            found += expected
    assert found


def test_is_exchangeable_names_the_vector_outside_the_set():
    cc = cc_for("D3(2)")
    with pytest.raises(NotInPhiC, match=r"^\(9, 9, 9\) is not in the almost-positive set$"):
        is_exchangeable(cc, (-1, 0, 0), (9, 9, 9))
    # (5, 5) is no root of A2(2), where the search once answered False
    with pytest.raises(NotInPhiC, match=r"^\(5, 5\) is not in the almost-positive set$"):
        is_pair_exchangeable_with_delta(cc_for("A2(2)"), (-1, 0), (5, 5))


def test_is_exchangeable_admits_each_root_once_per_degree(monkeypatch):
    # the degrees are the one admission: two members per direction
    cc = cc_for("D3(2)")
    calls = count_member_calls(monkeypatch, cc)
    a, b = (-1, 0, 0), (1, 0, 0)
    assert is_exchangeable(cc, a, b)
    assert calls == [a, b, b, a]


def test_exchangeability_is_false_with_delta_an_equal_pair_or_a_compatible_pair():
    cc = cc_for("D3(2)")
    a, b, delta = (-1, 0, 0), (0, -1, 0), cc.ctx.delta
    assert is_exchangeable(cc, a, (1, 0, 0)) and is_real_exchangeable(cc, a, (1, 0, 0))
    assert not is_exchangeable(cc, a, delta) and not is_exchangeable(cc, delta, a)
    assert not is_exchangeable(cc, a, a)
    assert degree(cc, a, b) == 0 and not is_real_exchangeable(cc, a, b)
    assert not is_pair_exchangeable_with_delta(cc, a, a)


def test_exchange_basics():
    cc = cc_for("A1(1)")
    cluster = neg_pi(2)
    beta, new = exchange(cc, cluster, (-1, 0))
    assert beta == (1, 0)
    assert new == ((0, -1), (1, 0))
    back, orig = exchange(cc, new, (1, 0))
    assert back == (-1, 0) and orig == cluster
    with pytest.raises(RootNotInCluster):
        exchange(cc, cluster, (1, 1))
    with pytest.raises(NotACluster):
        exchange(cc, [(-1, 0), (1, 0)], (1, 0))


def test_exchange_probe_stops_at_its_cap_on_an_inconsistent_model(monkeypatch):
    # an expansion whose support never covers the facet: the probe raises
    # after a bounded number of doublings instead of running forever
    probes = []

    def no_facet(cc, v):
        probes.append(v)
        return {}

    cc = cc_for("D3(2)")
    monkeypatch.setattr("aproots.clusters.cluster_expansion", no_facet)
    with pytest.raises(AssertionError, match="exchange probe cap exhausted"):
        exchange(cc, neg_pi(3), (-1, 0, 0))
    assert len(probes) == 64 and probes[-1] == [1, -2 ** 64, -2 ** 64]


def test_exchange_is_involutive_across_graph():
    cc = cc_for("D3(2)")
    real = real_clusters(cc, 3)
    for cluster in sorted(real)[:12]:
        for alpha in cluster:
            result = exchange(cc, cluster, alpha)
            assert isinstance(result, tuple) and len(result) == 2
            beta, new = result
            assert degree(cc, alpha, beta) == 1 and degree(cc, beta, alpha) == 1
            back, orig = exchange(cc, new, beta)
            assert back == alpha and orig == cluster


@settings(max_examples=10, deadline=None)
@given(coxeter_contexts())
def test_exchange_over_random_coxeter_words(cc):
    real = real_clusters(cc, 2)
    for cluster in real:
        for alpha in cluster:
            beta, new = exchange(cc, cluster, alpha)
            assert is_cluster(cc, new)[0] == REAL
            assert degree(cc, alpha, beta) == 1 and degree(cc, beta, alpha) == 1
            assert exchange(cc, new, beta) == (alpha, cluster)


def test_enumerate_depth_zero():
    cc = cc_for("G2(1)")
    real, imag = enumerate_clusters(cc, 0)
    assert real == {neg_pi(3)}
    assert len(imag) == 2


def test_enumerate_clusters_pairs_the_real_ball_with_the_imaginary_clusters():
    for label in ("A1(1)", "D3(2)", "A3(1):k=2"):
        cc = cc_for(label)
        for depth in range(3):
            assert enumerate_clusters(cc, depth) == (real_clusters(cc, depth),
                                                     imaginary_clusters(cc)), (label, depth)


def test_imaginary_cluster_counts_match_cyclohedron_facets():
    from math import comb, prod

    for label in catalog_labels(10):
        cc = cc_for(label)
        counts = [comb(2 * comp.rank - 2, comp.rank - 1) for comp in cc.components]
        assert [len(_component_facets(cc, ci)) for ci in range(len(counts))] == counts, label
        assert len(imaginary_clusters(cc)) == prod(counts), label


def test_component_facets_match_the_search_reference():
    rng = random.Random(19)
    for label in catalog_labels(9):
        ctx, word = affine_for(label)
        for w in (word, tuple(rng.sample(word, len(word)))):
            cc = CoxeterContext(ctx, w)
            ref = FrozensetArcs(cc)
            for ci in range(len(cc.components)):
                facets = [tuple(sorted(f)) for f in _component_facets(cc, ci)]
                assert sorted(facets) == sorted(ref.facets(ci)), (label, w, ci)


def test_transport_by_moves_and_tau():
    # the deformed reflection maps the depth-d ball around the negative
    # simples onto the depth-d ball around its image cluster, and the
    # deformed rotation preserves clusters outright
    for label in ("D3(2)", "A4(2)"):
        cc = cc_for(label)
        real = real_clusters(cc, 3)
        s = cc.word[0]
        moved = cc.source_sink_move(s)
        center = tuple(sorted(cc.sigma(s, r)
                              for r in neg_pi(cc.n)))
        # the depth-3 ball around center in the moved exchange graph
        moved_ball = frontier = {center}
        for _ in range(3):
            frontier = {exchange(moved, cluster, alpha)[1]
                        for cluster in frontier for alpha in cluster} - moved_ball
            moved_ball |= frontier
        image_ball = {tuple(sorted(cc.sigma(s, r) for r in cluster))
                      for cluster in real}
        assert image_ball == moved_ball
        for cluster in sorted(real)[:10]:
            tau_image = tuple(sorted(cc.tau(r) for r in cluster))
            kind, _ = is_cluster(cc, tau_image)
            assert kind == REAL


def test_expansion_unique_against_brute_force():
    rng = random.Random(41)
    for label in ("A1(1)", "D3(2)"):
        cc = cc_for(label)
        real, imag = enumerate_clusters(cc, 5)
        cones = sorted(real) + sorted(imag)
        for _ in range(60):
            cone = cones[rng.randrange(len(cones))]
            coeffs = {r: Fraction(rng.randint(1, 9), rng.randint(1, 3))
                      for r in cone}
            v = [0] * cc.n
            for r, x in coeffs.items():
                for i, ri in enumerate(r):
                    v[i] += x * ri
            v = vec(v)
            assert cluster_expansion(cc, v) == coeffs
            holders = [cl for cl in cones
                       if cone_contains(cc, [list(g) for g in cl], v)]
            assert len(holders) == 1 and holders[0] == cone


def test_every_real_cluster_rotates_to_contain_a_negative_simple():
    # iterating the deformed rotation eventually exposes a negative simple,
    # which is how clusters reduce to finite parabolics
    for label in ("D3(2)", "A4(2)"):
        cc = cc_for(label)
        real = real_clusters(cc, 4)
        for cluster in real:
            found = False
            for direction in (cc.tau, lambda r: reference_tau(cc, r, True)):
                cur = cluster
                for _ in range(2 * cc.m_bound):
                    if any(cc.neg_simple_index(r) is not None for r in cur):
                        found = True
                        break
                    cur = tuple(direction(r) for r in cur)
                if found:
                    break
            assert found, (label, cluster)


def test_real_clusters_keep_two_infinite_orbit_roots():
    for label in ("D3(2)", "A4(2)", "G2(1)"):
        cc = cc_for(label)
        real = real_clusters(cc, 4)
        for cluster in real:
            infinite = sum(1 for r in cluster
                           if cc.orbit_classification(r)[0] == "infinite")
            assert infinite >= 2, (label, cluster)


def test_degree_one_pairs_are_realized_by_exchanges():
    # every 1/1 pair in a bounded enumeration is witnessed by two clusters
    # sharing all other elements: real ones when the sum leaves the cone
    # interior, imaginary ones otherwise
    from itertools import combinations

    from aproots import almost_positive as ap
    from aproots.expansion import in_delta_cone_interior

    for label in ("D3(2)", "A4(2)"):
        cc = cc_for(label)
        pool = ap.enumerate_phi_c(cc, 2)
        # witnesses may need a larger reach than the pair pool
        witness_pool = ap.enumerate_phi_c(cc, 6)
        candidates = [r for r in pool if r != cc.ctx.delta]
        for a, b in combinations(candidates, 2):
            if degree(cc, a, b) != 1 or degree(cc, b, a) != 1:
                continue
            total = vec(x + y for x, y in zip(a, b))
            if not in_delta_cone_interior(cc, total):
                witness = _real_witness(cc, witness_pool, a, b)
                assert witness is not None, (label, a, b)
            else:
                rest = [t for t in cc.tube_roots()
                        if t not in (a, b)
                        and degree(cc, t, a) == 0 and degree(cc, t, b) == 0]
                found = False
                for combo in combinations(rest, cc.n - 3):
                    base = list(combo) + [cc.ctx.delta]
                    if all(degree(cc, x, y) == 0
                           for x, y in combinations(base, 2)):
                        found = True
                        break
                assert found or cc.n == 2, (label, a, b)


def _real_witness(cc, pool, a, b):
    from itertools import combinations

    shared = [r for r in pool
              if r not in (a, b) and r != cc.ctx.delta
              and degree(cc, r, a) == 0 and degree(cc, r, b) == 0]
    for combo in combinations(shared, cc.n - 1):
        ok = all(degree(cc, x, y) == 0 for x, y in combinations(combo, 2))
        if ok:
            return combo
    return None


def test_weight_map_values():
    cc = cc_for("A1(1)")
    assert nu(cc, (-1, 0)) == (1, 0)
    assert nu(cc, (0, -1)) == (0, 1)
    assert nu(cc, (1, 0)) == (-1, 2)


def test_weight_map_inverse_round_trip():
    rng = random.Random(43)
    for label in ("A1(1)", "D3(2)", "G2(1)"):
        cc = cc_for(label)
        inv = CoxeterContext(cc.ctx, cc.word[::-1])
        for _ in range(100):
            v = vec(Fraction(rng.randint(-8, 8), rng.randint(1, 3))
                    for _ in range(cc.n))
            for c in (cc, inv):
                w = nu(c, v)
                assert nu_inverse(c, w) == v
                assert nu(c, nu_inverse(c, v)) == v


@settings(max_examples=30, deadline=None)
@given(coxeter_contexts(), st.data())
def test_weight_map_inverse_over_random_coxeter_words(cc, data):
    entries = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 3))
    vectors = st.lists(entries, min_size=cc.n, max_size=cc.n).map(vec)
    for c in (cc, CoxeterContext(cc.ctx, cc.word[::-1])):
        v = data.draw(vectors)
        assert nu_inverse(c, nu(c, v)) == v
        w = data.draw(vectors)
        assert nu(c, nu_inverse(c, w)) == w


def reference_nu(cc, v):
    """nu in `Fraction` arithmetic, the formula the int path replaced."""
    v = vec(v)
    plus = tuple(x if x > 0 else 0 for x in v)
    return tuple(canon(-p - sum(a * plus[j] for j, a in row) - min(x, 0))
                 for x, p, row in zip(v, plus, cc.lower))


def reference_nu_inverse(cc, weight):
    """nu_inverse by forward substitution in `Fraction` arithmetic."""
    weight = vec(weight)
    v = [0] * cc.n
    for i in cc.word:
        v[i] = -weight[i] - sum(a * max(v[j], 0) for j, a in cc.lower[i])
    return vec(v)


@settings(max_examples=60, deadline=None)
@given(coxeter_contexts(), st.data())
def test_weight_map_in_ints_matches_the_fraction_formula(cc, data):
    entries = st.one_of(st.integers(-12, 12), st.fractions(-12, 12, max_denominator=12))
    v = data.draw(st.lists(entries, min_size=cc.n, max_size=cc.n))
    for x in (v, vec(v)):
        assert repr(nu(cc, x)) == repr(reference_nu(cc, x)), x
        assert repr(nu_inverse(cc, x)) == repr(reference_nu_inverse(cc, x)), x


def test_weight_map_conjugation_identity():
    # composing the inverse of the map of c^{-1} with negation realizes the
    # deformed rotation on the almost-positive set
    from aproots import almost_positive as ap

    for label in ("A1(1)", "D3(2)", "A4(2)"):
        cc = cc_for(label)
        inv = CoxeterContext(cc.ctx, cc.word[::-1])
        for beta in ap.enumerate_phi_c(cc, 2):
            lhs = nu_inverse(inv, tuple(-x for x in nu(cc, beta)))
            assert lhs == cc.tau(beta), (label, beta)


def test_rank2_face_intersection_example():
    cc = cc_for("A1(1)")
    c1 = neg_pi(2)
    c2 = ((0, -1), (1, 0))
    assert cones_intersect_in_face(cc, c1, c2)
    # they share exactly the ray of the common root
    assert cone_contains(cc, [list(r) for r in c1], (0, -1))
    assert cone_contains(cc, [list(r) for r in c2], (0, -1))


def test_rank2_fans_meet_in_faces():
    # cones that meet only at 0 are allowed, even when a sum of their
    # generators, like (0,-1) + (0,1) = 0, lies in both
    from itertools import combinations

    for label in ("A1(1)", "A2(2)"):
        ctx, word = affine_for(label)
        for w in (word, word[::-1]):
            cc = CoxeterContext(ctx, w)
            real, imag = enumerate_clusters(cc, 6)
            cones = sorted(real) + sorted(imag)
            for c1, c2 in combinations(cones, 2):
                assert cones_intersect_in_face(cc, c1, c2), (label, w, c1, c2)


def reference_face_test(gens1, gens2):
    """The face test by one cone-membership solve per candidate ray."""
    def inside(gens, v):
        return in_simplicial_cone(gens, v) is not None

    face1 = [g for g in gens1 if inside(gens2, g)]
    face2 = [g for g in gens2 if inside(gens1, g)]
    if sorted(face1) != sorted(face2):
        return False
    for a, b in combinations(gens1, 2):
        for c, d in combinations(gens2, 2):
            line = cross(cross(a, b), cross(c, d))
            if not any(line):
                continue
            for ray in (line, tuple(-x for x in line)):
                if inside(gens1, ray) and inside(gens2, ray):
                    if not face1 or not inside(face1, ray):
                        return False
    return True


small_vectors = st.tuples(*[st.integers(-3, 3)] * 3)


@st.composite
def rank3_cones(draw, shared=()):
    """2 or 3 independent integer generators, some taken from `shared` and
    some drawn as sums of two of them, so that cones often overlap."""
    k = draw(st.sampled_from((2, 3)))
    gens = list(draw(st.lists(st.sampled_from(shared), unique=True, max_size=k - 1))
                if shared else [])
    while len(gens) < k:
        if shared and draw(st.booleans()):
            a, b = draw(st.lists(st.sampled_from(shared), min_size=2, max_size=2))
            gens.append(tuple(x + y for x, y in zip(a, b)))
        else:
            gens.append(draw(small_vectors))
    assume(any(cross(*gens)) if k == 2 else det(gens) != 0)
    return tuple(gens)


@settings(max_examples=300, deadline=None)
@given(rank3_cones().flatmap(lambda c1: st.tuples(st.just(c1), rank3_cones(c1))))
def test_rank3_face_test_matches_the_per_ray_reference(pair):
    cc = cc_for("D3(2)")
    for a, b in (pair, pair[::-1]):
        assert cones_intersect_in_face(cc, a, b) == reference_face_test(a, b)


def test_rank3_face_test_false_verdicts():
    cc = cc_for("D3(2)")
    orthant = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # they share the ray of (0,0,1), but (2,1,1) lies in both
    crossing = ((1, 2, -1), (1, -1, 2), (0, 0, 1))
    # a 2-dimensional cone through the interior of the orthant
    slice_ = ((1, 1, 0), (0, 1, 1))
    neighbour = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
    for c1, c2, ok in ((orthant, crossing, False), (orthant, slice_, False),
                       (orthant, neighbour, True)):
        assert cones_intersect_in_face(cc, c1, c2) is ok
        assert cones_intersect_in_face(cc, c2, c1) is ok
        assert reference_face_test(c1, c2) is ok


# `python -O` strips asserts; the rank guard must still raise
RANK_4_FACE_TEST = """
    from aproots.cartan import context_from_label
    from aproots.clusters import cones_intersect_in_face, real_clusters
    from aproots.coxeter import CoxeterContext
    from aproots.errors import RankOutOfRange
    ctx, word = context_from_label('A3(1):k=1')
    cc = CoxeterContext(ctx, word)
    c1, c2 = sorted(real_clusters(cc, 2))[:2]
    try:
        cones_intersect_in_face(cc, c1, c2)
    except RankOutOfRange:
        print('raised')
"""


def test_face_intersection_rejects_rank_4_in_process():
    assert run_here(RANK_4_FACE_TEST) == "raised\n"


def test_face_intersection_rejects_rank_4_under_python_O():
    assert run_python_O(RANK_4_FACE_TEST) == "raised\n"


def test_rescaled_pair_has_matching_fans():
    cc1 = cc_for("C2(1)")
    cc2 = cc_for("D3(2)")
    mu = (1, 2, 1)

    def convert(r):
        out = vec(Fraction(x) / m for x, m in zip(r, mu))
        for t in (1, 2, Fraction(1, 2), 3, Fraction(1, 3)):
            cand = vec(t * x for x in out)
            if cc2.phi_c_class(cand) is not None:
                return cand
        raise AssertionError(r)

    real1, imag1 = enumerate_clusters(cc1, 3)
    real2, imag2 = enumerate_clusters(cc2, 3)
    mapped = {tuple(sorted(convert(r) for r in cl)) for cl in real1}
    assert mapped == real2
    mapped_imag = {tuple(sorted(convert(r) for r in cl)) for cl in imag1}
    assert mapped_imag == imag2


def delta_height_work(monkeypatch, k):
    """The counted work of `member`, `degree`, `nu` and `is_exchangeable` on
    α₁ + k·δ and α₃ + k·δ in B3(1), on a fresh context: `root_info` misses,
    `solve_general` calls, and the entries each memo gains."""
    ctx, word = context_from_label("B3(1)")
    cc = CoxeterContext(ctx, word)
    v, w = (tuple(int(i == j) + k * d for i, d in enumerate(ctx.delta)) for j in (0, 2))
    neg = ctx.neg_simples[0]
    counts = {"root_info misses": 0, "solve_general": 0}
    root_info, solve_general = cc.root_info, linalg.solve_general

    def counted_root_info(u):
        counts["root_info misses"] += u not in cc._root_info
        return root_info(u)

    def counted_solve_general(*args):
        counts["solve_general"] += 1
        return solve_general(*args)

    def memo_sizes():
        return (len(cc._root_info), len(cc.degree_cache),
                sum(map(len, cc._sigma)), len(cc._tau))

    with monkeypatch.context() as patch:
        patch.setattr(cc, "root_info", counted_root_info)
        for module in (cartan, linalg):
            patch.setattr(module, "solve_general", counted_solve_general)
        before = memo_sizes()
        cc.member(v)
        cc.member(w)
        for a, b in ((v, w), (w, v), (neg, v), (v, neg), (v, ctx.delta)):
            degree(cc, a, b)
        nu(cc, v)
        nu(cc, w)
        is_exchangeable(cc, v, w)
        is_exchangeable(cc, v, neg)
        counts["memo growth"] = tuple(b - a for a, b in zip(before, memo_sizes()))
    return counts


def test_delta_height_does_not_grow_the_work(monkeypatch):
    # the calls jump the δ-height, so k = 10 and k = 10**9 do the same work
    small = delta_height_work(monkeypatch, 10)
    assert small["root_info misses"] > 0 and small["memo growth"][1] > 0
    assert delta_height_work(monkeypatch, 10**9) == small
