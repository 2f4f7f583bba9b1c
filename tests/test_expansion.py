"""Cluster expansions and the imaginary cone."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aproots import expansion
from aproots.cartan import CartanMatrix, catalog_labels
from aproots.clusters import enumerate_clusters, exchange, nu, nu_inverse, real_clusters
from aproots.compatibility import degree
from aproots.coxeter import CoxeterContext
from aproots.errors import NotInImaginaryCone
from aproots.expansion import (
    _cone_coordinates,
    _divided,
    _rotate,
    cluster_expansion,
    imaginary_expansion,
    in_delta_cone,
    in_delta_cone_interior,
    rotate_affine,
)
from aproots.linalg import (
    canon,
    mat_vec,
    primitive_integer_vector,
    scale_to_integers,
    solve_general,
    vec,
)
from aproots.roots import deformed_reflection

from strategies import (affine_for, cc_for, coxeter_contexts, integer_kernel_basis, outcome,
                        word_sources)


def test_zero_and_delta():
    for label in ("A1(1)", "D3(2)", "G2(1)", "A4(2)", "D4(3)"):
        cc = cc_for(label)
        zero = tuple(0 for _ in range(cc.n))
        assert cluster_expansion(cc, zero) == {}
        assert cluster_expansion(cc, cc.ctx.delta) == {cc.ctx.delta: 1}


def test_rank2_mixed_signs():
    cc = cc_for("A1(1)")
    assert cluster_expansion(cc, (1, -1)) == {(1, 0): 1, (0, -1): 1}


def test_cone_membership_basics():
    cc = cc_for("D3(2)")
    assert in_delta_cone_interior(cc, cc.ctx.delta)
    tube = (0, 1, 0)
    assert in_delta_cone(cc, tube)
    assert not in_delta_cone_interior(cc, tube)
    assert not in_delta_cone(cc, (-1, 0, 0))
    assert not in_delta_cone(cc, (1, 0, 0))
    # rank 2: the cone is the ray of delta
    cc2 = cc_for("A1(1)")
    assert in_delta_cone(cc2, (2, 2))
    assert in_delta_cone_interior(cc2, (3, 3))
    assert not in_delta_cone(cc2, (1, 0))


def test_imaginary_expansion_nested_arcs():
    cc = cc_for("C3(1)")
    comp = cc.components[0]
    rng = random.Random(13)
    for _ in range(50):
        coeffs = [Fraction(rng.randint(0, 8), rng.randint(1, 3))
                  for _ in range(comp.rank)]
        v = [0] * cc.n
        for x, root in zip(coeffs, comp.cycle):
            for i, r in enumerate(root):
                v[i] += x * r
        v = vec(v)
        if all(x == 0 for x in v):
            continue
        terms = imaginary_expansion(cc, v)
        rec = [0] * cc.n
        for root, coeff in terms.items():
            assert coeff > 0
            for i, x in enumerate(root):
                rec[i] += coeff * x
        assert vec(rec) == v
        support = [r for r in terms if r != cc.ctx.delta]
        for a, b in combinations(support, 2):
            assert degree(cc, a, b) == 0, (v, a, b)


def _cyclic_runs(k, zeros):
    """Maximal arcs of {0..k-1} avoiding the zero positions."""
    zs = sorted(zeros)
    runs = []
    for idx, z in enumerate(zs):
        nxt = zs[(idx + 1) % len(zs)]
        length = (nxt - z - 1) % k
        if length:
            runs.append([(z + 1 + t) % k for t in range(length)])
    return runs


def _peel_run(comp, y, run, terms):
    """Strip min-coefficient times the full-run root, recursing on the pieces."""
    stack = [run]
    while stack:
        cur = stack.pop()
        low = min(y[p] for p in cur)
        if low > 0:
            root = [0] * len(comp.cycle[0])
            for p in cur:
                root = [a + b for a, b in zip(root, comp.cycle[p])]
            root = tuple(root)
            terms[root] = terms.get(root, 0) + low
            for p in cur:
                y[p] -= low
        piece = []
        for p in cur:
            if y[p] > 0:
                piece.append(p)
            elif piece:
                stack.append(piece)
                piece = []
        if piece and len(piece) < len(cur):
            stack.append(piece)


def reference_imaginary_expansion(cc, v):
    """The greedy peel the level split replaced: each maximal run of
    positive cycle coefficients gives up its least coefficient times the
    run's root, and the pieces left positive are peeled in turn."""
    m, ints = scale_to_integers(v)
    zf, slack, margin, den = _cone_coordinates(cc, ints)
    terms = {}
    for comp, t in zip(cc.components, slack):
        y = {p: t if p == comp.affine_pos else zf[root] + t
             for p, root in enumerate(comp.cycle)}
        for run in _cyclic_runs(comp.rank, [p for p in range(comp.rank) if y[p] == 0]):
            _peel_run(comp, y, run, terms)
    if margin != 0:
        terms[cc.ctx.delta] = margin
    return _divided(terms, m * den)


@settings(max_examples=80, deadline=None)
@given(coxeter_contexts(), st.data())
def test_imaginary_expansion_splits_by_level_like_the_peel(cc, data):
    coeff = st.one_of(st.integers(0, 6), st.fractions(0, 6, max_denominator=4))
    v = [0] * cc.n
    for comp in cc.components:
        for root in comp.cycle:
            x = data.draw(coeff)
            v = [a + x * r for a, r in zip(v, root)]
    d = data.draw(coeff)
    v = vec(a + d * b for a, b in zip(v, cc.ctx.delta))
    assert imaginary_expansion(cc, v) == reference_imaginary_expansion(cc, v)


def test_imaginary_expansion_rejects_vectors_outside_the_cone():
    cc = cc_for("D3(2)")
    with pytest.raises(NotInImaginaryCone, match="off the hyperplane"):
        imaginary_expansion(cc, cc.psi_to[0])
    with pytest.raises(NotInImaginaryCone, match="outside the imaginary cone"):
        imaginary_expansion(cc, tuple(-x for x in cc.ctx.delta))


def test_expansion_supports_are_compatible_members():
    rng = random.Random(29)
    for label in ("D3(2)", "G2(1)", "A4(2)"):
        cc = cc_for(label)
        for _ in range(150):
            v = vec(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                    for _ in range(cc.n))
            terms = cluster_expansion(cc, v)
            for root in terms:
                assert cc.phi_c_class(root) is not None
            for a, b in combinations(terms, 2):
                assert degree(cc, a, b) == 0


def test_rotation_records_are_replayable():
    rng = random.Random(31)
    cc = cc_for("D3(2)")
    done = 0
    while done < 100:
        v = vec(rng.randint(1, 9) for _ in range(cc.n))
        if cc.phi(v) == 0 and in_delta_cone(cc, v):
            continue   # cone vectors never rotate out; the level split handles them
        done += 1
        letters, rotated, word = rotate_affine(cc, v, cc.phi(v))
        replay = v
        for s in letters:
            replay = cc.cm.reflect(s, replay)
        assert replay == rotated
        assert min(rotated) <= 0 or min(v) <= 0


def test_hyperplane_rotation_respects_move_bound():
    # vectors on the hyperplane but outside the cone rotate within the bound
    cc = cc_for("D3(2)")
    samples = [(1, 0, 1), (2, 1, 2), (3, 1, 3), (1, -2, 1)]
    for v in samples:
        assert cc.phi(v) == 0
        if in_delta_cone(cc, v) or min(v) <= 0:
            continue
        letters, rotated, _ = rotate_affine(cc, v, cc.phi(v))
        assert len(letters) <= cc.m_bound
        assert min(rotated) <= 0


def test_inequality_description_of_the_cone():
    # walk every source-move sequence up to the bound; membership in the
    # cone is equivalent to all walk inequalities holding (hyperplane only)
    rng = random.Random(37)
    for label in ("D3(2)", "A2(1):k=1"):
        cc = cc_for(label)
        basis = [cc.ctx.delta] + list(cc.fin_simples)

        def walk_ok(v):
            seen = set()
            frontier = [(tuple(cc.word), v)]
            for _ in range(cc.m_bound):
                nxt = []
                for word, cur in frontier:
                    for s in word_sources(cc.cm, word):
                        nword = [t for t in word if t != s] + [s]
                        nv = cc.cm.reflect(s, cur)
                        if nv[s] < 0:
                            return False
                        state = (tuple(nword), nv)
                        if state not in seen:
                            seen.add(state)
                            nxt.append(state)
                frontier = nxt
            return True

        for _ in range(40):
            coeffs = [Fraction(rng.randint(-4, 8), rng.randint(1, 2))
                      for _ in basis]
            v = [0] * cc.n
            for x, b in zip(coeffs, basis):
                for i, bi in enumerate(b):
                    v[i] += x * bi
            v = vec(v)
            assert cc.phi(v) == 0
            assert in_delta_cone(cc, v) == walk_ok(v), v


def test_fractional_vectors_expand():
    cc = cc_for("D3(2)")
    v = (Fraction(1, 2), 1, Fraction(1, 2))
    terms = cluster_expansion(cc, v)
    assert terms == {(0, 1, 0): Fraction(1, 2), (1, 1, 1): Fraction(1, 2)}


@lru_cache(maxsize=None)
def _cones(cc):
    real, imag = enumerate_clusters(cc, 2)
    return sorted(real) + sorted(imag)


def _combine(terms, n):
    return vec(sum(coeff * root[i] for root, coeff in terms.items()) for i in range(n))


_coefficients = st.fractions(min_value=0, max_value=9, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(coxeter_contexts(), st.data())
def test_an_expansion_reconstructs_its_vector_and_is_unique(cc, data):
    v = vec(data.draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4),
                               min_size=cc.n, max_size=cc.n)))
    terms = cluster_expansion(cc, v)
    assert all(coeff > 0 for coeff in terms.values())
    assert _combine(terms, cc.n) == v
    for a, b in combinations(terms, 2):
        assert degree(cc, a, b) == 0 and degree(cc, b, a) == 0, (v, a, b)
    # a point of a cluster cone expands over that cluster with its own
    # coefficients
    cluster = data.draw(st.sampled_from(_cones(cc)))
    chosen = {root: data.draw(_coefficients) for root in cluster}
    built = {root: coeff for root, coeff in chosen.items() if coeff}
    assert cluster_expansion(cc, _combine(chosen, cc.n)) == built


@settings(max_examples=40, deadline=None)
@given(coxeter_contexts(), st.data())
def test_hyperplane_vectors_outside_the_cone_rotate_within_one_period(cc, data):
    # positive integer vectors on the hyperplane phi = 0, shifted by the
    # least multiple of delta that makes them positive; the first one
    # outside the imaginary cone is the probe (some types have none)
    basis = integer_kernel_basis(primitive_integer_vector(cc._phi_fun))
    tries = data.draw(st.lists(st.lists(st.integers(-20, 20), min_size=len(basis),
                                        max_size=len(basis)), min_size=5, max_size=10))
    probes = []
    for coeffs in tries:
        u = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(cc.n)]
        m = max(-x // d + 1 for x, d in zip(u, cc.ctx.delta))
        v = tuple(x + m * d for x, d in zip(u, cc.ctx.delta))
        if not in_delta_cone(cc, v):
            probes.append(v)
    assume(probes)
    v = probes[0]
    assert cc.phi(v) == 0 and min(v) > 0
    letters, rotated, _ = rotate_affine(cc, v, cc.phi(v))
    assert len(letters) <= cc.n * lcm(*(comp.rank for comp in cc.components))
    assert min(rotated) <= 0
    terms = cluster_expansion(cc, v)
    assert all(coeff > 0 for coeff in terms.values())
    assert _combine(terms, cc.n) == v
    for a, b in combinations(terms, 2):
        assert degree(cc, a, b) == 0 and degree(cc, b, a) == 0, (v, a, b)


def _hyperplane_vector(cc, coeffs, den):
    """The combination with integer `coeffs` of an integer basis of the
    hyperplane phi = 0, divided by `den`."""
    basis = integer_kernel_basis(primitive_integer_vector(cc._phi_fun))
    return vec(Fraction(sum(c * b[i] for c, b in zip(coeffs, basis)), den)
               for i in range(cc.n))


@settings(max_examples=60, deadline=None)
@given(coxeter_contexts(), st.data())
def test_expansion_and_interior_are_positively_homogeneous(cc, data):
    kind = data.draw(st.sampled_from(("any", "hyperplane", "cone")))
    if kind == "any":
        v = vec(data.draw(st.lists(st.fractions(-9, 9, max_denominator=6),
                                   min_size=cc.n, max_size=cc.n)))
    elif kind == "hyperplane":
        coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=cc.n - 1, max_size=cc.n - 1))
        v = _hyperplane_vector(cc, coeffs, data.draw(st.integers(1, 6)))
    else:
        # a nonnegative combination of the component cycles and delta
        gens = [r for comp in cc.components for r in comp.cycle] + [cc.ctx.delta]
        v = _combine({g: data.draw(_coefficients) for g in gens}, cc.n)
    q = data.draw(st.fractions(Fraction(1, 7), 20, max_denominator=7))
    qv = vec(q * x for x in v)
    assert cluster_expansion(cc, qv) == {r: canon(q * c)
                                         for r, c in cluster_expansion(cc, v).items()}
    assert in_delta_cone_interior(cc, qv) == in_delta_cone_interior(cc, v)


def reference_rotate(cm, word, v, active, cap, sink=False):
    """The rotation the integer kernel replaced: the word popped and pushed
    at every letter, each letter applied by `cm.reflect`, and every active
    coordinate scanned for positivity after each step."""
    word = list(word)
    letters = []
    while all(v[i] > 0 for i in active):
        if len(letters) == cap:
            raise AssertionError("rotation cap exhausted")
        if sink:
            s = word.pop()
            word.insert(0, s)
        else:
            s = word.pop(0)
            word.append(s)
        v = cm.reflect(s, v)
        letters.append(s)
    return letters, v, word


def reference_cluster_expansion(cc, v):
    """The expansion by `reference_rotate`, two calls per parabolic level
    (one rotates, one splits) and every sigma_s of the pull-back formed
    letter by letter through `deformed_reflection`, reading no memo."""
    def pull_back(letters, terms):
        for s in reversed(letters):
            terms = {deformed_reflection(cc.cm, s, root): c for root, c in terms.items()}
        return terms

    def in_parabolic(word, v):
        if not any(v):
            return {}
        if all(v[i] > 0 for i in word):
            letters, v, word = reference_rotate(cc.cm, word, v, word, 64 * len(word) ** 2 + 64)
            return pull_back(letters, in_parabolic(word, v))
        terms = {tuple(-int(j == i) for j in range(cc.n)): -v[i] for i in word if v[i] < 0}
        terms.update(in_parabolic([s for s in word if v[s] > 0],
                                  tuple(x if x > 0 else 0 for x in v)))
        return terms

    if not any(v):
        return {}
    m, v = scale_to_integers(v)
    if in_delta_cone(cc, v):
        return _divided(imaginary_expansion(cc, v), m)
    letters, rotated, word = reference_rotate(cc.cm, cc.word, v, range(cc.n), None,
                                              sink=cc.phi(v) < 0)
    return _divided(pull_back(letters, in_parabolic(word, rotated)), m)


@settings(max_examples=40, deadline=None)
@given(coxeter_contexts(), st.data())
def test_warm_expansions_match_the_memo_free_pull_back(cc, data):
    entry = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=4))
    vectors = st.lists(entry, min_size=cc.n, max_size=cc.n).map(vec)
    batch = data.draw(st.lists(vectors, min_size=1, max_size=8))
    for v in batch:
        cluster_expansion(cc, v)
    for v in batch + data.draw(st.lists(vectors, min_size=1, max_size=8)):
        assert repr(cluster_expansion(cc, v)) == repr(reference_cluster_expansion(cc, v)), v
    # what lets `sigma` skip its check on a hit: every memo key lies in -Π ∪ Φ+
    for memo in cc._sigma:
        for root in memo:
            assert cc.neg_simple_index(root) is not None or (
                min(root) >= 0 and cc.ctx.is_root(root)), root


def test_cached_hyperplane_inverse_matches_a_fresh_solve():
    # the reference: a fresh solve over the basis {delta} ∪ fin-simples
    rng = random.Random(43)
    for label in catalog_labels(9):
        ctx, word = affine_for(label)
        for w in [word] + [tuple(rng.sample(word, len(word))) for _ in range(2)]:
            cc = CoxeterContext(ctx, w)
            rows, inv, den = cc.hyperplane_inverse
            assert den > 0 and all(type(x) is int for row in inv for x in row)
            basis = [ctx.delta] + list(cc.fin_simples)
            matrix = [[b[i] for b in basis] for i in range(cc.n)]
            for den_v in (1, 1, rng.randint(2, 9), rng.randint(2, 9)):
                coeffs = [rng.randint(-9, 9) for _ in range(cc.n - 1)]
                v = _hyperplane_vector(cc, coeffs, den_v)
                coords = mat_vec(inv, [v[i] for i in rows])
                assert vec(Fraction(x) / den for x in coords) == solve_general(matrix, v)


def test_rational_queries_rotate_in_int_arithmetic(monkeypatch):
    # every vector that enters a kernel below the admissions: the rotation,
    # the parabolic levels, the pairings and reflections, phi and the walks
    # of c, on rational queries to every map that scales its input
    seen = []

    def recording(f, at):
        def entered(*args):
            seen.append(args[at])
            return f(*args)
        return entered

    monkeypatch.setattr(expansion, "rotate_affine", recording(rotate_affine, 1))
    monkeypatch.setattr(expansion, "expand_in_parabolic",
                        recording(expansion.expand_in_parabolic, -1))
    for owner, name, at in ((CartanMatrix, "pairing", -1), (CartanMatrix, "reflect", -1),
                            (CoxeterContext, "phi", -1), (CoxeterContext, "_walk", 1)):
        monkeypatch.setattr(owner, name, recording(getattr(owner, name), at))
    rng = random.Random(47)
    for label in ("D3(2)", "B3(1)", "A3(1):k=2"):
        cc = cc_for(label)
        clusters = sorted(real_clusters(cc, 1))
        seen.clear()
        for _ in range(20):
            v = vec(Fraction(rng.randint(-9, 9), rng.randint(2, 5)) for _ in range(cc.n))
            cluster_expansion(cc, v)
            cc.c_action(v)
            cc.c_inverse_action(v)
            in_delta_cone(cc, v)
            in_delta_cone_interior(cc, v)
            nu_inverse(cc, nu(cc, v))
        for cluster in rng.sample(clusters, 3):
            exchange(cc, [tuple(map(Fraction, r)) for r in cluster],
                     tuple(map(Fraction, rng.choice(cluster))))
        assert seen, label
        assert not any(type(x) is Fraction for v in seen for x in v), label


def test_an_expansion_reads_phi_once_and_the_cone_at_most_once(monkeypatch):
    # off the hyperplane phi is read once and the cone is not consulted; on
    # it one read of the cone coordinates chooses the level split or the
    # rotation
    calls = Counter()

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(CoxeterContext, "phi", counted("phi", CoxeterContext.phi))
    monkeypatch.setattr(expansion, "_cone_coordinates",
                        counted("coordinates", _cone_coordinates))
    rng = random.Random(53)
    kinds = Counter()
    for label in ("A1(1)", "D3(2)", "B3(1)", "A3(1):k=2"):
        cc = cc_for(label)
        gens = [r for comp in cc.components for r in comp.cycle] + [cc.ctx.delta]
        for _ in range(40):
            den = rng.randint(1, 4)
            for v in (vec(Fraction(rng.randint(-9, 9), den) for _ in range(cc.n)),
                      _hyperplane_vector(cc, [rng.randint(-9, 9) for _ in range(cc.n - 1)], den),
                      _combine({g: Fraction(rng.randint(0, 4), den) for g in gens}, cc.n)):
                if not any(v):
                    continue
                kind = "off" if cc.phi(v) else "cone" if in_delta_cone(cc, v) else "outside"
                kinds[kind] += 1
                calls.clear()
                cluster_expansion(cc, v)
                if kind == "off":
                    assert calls == {"phi": 1}, (label, v, calls)
                else:
                    assert calls["coordinates"] <= 1, (label, v, calls)
    assert min(kinds[k] for k in ("off", "cone", "outside")) > 10, kinds


@st.composite
def rotations(draw):
    """(cm, word, v, active, sink) of a rotation: the word of a context or a
    random proper sub-word of it, and a positive int vector on its letters."""
    cc = draw(coxeter_contexts())
    word = cc.word
    if draw(st.booleans()):
        word = draw(st.permutations(word))[:draw(st.integers(1, cc.n - 1))]
    v = [0] * cc.n
    for i in word:
        v[i] = draw(st.integers(1, 30))
    return cc.cm, tuple(word), tuple(v), word, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(rotations())
def test_the_rotation_kernel_matches_the_reflection_loop(case):
    cm, word, v, active, sink = case
    assert (outcome(_rotate, cm, word, v, active, 200, sink)
            == outcome(reference_rotate, cm, word, v, active, 200, sink))


@pytest.mark.parametrize("v, sink", [((7, 7, 3, 3), False), ((7, 7, 4, 4), True)])
def test_the_rotation_cap_raises_when_more_letters_are_needed(v, sink):
    cc = cc_for("B3(1)")
    letters, rotated, word = rotate_affine(cc, v, cc.phi(v))
    assert (cc.phi(v) < 0) == sink and len(letters) > 20
    args = cc.cm, cc.word, v, range(cc.n)
    assert _rotate(*args, len(letters), sink) == (letters, rotated, word)
    with pytest.raises(AssertionError, match="rotation cap exhausted"):
        _rotate(*args, len(letters) - 1, sink)
