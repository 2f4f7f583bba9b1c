"""Cartan validation, classification, and catalog checks."""

import ast
import hashlib
import random
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from aproots import cartan, linalg
from aproots.cartan import (
    AffineContext,
    Kind,
    catalog,
    catalog_labels,
    classify,
    context_from_label,
    dual,
    validate_cartan,
)
from aproots.errors import (
    BadDiagonal,
    CartanError,
    NotAffine,
    NotSymmetrizable,
    PositiveOffDiagonal,
    RankOutOfRange,
    UnknownLabel,
)
from aproots.roots import roots_up_to_level

from strategies import affine_for, finite_positive_roots, gram, kernel_delta_vee_coroot


def brute_force_symmetrizers(a):
    """Independent oracle: solve d_i a_ij = d_j a_ji by propagation over the
    constraint graph, returned unnormalized from d_1 = 1."""
    n = len(a)
    d = [None] * n
    d[0] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for i, j in product(range(n), repeat=2):
            if i != j and a[i][j] != 0 and d[i] is not None and d[j] is None:
                d[j] = d[i] * a[i][j] / a[j][i]
                changed = True
    return d


def proportional(u, v):
    ratio = None
    for x, y in zip(u, v):
        if (x == 0) != (y == 0):
            return False
        if x != 0:
            r = Fraction(x) / Fraction(y)
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return True


def test_validate_symmetric_matrix():
    cm = validate_cartan([[2, -2], [-2, 2]])
    assert cm.d == (1, 1)


def test_validate_symmetrizers_match_brute_force():
    raw = [[2, -2, 0], [-1, 2, -1], [0, -2, 2]]
    cm = validate_cartan(raw)
    oracle = brute_force_symmetrizers(raw)
    assert proportional(cm.d, oracle)
    assert proportional(cm.d, (Fraction(1, 2), 1, Fraction(1, 2)))


def test_validate_rejects_asymmetric_zero():
    with pytest.raises(NotSymmetrizable):
        validate_cartan([[2, -1], [0, 2]])


def test_validate_rejects_inconsistent_symmetrizers_around_a_cycle():
    # every pair of entries is symmetrizable, but the products around the
    # 3-cycle disagree
    with pytest.raises(NotSymmetrizable, match=r"inconsistent symmetrizer at a\[3\]\[2\]"):
        validate_cartan([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])


def test_affine_context_rejects_a_finite_matrix():
    with pytest.raises(NotAffine, match="matrix is of finite type"):
        AffineContext(validate_cartan([[2, -1], [-1, 2]]))


def test_validate_rejects_bad_diagonal_and_positive_entries():
    with pytest.raises(BadDiagonal):
        validate_cartan([[1, -1], [-1, 2]])
    with pytest.raises(PositiveOffDiagonal):
        validate_cartan([[2, 1], [-1, 2]])
    with pytest.raises(CartanError):
        validate_cartan([[2, -1]])


def test_classify_finite():
    cm = validate_cartan([[2, -1], [-1, 2]])
    assert classify(cm).kind is Kind.FINITE


def test_classify_affine_rank2():
    cm = validate_cartan([[2, -2], [-2, 2]])
    cls = classify(cm)
    assert cls.kind is Kind.AFFINE
    assert cls.delta == (1, 1)


def test_classify_doubled_mark():
    cm = validate_cartan([[2, -1], [-4, 2]])
    cls = classify(cm)
    assert cls.kind is Kind.AFFINE
    assert cls.delta == (1, 2)
    assert cls.aff == 1
    assert cls.delta[cls.aff] == 2
    assert cls.theta == (1, 0)
    # dual imaginary root: half of delta, coroot coordinates (2, 1)
    assert delta_vee(cm, cls) == (Fraction(1, 2), 1)
    assert cls.delta_vee_coroot == (2, 1)


def test_classify_indefinite():
    cm = validate_cartan([[2, -3], [-3, 2]])
    assert classify(cm).kind is Kind.OTHER


def test_classify_direct_sums_and_corners():
    # a strictly affine block plus anything violates the proper-submatrix
    # condition, and a two-dimensional kernel is out as well
    assert classify(validate_cartan([[2, -2, 0], [-2, 2, 0], [0, 0, 2]])).kind \
        is Kind.OTHER
    assert classify(validate_cartan([[2, 0], [0, 2]])).kind is Kind.FINITE
    two_affine = [[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]
    assert classify(validate_cartan(two_affine)).kind is Kind.OTHER
    assert classify(validate_cartan([[2]])).kind is Kind.FINITE


def test_catalog_g2():
    cm, aff, word = catalog("G2(1)")
    assert cm.n == 3
    assert aff == 2
    assert word == (0, 1, 2)


def test_catalog_d3_twisted_matrix_pinned():
    cm, aff, word = catalog("D3(2)")
    assert cm.a == ((2, -2, 0), (-1, 2, -1), (0, -2, 2))
    assert aff == 2


def test_catalog_type_a_parameter_range():
    with pytest.raises(UnknownLabel):
        catalog("A4(1):k=5")
    with pytest.raises(UnknownLabel):
        catalog("A4(1)")
    with pytest.raises(UnknownLabel):
        catalog("Z9(1)")
    with pytest.raises(RankOutOfRange):
        catalog("B99(1)")


def test_dual_involution_and_affineness():
    cm, _, _ = catalog("D3(2)")
    dd = dual(cm)
    assert classify(dd).kind is Kind.AFFINE
    assert dual(dd).a == cm.a
    sym = validate_cartan([[2, -1], [-1, 2]])
    assert dual(sym).a == sym.a


def test_catalog_types_classify_affine_with_consistent_form():
    for label in catalog_labels(6):
        cm, aff, word = catalog(label)
        cls = classify(cm, aff=aff)
        assert cls.kind is Kind.AFFINE, label
        # the bilinear form pairs coroots with roots through the matrix
        for i in range(cm.n):
            for j in range(cm.n):
                lhs = cm.k([1 if t == i else 0 for t in range(cm.n)],
                           [1 if t == j else 0 for t in range(cm.n)])
                assert lhs == cm.d[i] * cm.a[i][j]
        ctx = AffineContext(cm, aff=aff)
        assert all(x > 0 for x in ctx.delta)


def test_catalog_table_reproduces_the_pinned_matrices():
    rows = [(label, *catalog(label)) for label in catalog_labels(12)]
    assert len(rows) == 130
    text = repr([(label, cm.a, aff, word) for label, cm, aff, word in rows])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "46fe9defa839e8cf5dedf391837fb591d1ddd2f424a68a040530c4a5041bbcfe")


def test_catalog_accepts_k_only_on_the_cycle():
    for label in ("B3(1):k=1", "D3(2):k=2", "G2(1):k=1", "A2(2):k=1"):
        with pytest.raises(UnknownLabel, match="not a catalog type label"):
            catalog(label)


def test_catalog_rejects_malformed_labels():
    for label in ("A3(1):j=1", "A3(1):k=x", "A3", "A3(4)", "Z9(9)", "(1)"):
        with pytest.raises(UnknownLabel):
            catalog(label)


def test_catalog_labels_stop_at_the_catalogs_largest_rank():
    labels = catalog_labels(cartan._MAX_RANK + 2)
    assert labels == catalog_labels(cartan._MAX_RANK)
    for label in labels:
        assert catalog(label)[0].n <= cartan._MAX_RANK, label


def test_affine_node_choice_matches_parabolic_root_systems():
    # reference: an index is a valid affine node when θ = δ - [δ:α_i]·α_i
    # is among the enumerated positive roots of the parabolic without i
    for label in catalog_labels(7):
        cm, _, _ = catalog(label)
        delta = classify(cm).delta
        valid = []
        for i in range(cm.n):
            theta = tuple(0 if j == i else x for j, x in enumerate(delta))
            if theta in finite_positive_roots(cm, [j for j in range(cm.n) if j != i]):
                valid.append(i)
                assert classify(cm, aff=i).theta == theta
            else:
                with pytest.raises(NotAffine):
                    classify(cm, aff=i)
        assert classify(cm).aff == min(valid, key=lambda i: (delta[i], i)), label


def cycle_matrix(n):
    return validate_cartan([[2 if i == j else -1 if (i - j) % n in (1, n - 1) else 0
                             for j in range(n)] for i in range(n)])


def _positive_definite(m) -> bool:
    """Sylvester's criterion: whether every leading principal minor of the
    rational matrix m is positive.  In one fraction-free elimination without
    row swaps, the k-th pivot is the k-th leading principal minor, scaled."""
    scale = lcm(*(x.denominator for row in m for x in row))
    a = [[int(x * scale) for x in row] for row in m]
    d = 1
    for k, top in enumerate(a):
        if top[k] <= 0:
            return False
        for i in range(k + 1, len(a)):
            a[i] = [(top[k] * x - a[i][k] * y) // d for x, y in zip(a[i], top)]
        d = top[k]
    return True


def test_classify_tests_positive_definiteness_once(monkeypatch):
    # a positive primitive kernel vector of a one-dimensional kernel already
    # makes the matrix affine: no corank-1 submatrix is tested.  Only an
    # invertible matrix is tested for finite type, by one solve of A·u = 1
    sizes = []

    def counting(rows, rhs):
        sizes.append(len(rows))
        return linalg.solve_general(rows, rhs)

    monkeypatch.setattr(cartan, "solve_general", counting)
    assert classify(cycle_matrix(30)).kind is Kind.AFFINE
    assert sizes == []
    assert classify(validate_cartan([[2, -1, 0], [-1, 2, -2], [0, -1, 2]])).kind is Kind.FINITE
    assert sizes == [3]
    # invertible and hyperbolic: the one test fails
    assert classify(validate_cartan([[2, -3], [-3, 2]])).kind is Kind.OTHER
    assert sizes == [3, 2]


def delta_vee(cm, cls):
    """delta^vee in simple-root coordinates: its simple-coroot coordinates
    over the symmetrizers."""
    return linalg.vec(Fraction(m) / Fraction(d) for m, d in zip(cls.delta_vee_coroot, cm.d))


def gram_is_symmetric(cm):
    k = gram(cm)
    return all(k[i][j] == k[j][i] for i in range(cm.n) for j in range(cm.n))


def delta_vee_closed_form(cm, cls):
    """delta^vee = 2/K(α_aff, α_aff)·delta, halved when [delta:α_aff] = 2."""
    factor = Fraction(2) / gram(cm)[cls.aff][cls.aff]
    if cls.delta[cls.aff] == 2:
        factor /= 2
    return linalg.vec(factor * x for x in cls.delta)


def permuted(cm, order):
    return validate_cartan([[cm.a[p][q] for q in order] for p in order])


def test_gram_symmetry_and_delta_vee_closed_form_in_every_node_order():
    rng = random.Random(12)
    for label in catalog_labels(9):
        cm, aff, _ = catalog(label)
        shuffled = list(range(cm.n))
        rng.shuffle(shuffled)
        for order in (list(range(cm.n)), list(range(cm.n))[::-1], shuffled):
            pcm = permuted(cm, order)
            assert gram_is_symmetric(pcm), (label, order)
            for node in (order.index(aff), None):
                cls = classify(pcm, aff=node)
                assert delta_vee(pcm, cls) == delta_vee_closed_form(pcm, cls), (label, order, node)


def reference_classify(cm):
    """(kind, delta, aff, theta, delta_vee_coroot) with every corank-1
    principal submatrix tested: affine when the kernel is one-dimensional,
    spanned by a positive vector, and each corank-1 principal submatrix is
    positive definite; the affine node by enumerating each parabolic root
    system, and delta^vee from the kernel of the transpose."""
    n, k = cm.n, gram(cm)
    other = Kind.OTHER, None, None, None, None
    if _positive_definite(k):
        return Kind.FINITE, None, None, None, None
    kernel = linalg.kernel_basis(cm.a)
    if len(kernel) != 1:
        return other
    delta = linalg.primitive_integer_vector(kernel[0])
    if all(x <= 0 for x in delta):
        delta = tuple(-x for x in delta)
    if any(x <= 0 for x in delta):
        return other
    for i in range(n):
        keep = [j for j in range(n) if j != i]
        if not _positive_definite(tuple(tuple(k[p][q] for q in keep) for p in keep)):
            return other
    thetas = {i: tuple(0 if j == i else x for j, x in enumerate(delta)) for i in range(n)}
    valid = [i for i in range(n)
             if thetas[i] in finite_positive_roots(cm, [j for j in range(n) if j != i])]
    aff = min(valid, key=lambda i: (delta[i], i))
    return Kind.AFFINE, delta, aff, thetas[aff], kernel_delta_vee_coroot(cm)


@st.composite
def symmetrizable_gcms(draw):
    """A random symmetrizable GCM of rank 2-6: symmetrizers d_i in {1, 2, 3}
    and d_i·a_ij = d_j·a_ji = -k·lcm(d_i, d_j) with k in {0, 1, 2}."""
    n = draw(st.integers(2, 6))
    d = [draw(st.sampled_from((1, 1, 1, 2, 3))) for _ in range(n)]
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            k = draw(st.sampled_from((0, 0, 1, 1, 1, 2)))
            m = lcm(d[i], d[j])
            a[i][j], a[j][i] = -k * m // d[i], -k * m // d[j]
    return validate_cartan(a)


@st.composite
def permuted_catalog_matrices(draw):
    cm, _, _ = catalog(draw(st.sampled_from(catalog_labels(6))))
    return permuted(cm, draw(st.permutations(range(cm.n))))


@settings(max_examples=300, deadline=None)
@given(st.one_of(symmetrizable_gcms(), permuted_catalog_matrices()))
def test_classify_matches_the_corank_one_criterion(cm):
    cls = classify(cm)
    assert (repr((cls.kind, cls.delta, cls.aff, cls.theta, cls.delta_vee_coroot))
            == repr(reference_classify(cm)))
    assert gram_is_symmetric(cm)
    if cls.kind is Kind.AFFINE:
        assert delta_vee(cm, cls) == delta_vee_closed_form(cm, cls)


def test_large_cycle_classifies_without_enumerating_parabolics(monkeypatch):
    def no_enumeration(cm, i, v):
        raise AssertionError("classify reflected a root")

    monkeypatch.setattr(cartan.CartanMatrix, "reflect", no_enumeration)
    n = 30
    cm = cycle_matrix(n)
    cls = classify(cm)
    assert cls.kind is Kind.AFFINE and cls.aff == 0 and cls.delta == (1,) * n
    assert classify(cm, aff=17).theta == tuple(int(j != 17) for j in range(n))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=25, max_size=25),
       st.integers(1, 5), st.integers(1, 3), st.integers(0, 6))
def test_positive_definite_matches_leading_minors(entries, n, den, shift):
    m = [[Fraction(entries[5 * i + j] + entries[5 * j + i], den) + (shift if i == j else 0)
          for j in range(n)] for i in range(n)]
    minors = [linalg.det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
    assert _positive_definite(m) == all(x > 0 for x in minors)


def test_form_invariance_under_reflections():
    rng = random.Random(7)
    for label in ("A1(1)", "D3(2)", "G2(1)", "C3(1)", "A2(2)"):
        ctx, _ = affine_for(label)
        n = ctx.n
        for _ in range(100):
            v = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
            w = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
            i = rng.randrange(n)
            assert ctx.k(ctx.cm.reflect(i, v), ctx.cm.reflect(i, w)) == ctx.k(v, w)


def test_delta_matches_kernel_for_all_catalog_types():
    for label in catalog_labels(7):
        ctx, _ = affine_for(label)
        n = ctx.n
        for i in range(n):
            assert ctx.cm.pairing(i, ctx.delta) == 0, label


def reference_positive_roots(ctx, level):
    """Positive real roots up to δ-level `level`, grown breadth-first from the
    simples by reflections that keep every coordinate nonnegative."""
    cap = (level + 1) * ctx.delta[ctx.aff]
    seen = {tuple(int(j == i) for j in range(ctx.n)) for i in range(ctx.n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for root in frontier:
            for i in range(ctx.n):
                img = ctx.cm.reflect(i, root)
                if img not in seen and img[ctx.aff] <= cap and min(img) >= 0:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def reference_is_real_root(ctx, positive, level, v):
    """Real-root test by sign split and lookup in `positive`, which must hold
    every positive real root up to δ-level `level`."""
    if min(v) < 0:
        v = tuple(-x for x in v)
    assert -(-v[ctx.aff] // ctx.delta[ctx.aff]) <= level, v
    return min(v) >= 0 and v in positive


def test_real_root_window_agrees_with_the_level_search():
    rng = random.Random(11)
    for label in catalog_labels(6):
        ctx, _ = affine_for(label)
        n = ctx.n
        assert ctx.period == int(label.split("(")[1][0]), label
        positive = reference_positive_roots(ctx, 8)
        probes = set(roots_up_to_level(ctx, 6))
        for root in list(probes):
            for i in range(n):
                for sign in (1, -1):
                    probes.add(tuple(x + sign * (j == i) for j, x in enumerate(root)))
        for _ in range(200):
            probes.add(tuple(rng.randint(-6 * d, 6 * d) for d in ctx.delta))
        for v in probes:
            assert ctx.is_real_root(v) == reference_is_real_root(ctx, positive, 8, v), (label, v)


def test_real_root_test_is_closed_form(monkeypatch):
    ctx, _ = context_from_label("B3(1)")
    positive = reference_positive_roots(ctx, 1)

    def no_search(self, bound):
        raise AssertionError("the real-root test must not search")

    monkeypatch.setattr(AffineContext, "ensure_level", no_search)
    far = tuple(10 ** 9 * d for d in ctx.delta)
    alpha1 = (1, 0, 0, 0)
    alpha2 = (0, 1, 0, 0)
    for step in ((0, 0, 0, 0), alpha1, tuple(-x for x in alpha1)):
        near = tuple(a + s for a, s in zip(alpha2, step))
        expected = reference_is_real_root(ctx, positive, 1, near)
        assert ctx.is_real_root(tuple(a + b for a, b in zip(near, far))) == expected
    assert ctx.is_real_root(tuple(a + b for a, b in zip(alpha2, far)))


def reference_roots_up_to_level(ctx, level):
    """(real roots, every root listed) up to δ-level `level`: the test-side
    search with the negatives, plus the simples at every level and ±k·δ."""
    cap = level * ctx.delta[ctx.aff]
    real = {r for r in reference_positive_roots(ctx, level) if r[ctx.aff] <= cap}
    real |= {tuple(-x for x in r) for r in real}
    listed = real | {tuple(k * x for x in ctx.delta) for k in range(-level, level + 1) if k}
    for i in range(ctx.n):
        listed |= {tuple(s * int(j == i) for j in range(ctx.n)) for s in (1, -1)}
    return real, sorted(listed)


def check_real_roots(ctx, level):
    real, listed = reference_roots_up_to_level(ctx, level)
    found = ctx.real_roots(level)
    assert len(found) == len(real) and set(found) == real
    assert ctx.positive_real_roots(level) == sorted(r for r in real if min(r) >= 0)
    assert roots_up_to_level(ctx, level) == listed


@settings(max_examples=60, deadline=None)
@given(permuted_catalog_matrices())
def test_real_roots_translate_the_window_in_any_node_order(cm):
    ctx = AffineContext(cm)
    for level in range(3):
        check_real_roots(ctx, level)


def test_real_roots_of_the_rank_30_cycle():
    check_real_roots(AffineContext(cycle_matrix(30)), 1)


def test_enumeration_runs_no_second_search(monkeypatch):
    contexts = [affine_for(label)[0] for label in catalog_labels(6)]

    def no_search(self, bound):
        raise AssertionError("an enumeration must translate the window")

    monkeypatch.setattr(AffineContext, "ensure_level", no_search)
    for ctx in contexts:
        for level in range(5):
            assert roots_up_to_level(ctx, level) and ctx.positive_real_roots(level)
    # the one search left is the constructor's, for the period
    callers = []
    for path in sorted(Path(cartan.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                callers += [(path.name, fn.name) for node in ast.walk(fn)
                            if isinstance(node, ast.Call)
                            and getattr(node.func, "attr", None) == "ensure_level"]
    assert callers == [("cartan.py", "__init__")]
