"""Seed mutation, Laurent arithmetic, and the oracle's invariants."""

import random
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aproots.mutation as mutation
from aproots.cartan import catalog_labels
from aproots.coxeter import CoxeterContext
from aproots.errors import DepthTooDeep, NonExactDivision, NotSignCoherent
from aproots.mutation import (
    Seed,
    exchange_matrix_from_cartan,
    initial_btilde,
    matrix_mutation,
    mutate_d_vectors,
    pack,
    poly_add,
    poly_div_exact,
    poly_mul,
    seed_bfs,
)
from aproots.verification import RANK2_LABELS

from strategies import affine_for, cc_for, coxeter_contexts, run_here, run_python_O


def packed(p):
    """Packed form of a tuple-keyed Laurent polynomial."""
    return {pack(exp): c for exp, c in p.items()}


def unpack(packed: int, nvars: int) -> tuple:
    """Reference decoder: the exponent vector of a packed exponent over
    `nvars` variables, read one biased field at a time from the low end."""
    bias = 1 << (mutation.FIELD_BITS - 1)
    mask = (1 << mutation.FIELD_BITS) - 1
    exps = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        exps[i] = (packed & mask) - bias
        packed >>= mutation.FIELD_BITS
    return tuple(exps)


def unpacked(p, nvars):
    return {unpack(e, nvars): c for e, c in p.items()}


def _fields(p: dict, nvars: int) -> list:
    """Biased exponent fields of p, one list per variable, in term order."""
    mask = (1 << mutation.FIELD_BITS) - 1
    return [[(e >> (mutation.FIELD_BITS * (nvars - 1 - i))) & mask for e in p]
            for i in range(nvars)]


def _ranges(p: dict, nvars: int):
    """Lowest and highest exponent of each variable, read by a scan."""
    bias = 1 << (mutation.FIELD_BITS - 1)
    fields = _fields(p, nvars)
    return tuple(min(f) - bias for f in fields), tuple(max(f) - bias for f in fields)


def carried_ranges(seed, slot):
    """A Seed variable's exponent ranges as the seed carries them: minus its
    d-vector and its highest exponents."""
    return tuple(-x for x in seed.d_vector(slot)), seed._info[slot][1]


class NotHomogeneous(Exception):
    """A principal-coefficient variable whose terms differ in degree."""


class PrincipalSeed:
    """Reference seed: Laurent polynomials over x_1..x_n, y_1..y_n with
    principal coefficients, g-vectors read off the principal grading.  This
    was the oracle's seed before it dropped the coefficients and carried
    g-vectors by the tropical recursion."""

    __slots__ = ("n", "btilde", "polys", "history", "_info", "_key")

    def __init__(self, n, btilde, polys, history=(), info=None):
        self.n = n
        self.btilde = btilde
        self.polys = tuple(polys)
        self.history = tuple(history)
        # per slot: (variable key, d-vector, (lo, hi) exponent ranges)
        self._info = info or tuple(self._describe(p, _ranges(p, 2 * n)) for p in self.polys)
        self._key = frozenset(key for key, _, _ in self._info)

    def _describe(self, p, ranges):
        return frozenset(p.items()), tuple(-m for m in ranges[0][:self.n]), ranges

    @classmethod
    def initial(cls, b):
        n = len(b)
        polys = [{pack([int(i == j) for j in range(2 * n)]): 1} for i in range(n)]
        return cls(n, initial_btilde(b), polys)

    def mutate(self, k):
        n = self.n
        nvars = 2 * n
        col = [row[k] for row in self.btilde]
        reach = max(map(abs, col[n:])) + sum(
            abs(c) * max(map(abs, lo + hi)) for c, (_, _, (lo, hi)) in zip(col, self._info))
        if reach >= mutation._limit():
            raise DepthTooDeep("exponents exceed a field")
        halves = []
        for sign in (1, -1):
            lo = hi = [0] * n + [max(sign * c, 0) for c in col[n:]]
            poly = {pack(lo): 1}
            for i, c in enumerate(col[:n]):
                for _ in range(sign * c):
                    poly = poly_mul(poly, self.polys[i], nvars)
                    ilo, ihi = self._info[i][2]
                    lo = [a + b for a, b in zip(lo, ilo)]
                    hi = [a + b for a, b in zip(hi, ihi)]
            halves.append((poly, lo, hi))
        (plus, plo, phi), (minus, mlo, mhi) = halves
        nlo, nhi = tuple(map(min, plo, mlo)), tuple(map(max, phi, mhi))
        qlo, qhi = self._info[k][2]
        newpoly = poly_div_exact(poly_add(plus, minus), self.polys[k], (nlo, nhi), (qlo, qhi))
        newrange = (tuple(a - b for a, b in zip(nlo, qlo)),
                    tuple(a - b for a, b in zip(nhi, qhi)))
        polys = list(self.polys)
        polys[k] = newpoly
        info = list(self._info)
        info[k] = self._describe(newpoly, newrange)
        return PrincipalSeed(n, matrix_mutation(self.btilde, k), polys,
                             self.history + (k,), tuple(info))

    def key(self):
        return self._key

    def variable_key(self, slot):
        return self._info[slot][0]

    def d_vector(self, slot):
        return self._info[slot][1]

    def g_vector(self, slot, b0):
        """Principal-grading degree: x_i has degree e_i and y_j the negated
        column j of b0; raises NotHomogeneous unless every term agrees."""
        n = self.n
        fields = _fields(self.polys[slot], 2 * n)
        columns = []
        for i in range(n):
            column = fields[i]
            for j in range(n):
                if b0[i][j]:
                    column = [g - b0[i][j] * y for g, y in zip(column, fields[n + j])]
            columns.append(column)
        grades = set(zip(*columns))
        if len(grades) != 1:
            raise NotHomogeneous(f"slot {slot + 1} is not homogeneous")
        bias = 1 << (mutation.FIELD_BITS - 1)
        return tuple(g - bias * (1 - sum(b0[i])) for i, g in enumerate(grades.pop()))


def bfs_from(start, depth, skip_back=True):
    """seed_bfs from any start seed; with `skip_back` false it also mutates
    every seed at the last letter of its history, as the search did before
    that edge was skipped."""
    reps = {start.key(): start}
    edges = set()
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for seed in frontier:
            for k in range(seed.n):
                if skip_back and seed.history and seed.history[-1] == k:
                    continue
                new = seed.mutate(k)
                kn = new.key()
                edges.add(frozenset({seed.key(), kn}))
                if kn not in reps:
                    reps[kn] = new
                    nxt.append(new)
        frontier = nxt
    return reps, edges


def b_for(label):
    ctx, word = affine_for(label)
    return exchange_matrix_from_cartan(ctx.cm, word), ctx, word


def test_exchange_matrix_orientation():
    b, ctx, word = b_for("A1(1)")
    assert b == ((0, 2), (-2, 0))
    b3, ctx3, _ = b_for("D3(2)")
    for i in range(3):
        for j in range(3):
            if i < j:
                assert b3[i][j] >= 0


def test_matrix_mutation_rank2_flip_and_involution():
    b, _, _ = b_for("A1(1)")
    bt = initial_btilde(b)
    flipped = matrix_mutation(bt, 0)
    assert flipped[0] == (0, -2) and flipped[1] == (2, 0)
    assert matrix_mutation(flipped, 0) == bt


def reference_matrix_mutation(btilde, k):
    """The dense form of the mutation rule, every entry from the formula."""
    n = len(btilde[0])
    return tuple(
        tuple(-row[j] if i == k or j == k else
              row[j] + max(row[k], 0) * max(btilde[k][j], 0)
              - max(-row[k], 0) * max(-btilde[k][j], 0)
              for j in range(n))
        for i, row in enumerate(btilde))


@st.composite
def btildes(draw):
    """A skew-symmetrizable B, d_i·b_ij = -d_j·b_ji, over n random integer
    C rows, and a mutation word."""
    n = draw(st.integers(1, 6))
    d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    entry = st.integers(-3, 3)
    s = {(i, j): draw(entry) for i in range(n) for j in range(i + 1, n)}
    b = tuple(tuple(0 if i == j else s[i, j] * d[j] if i < j else -s[j, i] * d[j]
                    for j in range(n)) for i in range(n))
    c = tuple(tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(n))
    return b + c, draw(st.lists(st.integers(0, n - 1), max_size=6))


@settings(max_examples=200, deadline=None)
@given(btildes())
def test_sparse_matrix_mutation_matches_the_dense_rule(case):
    bt, word = case
    for k in word:
        dense = reference_matrix_mutation(bt, k)
        bt = matrix_mutation(bt, k)
        assert bt == dense


def test_matrix_mutation_preserves_skew_symmetrizability():
    rng = random.Random(17)
    for label in ("D3(2)", "G2(1)", "B3(1)"):
        b, ctx, _ = b_for(label)
        d = ctx.cm.d
        bt = initial_btilde(b)
        n = len(b)
        for _ in range(100):
            k = rng.randrange(n)
            bt = matrix_mutation(bt, k)
            for i in range(n):
                for j in range(n):
                    assert d[i] * bt[i][j] == -d[j] * bt[j][i]


def test_seed_mutation_rank2_exchange_relation():
    b, _, _ = b_for("A1(1)")
    seed = Seed.initial(b)
    mutated = seed.mutate(0)
    # (x2^2 + 1) / x1
    assert unpacked(mutated.polys[0], 2) == {(-1, 0): 1, (-1, 2): 1}
    assert mutated.mutate(0).key() == seed.key()
    assert mutated.d_vector(0) == (1, 0)
    assert mutated.g_vector(0) == (-1, 2)
    assert seed.d_vector(0) == (-1, 0)
    assert seed.g_vector(0) == (1, 0)
    ref = PrincipalSeed.initial(b)
    ref_mutated = ref.mutate(0)
    # (y1 + x2^2) / x1
    assert unpacked(ref_mutated.polys[0], 4) == {(-1, 0, 1, 0): 1, (-1, 2, 0, 0): 1}
    assert ref_mutated.mutate(0).key() == ref.key()
    assert ref_mutated.d_vector(0) == (1, 0)
    assert ref_mutated.g_vector(0, b) == (-1, 2)
    assert ref.d_vector(0) == (-1, 0)
    assert ref.g_vector(0, b) == (1, 0)


def test_positivity_observed():
    b, _, _ = b_for("D3(2)")
    reps, _ = seed_bfs(b, 6)
    for seed in reps.values():
        for p in seed.polys:
            assert all(c > 0 for c in p.values())


def divide(p, q, nvars):
    """poly_div_exact with both operands' exponent ranges read off by a scan."""
    return poly_div_exact(p, q, _ranges(p, nvars), _ranges(q, nvars))


def test_poly_division_exactness():
    rng = random.Random(23)
    nvars = 4
    for _ in range(50):
        def rand_poly():
            out = {}
            for _ in range(rng.randint(1, 6)):
                exp = tuple(rng.randint(-3, 3) for _ in range(nvars))
                out[exp] = rng.randint(-5, 5) or 1
            return packed({e: c for e, c in out.items() if c})

        f, g = rand_poly(), rand_poly()
        if not f or not g:
            continue
        product = poly_mul(f, g, nvars)
        assert divide(product, g, nvars) == f
    # (x + 1) / (y + 3)
    with pytest.raises(NonExactDivision):
        divide(packed({(1, 0): 1, (0, 0): 1}), packed({(0, 1): 1, (0, 0): 3}), 2)


def test_term_cap(monkeypatch):
    monkeypatch.setattr(mutation, "TERM_CAP", 3)
    dense = packed({(i, 0): 1 for i in range(4)})
    with pytest.raises(DepthTooDeep):
        poly_mul(dense, packed({(0, 1): 1, (1, 1): 1}), 2)


def test_pack_orders_lexicographically_and_round_trips():
    exps = [(0, 0, 0), (1, -2, 3), (-1, 5, 0), (-1, 5, -1), (2, -7, -7), (0, 0, 1)]
    assert sorted(exps) == sorted(exps, key=pack)
    for exp in exps:
        assert unpack(pack(exp), 3) == exp
    bias = 1 << (mutation.FIELD_BITS - 1)
    assert unpack(pack((-bias, bias - 1)), 2) == (-bias, bias - 1)
    with pytest.raises(DepthTooDeep):
        pack((0, bias))


def reference_product(f, g):
    """Tuple-keyed product, the format before exponents were packed."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return {exp: c for exp, c in out.items() if c}


laurent = st.dictionaries(
    st.tuples(*[st.integers(-3, 3)] * 3),
    st.integers(-4, 4).filter(bool),
    min_size=1, max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(laurent, laurent)
@example({(1, 0, 0): 1, (0, 1, 0): -1}, {(1, 0, 0): 1, (0, 1, 0): 1})
@example({(-1, 0, 0): 1, (0, 1, -1): 1}, {(-1, 0, 0): 1, (0, 1, -1): -1})
def test_packed_product_and_division_match_tuple_reference(f, g):
    product = poly_mul(packed(f), packed(g), 3)
    assert unpacked(product, 3) == reference_product(f, g)
    assert divide(product, packed(g), 3) == packed(f)


def reference_division(p, q, nvars):
    """Long division that rescans the remainder for its leading term and
    scans both operands for the quotient box: the division before the
    remainder kept a heap and the ranges were passed in."""
    if not q:
        raise NonExactDivision("division by zero polynomial")
    if not p:
        return {}
    plo, phi = _ranges(p, nvars)
    qlo, qhi = _ranges(q, nvars)
    low = [a - b for a, b in zip(plo, qlo)]
    high = [a - b for a, b in zip(phi, qhi)]
    unit = pack([0] * nvars)
    lead_q = max(q)
    quotient = {}
    rem = dict(p)
    while rem:
        lead_r = max(rem)
        term = lead_r - lead_q + unit
        exps = unpack(term, nvars)
        if (any(not a <= e <= b for a, e, b in zip(low, exps, high))
                or rem[lead_r] % q[lead_q]):
            raise NonExactDivision("not exact")
        coeff = rem[lead_r] // q[lead_q]
        quotient[term] = coeff
        rem = poly_add(rem, {term - unit + e: -coeff * c for e, c in q.items()})
    return quotient


@settings(max_examples=200, deadline=None)
@given(laurent, laurent, st.tuples(*[st.integers(-3, 3)] * 3), st.integers(-4, 4).filter(bool))
def test_heap_division_matches_rescanning_reference(f, g, extra, c):
    f, g = packed(f), packed(g)
    product = poly_mul(f, g, 3)
    if product:
        assert divide(product, g, 3) == reference_division(product, g, 3) == f
    # a monomial is divisible only by monomials, so adding one to a multiple
    # of a binomial or longer leaves a pair that does not divide
    inexact = poly_add(product, {pack(extra): c})
    if len(g) > 1 and inexact:
        for division in (divide, reference_division):
            with pytest.raises(NonExactDivision):
                division(inexact, g, 3)


@pytest.mark.parametrize("label", catalog_labels(3))
def test_carried_ranges_equal_a_scan(label):
    ctx, word = affine_for(label)
    for w in (word, tuple(reversed(word))):
        b = exchange_matrix_from_cartan(ctx.cm, w)
        reps, _ = seed_bfs(b, 7)
        for seed in reps.values():
            for slot, p in enumerate(seed.polys):
                assert _ranges(p, seed.n) == carried_ranges(seed, slot)


def test_narrow_fields_raise_instead_of_wrapping(monkeypatch):
    b, _, _ = b_for("G2(1)")

    def laurent_seeds():
        reps, edges = seed_bfs(b, 5)
        return sorted(
            (seed.history,
             [sorted(unpacked(p, seed.n).items()) for p in seed.polys],
             [seed.d_vector(s) for s in range(seed.n)])
            for seed in reps.values()), len(edges)

    wide = laurent_seeds()
    outcomes = []
    for bits in (4, 5, 6, 7, 8, 12):
        monkeypatch.setattr(mutation, "FIELD_BITS", bits)
        try:
            narrow = laurent_seeds()
        except DepthTooDeep:
            outcomes.append("raised")
            continue
        assert narrow == wide, bits
        outcomes.append("same")
    assert "raised" in outcomes and "same" in outcomes


# each step stops at an explicit guard, which `python -O` keeps; the last
# narrows FIELD_BITS
GUARDS = """
    import aproots.mutation as m
    from aproots.errors import DepthTooDeep, NonExactDivision, NotSignCoherent

    print(__debug__)
    x_plus_1 = {m.pack((1, 0)): 1, m.pack((0, 0)): 1}
    y_plus_3 = {m.pack((0, 1)): 1, m.pack((0, 0)): 3}
    try:
        m.poly_div_exact(x_plus_1, y_plus_3, ((0, 0), (1, 0)), ((0, 0), (0, 1)))
    except NonExactDivision:
        print("NonExactDivision")
    seed = m.Seed.initial(((0, 2), (-2, 0)))
    seed.btilde = ((0, 2), (-2, 0), (1, 0), (-1, 1))
    try:
        seed.mutate(0)
    except NotSignCoherent:
        print("NotSignCoherent")
    m.FIELD_BITS = 4
    try:
        m.seed_bfs(((0, 2), (-2, 0)), 8)
    except DepthTooDeep:
        print("DepthTooDeep")
"""
GUARD_ERRORS = ["NonExactDivision", "NotSignCoherent", "DepthTooDeep"]


def test_guards_raise_in_process(monkeypatch):
    monkeypatch.setattr(mutation, "FIELD_BITS", mutation.FIELD_BITS)   # restored afterwards
    assert run_here(GUARDS).split() == ["True", *GUARD_ERRORS]


def test_guards_hold_under_python_O():
    assert run_python_O(GUARDS).split() == ["False", *GUARD_ERRORS]


def test_poly_div_exact_guards():
    x_plus_1 = packed({(1, 0): 1, (0, 0): 1})
    box = ((0, 0), (1, 0))
    with pytest.raises(NonExactDivision):
        poly_div_exact(x_plus_1, {}, box, ((0, 0), (0, 0)))
    assert poly_div_exact({}, x_plus_1, ((0, 0), (0, 0)), box) == {}
    # exponent ranges at the field limit could overflow a field of the quotient
    with pytest.raises(DepthTooDeep):
        poly_div_exact(x_plus_1, x_plus_1, ((0, 0), (mutation._limit(), 0)), box)


def test_homogeneity_everywhere():
    for label in ("A2(2)", "C2(1)"):
        b, _, _ = b_for(label)
        reps, _ = bfs_from(PrincipalSeed.initial(b), 5)
        for seed in reps.values():
            for slot in range(seed.n):
                seed.g_vector(slot, b)   # raises NotHomogeneous on failure


def coefficient_free(p, n):
    """A principal-coefficient polynomial with every y_j set to 1."""
    out = {}
    for exp, c in unpacked(p, 2 * n).items():
        out[exp[:n]] = out.get(exp[:n], 0) + c
    return {exp: c for exp, c in out.items() if c}


def assert_matches_principal(b, depth):
    """The coefficient-free search against the principal-coefficient one:
    same seeds in the same order, polynomials equal at y = 1, the same
    d-vectors and g-vectors, the same partition of variables into keys and
    the same mutation graph."""
    reps, edges = seed_bfs(b, depth)
    ref_reps, ref_edges = bfs_from(PrincipalSeed.initial(b), depth)
    assert len(reps) == len(ref_reps)
    seed_keys = {}
    var_keys = set()
    for (key, seed), (ref_key, ref) in zip(reps.items(), ref_reps.items()):
        assert seed.history == ref.history and seed.btilde == ref.btilde
        seed_keys[key] = ref_key
        for slot in range(seed.n):
            assert unpacked(seed.polys[slot], seed.n) == coefficient_free(ref.polys[slot], seed.n)
            assert seed.d_vector(slot) == ref.d_vector(slot)
            assert seed.g_vector(slot) == ref.g_vector(slot, b)
            var_keys.add((seed.variable_key(slot), ref.variable_key(slot)))
    # the key pairs match one to one: equal keys on one side exactly when on the other
    assert len(var_keys) == len({v for v, _ in var_keys}) == len({r for _, r in var_keys})
    assert {frozenset(map(seed_keys.get, pair)) for pair in edges} == ref_edges


@pytest.mark.parametrize("label", catalog_labels(3))
def test_coefficient_free_seeds_match_principal_reference_in_every_word(label):
    ctx, word = affine_for(label)
    for w in permutations(word):
        assert_matches_principal(exchange_matrix_from_cartan(ctx.cm, w), 6)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(catalog_labels(4)), st.data())
def test_coefficient_free_seeds_match_principal_reference_in_random_words(label, data):
    ctx, word = affine_for(label)
    w = data.draw(st.permutations(word))
    assert_matches_principal(exchange_matrix_from_cartan(ctx.cm, w), 4)


@pytest.mark.parametrize("label", catalog_labels(3))
def test_g_vectors_and_c_vectors_are_tropically_dual(label):
    # G^T D C = D, with D the symmetrizer, G's columns the g-vectors and C
    # the bottom half of btilde (Nakanishi and Zelevinsky 2012)
    ctx, word = affine_for(label)
    d = ctx.cm.d
    for w in permutations(word):
        reps, _ = seed_bfs(exchange_matrix_from_cartan(ctx.cm, w), 6)
        for seed in reps.values():
            n = seed.n
            g = [seed.g_vector(j) for j in range(n)]
            c = seed.btilde[n:]
            for i in range(n):
                for j in range(n):
                    entry = sum(g[i][a] * d[a] * c[a][j] for a in range(n))
                    assert entry == (d[i] if i == j else 0), (w, seed.history, i, j)


def test_mixed_sign_c_vector_raises():
    b, _, _ = b_for("D3(2)")
    seed = Seed.initial(b).mutate(0).mutate(1)
    n = seed.n
    k = 2
    seed.mutate(k)   # every c-vector is sign-coherent before the plant
    # plant c-vector k with entries of both signs
    rows = [list(row) for row in seed.btilde]
    rows[n][k], rows[n + 1][k] = 1, -1
    seed.btilde = tuple(map(tuple, rows))
    with pytest.raises(NotSignCoherent):
        seed.mutate(k)


def d_state(seed):
    """A seed's (B̃, d-vectors): what a d-vector replay carries."""
    return seed.btilde, tuple(seed.d_vector(s) for s in range(seed.n))


@settings(max_examples=50, deadline=None)
@given(st.one_of(st.sampled_from(RANK2_LABELS).map(cc_for), coxeter_contexts()), st.data())
def test_d_vector_replay_follows_seed_mutation(cc, data):
    b = exchange_matrix_from_cartan(cc.cm, cc.word)
    depth2 = data.draw(st.sampled_from(list(seed_bfs(b, 2)[0].values())))
    letters = st.lists(st.integers(0, cc.n - 1), max_size=6)
    for start in (b, depth2.btilde[:cc.n]):
        seed = Seed.initial(start)
        state = d_state(seed)
        for k in data.draw(letters):
            new = mutate_d_vectors(*state, k)
            assert mutate_d_vectors(*new, k) == state
            seed, state = seed.mutate(k), new
            assert state == d_state(seed)
            # and the d-vectors are the polynomials' lowest exponents
            assert all(_ranges(p, seed.n) == carried_ranges(seed, s)
                       for s, p in enumerate(seed.polys))


@pytest.mark.parametrize("label", catalog_labels(4))
def test_every_bfs_history_extends_an_earlier_one_by_a_letter(label):
    b, _, _ = b_for(label)
    seen = set()
    for seed in seed_bfs(b, 4)[0].values():
        assert not seed.history or seed.history[:-1] in seen, seed.history
        seen.add(seed.history)


def test_replays_keep_the_c_vector_guard(monkeypatch):
    b, _, _ = b_for("D3(2)")
    n = len(b)
    mutate = mutation.matrix_mutation

    def mixed(btilde, k):
        # plant c-vector 1 with entries of both signs
        rows = [list(row) for row in mutate(btilde, k)]
        rows[n][0], rows[n + 1][0] = 1, -1
        return tuple(map(tuple, rows))

    monkeypatch.setattr(mutation, "matrix_mutation", mixed)
    seed = Seed.initial(b).mutate(1)
    state = mutate_d_vectors(*d_state(Seed.initial(b)), 1)
    assert state == d_state(seed)
    with pytest.raises(NotSignCoherent):
        seed.mutate(0)
    with pytest.raises(NotSignCoherent):
        mutate_d_vectors(*state, 0)


def test_source_sink_mutation_transports_denominators():
    # mutating at a source letter matches the deformed reflection on
    # denominator vectors of the shared variables
    for label in ("D3(2)", "G2(1)"):
        b, ctx, word = b_for(label)
        cc = CoxeterContext(ctx, word)
        s = cc.word[0]
        seed = Seed.initial(b)
        depth2 = [seed.mutate(k) for k in range(seed.n)]
        moved = cc.source_sink_move(s)
        b2 = exchange_matrix_from_cartan(ctx.cm, moved.word)
        seed2 = Seed.initial(b2)
        # the seed mutated at s has exchange matrix b2 up to the coefficient
        # rows; its cluster corresponds to sigma_s of the original labels
        mut = seed.mutate(s)
        top = tuple(mut.btilde[i] for i in range(seed.n))
        assert top == b2
        for slot in range(seed.n):
            d_old = seed.d_vector(slot)
            d_new = mut.d_vector(slot)
            assert d_new == cc.sigma(s, d_old)


def assert_bfs_matches_reference(b, depth):
    reps, edges = seed_bfs(b, depth)
    ref_reps, ref_edges = bfs_from(Seed.initial(b), depth, skip_back=False)
    assert list(reps) == list(ref_reps)
    for key, seed in reps.items():
        ref = ref_reps[key]
        assert seed.history == ref.history
        assert seed.polys == ref.polys and seed.btilde == ref.btilde
    assert edges == ref_edges


@pytest.mark.parametrize("label", catalog_labels(3))
def test_bfs_without_back_mutations_matches_reference_in_every_word(label):
    ctx, word = affine_for(label)
    for w in permutations(word):
        assert_bfs_matches_reference(exchange_matrix_from_cartan(ctx.cm, w), 5)


@pytest.mark.parametrize("label", ["G2(1)", "D4(3)"])
def test_bfs_without_back_mutations_matches_reference_at_depth_7(label):
    b, _, _ = b_for(label)
    assert_bfs_matches_reference(b, 7)


def test_bfs_never_mutates_a_seed_at_its_last_letter(monkeypatch):
    mutate = Seed.mutate
    backs = []

    def recording(seed, k):
        if seed.history and seed.history[-1] == k:
            backs.append(seed.history)
        return mutate(seed, k)

    monkeypatch.setattr(Seed, "mutate", recording)
    for label in ("A2(2)", "G2(1)", "D4(3)"):
        b, _, _ = b_for(label)
        reps, _ = seed_bfs(b, 5)
        assert len(reps) > 1
    assert backs == []


def test_exchange_products_never_take_the_monomial_one(monkeypatch):
    # each half of an exchange relation starts from its first factor
    product = mutation.poly_mul
    ones = []

    def recording(p, q, nvars):
        one = {pack([0] * nvars): 1}
        if one in (p, q):
            ones.append((p, q))
        return product(p, q, nvars)

    monkeypatch.setattr(mutation, "poly_mul", recording)
    for label in ("A1(1)", "A2(2)", "G2(1)", "D4(3)", "A3(1):k=1"):
        b, _, _ = b_for(label)
        assert len(seed_bfs(b, 5)[0]) > 1
    assert ones == []
