"""Exact linear algebra against a Fraction Gauss–Jordan reference."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aproots.linalg import (
    canon,
    det,
    format_rational,
    in_simplicial_cone,
    inverse,
    kernel_basis,
    solve_general,
    vec,
)


def reference_rref(rows, ncols):
    """Gauss–Jordan on Fractions with normalized pivot rows.

    Returns (rows, pivots, factor) with factor the signed product of the
    pivots, which is the determinant of a square matrix of full rank.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    nrows = len(a)
    pivots = []
    factor = Fraction(1)
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            factor = -factor
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][c]
        factor *= p
        a[r] = [x / p for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots, factor


def canonical(x):
    return int(x) if x.denominator == 1 else x


def reference_solve(rows, rhs):
    ncols = len(rows[0])
    a, pivots, _ = reference_rref([list(row) + [b] for row, b in zip(rows, rhs)], ncols)
    if any(row[ncols] != 0 for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(a, pivots):
        x[c] = row[ncols]
    return tuple(canonical(v) for v in x)


def reference_kernel(m):
    ncols = len(m[0])
    a, pivots, _ = reference_rref(m, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(a, pivots):
            v[c] = -row[f]
        basis.append(tuple(canonical(x) for x in v))
    return basis


def reference_det(m):
    _, pivots, factor = reference_rref(m, len(m))
    return canonical(factor) if len(pivots) == len(m) else 0


def reference_inverse(m):
    n = len(m)
    a, pivots, _ = reference_rref(
        [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)], n
    )
    if len(pivots) < n:
        return None
    return tuple(tuple(canonical(x) for x in row[n:]) for row in a)


def reference_cone(gens, v):
    coeffs = reference_solve([list(col) for col in zip(*gens)], v)
    if coeffs is None or any(c < 0 for c in coeffs):
        return None
    rec = [sum((c * g[i] for c, g in zip(coeffs, gens)), 0) for i in range(len(v))]
    return coeffs if tuple(rec) == tuple(v) else None


def typed(x):
    """x with the type of every scalar attached, so that 1 and Fraction(1) differ."""
    if isinstance(x, (tuple, list)):
        return tuple(typed(y) for y in x)
    return (type(x), x)


entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """A rational matrix, dense or a product B·C of inner size 0..min(r, c)."""
    r = nrows or draw(st.integers(1, 5))
    c = ncols or draw(st.integers(1, 5))
    if draw(st.booleans()):
        return [[draw(entries) for _ in range(c)] for _ in range(r)]
    k = draw(st.integers(0, min(r, c)))
    b = [[draw(entries) for _ in range(k)] for _ in range(r)]
    cm = [[draw(entries) for _ in range(c)] for _ in range(k)]
    return [[sum((b[i][t] * cm[t][j] for t in range(k)), 0) for j in range(c)]
            for i in range(r)]


@st.composite
def systems(draw):
    """(rows, rhs): rhs is either random or the image of a random vector."""
    m = draw(matrices())
    if draw(st.booleans()):
        x = [draw(entries) for _ in m[0]]
        rhs = [sum((a * b for a, b in zip(row, x)), 0) for row in m]
    else:
        rhs = [draw(entries) for _ in m]
    return m, rhs


@settings(max_examples=200, deadline=None)
@given(systems())
def test_solve_and_kernel_match_the_fraction_reference(system):
    m, rhs = system
    assert typed(solve_general(m, rhs)) == typed(reference_solve(m, rhs))
    assert typed(kernel_basis(m)) == typed(reference_kernel(m))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: matrices(n, n)))
def test_det_and_inverse_match_the_fraction_reference(m):
    assert typed(det(m)) == typed(reference_det(m))
    expected = reference_inverse(m)
    if expected is None:
        with pytest.raises(ZeroDivisionError):
            inverse(m)
    else:
        assert typed(inverse(m)) == typed(expected)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_cone_membership_matches_the_fraction_reference(system):
    m, rhs = system
    gens = [tuple(row[j] for row in m) for j in range(len(m[0]))]
    v = tuple(rhs)
    assert typed(in_simplicial_cone(gens, v)) == typed(reference_cone(gens, v))


def elimination_cone(gens, v):
    """The cone test by elimination alone, with no sign test before it."""
    coeffs = solve_general([list(col) for col in zip(*gens)], v)
    if coeffs is None or any(c < 0 for c in coeffs):
        return None
    return coeffs


@st.composite
def cone_queries(draw):
    """(gens, v) in small ints: up to 4 generators of length 1 to 4, often
    with one more that sums two of them, and v, often a nonnegative
    combination of them; sometimes v, or one generator, is one entry too
    long or too short."""
    n = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    gens = draw(st.lists(st.tuples(*[small] * n), max_size=4))
    if len(gens) > 1 and draw(st.booleans()):
        gens.append(tuple(map(sum, zip(gens[0], gens[-1]))))
    if gens and draw(st.booleans()):
        coeffs = [draw(st.integers(0, 2)) for _ in gens]
        v = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n))
    else:
        v = tuple(draw(small) for _ in range(n))
    misfit = draw(st.sampled_from([None] * 6 + ["v", "gen"]))
    if misfit == "v":
        v = v[:-1] if draw(st.booleans()) else v + (draw(small),)
    elif misfit == "gen" and gens:
        gens[-1] = gens[-1][:-1] if draw(st.booleans()) else gens[-1] + (draw(small),)
    return gens, v


def cone_outcome(f, gens, v):
    """f(gens, v) typed, or the class of what it raised."""
    try:
        return typed(f(gens, v))
    except Exception as e:
        return type(e)


@settings(max_examples=400, deadline=None)
@given(cone_queries())
def test_cone_membership_matches_elimination_alone(query):
    # the sign test refuses only what the elimination refuses, and empty or
    # mismatched input raises as it did
    gens, v = query
    assert cone_outcome(in_simplicial_cone, gens, v) == cone_outcome(elimination_cone, gens, v)


def test_zero_and_unimodular_cases():
    assert det([[0, 0], [0, 0]]) == 0
    assert kernel_basis([[0, 0]]) == [(1, 0), (0, 1)]
    assert solve_general([[0, 0]], [0]) == (0, 0)
    assert solve_general([[0, 0]], [1]) is None
    assert det([[1, 1, 0], [0, 1, 1], [0, 0, 1]]) == 1
    assert inverse([[2, 1], [1, 1]]) == ((1, -1), (-1, 2))
    assert inverse([[Fraction(1, 2)]]) == ((2,),)
    assert det([[Fraction(1, 2), 1], [1, Fraction(1, 3)]]) == Fraction(-5, 6)


def test_right_hand_side_of_the_wrong_length_raises():
    with pytest.raises(ValueError):
        solve_general([[1, 0], [0, 1]], [1])
    with pytest.raises(ValueError):
        solve_general([[1, 0]], [1, 2])
    with pytest.raises(ValueError):
        in_simplicial_cone([(1, 0, 0), (0, 1, 0)], (1, 1))


def generator(values):
    return (x for x in values)


@settings(max_examples=200, deadline=None)
@given(st.lists(entries | st.builds(Fraction, st.integers(-6, 6)), max_size=5),
       st.sampled_from((list, tuple, generator)))
def test_vec_matches_entrywise_canonicalization(values, container):
    expected = tuple(canon(x) for x in values)
    assert typed(vec(container(values))) == typed(expected)
    if all(type(x) is int for x in values):
        t = tuple(values)
        assert vec(t) is t


def test_format_rational_prints_ints_and_reduced_fractions():
    assert ([format_rational(x) for x in (3, -7, Fraction(1, 2), Fraction(4, 2))]
            == ["3", "-7", "1/2", "2"])
