"""Exact rational linear algebra on immutable tuples.

Vectors are tuples of ints/Fractions, matrices are tuples of row tuples.
Values are normalized so that integral rationals are stored as ints; this
keeps hashing/equality canonical and the common all-integer paths fast.
No routine here introduces floating point.

Vectors enter the package's kernels through `CoxeterContext.member`, or
`scale_to_integers` and back through `divided`; the kernels, `cross`
included, run on int tuples and normalize nothing.

Determinants, inverses, solutions and kernels all come from one
fraction-free Gauss–Jordan elimination (Bareiss 1968) on integer rows:
rational input is scaled to integers once, row by row, and every later
division is exact, so no `Fraction` is formed until the results are read
off over the common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def canon(x):
    """Normalize a rational scalar: integral Fractions become ints."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def vec(values) -> tuple:
    """`values` as a tuple of canonical scalars; a tuple of ints comes back as is."""
    t = tuple(values)
    for x in t:
        if type(x) is Fraction:
            return tuple(canon(y) for y in t)
    return t


def parse_rational(text: str):
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return canon(Fraction(int(num), int(den)))
    return int(text)


def format_rational(x) -> str:
    if type(x) is Fraction and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return str(int(x))


def format_vector(v) -> str:
    """A vector for a message, as (1/2, 0, 0)."""
    return f"({', '.join(format_rational(x) for x in v)})"


def scale_to_integers(values):
    """(m, m·values) for a rational vector: m is the lcm of its
    denominators, and m·values a tuple of ints (a tuple of ints as is)."""
    t = tuple(values)
    for x in t:
        if type(x) is not int:
            m = lcm(*(x.denominator for x in t))
            return m, tuple(x.numerator * (m // x.denominator) for x in t)
    return 1, t


def cross(a, b) -> tuple:
    """Cross product of two 3-vectors, taken on int roots in the face test
    and on floats in `fan_svg`."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def mat_vec(m, v) -> tuple:
    return tuple(canon(sum(a * b for a, b in zip(row, v))) for row in m)


def _ratio(x, d):
    """x/d as a canonical rational: an int when the quotient is integral."""
    q, r = divmod(x, d)
    return q if r == 0 else Fraction(x, d)


def divided(m, ints) -> tuple:
    """ints/m, canonical: undoes the scaling by m of `scale_to_integers`."""
    return tuple(ints) if m == 1 else tuple(_ratio(x, m) for x in ints)


def _eliminate(rows, ncols):
    """Fraction-free Gauss–Jordan elimination on the first ncols columns.

    Each row is scaled once by the lcm of its denominators.  A step with
    pivot p replaces every other row by (p·row − f·pivot_row) // previous
    pivot; by Sylvester's identity each entry stays a minor of the scaled
    matrix, so the division is exact.  At the end every pivot row i has the
    common denominator d (the last pivot) in column pivots[i] and 0 in the
    other pivot columns, and the rows past the rank are zero on the first
    ncols columns.

    Returns (rows, pivots, d, sign, scale): the reduced integer rows, the
    pivot columns in order, d, the sign of the row swaps and the product of
    the row scales, so that a square matrix of full rank has determinant
    sign·d/scale.
    """
    a = []
    scale = 1
    for row in rows:
        m, ints = scale_to_integers(row)
        scale *= m
        a.append(ints)
    nrows = len(a)
    pivots = []
    d = sign = 1
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        top = a[r]
        piv = top[c]
        for i in range(nrows):
            f = a[i][c]
            if i != r and (f or piv != d):
                a[i] = [(piv * x - f * y) // d for x, y in zip(a[i], top)]
        d = piv
        pivots.append(c)
    return a, pivots, d, sign, scale


def det(m):
    """Determinant of a square rational matrix."""
    n = len(m)
    _, pivots, d, sign, scale = _eliminate(m, n)
    return _ratio(sign * d, scale) if len(pivots) == n else 0


def inverse(m) -> tuple:
    """Inverse of a square rational matrix; raises ZeroDivisionError if singular."""
    n = len(m)
    a, pivots, d, _, _ = _eliminate(
        [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)], n
    )
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(_ratio(x, d) for x in row[n:]) for row in a)


def solve_general(rows, rhs):
    """Solve a (possibly non-square) exact linear system.

    Returns one solution as a tuple, or None if inconsistent.  `rows` is a
    list of coefficient rows; the system may be over- or under-determined
    (free variables are set to zero).  Raises ValueError unless there is
    one right-hand side per row.
    """
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    ncols = len(rows[0]) if rows else 0
    a, pivots, d, _, _ = _eliminate([list(row) + [b] for row, b in zip(rows, rhs)], ncols)
    if any(row[ncols] for row in a[len(pivots):]):
        return None
    x = [0] * ncols
    for row, c in zip(a, pivots):
        x[c] = _ratio(row[ncols], d)
    return tuple(x)


def kernel_basis(m):
    """Basis of the right kernel of a rational matrix, as canonical tuples."""
    ncols = len(m[0]) if m else 0
    a, pivots, d, _, _ = _eliminate(m, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(a, pivots):
            v[c] = _ratio(-row[f], d)
        basis.append(tuple(v))
    return basis


def primitive_integer_vector(v) -> tuple:
    """Scale a nonzero rational vector to coprime integers, keeping direction;
    raises ValueError on the zero vector."""
    _, ints = scale_to_integers(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("the zero vector has no primitive form")
    return tuple(x // g for x in ints)


def in_simplicial_cone(gens, v):
    """Coefficients of v over independent generators if all nonnegative, else
    None: at once, with no elimination, when v has a sign at a coordinate
    that no generator has there, as no nonnegative combination has it."""
    rows = list(zip(*gens))
    if len(rows) == len(v) and any(x > 0 and max(row) <= 0 or x < 0 and min(row) >= 0
                                   for row, x in zip(rows, v)):
        return None
    coeffs = solve_general(rows, v)
    if coeffs is None or any(c < 0 for c in coeffs):
        return None
    return coeffs
