"""Exact rational linear algebra on immutable tuples.

Vectors are tuples of ints/Fractions, matrices are tuples of row tuples.
Values are normalized so that integral rationals are stored as ints; this
keeps hashing/equality canonical and the common all-integer paths fast.
No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def canon(x):
    """Normalize a rational scalar: integral Fractions become ints."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return x
    return x


def vec(values) -> tuple:
    return tuple(canon(x) for x in values)


def parse_rational(text: str):
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return canon(Fraction(int(num), int(den)))
    return int(text)


def format_rational(x) -> str:
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return str(int(x))


def vadd(u, v):
    return tuple(canon(a + b) for a, b in zip(u, v))


def vsub(u, v):
    return tuple(canon(a - b) for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def vscale(t, u):
    return tuple(canon(t * a) for a in u)


def vdot(u, v):
    return canon(sum(a * b for a, b in zip(u, v)))


def is_zero(u) -> bool:
    return all(a == 0 for a in u)


def mat(rows) -> tuple:
    return tuple(vec(r) for r in rows)


def identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m) -> tuple:
    return tuple(zip(*m))


def mat_vec(m, v) -> tuple:
    return tuple(canon(sum(a * b for a, b in zip(row, v))) for row in m)


def mat_mul(a, b) -> tuple:
    bt = list(zip(*b))
    return tuple(
        tuple(canon(sum(x * y for x, y in zip(row, col))) for col in bt) for row in a
    )


def _fraction_rows(m):
    return [[Fraction(x) for x in row] for row in m]


def det(m):
    """Determinant by fraction-free-ish Gaussian elimination."""
    a = _fraction_rows(m)
    n = len(a)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        result *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return canon(sign * result)


def inverse(m) -> tuple:
    """Inverse of a square rational matrix; raises ZeroDivisionError if singular."""
    n = len(m)
    a = _fraction_rows(m)
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(canon(x) for x in row) for row in inv)


def solve_general(rows, rhs):
    """Solve a (possibly non-square) exact linear system.

    Returns one solution as a tuple, or None if inconsistent.  `rows` is a
    list of coefficient rows; the system may be over- or under-determined
    (free variables are set to zero).
    """
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    nrows, ncols = len(a), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if a[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = a[i][ncols]
    return tuple(canon(v) for v in x)


def kernel_basis(m):
    """Basis of the right kernel of a rational matrix, as canonical tuples."""
    a = _fraction_rows(m)
    nrows, ncols = len(a), len(m[0]) if m else 0
    pivots = {}
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots[c] = r
        r += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for c, row in pivots.items():
            v[c] = -a[row][f]
        basis.append(tuple(canon(x) for x in v))
    return basis


def primitive_integer_vector(v) -> tuple:
    """Scale a nonzero rational vector to coprime integers, keeping direction."""
    fracs = [Fraction(x) for x in v]
    den_lcm = 1
    for x in fracs:
        den_lcm = den_lcm * x.denominator // gcd(den_lcm, x.denominator)
    ints = [int(x * den_lcm) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    assert g > 0, "zero vector has no primitive form"
    return tuple(x // g for x in ints)


def gcd_of_maximal_minors(rows) -> int:
    """gcd of all maximal minors of an integer matrix given by its rows.

    For k independent rows this is the covolume of the lattice they span,
    relative to the standard lattice of their coordinate span.
    """
    from itertools import combinations

    rows = [tuple(int(x) for x in r) for r in rows]
    k = len(rows)
    n = len(rows[0])
    g = 0
    for cols in combinations(range(n), k):
        sub = tuple(tuple(r[c] for c in cols) for r in rows)
        g = gcd(g, abs(int(det(sub))))
    return g


def integer_kernel_basis(f) -> list:
    """Basis of {v in Z^n : f·v = 0} for an integer vector f, via a
    unimodular column reduction f·U = (gcd, 0, ..., 0)."""
    f = [int(x) for x in f]
    n = len(f)
    cols = [[1 if r == c else 0 for r in range(n)] for c in range(n)]
    g = list(f)

    def ext_gcd(a, b):
        if b == 0:
            return abs(a), (1 if a >= 0 else -1), 0
        d, x, y = ext_gcd(b, a % b)
        return d, y, x - (a // b) * y

    for i in range(1, n):
        a, b = g[0], g[i]
        if b == 0:
            continue
        d, x, y = ext_gcd(a, b)
        c0 = [x * cols[0][r] + y * cols[i][r] for r in range(n)]
        ci = [-(b // d) * cols[0][r] + (a // d) * cols[i][r] for r in range(n)]
        cols[0], cols[i] = c0, ci
        g[0], g[i] = d, 0
    basis = [tuple(cols[i]) for i in range(1, n)]
    for v in basis:
        assert sum(a * b for a, b in zip(f, v)) == 0
    return basis


def in_simplicial_cone(gens, v):
    """Coefficients of v over independent generators if all nonnegative, else None."""
    coeffs = solve_general([list(col) for col in zip(*gens)], v)
    if coeffs is None:
        return None
    if any(c < 0 for c in coeffs):
        return None
    # independence check: reconstruct exactly
    rec = [0] * len(v)
    for c, g in zip(coeffs, gens):
        for i, x in enumerate(g):
            rec[i] += c * x
    if tuple(canon(x) for x in rec) != tuple(canon(x) for x in v):
        return None
    return coeffs
