"""Cartan matrices, symmetrizers, classification, and the affine type catalog.

A Cartan matrix A is symmetrizable: there are positive rationals d_i with
d_i·a_ij = d_j·a_ji.  The symmetric form K(α_i, α_j) = d_i·a_ij is evaluated
from A and d, never stored; K(α_i^vee, α_j) = a_ij holds exactly.

Classification is exact and reads the kernel of A first, then Kac's
trichotomy (*Infinite Dimensional Lie Algebras*, Thm 4.3) on each
indecomposable block: finite iff the kernel is trivial and u = A^-1·1 is
positive, as Au = 1 ≥ 0 forces u > 0 on a finite block and no u > 0 has
Au > 0 on an affine or indefinite one; affine iff the kernel is
one-dimensional and spanned by a vector delta with all entries positive.
Such a kernel makes A indecomposable (each indecomposable block with a
positive kernel vector adds a kernel dimension), and an indecomposable GCM
with a positive kernel vector is affine.  For affine matrices we compute the
primitive positive imaginary root delta, a distinguished index `aff`, the root
theta = delta - [delta:α_aff]·α_aff of the finite part, and the simple-coroot
coordinates of the coroot-side imaginary root delta_vee, D·delta up to scale.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    BadDiagonal,
    CartanError,
    IndexOutOfRange,
    NotAffine,
    NotARoot,
    NotSymmetrizable,
    PositiveOffDiagonal,
    RankOutOfRange,
    UnknownLabel,
)
from .linalg import (
    _ratio, canon, format_vector, kernel_basis, primitive_integer_vector, solve_general, vec)


@dataclass(frozen=True)
class CartanMatrix:
    n: int
    a: tuple            # integer entries, row tuples
    d: tuple            # symmetrizers, positive rationals with min = 1
    rows: tuple         # rows[i]: the (j, a_ij) with a_ij ≠ 0, diagonal included

    def k(self, v, w):
        """K(v, w) = Σ_i v_i·d_i·K(α_i^vee, w) for vectors in simple-root
        coordinates, summed over the nonzero v_i."""
        return canon(sum(vi * self.d[i] * self.pairing(i, w) for i, vi in enumerate(v) if vi))

    def pairing(self, i, v):
        """K(α_i^vee, v) = Σ_j a_ij v_j over the nonzero a_ij."""
        return sum(x * v[j] for j, x in self.rows[i])

    def reflect(self, i, v):
        """Simple reflection s_i(v) = v - K(α_i^vee, v)·α_i of a tuple v."""
        t = self.pairing(i, v)
        return v[:i] + (v[i] - t,) + v[i + 1:] if t else v


def validate_cartan(raw) -> CartanMatrix:
    """Validate an integer matrix as a symmetrizable Cartan matrix.

    The symmetrizers d_i are determined per connected component of the
    Dynkin graph by propagation from the smallest index, then rescaled so
    the minimum of each component is 1.
    """
    n = len(raw)
    if n == 0 or any(len(row) != n for row in raw):
        raise CartanError("matrix must be square and nonempty")
    a = tuple(tuple(int(x) for x in row) for row in raw)
    for i in range(n):
        if a[i][i] != 2:
            raise BadDiagonal(f"a[{i + 1}][{i + 1}] = {a[i][i]}, expected 2")
        for j in range(n):
            if i != j and a[i][j] > 0:
                raise PositiveOffDiagonal(f"a[{i + 1}][{j + 1}] = {a[i][j]} > 0")
    for i in range(n):
        for j in range(i + 1, n):
            if (a[i][j] == 0) != (a[j][i] == 0):
                raise NotSymmetrizable(
                    f"a[{i + 1}][{j + 1}] = {a[i][j]} but a[{j + 1}][{i + 1}] = {a[j][i]}:"
                    " no positive symmetrizer exists"
                )
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = [start]
        comp = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if a[i][j] == 0 or i == j:
                    continue
                val = d[i] * a[i][j] / a[j][i]
                if d[j] is None:
                    d[j] = val
                    queue.append(j)
                    comp.append(j)
                elif d[j] != val:
                    raise NotSymmetrizable(
                        f"inconsistent symmetrizer at a[{i + 1}][{j + 1}]"
                    )
        low = min(d[j] for j in comp)
        for j in comp:
            d[j] = canon(d[j] / low)
    rows = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in a)
    return CartanMatrix(n=n, a=a, d=vec(d), rows=rows)


def dual(cm: CartanMatrix) -> CartanMatrix:
    """The dual Cartan matrix (transpose)."""
    return validate_cartan(list(zip(*cm.a)))


class Kind(Enum):
    FINITE = "finite"
    AFFINE = "affine"
    OTHER = "other"


@dataclass(frozen=True)
class TypeClassification:
    kind: Kind
    delta: tuple | None = None          # primitive positive kernel vector
    aff: int | None = None              # 0-based distinguished index
    theta: tuple | None = None          # delta - [delta:α_aff]·α_aff
    delta_vee_coroot: tuple | None = None  # delta^vee in simple-coroot coordinates


def _is_aff_node(cm: CartanMatrix, delta, i) -> bool:
    """Whether delta - [delta:α_i]·α_i is a positive root of the parabolic
    without i, which has finite type.  There, a positive root other than a
    simple one pairs positively with a simple coroot in its support, and
    that reflection lowers it to a positive root: descend to a simple root."""
    theta = [0 if j == i else x for j, x in enumerate(delta)]
    while sum(theta) > 1:
        step = next(((j, t) for j, x in enumerate(theta)
                     if x and (t := cm.pairing(j, theta)) > 0), None)
        if step is None or theta[step[0]] < step[1]:
            return False
        theta[step[0]] -= step[1]
    return sum(theta) == 1


def classify(cm: CartanMatrix, aff: int | None = None) -> TypeClassification:
    """Exact finite/affine/other classification.

    For affine input, `aff` may force the distinguished index (0-based);
    otherwise the smallest valid index with minimal [delta:α_i] is chosen.
    """
    n = cm.n
    if aff is not None and not 0 <= aff < n:
        raise IndexOutOfRange(f"affine node {aff + 1} out of range 1..{n}")
    # a singular A is never finite
    kernel = kernel_basis([list(r) for r in cm.a])
    if not kernel:
        finite = all(x > 0 for x in solve_general(cm.a, [1] * n))
        return TypeClassification(kind=Kind.FINITE if finite else Kind.OTHER)
    if len(kernel) != 1:
        return TypeClassification(kind=Kind.OTHER)
    # kernel_basis puts +1 at a free column, so an affine delta is positive
    delta = primitive_integer_vector(kernel[0])
    if any(x <= 0 for x in delta):
        return TypeClassification(kind=Kind.OTHER)
    if aff is None:
        aff = next((i for i in sorted(range(n), key=lambda i: (delta[i], i))
                    if _is_aff_node(cm, delta, i)), None)
        if aff is None:
            raise NotAffine("no index can serve as the affine node")
    elif not _is_aff_node(cm, delta, aff):
        raise NotAffine(f"index {aff + 1} cannot serve as the affine node")
    theta = list(delta)
    theta[aff] = 0
    # the coroot-side imaginary root in simple-coroot coordinates spans the
    # kernel of the transpose, which is D·ker A as A^T·D = D·A
    dvee_coroot = primitive_integer_vector(di * x for di, x in zip(cm.d, delta))
    return TypeClassification(
        kind=Kind.AFFINE,
        delta=delta,
        aff=aff,
        theta=tuple(theta),
        delta_vee_coroot=dvee_coroot,
    )


# ---------------------------------------------------------------------------
# catalog of affine types
# ---------------------------------------------------------------------------

_MAX_RANK = 12


def _path(nodes, bonds=None, forks=()):
    """Dynkin edges (i, j, a_ij, a_ji) along the path through `nodes`,
    simply laced except at `bonds` {i: (a_ij, a_ji)} for the step leaving
    node i, with the simply-laced edges `forks` added."""
    bonds = bonds or {}
    return ([(i, j, *bonds.get(i, (-1, -1))) for i, j in zip(nodes, nodes[1:])]
            + [(i, j, -1, -1) for i, j in forks])


def _b_edges(n, k):
    return _path(range(n - 1), {0: (-2, -1)}, [(n - 3, n - 1)])


def _c_edges(n, k):
    return _path(range(n), {0: (-1, -2), n - 2: (-2, -1)})


def _f_edges(n, k):
    return _path(range(5), {1: (-2, -1)})


def _g_edges(n, k):
    return _path(range(3), {0: (-3, -1)})


@dataclass(frozen=True)
class _Type:
    family: str
    twist: int
    a: int                  # the number in the label is a·n + b at rank n
    b: int
    ranks: range | tuple    # a range for a series, a tuple for exceptional types
    edges: Callable         # (n, k) -> Dynkin edges; the affine node is n - 1
    transposed: bool = False
    oriented: bool = False  # the label carries :k=, the orientation of the cycle


# Kac, Tables Aff 1-3, in the order catalog_labels lists them at each rank.
# Every twisted type but A_2l^(2) is the transpose of an untwisted one.
_TYPES = (
    _Type("A", 1, 1, -1, (2,), lambda n, k: [(0, 1, -2, -2)]),
    _Type("A", 1, 1, -1, range(3, _MAX_RANK + 1),
          lambda n, k: _path([*range(k), n - 1, *range(n - 2, k - 1, -1), 0]), oriented=True),
    _Type("B", 1, 1, -1, range(4, _MAX_RANK + 1), _b_edges),
    _Type("C", 1, 1, -1, range(3, _MAX_RANK + 1), _c_edges),
    _Type("D", 1, 1, -1, range(5, _MAX_RANK + 1),
          lambda n, k: _path(range(1, n - 1), forks=[(0, 2), (n - 3, n - 1)])),
    _Type("E", 1, 1, -1, (7,), lambda n, k: _path(range(2, 7), forks=[(1, 4), (0, 1)])),
    _Type("E", 1, 1, -1, (8,), lambda n, k: _path(range(1, 8), forks=[(0, 4)])),
    _Type("E", 1, 1, -1, (9,), lambda n, k: _path(range(1, 9), forks=[(0, 3)])),
    _Type("F", 1, 1, -1, (5,), _f_edges),
    _Type("G", 1, 1, -1, (3,), _g_edges),
    _Type("A", 2, 2, -2, (2,), lambda n, k: [(0, 1, -1, -4)]),
    _Type("A", 2, 2, -2, range(3, _MAX_RANK + 1),
          lambda n, k: _path(range(n), {0: (-1, -2), n - 2: (-1, -2)})),
    _Type("A", 2, 2, -3, range(4, _MAX_RANK + 1), _b_edges, transposed=True),
    _Type("D", 2, 1, 0, range(3, _MAX_RANK + 1), _c_edges, transposed=True),
    _Type("E", 2, 1, 1, (5,), _f_edges, transposed=True),
    _Type("D", 3, 1, 1, (3,), _g_edges, transposed=True),
)


def catalog_labels(max_rank: int = 8):
    """All supported catalog labels up to the given rank (capped at the
    catalog's largest rank), in a stable order."""
    labels = []
    for n in range(2, min(max_rank, _MAX_RANK) + 1):
        for t in _TYPES:
            if n in t.ranks:
                label = f"{t.family}{t.a * n + t.b}({t.twist})"
                labels += [f"{label}:k={k}" for k in range(1, n)] if t.oriented else [label]
    return labels


def _parse_label(label: str):
    text = label.strip().replace(" ", "")
    k = None
    if ":" in text:
        text, kpart = text.split(":", 1)
        if not kpart.startswith("k="):
            raise UnknownLabel(label)
        try:
            k = int(kpart[2:])
        except ValueError:
            raise UnknownLabel(label) from None
    if "(" not in text or not text.endswith(")"):
        raise UnknownLabel(label)
    base, twist = text[:-1].split("(", 1)
    family, sub = base[:1], base[1:]
    if not family or not sub.isdecimal() or twist not in {"1", "2", "3"}:
        raise UnknownLabel(label)
    return family, int(sub), int(twist), k


def catalog(label: str):
    """Resolve a type label to (CartanMatrix, aff index, canonical word).

    The rank n solves a·n + b = the number in the label for a row of
    `_TYPES`.  The canonical Coxeter element is always s_1···s_n in the
    returned node order, and the distinguished affine node is the last one.
    """
    family, number, twist, k = _parse_label(label)
    unknown = f"{label}: not a catalog type label"
    rows = [(t, n) for t in _TYPES if (t.family, t.twist) == (family, twist)
            for n, rest in [divmod(number - t.b, t.a)] if not rest]
    t, n = next(((t, n) for t, n in rows if n in t.ranks), (None, None))
    if t is None:
        if any(isinstance(row.ranks, range) for row, _ in rows):
            raise RankOutOfRange(f"{label}: rank out of the catalog's range")
        raise UnknownLabel(unknown)
    if t.oriented:
        if k is None:
            raise UnknownLabel(f"{label}: orientation parameter k=1..{n - 1} required")
        if not 1 <= k <= n - 1:
            raise UnknownLabel(f"{label}: k ranges over 1..{n - 1}")
    elif k is not None:
        raise UnknownLabel(unknown)
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j, aij, aji in t.edges(n, k):
        a[i][j], a[j][i] = (aji, aij) if t.transposed else (aij, aji)
    return validate_cartan(a), n - 1, tuple(range(n))


class AffineContext:
    """A validated affine Cartan matrix with its classification data."""

    def __init__(self, cm: CartanMatrix, aff: int | None = None):
        cls = classify(cm, aff=aff)
        if cls.kind is not Kind.AFFINE:
            raise NotAffine(f"matrix is of {cls.kind.value} type")
        self.cm = cm
        self.n = cm.n
        self.delta = cls.delta
        self.aff = cls.aff
        self.delta_vee_coroot = cls.delta_vee_coroot
        # Real roots are periodic in delta (Kac, Prop. 6.3).  The period r is
        # the least with r·delta - α_i = s_i(α_i + r·delta) real for every i,
        # as W fixes delta and every real root is W-conjugate to a simple one.
        # The window: the real roots β with 0 ≤ [β:α_aff] < r·[delta:α_aff],
        # the one record of them: `is_real_root` translates into it, `real_roots` out.
        for r in (1, 2, 3):
            pos = self.ensure_level(r)
            if all(tuple(r * d - (j == i) for j, d in enumerate(self.delta)) in pos
                   for i in range(self.n)):
                break
        self.period = r
        self._window = frozenset([b for b in pos if b[self.aff] < r * self.delta[self.aff]]
                                 + [tuple(-x for x in b) for b in pos if b[self.aff] == 0])

    # -- basic geometry ----------------------------------------------------

    def k(self, v, w):
        return self.cm.k(v, w)

    def coroot_coords(self, v):
        """Simple-coroot coordinates 2·d_i·v_i/K(v, v) of the coroot of a
        real root v, each divided exactly: a Fraction only when it must be."""
        norm = self.k(v, v)
        if norm <= 0:
            raise NotARoot(f"{format_vector(v)} is not a real root, so it has no coroot")
        return tuple(_ratio(2 * di * x, norm) for di, x in zip(self.cm.d, v))

    # -- real roots: one search, then the window translated ----------------

    def ensure_level(self, bound: int):
        """Positive real roots β with [β:α_aff] ≤ bound·[delta:α_aff].  Each is
        reached from a simple root by ascending reflections (s_i where
        K(α_i^vee, β) < 0), along which no coordinate decreases.  The
        pairings read only the nonzero entries of each Cartan row.

        Its one caller is the constructor's search for the period; every
        enumeration translates the window instead.  It keeps its name
        because perfbench traces it by that name."""
        cap = bound * self.delta[self.aff]
        units = (tuple(int(j == i) for j in range(self.n)) for i in range(self.n))
        seen = {e for e in units if e[self.aff] <= cap}
        frontier = list(seen)
        while frontier:
            nxt = []
            for root in frontier:
                for i, row in enumerate(self.cm.rows):
                    t = sum(x * root[j] for j, x in row)
                    if t >= 0 or (i == self.aff and root[i] - t > cap):
                        continue
                    img = root[:i] + (root[i] - t,) + root[i + 1:]
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        return seen

    def real_roots(self, bound: int):
        """The real roots β with |[β:α_aff]| ≤ bound·[delta:α_aff], each once,
        unordered: every window root shifted by each t·period·delta that keeps
        it in range, the inverse of `is_real_root`'s translation.  A list, as
        CPython hashes -1 and -2 alike and a set of negative roots collides."""
        cap = bound * self.delta[self.aff]
        step = self.period * self.delta[self.aff]
        shift = tuple(self.period * d for d in self.delta)
        return [tuple(x + t * s for x, s in zip(w, shift)) for w in self._window
                for t in range(-((cap + w[self.aff]) // step), (cap - w[self.aff]) // step + 1)]

    def positive_real_roots(self, bound: int):
        """Sorted positive real roots with [β:α_aff] ≤ bound·[delta:α_aff]."""
        return sorted(r for r in self.real_roots(bound) if min(r) >= 0)

    def is_real_root(self, v) -> bool:
        """Translate v by a multiple of period·delta into the window."""
        v = vec(v)
        if len(v) != self.n or any(not isinstance(x, int) for x in v):
            return False
        q = v[self.aff] // (self.period * self.delta[self.aff]) * self.period
        return tuple(x - q * d for x, d in zip(v, self.delta)) in self._window

    def is_imaginary_root(self, v) -> bool:
        v = vec(v)
        if len(v) != self.n:
            return False
        i = next((j for j, x in enumerate(v) if x != 0), None)
        if i is None or not isinstance(v[i], int) or v[i] % self.delta[i] != 0:
            return False
        k = v[i] // self.delta[i]
        return k != 0 and tuple(x * k for x in self.delta) == v

    def is_root(self, v) -> bool:
        return self.is_real_root(v) or self.is_imaginary_root(v)


def context_from_label(label: str) -> tuple:
    """(AffineContext, canonical word) for a catalog label."""
    cm, aff, word = catalog(label)
    return AffineContext(cm, aff=aff), word
