"""Real-root enumeration, supports, coroots, and parabolic restriction.

Roots are plain coordinate tuples in the simple-root basis.  Enumeration is
graded by the delta-level |[β:α_aff]| / [delta:α_aff] and returned in
lexicographic order so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import (
    AffineContext,
    CartanMatrix,
    Kind,
    classify,
    finite_positive_roots,
    validate_cartan,
)
from .errors import NotAffine, NotARoot
from .linalg import vec


@dataclass(frozen=True)
class Root:
    vec: tuple
    is_real: bool
    coroot: tuple   # simple-coroot coordinates (delta_vee coordinates for delta)


def neg_simple(n: int, i: int) -> tuple:
    """The negative simple root -α_i in rank n."""
    return tuple(-1 if j == i else 0 for j in range(n))


def neg_simple_index(v):
    """i when v is the negative simple -α_i, else None."""
    idx = None
    for i, x in enumerate(v):
        if x == 0:
            continue
        if x == -1 and idx is None:
            idx = i
        else:
            return None
    return idx


def deformed_reflection(cm: CartanMatrix, s: int, v):
    """sigma_s on -Π ∪ Φ+: fixes every negative simple except -α_s and
    reflects everything else in α_s."""
    neg = neg_simple_index(v)
    if neg is not None and neg != s:
        return v
    return cm.reflect(s, v)


def support(v) -> frozenset:
    return frozenset(i for i, x in enumerate(v) if x != 0)


def roots_up_to_level(ctx, bound: int):
    """All roots β with |[β:α_aff]| ≤ bound·[delta:α_aff], plus ±k·delta.

    For a finite-type Cartan matrix, pass the matrix itself: the full finite
    root set is returned and the bound is ignored.
    """
    if isinstance(ctx, CartanMatrix) and classify(ctx).kind is Kind.FINITE:
        pos = finite_positive_roots(ctx, range(ctx.n))
        return sorted(pos | {tuple(-x for x in r) for r in pos})
    if not isinstance(ctx, AffineContext):
        raise NotAffine("expected a finite-type matrix or an AffineContext")
    pos = ctx.ensure_level(bound)
    # the simples are part of every bounded enumeration, whatever the bound
    for i in range(ctx.n):
        pos.add(tuple(1 if j == i else 0 for j in range(ctx.n)))
    full = set(pos)
    full.update(tuple(-x for x in r) for r in pos)
    for k in range(1, bound + 1):
        full.add(tuple(k * x for x in ctx.delta))
        full.add(tuple(-k * x for x in ctx.delta))
    return sorted(full)


def as_root(ctx: AffineContext, v) -> Root:
    v = vec(v)
    if ctx.is_real_root(v):
        return Root(vec=v, is_real=True, coroot=ctx.coroot_coords(v))
    if not ctx.is_imaginary_root(v):
        raise NotARoot(str(v))
    i = next(j for j, x in enumerate(v) if x != 0)
    k = v[i] // ctx.delta[i]
    return Root(vec=v, is_real=False,
                coroot=tuple(k * x for x in ctx.delta_vee_coroot))


def parabolic_restriction(cm: CartanMatrix, subset):
    """Sub-Cartan matrix on `subset` (0-based, kept in increasing order).

    Returns (sub_matrix, classification, index_map) where index_map[j] is the
    ambient index of the j-th node of the restriction.
    """
    keep = sorted(set(subset))
    raw = [[cm.a[i][j] for j in keep] for i in keep]
    sub = validate_cartan(raw) if keep else None
    cls = classify(sub) if keep else None
    return sub, cls, tuple(keep)
