"""Real-root enumeration and the deformed reflections on -Π ∪ Φ+.

Roots are plain coordinate tuples in the simple-root basis.  Enumeration is
graded by the delta-level |[β:α_aff]| / [delta:α_aff] and returned in
lexicographic order so results are deterministic.
"""

from __future__ import annotations

from functools import cache

from .cartan import AffineContext, CartanMatrix
from .errors import NotAffine


@cache
def neg_simple(n: int, i: int) -> tuple:
    """The negative simple root -α_i in rank n, built once per (n, i)."""
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


def roots_up_to_level(ctx, bound: int):
    """All roots β with |[β:α_aff]| ≤ bound·[delta:α_aff], plus ±k·delta."""
    if not isinstance(ctx, AffineContext):
        raise NotAffine("expected an AffineContext")
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
