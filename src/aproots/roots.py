"""Real-root enumeration and the deformed reflections on -Π ∪ Φ+.

Roots are plain coordinate tuples in the simple-root basis.  Enumeration is
graded by the delta-level |[β:α_aff]| / [delta:α_aff] and returned in
lexicographic order so results are deterministic.  It runs no search: it
adds the simples outside the bound and ±k·delta to `AffineContext.real_roots`.
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
    out = ctx.real_roots(bound)
    # the simples are part of every bounded enumeration, whatever the bound:
    # add each one whose [α_i:α_aff] passes the cap, with its negative
    cap = bound * ctx.delta[ctx.aff]
    for i in range(ctx.n):
        if int(i == ctx.aff) > cap:
            out += [tuple(int(j == i) for j in range(ctx.n)), neg_simple(ctx.n, i)]
    out += [tuple(k * x for x in ctx.delta) for k in range(-bound, bound + 1) if k]
    return sorted(out)
