"""Unique cluster expansions and the imaginary cone.

Every vector has a unique expansion as a nonnegative combination of pairwise
compatible almost-positive roots.  The constructive path:

* a vector inside the imaginary cone (the span of the finite-orbit simples
  and delta) has, after normalizing out a delta multiple, a nonnegative
  coefficient vector y on each component cycle with a zero in it; it is
  split by level: for each positive value of y, every maximal cyclic run of
  positions where y reaches it is a proper arc, and its tube root takes the
  step from the next lower value;
* any other vector is rotated by source moves (sink moves when phi(v) < 0)
  until a simple-root coordinate becomes nonpositive, split into negative
  simples plus a vector supported on a proper (hence finite) parabolic,
  expanded there by the same rotation and split, and pulled back through
  the deformed reflections.  By uniqueness any sequence of source moves
  gives the same expansion, so one rotation order serves every case.

Expansions are positively homogeneous: a rational v is scaled once, by the
lcm m of its denominators, and m·v is expanded in int arithmetic.
`cluster_expansion` reads phi(m·v) once: on the hyperplane, the cone
coordinates `imaginary_expansion` reads (one `mat_vec` by the context's cached
integer inverse of the hyperplane basis) are the one imaginary-cone decision;
`rotate_affine` takes the sign it is given.  A letter changes one coordinate,
updated in place; each parabolic level is one call, and its pull-back walks
each root through the level's letters with the context's sigma memos.
"""

from __future__ import annotations

from itertools import cycle
from math import lcm

from .coxeter import CoxeterContext
from .errors import NotInImaginaryCone
from .linalg import _ratio, format_vector, mat_vec, scale_to_integers, vec
from .roots import deformed_reflection


# ---------------------------------------------------------------------------
# the imaginary cone
# ---------------------------------------------------------------------------

def _cone_coordinates(cc: CoxeterContext, v):
    """(fin-simple coordinates, per-component slack, margin, den) of an int
    v on the hyperplane, or None off it.  The first three are ints, den
    times their true values, read off v with one `mat_vec` by the context's
    hyperplane inverse.

    The slack of a component is the least t >= 0 keeping every fin-simple
    coefficient of the component at least -t; the margin is how far v's
    delta coefficient exceeds the least one that keeps v in the imaginary
    cone (negative outside it).
    """
    if cc.phi(v) != 0:
        return None
    rows, inv, den = cc.hyperplane_inverse
    z, *zf = mat_vec(inv, [v[i] for i in rows])
    zf = dict(zip(cc.fin_simples, zf))
    slack = [max([0] + [-zf[f] for f in comp.fin_simples]) for comp in cc.components]
    used = sum(comp.delta_multiple * t for comp, t in zip(cc.components, slack))
    return zf, slack, z - used, den


def in_delta_cone(cc: CoxeterContext, v) -> bool:
    coords = _cone_coordinates(cc, scale_to_integers(v)[1])
    return coords is not None and coords[2] >= 0


def in_delta_cone_interior(cc: CoxeterContext, v) -> bool:
    """Relative-interior test: v - t·delta stays in the cone for some t > 0."""
    coords = _cone_coordinates(cc, scale_to_integers(v)[1])
    return coords is not None and coords[2] > 0


def imaginary_expansion(cc: CoxeterContext, v):
    """Expansion of a vector of the imaginary cone over tube roots and delta."""
    v = vec(v)
    m, ints = scale_to_integers(v)
    coords = _cone_coordinates(cc, ints)
    if coords is None:
        raise NotInImaginaryCone(
            f"{format_vector(v)} lies off the hyperplane of the imaginary cone")
    zf, slack, margin, den = coords
    if margin < 0:
        raise NotInImaginaryCone(f"{format_vector(v)} lies outside the imaginary cone")
    terms = {}
    for ci, (comp, t) in enumerate(zip(cc.components, slack)):
        # nonnegative, with a zero at the affine position or at the most
        # negative fin-simple, so that every run below is a proper arc
        y = [t if p == comp.affine_pos else zf[root] + t for p, root in enumerate(comp.cycle)]
        below = 0
        for level in sorted(set(y) - {0}):
            for start in range(comp.rank):
                if y[start] >= level > y[start - 1]:
                    length = 1
                    while y[(start + length) % comp.rank] >= level:
                        length += 1
                    root = cc.arc_roots[ci, start, length]
                    terms[root] = terms.get(root, 0) + level - below
            below = level
    if margin != 0:
        terms[cc.ctx.delta] = margin
    return _divided(terms, m * den)


def _divided(terms, m):
    """terms with every coefficient divided by the positive int m."""
    return terms if m == 1 else {r: _ratio(c, m) for r, c in terms.items()}


# ---------------------------------------------------------------------------
# rotation to a nonpositive coordinate
# ---------------------------------------------------------------------------

def _rotate(cm, word, v, active, cap, sink=False):
    """Source moves (sink moves when `sink`) until a coordinate of v on the
    `active` letters is nonpositive; at most `cap` of them.

    Letters come off `word` cyclically (from its end for sink moves); s sets
    v[s] -= sum of a_sj·v[j], so only v[s] needs a test after the first scan.
    Returns (letters, rotated_vector, rotated_word).
    """
    for i in active:
        if v[i] <= 0:
            return [], v, list(word)
    v = list(v)
    letters = []
    for s in cycle(word[::-1] if sink else word):
        if len(letters) == cap:
            raise AssertionError("rotation cap exhausted")
        x = v[s]
        for j, a in cm.rows[s]:
            x -= a * v[j]
        v[s] = x
        letters.append(s)
        if x <= 0:
            break
    word = list(word)
    t = len(letters) % len(word)
    return letters, tuple(v), word[-t:] + word[:-t] if sink else word[t:] + word[:t]


def rotate_affine(cc: CoxeterContext, v, sign):
    """Source moves (sink moves when sign < 0) until some simple-root
    coordinate is nonpositive.

    Returns (letters, rotated_vector, rotated_word) for an int v and the
    phi(v) that `cluster_expansion` read.  Intermediate vectors are strictly
    positive, which the pull-back of the expansion requires.  On the
    hyperplane phi = 0, c permutes each component cycle and fixes delta, and
    these span the hyperplane, so after n·lcm(component ranks) letters the
    word and the vector repeat: a vector outside the imaginary cone turns
    nonpositive within that period.
    """
    if sign == 0:
        cap = cc.n * lcm(*(comp.rank for comp in cc.components))
    else:
        height = sum(abs(x) for x in v)
        cap = 64 * cc.n * (1 + int(height)) + 8 * cc.n * cc.m_bound
    return _rotate(cc.cm, cc.word, v, range(cc.n), cap, sink=sign < 0)


# ---------------------------------------------------------------------------
# finite-parabolic expansion
# ---------------------------------------------------------------------------

def expand_in_parabolic(cc: CoxeterContext, word, v):
    """Unique expansion of v inside the finite parabolic spanned by `word`.

    v is an int tuple supported on the letters of `word`: rotated (by no letter
    if a coordinate is nonpositive), split, recursed on and pulled back.
    """
    k = len(word)
    letters, v, word = _rotate(cc.cm, word, v, word, 64 * k * k + 64)
    terms, sub = {}, []
    for i in word:
        if v[i] < 0:
            terms[cc.ctx.neg_simples[i]] = -v[i]
        elif v[i]:
            sub.append(i)
    if sub:
        terms.update(expand_in_parabolic(cc, sub, tuple([x if x > 0 else 0 for x in v])))
    return _pull_back(cc, letters, terms)


def _pull_back(cc: CoxeterContext, letters, terms):
    """The expansion `terms` after the source moves `letters` carried back:
    each root through sigma_s for each letter, the last first, each image
    read from the memo of sigma_s or computed and stored; the roots lie in
    -Π ∪ Φ+, on which sigma_s is a bijection, so no two roots meet."""
    memos, cm = cc._sigma, cc.cm
    back = letters[::-1]
    pulled = {}
    for root, coeff in terms.items():
        for s in back:
            memo = memos[s]
            if (image := memo.get(root)) is None:
                image = memo[root] = deformed_reflection(cm, s, root)
            root = image
        pulled[root] = coeff
    return pulled


# ---------------------------------------------------------------------------
# the full expansion
# ---------------------------------------------------------------------------

def cluster_expansion(cc: CoxeterContext, v):
    """The unique cluster expansion of v as a dict root -> positive coefficient."""
    m, v = scale_to_integers(v)
    if not any(v):
        return {}
    sign = cc.phi(v)
    if sign == 0:
        try:
            return _divided(imaginary_expansion(cc, v), m)
        except NotInImaginaryCone:   # outside the cone: it turns within one period
            pass
    letters, rotated, word = rotate_affine(cc, v, sign)
    return _divided(_pull_back(cc, letters, expand_in_parabolic(cc, word, rotated)), m)
