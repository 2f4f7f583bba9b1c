"""Unique cluster expansions and the imaginary cone.

Every vector has a unique expansion as a nonnegative combination of pairwise
compatible almost-positive roots.  The constructive path:

* vectors inside the imaginary cone (the span of the finite-orbit simples)
  are peeled greedily within each component cycle after normalizing out a
  delta multiple;
* any other vector is rotated by a recorded sequence of source/sink moves
  until a simple-root coordinate becomes nonpositive, split into negative
  simples plus a vector supported on a proper (hence finite) parabolic,
  expanded there recursively, and pulled back through the deformed
  reflections.
"""

from __future__ import annotations

from fractions import Fraction

from .coxeter import CoxeterContext, _word_sources
from .errors import NotInImaginaryCone
from .linalg import canon, vec
from .roots import deformed_reflection, neg_simple


# ---------------------------------------------------------------------------
# the imaginary cone
# ---------------------------------------------------------------------------

def _hyperplane_coordinates(cc: CoxeterContext, v):
    """Write v in the basis {delta} ∪ fin-simples of the hyperplane.

    Returns (z, zf) with zf a dict fin-simple -> coefficient, or None when v
    is outside the hyperplane's span.
    """
    from .linalg import solve_general

    basis = [cc.ctx.delta] + list(cc.fin_simples)
    rows = [[b[i] for b in basis] for i in range(cc.n)]
    sol = solve_general(rows, list(v))
    if sol is None:
        return None
    return sol[0], dict(zip(cc.fin_simples, sol[1:]))


def _component_slack(cc: CoxeterContext, zf):
    """Per-component minimal affine-simple coefficients for a nonneg expression."""
    slack = []
    for comp in cc.components:
        worst = max((-zf[f] for f in comp.fin_simples), default=0)
        slack.append(max(0, worst))
    return slack


def _delta_cone_margin(cc: CoxeterContext, v):
    """How far v's delta coefficient exceeds the least one that keeps v in
    the imaginary cone (negative outside it), or None off the hyperplane."""
    v = vec(v)
    if cc.phi(v) != 0:
        return None
    coords = _hyperplane_coordinates(cc, v)
    if coords is None:
        return None
    z, zf = coords
    slack = _component_slack(cc, zf)
    return z - sum(comp.delta_multiple * s for comp, s in zip(cc.components, slack))


def in_delta_cone(cc: CoxeterContext, v) -> bool:
    margin = _delta_cone_margin(cc, v)
    return margin is not None and margin >= 0


def in_delta_cone_interior(cc: CoxeterContext, v) -> bool:
    """Relative-interior test: v - t·delta stays in the cone for some t > 0."""
    margin = _delta_cone_margin(cc, v)
    return margin is not None and margin > 0


def imaginary_expansion(cc: CoxeterContext, v):
    """Expansion of a vector of the imaginary cone over tube roots and delta."""
    v = vec(v)
    coords = _hyperplane_coordinates(cc, v) if cc.phi(v) == 0 else None
    if coords is None:
        raise NotInImaginaryCone(f"{v} lies off the hyperplane of the imaginary cone")
    z, zf = coords
    terms = {}
    used = 0
    for comp in cc.components:
        t = max([0] + [-zf[f] for f in comp.fin_simples])
        used += comp.delta_multiple * t
        y = {}
        for p, root in enumerate(comp.cycle):
            y[p] = t if p == comp.affine_pos else canon(zf[root] + t)
            assert y[p] >= 0
        zeros = [p for p in range(comp.rank) if y[p] == 0]
        assert zeros, "normal form must have a zero per component"
        runs = _cyclic_runs(comp.rank, zeros)
        for run in runs:
            _peel_run(comp, y, run, terms)
    rest = canon(z - used)
    if rest < 0:
        raise NotInImaginaryCone(f"{v} lies outside the imaginary cone")
    if rest != 0:
        terms[cc.ctx.delta] = canon(terms.get(cc.ctx.delta, 0) + rest)
    return terms


def _cyclic_runs(k, zeros):
    """Maximal arcs of {0..k-1} avoiding the zero positions."""
    zs = sorted(zeros)
    runs = []
    for idx, z in enumerate(zs):
        nxt = zs[(idx + 1) % len(zs)]
        length = (nxt - z - 1) % k
        if length:
            runs.append([(z + 1 + t) % k for t in range(length)])
    return runs


def _peel_run(comp, y, run, terms):
    """Strip min-coefficient times the full-run root, recursing on the pieces."""
    stack = [run]
    while stack:
        cur = stack.pop()
        if not cur:
            continue
        low = min(y[p] for p in cur)
        if low > 0:
            root = [0] * len(comp.cycle[0])
            for p in cur:
                root = [a + b for a, b in zip(root, comp.cycle[p])]
            root = tuple(root)
            terms[root] = canon(terms.get(root, 0) + low)
            for p in cur:
                y[p] = canon(y[p] - low)
        piece = []
        for p in cur:
            if y[p] > 0:
                piece.append(p)
            elif piece:
                stack.append(piece)
                piece = []
        if piece and len(piece) < len(cur):
            stack.append(piece)


# ---------------------------------------------------------------------------
# rotations to a nonpositive coordinate
# ---------------------------------------------------------------------------

def _apply_source(cm, word, s, v):
    word = list(word)
    word.remove(s)
    word.append(s)
    return word, cm.reflect(s, v)


def rotate_affine(cc: CoxeterContext, v):
    """Source/sink moves until some simple-root coordinate is nonpositive.

    Returns (letters, rotated_vector, rotated_word).  Intermediate vectors
    are strictly positive, which the pull-back of the expansion requires.
    """
    cm = cc.cm
    word = list(cc.word)
    letters = []
    if min(v) <= 0:
        return letters, v, word
    sign = cc.phi(v)
    if sign == 0:
        return _rotate_bfs(cc, v)
    height = sum(abs(Fraction(x)) for x in v)
    cap = 64 * cc.n * (1 + int(height)) + 8 * cc.n * cc.m_bound
    for _ in range(cap):
        if sign > 0:
            s = word[0]
            word = word[1:] + [s]
        else:
            s = word[-1]
            word = [s] + word[:-1]
        v = cm.reflect(s, v)
        letters.append(s)
        if min(v) <= 0:
            return letters, v, word
    raise AssertionError("rotation cap exhausted")


def _rotate_bfs(cc: CoxeterContext, v):
    """Minimal source-move sequence for hyperplane vectors, found breadth-first."""
    cm = cc.cm
    start = (tuple(cc.word), vec(v))
    frontier = [(start, [])]
    seen = {start}
    for _ in range(cc.m_bound + 1):
        nxt = []
        for (word, cur), letters in frontier:
            for s in _word_sources(cm, word):
                nword, nv = _apply_source(cm, list(word), s, cur)
                state = (tuple(nword), nv)
                if state in seen:
                    continue
                seen.add(state)
                path = letters + [s]
                if min(nv) <= 0:
                    return path, nv, list(nword)
                nxt.append((state, path))
        frontier = nxt
    raise AssertionError("hyperplane rotation exceeded the move bound")


# ---------------------------------------------------------------------------
# finite-parabolic expansion
# ---------------------------------------------------------------------------

def expand_in_parabolic(cm, word, v):
    """Unique expansion of v inside the finite parabolic spanned by `word`."""
    v = vec(v)
    if all(x == 0 for x in v):
        return {}
    active = list(word)
    assert all(v[i] == 0 for i in range(cm.n) if i not in set(active))
    if any(v[i] <= 0 for i in active):
        terms = {}
        plus = []
        vv = list(v)
        for i in active:
            if v[i] < 0:
                terms[neg_simple(cm.n, i)] = -v[i]
                vv[i] = 0
            elif v[i] > 0:
                plus.append(i)
        sub = [s for s in word if s in set(plus)]
        inner = expand_in_parabolic(cm, sub, tuple(vv))
        for root, coeff in inner.items():
            assert root not in terms
            terms[root] = coeff
        return terms
    # strictly positive on the active set: rotate within the parabolic
    letters = []
    cur = v
    wrd = list(word)
    cap = 64 * len(active) * len(active) + 64
    for _ in range(cap):
        s = wrd[0]
        wrd = wrd[1:] + [s]
        cur = cm.reflect(s, cur)
        letters.append(s)
        if any(cur[i] <= 0 for i in active):
            break
    else:
        raise AssertionError("finite rotation cap exhausted")
    inner = expand_in_parabolic(cm, wrd, cur)
    return _pull_back(cm, letters, inner)


def _pull_back(cm, letters, terms):
    for s in reversed(letters):
        terms = {deformed_reflection(cm, s, root): coeff for root, coeff in terms.items()}
    return terms


# ---------------------------------------------------------------------------
# the full expansion
# ---------------------------------------------------------------------------

def cluster_expansion(cc: CoxeterContext, v):
    """The unique cluster expansion of v as a dict root -> positive coefficient."""
    v = vec(v)
    if all(x == 0 for x in v):
        return {}
    if cc.phi(v) == 0 and in_delta_cone(cc, v):
        return imaginary_expansion(cc, v)
    letters, rotated, word = rotate_affine(cc, v)
    return _pull_back(cc.cm, letters, expand_in_parabolic(cc.cm, word, rotated))
