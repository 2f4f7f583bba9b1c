"""Hypothesis strategies, contexts, reference forms and script runners
shared by the test modules."""

import contextlib
import io
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from hypothesis import strategies as st

import aproots
from aproots.cartan import context_from_label
from aproots.coxeter import CoxeterContext
from aproots.errors import DeltaHasNoTubeSupport, IndexOutOfRange, NotInTube
from aproots.linalg import (
    canon,
    format_vector,
    inverse,
    kernel_basis,
    mat_vec,
    primitive_integer_vector,
    solve_general,
    vec,
)
from aproots.verification import RANK3_LABELS, RANK4_LABELS

# (AffineContext, canonical word) of a catalog label, built once and shared:
# an AffineContext is read-only after construction
affine_for = lru_cache(maxsize=None)(context_from_label)


def cc_for(label, word=None):
    """A fresh context of a catalog label, over the shared AffineContext
    (which holds no memo); the word defaults to the catalog order.  Fresh,
    so that no memo of an earlier test hides a fault a test plants."""
    ctx, default = affine_for(label)
    return CoxeterContext(ctx, word or default)


def run_python(*args, **env):
    """`python ARGS` in a subprocess that imports this package from its
    source tree, with `env` added to the environment."""
    src = str(Path(aproots.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def run_python_O(script):
    """The standard output of `script` run under `python -O`; a nonzero
    exit fails the calling test."""
    run = run_python("-O", "-c", textwrap.dedent(script))
    assert run.returncode == 0, run.stderr
    return run.stdout


def run_here(script):
    """The standard output of `script` run in this process, without `-O`:
    the twin of `run_python_O` that line tracing can see."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(textwrap.dedent(script), {})
    return out.getvalue()


@lru_cache(maxsize=None)
def _coxeter_context(label, word):
    return CoxeterContext(affine_for(label)[0], word)


@st.composite
def coxeter_contexts(draw):
    """A context of a rank-3 or rank-4 catalog label with a random word.

    Each (label, word) is built once and then shared, caches and all, so a
    failing example shrinks without rebuilding contexts.  A test that needs
    a cold context builds its own from `cc.ctx` and `cc.word`.
    """
    label = draw(st.sampled_from(RANK3_LABELS + RANK4_LABELS))
    return _coxeter_context(label, tuple(draw(st.permutations(affine_for(label)[1]))))


def reference_tau(cc, v, inverse=False):
    """tau_c^{±1}(v) with no memo: the 2n exceptions on the negative simples
    and the psi transversals, c^{±1} everywhere else."""
    table = {}
    for i in range(cc.n):
        neg = tuple(-int(j == i) for j in range(cc.n))
        table[neg], table[cc.psi_from[i]] = cc.psi_to[i], neg
    if inverse:
        return {w: u for u, w in table.items()}.get(v) or cc.c_inverse_action(v)
    return table.get(v) or cc.c_action(v)


def count_member_calls(monkeypatch, cc):
    """The list of roots `cc.member` is called with from now on, filled as
    the calls come: the admissions into the almost-positive set."""
    calls = []
    member = cc.member

    def counted(v):
        calls.append(v)
        return member(v)

    monkeypatch.setattr(cc, "member", counted)
    return calls


def gram(cm):
    """The symmetric form K(α_i, α_j) = d_i·a_ij as a matrix of row tuples."""
    return tuple(tuple(canon(di * x) for x in row) for di, row in zip(cm.d, cm.a))


def euler(cc, u_coroot, w_root):
    """E_c on (simple-coroot coordinates, simple-root coordinates), read
    off the dense unitriangular Euler matrix of the reference."""
    return sum(u * e * w for u, row in zip(u_coroot, DenseWordOrder(cc).E)
               for e, w in zip(row, w_root))


def euler_roots(cc, v, w):
    """E_c(v, w) for arbitrary vectors in simple-root coordinates."""
    return euler(cc, [x * d for x, d in zip(v, cc.cm.d)], w)


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
    return [tuple(cols[i]) for i in range(1, n)]


def outcome(f, *args):
    """f(*args), or the class and message of what it raised."""
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


class FrozensetArcs:
    """The tube-arc rules on arcs kept as sets of cycle positions, as a
    reference for the (component, start, length) record: the table built
    from the component cycles, the set tests for nesting, adjacency and
    covering, the scan for an arc's start, and the backtracking search for
    the maximal compatible sets of a component."""

    def __init__(self, cc):
        self.cc = cc
        self.table = {}     # tube root -> (component, frozenset of positions)
        for ci, comp in enumerate(cc.components):
            k = comp.rank
            for start in range(k):
                for length in range(1, k):
                    arc = frozenset((start + t) % k for t in range(length))
                    self.table[vec(map(sum, zip(*(comp.cycle[p] for p in arc))))] = (ci, arc)

    def arc(self, v):
        entry = self.table.get(v)
        if entry is not None:
            return entry
        if v == self.cc.ctx.delta or self.cc.ctx.is_imaginary_root(v):
            raise DeltaHasNoTubeSupport("imaginary roots have no well-defined arc support")
        raise NotInTube(f"{format_vector(v)} is not a tube root")

    def adjacency_count(self, alpha, beta):
        (ca, arc_a), (cb, arc_b) = self.arc(alpha), self.arc(beta)
        if ca != cb:
            return 0
        k = self.cc.components[ca].rank
        neighbours = {q for p in arc_a for q in ((p - 1) % k, (p + 1) % k)} - arc_a
        return len(neighbours & arc_b)

    def compat_circ(self, alpha, beta):
        # both arcs first, so an equal pair outside the tubes raises
        (ca, arc_a), (cb, arc_b) = self.arc(alpha), self.arc(beta)
        if alpha == beta:
            return -1
        if ca == cb and (arc_a < arc_b or arc_b < arc_a):
            return 0
        return self.adjacency_count(alpha, beta)

    def joint_full(self, alpha, beta):
        (ca, arc_a), (cb, arc_b) = self.arc(alpha), self.arc(beta)
        return ca == cb and len(arc_a | arc_b) == self.cc.components[ca].rank

    def orbit(self, v):
        """(kind, representative in omega, power) of a tube root."""
        ci, arc = self.arc(v)
        comp = self.cc.components[ci]
        k = comp.rank
        first = (comp.affine_pos + 1) % k
        start = next(p for p in arc if (p - 1) % k not in arc)
        rep = frozenset((first + t) % k for t in range(len(arc)))
        return ("finite", next(r for r, e in self.table.items() if e == (ci, rep)),
                (start - first) % k)

    def facets(self, ci):
        """The sets of rank - 1 tube roots of component ci pairwise of degree
        0 both ways, by a search over the compatible subsets."""
        k = self.cc.components[ci].rank
        roots = sorted(r for r, (cj, _) in self.table.items() if cj == ci)
        # bit j of ok[i]: roots i and j have degree 0 both ways
        ok = [sum(1 << j for j, b in enumerate(roots)
                  if self.compat_circ(a, b) == 0 == self.compat_circ(b, a)) for a in roots]
        found = []

        def grow(chosen, allowed):
            # allowed: the roots after the last chosen one that fit all chosen
            if len(chosen) == k - 1:
                found.append(tuple(roots[i] for i in chosen))
                return
            rest = allowed
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                grow(chosen + [i], allowed & ok[i] & -(low << 1))
                rest ^= low

        grow([], (1 << len(roots)) - 1)
        return found


def finite_positive_roots(cm, active):
    """All positive roots supported on `active`, in ambient coordinates, by
    closing the simple roots under the reflections in `active`.

    Only valid when the restriction to `active` is of finite type; a hard
    cap guards against misuse.
    """
    n = cm.n
    seen = set()
    frontier = []
    for i in active:
        root = tuple(1 if j == i else 0 for j in range(n))
        seen.add(root)
        frontier.append(root)
    cap = 10 ** 5
    while frontier:
        nxt = []
        for root in frontier:
            for i in active:
                img = cm.reflect(i, root)
                if img in seen:
                    continue
                if all(x >= 0 for x in img):
                    seen.add(img)
                    nxt.append(img)
                    if len(seen) > cap:
                        raise AssertionError("parabolic is not of finite type")
        frontier = nxt
    return seen


def word_sources(cm, word):
    """Letters of `word` that come before every neighbour in the word: the
    sources of its orientation (the sinks are the sources of the reverse)."""
    pos = {s: p for p, s in enumerate(word)}
    active = set(word)
    return [
        s for s in word
        if all(pos[s] < pos[t] for t in active if t != s and cm.a[s][t] != 0)
    ]


class DenseWordOrder:
    """The readers of the word for c built from the positions of its
    letters, as a reference for the strict Euler parts `lower` and `upper`
    and for the reflection walks: the dense Euler matrices E_c and
    E_{c^-1}, c and c^-1 as -E_{c^-1}^-1·E_c and -E_c^-1·E_{c^-1}, the
    transversals as columns of the inverses of the Euler matrices, the
    degree's arrows by a dense loop that compares positions, the weight map
    and its inverse through the dense rows, and source/sink moves through
    the sources of the word and of its reverse."""

    def __init__(self, cc):
        self.cc = cc
        self.pos = pos = {letter: p for p, letter in enumerate(cc.word)}
        a, n = cc.cm.a, cc.n
        self.E = tuple(tuple(a[i][j] if pos[i] > pos[j] else int(i == j) for j in range(n))
                       for i in range(n))
        self.E_inverse_word = tuple(
            tuple(a[i][j] if pos[i] < pos[j] else int(i == j) for j in range(n))
            for i in range(n))

    def coxeter(self, inverse_element=False):
        """The matrix of c, or of c^-1: -E_{c^-1}^-1·E_c, or -E_c^-1·E_{c^-1}."""
        left, right = ((self.E, self.E_inverse_word) if inverse_element
                       else (self.E_inverse_word, self.E))
        inv = inverse(left)
        return tuple(zip(*(tuple(-x for x in mat_vec(inv, col)) for col in zip(*right))))

    def psi(self, forward):
        """psi_to (forward) as the columns of E_{c^-1}^-1, psi_from as those
        of E_c^-1, keyed by letter in word order."""
        inv = inverse(self.E_inverse_word if forward else self.E)
        return {i: tuple(row[i] for row in inv) for i in self.cc.word}

    def arrows(self, alpha, beta):
        cc, pos = self.cc, self.pos
        alpha, _, cv = cc.member(alpha)[:3]
        beta = cc.member(beta)[0]
        a = cc.cm.a
        base = sum(x * y for x, y in zip(cv, beta))
        cv_pos = [x if x > 0 else 0 for x in cv]
        beta_pos = [x if x > 0 else 0 for x in beta]
        lower = upper = 0
        for i in range(cc.n):
            if not cv_pos[i]:
                continue
            for j in range(cc.n):
                if j == i or not a[i][j] or not beta_pos[j]:
                    continue
                if pos[i] > pos[j]:
                    lower += a[i][j] * cv_pos[i] * beta_pos[j]
                else:
                    upper += a[i][j] * cv_pos[i] * beta_pos[j]
        return canon(-base - lower), canon(-base - upper)

    def nu(self, v):
        v = vec(v)
        plus = tuple(x if x > 0 else 0 for x in v)
        out = []
        for i in range(self.cc.n):
            val = -sum(e * p for e, p in zip(self.E[i], plus) if e)
            if v[i] < 0:
                val -= v[i]
            out.append(canon(val))
        return tuple(out)

    def nu_inverse(self, weight):
        weight = vec(weight)
        word = self.cc.word
        v = [0] * self.cc.n
        for p, i in enumerate(word):
            v[i] = -weight[i] - sum(self.E[i][j] * max(v[j], 0) for j in word[:p])
        return vec(v)

    def source_sink_move(self, s):
        """The word of the moved context."""
        cm, word = self.cc.cm, list(self.cc.word)
        if s in word_sources(cm, self.cc.word):
            word.remove(s)
            word.append(s)
        elif s in word_sources(cm, self.cc.word[::-1]):
            word.remove(s)
            word.insert(0, s)
        else:
            raise IndexOutOfRange(f"letter {s + 1} is neither initial nor final")
        return tuple(word)


def solved_phi(cc):
    """(gamma_c, phi_c's functional, phi_c in weight coordinates) through a
    dense solve, as a reference for phi_c read off the Euler rows: gamma
    solved from A·gamma = E_c·delta with gamma_aff = 0 (E_c the dense Euler
    matrix), the functional as K·gamma, and the weight coordinates as
    the functional over the symmetrizers, scaled to a leading entry of ±1."""
    ctx, n = cc.ctx, cc.n
    rows = [list(row) for row in cc.cm.a] + [[int(j == ctx.aff) for j in range(n)]]
    gamma = solve_general(rows, list(mat_vec(DenseWordOrder(cc).E, ctx.delta)) + [0])
    fun = mat_vec(gram(cc.cm), gamma)
    weight = [Fraction(f) / Fraction(d) for f, d in zip(fun, cc.cm.d)]
    scale = abs(next(w for w in weight if w != 0))
    return gamma, fun, vec(w / scale for w in weight)


def kernel_delta_vee_coroot(cm):
    """delta^vee in simple-coroot coordinates as the primitive vector of the
    kernel of the transposed Cartan matrix, as a reference for D·delta."""
    return primitive_integer_vector(kernel_basis([list(r) for r in zip(*cm.a)])[0])
