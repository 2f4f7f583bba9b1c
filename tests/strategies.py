"""Hypothesis strategies and reference forms shared by the test modules."""

from functools import lru_cache

from hypothesis import strategies as st

from aproots.cartan import context_from_label
from aproots.coxeter import CoxeterContext
from aproots.verification import RANK3_LABELS, RANK4_LABELS

_affine = lru_cache(maxsize=None)(context_from_label)


@lru_cache(maxsize=None)
def _coxeter_context(label, word):
    return CoxeterContext(_affine(label)[0], word)


@st.composite
def coxeter_contexts(draw):
    """A context of a rank-3 or rank-4 catalog label with a random word.

    Each (label, word) is built once and then shared, caches and all, so a
    failing example shrinks without rebuilding contexts.  A test that needs
    a cold context builds its own from `cc.ctx` and `cc.word`.
    """
    label = draw(st.sampled_from(RANK3_LABELS + RANK4_LABELS))
    return _coxeter_context(label, tuple(draw(st.permutations(_affine(label)[1]))))


def euler(cc, u_coroot, w_root):
    """E_c on (simple-coroot coordinates, simple-root coordinates), read
    off the unitriangular Euler matrix `cc.E`."""
    return sum(u * e * w for u, row in zip(u_coroot, cc.E) for e, w in zip(row, w_root))


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
