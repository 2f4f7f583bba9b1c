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
