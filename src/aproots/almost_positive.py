"""The almost-positive root set of a Coxeter element.

The set consists of the negative simples, all positive real roots off the
finite-order hyperplane, the positive real finite-orbit roots whose arc
support is proper, and delta.  It is infinite, so the public surface is a
membership test plus bounded enumerations indexed by the tau-power reach.
"""

from __future__ import annotations

from .coxeter import DELTA, NEG_SIMPLE, TRANSIENT, TUBE, CoxeterContext
from .errors import NegativeBound
from .roots import neg_simple

CLASSES = (NEG_SIMPLE, TRANSIENT, TUBE, DELTA)


def classify_membership(cc: CoxeterContext, v):
    """The membership class of v, or None when v is outside the set."""
    return cc.phi_c_class(v)


def is_in_phi_c(cc: CoxeterContext, v) -> bool:
    return cc.phi_c_class(v) is not None


def tube_roots(cc: CoxeterContext):
    return cc.tube_roots()


def neg_simples(cc: CoxeterContext):
    return [neg_simple(cc.n, i) for i in range(cc.n)]


def enumerate_phi_c(cc: CoxeterContext, m_bound: int):
    """Negative simples, tube roots, delta, and c^m-translates of the two
    transversal families for 0 ≤ m ≤ m_bound, in lexicographic order.

    The five families are pairwise disjoint; this is asserted.
    """
    if m_bound < 0:
        raise NegativeBound(f"move bound {m_bound} is below zero")
    pieces = []
    pieces.append(neg_simples(cc))
    pieces.append(tube_roots(cc))
    pieces.append([cc.ctx.delta])
    forward = []
    backward = []
    for i in range(cc.n):
        v = cc.psi_to[i]
        w = cc.psi_from[i]
        for _ in range(m_bound + 1):
            forward.append(v)
            backward.append(w)
            v = cc.c_action(v)
            w = cc.c_inverse_action(w)
    pieces.append(forward)
    pieces.append(backward)
    total = sum(len(p) for p in pieces)
    merged = set()
    for p in pieces:
        merged.update(p)
    assert len(merged) == total, "transversal families must be disjoint"
    return sorted(merged)


def phi_c_inverse_invariance_check(cc: CoxeterContext, m_bound: int = 3) -> bool:
    """The set is the same for c and c^{-1} (bounded enumerations agree)."""
    other = cc.inverse_context()
    return set(enumerate_phi_c(cc, m_bound)) == set(enumerate_phi_c(other, m_bound))


def export_enumeration(cc: CoxeterContext, m_bound: int):
    """JSON-ready enumeration with membership class tags."""
    out = []
    for root in enumerate_phi_c(cc, m_bound):
        out.append({"root": [int(x) for x in root],
                    "class": cc.phi_c_class(root)})
    return out
