"""The almost-positive root set of a Coxeter element.

The set consists of the negative simples, all positive real roots off the
finite-order hyperplane, the positive real finite-orbit roots whose arc
support is proper, and delta.  It is infinite: membership is
`CoxeterContext.phi_c_class`, and this module gives bounded enumerations
indexed by the tau-power reach.
"""

from __future__ import annotations

from .coxeter import CoxeterContext
from .errors import NegativeBound


def enumerate_phi_c(cc: CoxeterContext, m_bound: int):
    """Negative simples, tube roots, delta, and c^m-translates of the two
    transversal families for 0 ≤ m ≤ m_bound, in lexicographic order.

    The five families are pairwise disjoint, so the result has
    2n(m_bound + 1) + n + |tube roots| + 1 entries.
    """
    if m_bound < 0:
        raise NegativeBound(f"move bound {m_bound} is below zero")
    pieces = []
    pieces.append(cc.ctx.neg_simples)
    pieces.append(cc.tube_roots())
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
    return sorted({root for p in pieces for root in p})


def export_enumeration(cc: CoxeterContext, m_bound: int):
    """JSON-ready enumeration with membership class tags."""
    out = []
    for root in enumerate_phi_c(cc, m_bound):
        out.append({"root": [int(x) for x in root],
                    "class": cc.phi_c_class(root)})
    return out
