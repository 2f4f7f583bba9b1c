"""The compatibility degree and its computation paths.

For roots α, β in the almost-positive set the degree is

    max(arrow_to(α, β), arrow_from(α, β))

except when both roots have finite tau-orbits and their joint arc support
covers a whole component cycle; in that exceptional case it is the adjacency
count of the two arcs.  For α = -α_k both arrows are β_k, the base law;
otherwise they are ⟨α^vee, nu_c(β)⟩ and ⟨α^vee, nu_{c^{-1}}(β)⟩, the coroot
of α paired with the weight maps of c and of c^{-1} at β, which on positive
β are -E_c(α^vee, β) and -E_{c^{-1}}(α^vee, β).

Each public call admits each root argument once, as a canonical int tuple,
by `CoxeterContext.member`, whose record of a member holds both weights;
`compat_arrows` is the degree's admission, and a pair of tube roots, members
by construction, needs none.  `compat_circ` is the rule for tube roots; it
reads each root's arc, its (component, start, length), and tests nesting,
adjacency and covering as cyclic intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .coxeter import NEG_SIMPLE, CoxeterContext
from .errors import DeltaHasNoTubeSupport, NotDistinct, NotInTube
from .linalg import format_vector, vec


@dataclass(frozen=True)
class TubeSupport:
    component: int
    arc: frozenset       # positions within the component cycle


@dataclass(frozen=True)
class CompatibilityValue:
    degree: object
    branch: str                      # "coordinate-max" or "tube-adjacency"
    arrow_to: object | None = None
    arrow_from: object | None = None


def coroot_coordinates(cc: CoxeterContext, v):
    """Simple-coroot coordinates of v^vee for any member of the set."""
    return cc.member(v)[2]


def tube_support(cc: CoxeterContext, v) -> TubeSupport:
    """Arc support of a tube root over its component's cycle."""
    ci, start, length = _arc(cc, v)
    k = cc.components[ci].rank
    return TubeSupport(ci, frozenset((start + t) % k for t in range(length)))


def _arc(cc: CoxeterContext, v):
    """(component, start, length) of a tube root."""
    entry = cc.tube_arcs.get(tuple(v))
    if entry is not None:
        return entry
    if cc.ctx.is_imaginary_root(v):
        raise DeltaHasNoTubeSupport("imaginary roots have no well-defined arc support")
    raise NotInTube(f"{format_vector(v)} is not a tube root")


def _inside(k, start, length, outer_start, outer_length):
    """Whether the arc (start, length) of a k-cycle lies in the outer one."""
    return (start - outer_start) % k + length <= outer_length


def adjacency_count(cc: CoxeterContext, alpha, beta) -> int:
    """Number of cycle nodes adjacent to the arc of α and inside the arc of β."""
    ca, sa, la = _arc(cc, alpha)
    cb, sb, lb = _arc(cc, beta)
    if ca != cb:
        return 0
    k = cc.components[ca].rank
    # the neighbours of α's arc, one node when the arc leaves one out
    return sum(_inside(k, q, 1, sb, lb) for q in {(sa - 1) % k, (sa + la) % k})


def compat_circ(cc: CoxeterContext, alpha, beta):
    """Support-combinatorial expression of the degree on finite-orbit roots."""
    ca, sa, la = _arc(cc, alpha)
    cb, sb, lb = _arc(cc, beta)
    if (ca, sa, la) == (cb, sb, lb):
        return -1
    k = cc.components[ca].rank
    if ca == cb and (_inside(k, sa, la, sb, lb) or _inside(k, sb, lb, sa, la)):
        return 0
    return adjacency_count(cc, alpha, beta)


def compat_arrows(cc: CoxeterContext, alpha, beta):
    """(arrow_to, arrow_from): β_k twice for α = -α_k, else the coroot
    coordinates cv of α paired with nu_c(β) and with nu_{c^-1}(β)."""
    alpha, cls, cv, _, _ = cc.member(alpha)
    beta, _, _, nu_to, nu_from = cc.member(beta)
    if cls == NEG_SIMPLE:
        k = cc.neg_simple_index(alpha)
        return beta[k], beta[k]
    return sum(map(mul, cv, nu_to)), sum(map(mul, cv, nu_from))


def _joint_component_full(cc: CoxeterContext, alpha, beta) -> bool:
    """Whether the two arcs cover their cycle: β's complement, the arc
    (sb + lb, k - lb), lies in α's arc."""
    ca, sa, la = _arc(cc, alpha)
    cb, sb, lb = _arc(cc, beta)
    k = cc.components[ca].rank
    return ca == cb and _inside(k, sb + lb, k - lb, sa, la)


def compatibility_degree(cc: CoxeterContext, alpha, beta) -> CompatibilityValue:
    arcs = cc.tube_arcs
    if tuple(alpha) in arcs and tuple(beta) in arcs and _joint_component_full(cc, alpha, beta):
        return CompatibilityValue(
            degree=adjacency_count(cc, alpha, beta), branch="tube-adjacency"
        )
    to, frm = compat_arrows(cc, alpha, beta)
    return CompatibilityValue(
        degree=max(to, frm), branch="coordinate-max", arrow_to=to, arrow_from=frm
    )


def degree(cc: CoxeterContext, alpha, beta):
    """Bare degree value; memoized on the context under the roots as given,
    since an int and its equal `Fraction` hash the same.  A miss admits them
    once, in `compat_arrows`, unless both are tube roots."""
    cache = cc.degree_cache
    key = (tuple(alpha), tuple(beta))
    hit = cache.get(key)
    if hit is None:
        hit = compatibility_degree(cc, *key).degree
        cache[key] = hit
    return hit


def is_compatible(cc: CoxeterContext, alpha, beta) -> bool:
    alpha, beta = vec(alpha), vec(beta)
    if alpha == beta:
        raise NotDistinct(f"the two roots must differ, both are {format_vector(alpha)}")
    return degree(cc, alpha, beta) == 0
