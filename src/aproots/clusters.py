"""Clusters, the exchange graph, exchangeability, and the piecewise-linear
weight map.

A cluster is a maximal set of pairwise compatible almost-positive roots:
real clusters have n elements and form a lattice basis, imaginary clusters
have n-1 elements, contain delta, and otherwise consist of finite-orbit
roots: one maximal set of pairwise nested-or-apart arcs per tube,
generated from the arcs, not searched.  Every facet of a real cluster cone
is shared with exactly one other real cone, so exchange across it always
produces the unique neighbouring real cluster.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import mul

from . import compatibility as compat
from .coxeter import CoxeterContext
from .errors import NotACluster, RankOutOfRange, RootNotInCluster
from .expansion import cluster_expansion, in_delta_cone_interior
from .linalg import (cross, det, divided, format_vector, in_simplicial_cone,
                     primitive_integer_vector, scale_to_integers, vec)

REAL = "real"
IMAGINARY = "imaginary"


def is_cluster(cc: CoxeterContext, roots):
    """Classify a set of vectors as a real cluster, an imaginary cluster, or
    neither; returns (kind-or-None, reason)."""
    roots = sorted(vec(r) for r in roots)
    if len(set(roots)) != len(roots):
        return None, "repeated roots"
    for r in roots:
        if cc.root_info(r)[1] is None:
            return None, f"{format_vector(r)} is not in the almost-positive set"
    for a, b in combinations(roots, 2):
        if d := compat.degree(cc, a, b):
            return None, f"{format_vector(a)} and {format_vector(b)} have degree {d}"
    # every other member has nonzero degree with delta, so a compatible set
    # holding delta is delta and tube roots
    if cc.ctx.delta in roots:
        if len(roots) != cc.n - 1:
            return None, f"imaginary cluster must have {cc.n - 1} roots"
        return IMAGINARY, ""
    if len(roots) == cc.n:
        return REAL, ""
    return None, "not maximal"


def require_real_cluster(cc, roots):
    roots = tuple(sorted(vec(r) for r in roots))
    kind, reason = is_cluster(cc, roots)
    if kind != REAL:
        raise NotACluster(reason or "not a real cluster")
    return roots


class TubeWall:
    """Never returned by `exchange`; the benchmark tests results against it."""


def exchange(cc: CoxeterContext, cluster, alpha):
    """Exchange alpha out of a real cluster; returns (beta, new_cluster).

    The facet F = cluster - {alpha} is shared with exactly one other real
    cone, so beta is the one root outside F in the cluster expansion of a
    point sum(F) - t*alpha just across F.  Expansions are positively
    homogeneous, so the probe is the integer vector m*sum(F) - alpha for
    m = 2, 4, 8, ...
    """
    cluster = require_real_cluster(cc, cluster)
    alpha = vec(alpha)
    if alpha not in cluster:
        raise RootNotInCluster(f"{format_vector(alpha)} is not in the cluster")
    return _probe_exchange(cc, cluster, alpha)


def _probe_exchange(cc, cluster, alpha):
    """The probe loop of `exchange`, for a cluster as `require_real_cluster`
    returned it and one of its roots."""
    facet = tuple(r for r in cluster if r != alpha)
    base = [sum(col) for col in zip(*facet)]
    m = 2
    # the neighbouring real cone holds m*sum(F) - alpha for large m; real
    # exchanges stop by m = 8, so m = 2^64 is reached only by a broken model
    while m <= 2 ** 64:
        support = set(cluster_expansion(cc, [m * b - a for b, a in zip(base, alpha)]))
        if support.issuperset(facet):
            (beta,) = support - set(facet)
            return beta, tuple(sorted(facet + (beta,)))
        m *= 2
    raise AssertionError("exchange probe cap exhausted")


def real_clusters(cc: CoxeterContext, depth: int):
    """The set of real clusters within `depth` exchanges of the negative simples."""
    ball = frontier = {tuple(sorted(cc.ctx.neg_simples))}
    for _ in range(depth):
        # each cluster is validated once, not once per root it exchanges
        frontier = {_probe_exchange(cc, cluster, alpha)[1]
                    for cluster in frontier
                    for alpha in require_real_cluster(cc, cluster)} - ball
        ball |= frontier
    return ball


def enumerate_clusters(cc: CoxeterContext, depth: int):
    """(real_clusters(cc, depth), imaginary_clusters(cc))."""
    return real_clusters(cc, depth), imaginary_clusters(cc)


def _component_facets(cc, ci):
    """Maximal pairwise-compatible sets of tube roots of component ci, made
    directly: at each start the arc of length rank - 1, filled recursively
    with the two arcs left when one of its positions is removed, so any two
    arcs are nested or apart.  A rank-r component gives r·Catalan(r - 1)."""
    k = cc.components[ci].rank

    def fillings(start, length):
        if not length:
            return [()]
        root = cc.arc_roots[ci, start % k, length]
        return [(root,) + left + right for t in range(length)
                for left, right in product(fillings(start, t),
                                           fillings(start + t + 1, length - t - 1))]

    return [facet for start in range(k) for facet in fillings(start, k - 1)]


def imaginary_clusters(cc: CoxeterContext):
    """All imaginary clusters: delta plus one cyclohedron facet per component."""
    options = [_component_facets(cc, ci) for ci in range(len(cc.components))]
    return {tuple(sorted(sum(choice, (cc.ctx.delta,)))) for choice in product(*options)}


# ---------------------------------------------------------------------------
# exchangeability
# ---------------------------------------------------------------------------

def is_exchangeable(cc: CoxeterContext, alpha, beta) -> bool:
    """(α‖β) = 1 = (β‖α) for distinct members other than delta; `degree` admits both."""
    alpha, beta = tuple(alpha), tuple(beta)
    forward = compat.degree(cc, alpha, beta)
    if alpha == beta or cc.ctx.delta in (alpha, beta):
        return False
    return forward == 1 and compat.degree(cc, beta, alpha) == 1


def is_real_exchangeable(cc: CoxeterContext, alpha, beta) -> bool:
    if not is_exchangeable(cc, alpha, beta):
        return False
    return not in_delta_cone_interior(cc, [a + b for a, b in zip(alpha, beta)])


def delta_pair_test_available(cc: CoxeterContext) -> bool:
    """The single-root criterion for pair exchanges with delta is valid in
    every affine type except the one with [delta:α_aff] = 2."""
    return cc.ctx.delta[cc.ctx.aff] != 2


def single_root_delta_pair_test(cc: CoxeterContext, alpha) -> bool:
    """(alpha‖delta) = 1 = (delta‖alpha); only meaningful when
    delta_pair_test_available."""
    d = cc.ctx.delta
    return compat.degree(cc, alpha, d) == 1 and compat.degree(cc, d, alpha) == 1


def is_pair_exchangeable_with_delta(cc: CoxeterContext, alpha, beta) -> bool:
    """Whether an imaginary cluster C and a real cluster C' have
    C - {delta} = C' - {alpha, beta}.  C - {delta} is one cyclohedron facet
    per tube component, and tube roots of different components are always
    compatible, so each component's facets are searched on their own."""
    alpha, beta = cc.member(alpha)[0], cc.member(beta)[0]
    if alpha == beta or cc.ctx.delta in (alpha, beta) or compat.degree(cc, alpha, beta):
        return False
    return all(any(alpha not in facet and beta not in facet
                   and not any(compat.degree(cc, a, r) for a in (alpha, beta) for r in facet)
                   for facet in _component_facets(cc, ci))
               for ci in range(len(cc.components)))


# ---------------------------------------------------------------------------
# the piecewise-linear weight map
# ---------------------------------------------------------------------------

def nu(cc: CoxeterContext, v):
    """The piecewise-linear map into fundamental-weight coordinates: the
    kernel `CoxeterContext.weight` through `lower`, so -E_c = -(I + lower) on
    the positive orthant, where negative coordinates contribute their weight
    instead.  Through `upper` the kernel is the map of c^{-1}; the record of
    each member of the almost-positive set holds both.  This is the unique
    extension of the values on roots that is linear on each cone of the fan
    (compatibility zeroes out the mixed terms there), and it is a
    piecewise-linear homeomorphism.  nu and its inverse are positively
    homogeneous, so they run in ints on m·v.
    """
    m, v = scale_to_integers(v)
    return divided(m, cc.weight(cc.lower, v))


def nu_inverse(cc: CoxeterContext, weight):
    """Inverse of the weight map, by forward substitution.

    E_c = I + lower is unitriangular in the order of the word for c, so for
    w = nu(v)

        w_i = -v_i - sum a_ij·max(v_j, 0)   over (j, a_ij) in lower[i],

    and, taking the letters in word order, each coordinate follows from the
    ones already found: v_i = -w_i - sum a_ij·max(v_j, 0).  Every weight
    has exactly one preimage.
    """
    m, w = scale_to_integers(weight)
    v = [0] * cc.n
    for i in cc.word:
        v[i] = -w[i] - sum(a * v[j] for j, a in cc.lower[i] if v[j] > 0)
    return divided(m, v)


# ---------------------------------------------------------------------------
# fan consistency
# ---------------------------------------------------------------------------

def cone_contains(cc, gens, v):
    return in_simplicial_cone(gens, v) is not None


def cones_intersect_in_face(cc: CoxeterContext, gens1, gens2) -> bool:
    """Whether two simplicial cones meet in a face of both (ranks 2 and 3).

    The generators of each cone that lie in the other must agree; those
    common generators span the candidate face.  In rank 2 that is enough,
    since the extreme rays of the intersection are generators.  In rank 3 an
    extreme ray may also cut through two boundary planes, so each such line
    lying in both cones must lie in the candidate face.
    """
    if cc.n not in (2, 3):
        raise RankOutOfRange(f"face intersection is implemented for ranks 2 and 3, not {cc.n}")
    gens1 = [vec(g) for g in gens1]
    gens2 = [vec(g) for g in gens2]
    # a generator of one simplicial cone that generates the other lies in it
    face1 = [g for g in gens1 if g in gens2 or cone_contains(cc, gens2, g)]
    face2 = [g for g in gens2 if g in gens1 or cone_contains(cc, gens1, g)]
    if sorted(face1) != sorted(face2):
        return False
    if cc.n == 2:
        return True
    face = set(face1)

    # a line through two boundary planes is ±(a×b)×(c×d) for facets (a, b)
    # and (c, d).  On the plane p = a×b, x = s·a + t·b has s·|p|² = x·(b×p) and
    # t·|p|² = x·(p×a): a line lies in both cones when its four facet
    # coordinates share a sign, and in the face when it has no weight outside
    def facets(gens):
        for a, b in combinations(gens, 2):
            p = cross(a, b)
            yield p, (cross(b, p), a), (cross(p, a), b)

    facets2 = list(facets(gens2))
    for p1, *sides1 in facets(gens1):
        for p2, *sides2 in facets2:
            line = cross(p1, p2)
            signs = [sum(map(mul, line, u)) for u, _ in sides1 + sides2]
            if (min(signs) >= 0 or max(signs) <= 0) and any(
                    x and g not in face for x, (_, g) in zip(signs, sides1)):
                return False
    return True


def imaginary_cluster_spans_hyperplane_lattice(cc: CoxeterContext, cl) -> bool:
    """The n-1 roots of an imaginary cluster base the lattice of integer
    vectors on the hyperplane φ = 0.  For roots on it and the primitive
    integer form f of φ, det(roots, x) = ±index·f(x), so they base it
    exactly when det(roots, e_j) = ±f_j at some j with f_j ≠ 0."""
    f = primitive_integer_vector(cc._phi_fun)
    if any(sum(map(mul, f, r)) for r in cl):
        return False
    j = next(j for j, x in enumerate(f) if x)
    return abs(det([list(r) for r in cl] + [list(cc.ctx.simples[j])])) == abs(f[j])
