"""Ground-truth cluster-algebra engine: exchange-matrix mutation and
coefficient-free Laurent seeds with g-vectors.

Cluster variables are sparse Laurent polynomials in x_1..x_n with nonzero
integer coefficients, stored as a dict from packed exponent to coefficient.
A packed exponent is one int with a FIELD_BITS-wide field per variable, x_1
in the top field.  Each field holds its exponent plus the bias
2**(FIELD_BITS - 1), so negative exponents fit and comparing two packed ints
compares their exponent vectors lexicographically.  The packed exponent of
the monomial 1 (every field at its bias) is also the mask of the fields'
high bits; multiplying two monomials is one addition, e1 + e2 - unit.

Packed sums stay field by field only while every exponent fits its field,
and no term-level check watches that.  Instead, each Seed variable's exact
exponent ranges bound the exchange products and the quotient before any
term is formed; an exponent that could leave its field raises DepthTooDeep.
The lowest exponents are minus the d-vector, and the d-vector rule (Fomin
and Zelevinsky, Cluster algebras IV, 2007, (7.7)),
d'_k = -d_k + max(sum_i [b_ik]_+ d_i, sum_i [-b_ik]_+ d_i) entry by entry,
with d(x_i) = -e_i, read on the highest exponents gives those.  It is exact:
lowest and highest forms multiply, and both halves of the exchange binomial
have only positive coefficients (Laurent positivity,
Gross-Hacking-Keel-Kontsevich 2018), so no term of their sum cancels.  So a
seed's tropical state is the (B̃, d-vectors) pair that mutate_d_vectors
steps, and Seed.mutate steps its own pair by it.

A seed keeps no coefficient variables.  Setting every y_j to 1 is a ring
map that commutes with the exchange relation, and the principal-coefficient
variables have positive coefficients only, so the coefficient-free variable
keeps their x-support and d-vector.  The C-matrix still rides under B in
`btilde`: the sign of c-vector k drives the tropical recursion that carries
each variable's g-vector (Nakanishi and Zelevinsky 2012).

Every mutation divides exactly (the Laurent phenomenon); a failed division
raises and means a bug.  Denominator vectors and g-vectors are kept per
variable and cross-checked against the root-theoretic model elsewhere.  The
packed format stays inside this module: callers read d-vectors, g-vectors
and hashable keys.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, sub

from .errors import DepthTooDeep, NonExactDivision, NotSignCoherent

TERM_CAP = 200_000
FIELD_BITS = 32


# ---------------------------------------------------------------------------
# sparse Laurent polynomials: dict[int, int] keyed by packed exponents
# ---------------------------------------------------------------------------

def _limit() -> int:
    """Exponents below this in absolute value can be added or subtracted
    pairwise without leaving their field."""
    return 1 << (FIELD_BITS - 2)


def pack(exps) -> int:
    """Packed exponent of the monomial with exponent vector `exps`."""
    bias = 1 << (FIELD_BITS - 1)
    packed = 0
    for e in exps:
        if not -bias <= e < bias:
            raise DepthTooDeep(f"exponent {e} does not fit a {FIELD_BITS}-bit field")
        packed = (packed << FIELD_BITS) | (e + bias)
    return packed


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for exp, coeff in q.items():
        new = out.get(exp, 0) + coeff
        if new:
            out[exp] = new
        else:
            out.pop(exp, None)
    return out


def poly_mul(p: dict, q: dict, nvars: int) -> dict:
    """Product of two Laurent polynomials.  Exponents add without a check,
    so the caller keeps every sum inside its field (Seed.mutate does)."""
    if len(p) > len(q):
        p, q = q, p
    unit = pack([0] * nvars)
    out: dict = {}
    get = out.get
    for e1, c1 in p.items():
        base = e1 - unit
        for e2, c2 in q.items():
            exp = base + e2
            new = get(exp, 0) + c1 * c2
            if new:
                out[exp] = new
            else:
                del out[exp]
    if len(out) > TERM_CAP:
        raise DepthTooDeep(f"polynomial exceeded {TERM_CAP} terms")
    return out


def poly_div_exact(p: dict, q: dict, prange, qrange) -> dict:
    """Exact division of Laurent polynomials; raises NonExactDivision.

    `prange` and `qrange` are exponent ranges (lo, hi), one entry per
    variable: exact for q, exact or enclosing for p.  Lowest and highest
    exponents add under multiplication, so every term of an exact quotient
    lies in the box lo(p) - lo(q) .. hi(p) - hi(q), variable by variable.  A quotient term
    outside the box proves the division inexact; inside it, every remainder
    term stays within p's box.

    Long division by leading terms, the remainder a dict plus a max-heap of
    its keys (Monagan and Pearce 2007): a key is pushed when it first enters
    the remainder, and a popped key whose coefficient is now 0 is skipped.
    """
    if not q:
        raise NonExactDivision("division by zero polynomial")
    if not p:
        return {}
    (plo, phi), (qlo, qhi) = prange, qrange
    if max(map(abs, (*plo, *phi, *qlo, *qhi))) >= _limit():
        raise DepthTooDeep(f"exponents exceed a {FIELD_BITS}-bit field")
    unit = pack([0] * len(plo))   # the monomial 1; also the mask of the fields' high bits
    low = pack([a - b for a, b in zip(plo, qlo)])
    high = pack([a - b for a, b in zip(phi, qhi)])
    lead_q = max(q)
    lcq = q[lead_q]
    quotient: dict = {}
    rem = dict(p)
    get = rem.get
    heap = [-e for e in p]
    heapify(heap)
    while heap:
        lead_r = -heappop(heap)
        lcr = rem[lead_r]
        if not lcr:
            continue
        term = lead_r - lead_q + unit
        # low <= term <= high in every field: the fields' high bits stay set
        if (term - low + unit) & (high - term + unit) & unit != unit or lcr % lcq:
            raise NonExactDivision("Laurent phenomenon violated")
        coeff = lcr // lcq
        quotient[term] = coeff
        base = term - unit
        for e2, c2 in q.items():
            exp = base + e2
            old = get(exp)
            if old is None:
                rem[exp] = -coeff * c2
                heappush(heap, -exp)
            else:
                rem[exp] = old - coeff * c2
    return quotient


# ---------------------------------------------------------------------------
# exchange matrices and seeds
# ---------------------------------------------------------------------------

def exchange_matrix_from_cartan(cm, word) -> tuple:
    """Skew-symmetrizable B with b_ij > 0 exactly when i precedes j in the
    word and a_ij != 0."""
    pos = {s: p for p, s in enumerate(word)}
    n = cm.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j or cm.a[i][j] == 0:
                row.append(0)
            elif pos[i] < pos[j]:
                row.append(-cm.a[i][j])
            else:
                row.append(cm.a[i][j])
        rows.append(tuple(row))
    return tuple(rows)


def initial_btilde(b: tuple) -> tuple:
    n = len(b)
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return tuple(b) + ident


def matrix_mutation(btilde: tuple, k: int) -> tuple:
    """B̃ mutated at k: row and column k change sign, and b_ij gains
    |b_ik|·b_kj where b_ik·b_kj > 0 (Fomin-Zelevinsky, Cluster algebras I,
    Def. 4.2).  So a row with b_ik = 0 is kept as it is, and any other row
    changes only at k and at the nonzero entries of row k."""
    pivot = [(j, x) for j, x in enumerate(btilde[k]) if x]
    rows = []
    for i, row in enumerate(btilde):
        bik = row[k]
        if i == k:
            row = tuple(-x for x in row)
        elif bik:
            row = list(row)
            for j, bkj in pivot:
                if bik * bkj > 0:
                    row[j] += abs(bik) * bkj
            row[k] = -bik
            row = tuple(row)
        rows.append(row)
    return tuple(rows)


def d_vector_rule(bcol, vecs, k: int) -> tuple:
    """-v_k + max(sum_i [b_ik]_+ v_i, sum_i [-b_ik]_+ v_i), entry by entry,
    for column k of B: the d-vector rule of the module docstring."""
    pairs = [(b, v) for b, v in zip(bcol, vecs) if b]
    return tuple(max(sum(b * v[j] for b, v in pairs if b > 0),
                     sum(-b * v[j] for b, v in pairs if b < 0)) - x
                 for j, x in enumerate(vecs[k]))


def mutate_d_vectors(btilde: tuple, dvecs: tuple, k: int) -> tuple:
    """(B̃, d-vectors) mutated at k: a seed's exchange matrix and d-vectors
    without its polynomials.  Raises NotSignCoherent if c-vector k, column k
    of the C under B, has entries of both signs."""
    ccol = [row[k] for row in btilde[len(dvecs):]]
    if min(ccol) < 0 < max(ccol):
        raise NotSignCoherent(f"c-vector {k + 1} has entries of both signs")
    d = d_vector_rule([row[k] for row in btilde[:len(dvecs)]], dvecs, k)
    return matrix_mutation(btilde, k), dvecs[:k] + (d,) + dvecs[k + 1:]


class Seed:
    """Exchange matrix over its C-matrix, a coefficient-free Laurent cluster
    and the cluster's g-vectors.

    `btilde` and `dvecs` are the seed's tropical state, the pair that
    `mutate_d_vectors` steps: B stacked over C, the c-vectors as C's
    columns, and the variables' d-vectors.  Each variable's hashable key
    (its g-vector and terms) and highest exponents are computed once, when
    the variable is made, and shared by every seed that mutation carries it
    into."""

    __slots__ = ("n", "btilde", "dvecs", "polys", "history", "_info", "_key")

    def __init__(self, btilde, dvecs, polys, info, history=()):
        self.n = len(polys)
        self.btilde = btilde
        self.dvecs = dvecs
        self.polys = tuple(polys)
        self.history = tuple(history)
        # per slot: ((g-vector, terms) key, highest exponents)
        self._info = info
        self._key = frozenset(key for key, _ in info)

    @classmethod
    def initial(cls, b: tuple) -> "Seed":
        n = len(b)
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        polys = [{pack(e): 1} for e in units]
        return cls(initial_btilde(b), tuple(tuple(-x for x in e) for e in units), polys,
                   tuple(((e, frozenset(p.items())), e) for p, e in zip(polys, units)))

    def mutate(self, k: int) -> "Seed":
        n = self.n
        btilde, dvecs = mutate_d_vectors(self.btilde, self.dvecs, k)
        bcol = [row[k] for row in self.btilde[:n]]
        eps = 1 if max(row[k] for row in self.btilde[n:]) > 0 else -1
        highs = [hi for _, hi in self._info]
        # no exponent of any partial exchange product exceeds this in absolute value
        reach = sum(abs(c) * max(map(abs, d + hi)) for c, d, hi in zip(bcol, self.dvecs, highs))
        if reach >= _limit():
            raise DepthTooDeep(f"exponents exceed a {FIELD_BITS}-bit field")
        # the new highest exponents by the d-vector rule; the lowest are minus
        # the new d-vector, and the numerator's ranges are their sums with
        # the divisor's
        hi = d_vector_rule(bcol, highs, k)
        qlo, qhi = tuple(-x for x in self.dvecs[k]), highs[k]
        halves = []
        for sign in (1, -1):
            poly = None
            for i, c in enumerate(bcol):
                for _ in range(sign * c):
                    poly = self.polys[i] if poly is None else poly_mul(poly, self.polys[i], n)
            halves.append({pack([0] * n): 1} if poly is None else poly)
        newpoly = poly_div_exact(poly_add(*halves), self.polys[k],
                                 (tuple(map(sub, qlo, dvecs[k])), tuple(map(add, hi, qhi))),
                                 (qlo, qhi))
        # g'_k = -g_k + sum_i [-eps * b_ik]_+ g_i, which needs sign-coherent
        # c-vectors (Gross-Hacking-Keel-Kontsevich 2018, hence mutate_d_vectors' check)
        g = [-x for x in self.g_vector(k)]
        for i, c in enumerate(bcol):
            if -eps * c > 0:
                g = [a - eps * c * x for a, x in zip(g, self.g_vector(i))]
        polys = list(self.polys)
        polys[k] = newpoly
        info = list(self._info)
        info[k] = (tuple(g), frozenset(newpoly.items())), hi
        return Seed(btilde, dvecs, polys, tuple(info), self.history + (k,))

    def key(self) -> frozenset:
        """The unordered set of the seed's variable keys."""
        return self._key

    def variable_key(self, slot: int) -> tuple:
        """Hashable key of one cluster variable: its g-vector and its terms."""
        return self._info[slot][0]

    def d_vector(self, slot: int) -> tuple:
        return self.dvecs[slot]

    def g_vector(self, slot: int) -> tuple:
        return self._info[slot][0][0]


def seed_bfs(b: tuple, depth: int):
    """All seeds within `depth` mutations of the initial seed.

    Returns (seeds, edges): seeds keyed by their unordered variable set, one
    representative each; edges as key pairs of the mutation graph.  A seed
    is never mutated at the last letter of its history: mutation is an
    involution, so that gives back its parent, whose edge is already in.
    Each representative's history extends an earlier one's by one letter:
    only representatives are mutated, level by level.
    """
    start = Seed.initial(b)
    reps = {start.key(): start}
    edges = set()
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for seed in frontier:
            for k in range(seed.n):
                if seed.history and seed.history[-1] == k:
                    continue
                new = seed.mutate(k)
                kn = new.key()
                edges.add(frozenset({seed.key(), kn}))
                if kn not in reps:
                    reps[kn] = new
                    nxt.append(new)
        frontier = nxt
    return reps, edges
