"""Everything attached to a fixed Coxeter element c.

c = s_{w_1}···s_{w_n} is kept as its word and applied as one: `c_action`
walks the simple reflections `CartanMatrix.reflect` from the last letter to
the first, `c_inverse_action` from the first to the last, each on a rational
vector scaled to ints once.  The transversals of tau_c are the inversion
roots of the word, walks of one simple root over part of it:
psi_to[w_k] = s_{w_1}···s_{w_{k-1}}(α_{w_k}) and
psi_from[w_k] = s_{w_n}···s_{w_{k+1}}(α_{w_k}).  The word order is read off
the Cartan rows once, as the strict parts of the two unitriangular Euler
matrices: `lower`, with E_c = I + lower, and `upper`, with
E_{c^-1} = I + upper, each row a list of (neighbour, Cartan entry).  One
kernel, `weight`, reads a table's positive part: the weight map nu_c through
`lower`, nu_{c^-1} through `upper`.  phi_c = E_c(·, delta) is read off
-nu_c(delta) = (I + lower)·delta, and gamma_c, with K(gamma_c, ·) = phi_c,
is solved as A·gamma = -nu_c(delta) only on request.  Also built: the
finite-orbit hyperplane data, the rotation subsystem living inside that
hyperplane, the kappa function, the closed-form counts of source-sink
orientations and their classes, and the memos of the deformed maps sigma_s
and tau_c, which compute each image once per context.

Each public method admits each root argument once, through `member`, the one
boundary of the almost-positive set, which returns its stored record (the
root as a canonical int tuple, class, coroot coordinates, nu_c, nu_{c^-1});
internal steps reuse the roots they hold and run in ints.  The
tau-orbit walk of `orbit_classification` applies c^∓1, which is tau_c^±1
off the transversals, until it meets a psi transversal, and stores nothing.

The rotation subsystem is a set of type-A cycles that c rotates.  Each
cycle is found by following c from a finite-orbit simple root until it
returns; it holds exactly one root outside the finite parabolic, and sums
to a multiple of delta.  The tube roots are the proper arcs of the
cycles, each recorded as one (component, start, length), kept in one table
in both directions: root -> arc and arc -> root.  As c moves every arc one
position along its cycle, the finite-orbit transversal omega is the arcs
starting just after the affine root, and a tube root's orbit data is read
off its arc.

Each context is built once, with no runtime self-checks: the invariants of
the construction (c = -E_{c^-1}^{-1}·E_c, c·delta = delta,
gamma_c exists, phi_c ≠ 0, the signs of phi_c on the transversals, n - 2
finite-orbit simples, c rotating every component) are tests over every
catalog type and random Coxeter words.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cartan import AffineContext
from .errors import IndexOutOfRange, NotAlmostPositive, NotInPhiC
from . import linalg
from .linalg import divided, format_vector, inverse, scale_to_integers, vec
from .roots import deformed_reflection, neg_simple_index

NEG_SIMPLE = "negative-simple"
TRANSIENT = "transient"
TUBE = "tube"
DELTA = "delta"


class TubeComponent:
    """One type-A component of the finite-orbit subsystem.

    `cycle` lists its simple roots in c-rotation order (c maps each entry to
    the next, cyclically); exactly one entry, `affine_simple`, lies outside
    the finite parabolic, and the cycle sums to `delta_multiple`·delta.
    """

    def __init__(self, cycle, affine_pos, delta_multiple):
        self.cycle = tuple(cycle)
        self.rank = len(cycle)
        self.affine_pos = affine_pos
        self.affine_simple = cycle[affine_pos]
        self.delta_multiple = delta_multiple
        self.fin_simples = tuple(r for p, r in enumerate(cycle) if p != affine_pos)


class CoxeterContext:
    def __init__(self, ctx: AffineContext, word):
        word = tuple(word)
        if sorted(word) != list(range(ctx.n)):
            raise IndexOutOfRange("word must be a permutation of all node indices")
        self.ctx = ctx
        self.cm = ctx.cm
        self.n = ctx.n
        self.word = word
        # the strict parts of the Euler matrices, the one record of the word
        # order: lower[i] holds (j, a_ij) for the neighbours j before i, so
        # E_c = I + lower, and upper[i] those after i, so E_{c^-1} = I + upper
        n = ctx.n
        lower, upper, seen = [()] * n, [()] * n, set()
        for i in word:
            row = [p for p in ctx.cm.rows[i] if p[0] != i]
            lower[i] = tuple(p for p in row if p[0] in seen)
            upper[i] = tuple(p for p in row if p[0] not in seen)
            seen.add(i)
        self.lower = tuple(lower)
        self.upper = tuple(upper)
        # the inversion roots: α_{w_k} walked over the letters before it,
        # nearest first, and over the letters after it
        e = ctx.simples
        self.psi_to = {i: self._walk(e[i], reversed(word[:p])) for p, i in enumerate(word)}
        self.psi_from = {i: self._walk(e[i], word[p + 1:]) for p, i in enumerate(word)}

        # phi(v) = f · v with f = D·(I + lower)·delta, as phi_c = E_c(·, delta);
        # in weight coordinates -nu_c(delta) = (I + lower)·delta, scaled to a leading ±1
        weight = [-w for w in self.weight(self.lower, ctx.delta)]
        self._phi_fun = vec(di * w for di, w in zip(ctx.cm.d, weight))
        scale = abs(next(w for w in weight if w != 0))
        self.phi_weight = vec(Fraction(w, scale) for w in weight)

        # the memo of tau_c, member -> image.  tau_c differs from c only on
        # the negative simples and psi_from: -α_i -> psi_to[i] and
        # psi_from[i] -> -α_i, so it starts with these 2n exceptions, and tau
        # adds each image of c it computes
        self._tau = {}
        for i, neg in enumerate(ctx.neg_simples):
            self._tau[neg] = self.psi_to[i]
            self._tau[self.psi_from[i]] = neg
        # the memos of sigma_s, one dict per letter s: root -> sigma_s(root),
        # filled by sigma and the expansion pull-back.  Every key is a
        # negative simple or a positive root, so a hit needs no check
        self._sigma = tuple({} for _ in range(n))

        self.components = self._build_tubes()
        # tube root <-> its arc (component index, start, length): one entry
        # per proper arc, a run of 1 to rank - 1 cycle positions from start
        self.arc_roots = {}
        for ci, comp in enumerate(self.components):
            k = comp.rank
            for start in range(k):
                acc = [0] * n
                for length in range(1, k):
                    node = comp.cycle[(start + length - 1) % k]
                    acc = [a + b for a, b in zip(acc, node)]
                    self.arc_roots[ci, start, length] = tuple(acc)
        self.tube_arcs = {root: arc for arc, root in self.arc_roots.items()}
        self.fin_simples = tuple(
            r for comp in self.components for r in comp.fin_simples
        )
        # {delta} ∪ fin-simples stays a basis of the hyperplane phi = 0 with a coordinate
        # where phi is nonzero dropped: v in it has coordinates inv·(v at `rows`)/den
        skip = next(i for i, x in enumerate(self._phi_fun) if x != 0)
        rows = tuple(i for i in range(n) if i != skip)
        inv = inverse([[b[i] for b in (ctx.delta,) + self.fin_simples] for i in rows])
        den = lcm(*(x.denominator for row in inv for x in row))
        inv = tuple(tuple(int(x * den) for x in row) for row in inv)
        self.hyperplane_inverse = (rows, inv, den)
        # (alpha, beta) -> compatibility degree, filled by compatibility.degree
        self.degree_cache = {}
        # member of the almost-positive set -> its record, filled by
        # root_info; non-members are never stored
        self._root_info = {}
        # omega: the arcs starting just after the affine root, one of each
        # length, each with kappa(w), the least m with m·delta - w real; the
        # complementary arc sums to its component's delta_multiple·delta - w
        self.kappa = {
            self.arc_roots[ci, (comp.affine_pos + 1) % comp.rank, length]: comp.delta_multiple
            for ci, comp in enumerate(self.components) for length in range(1, comp.rank)
        }
        self.omega = tuple(self.kappa)

        orientations, _ = source_sink_counts(ctx)
        ranks = [comp.rank for comp in self.components]
        self.m_bound = orientations + n * (lcm(*ranks) if ranks else 1)

    # -- scalar evaluations --------------------------------------------------

    def phi(self, v):
        return sum(a * b for a, b in zip(self._phi_fun, v))

    @staticmethod
    def weight(table, v):
        """w_i = -v_i - sum a_ij·[v_j]+ over (j, a_ij) in table[i], for int v:
        nu_c through `lower`, nu_{c^-1} through `upper`, -(I + table)·v on v ≥ 0."""
        return tuple(-x - sum(a * v[j] for j, a in row if v[j] > 0) for x, row in zip(v, table))

    def gamma(self):
        """gamma_c with (c - I)·gamma = delta and gamma_aff = 0, solved on
        request.  As c = -(I + upper)^-1·(I + lower) and A = 2I + lower + upper
        kills delta, multiplying by -(I + upper) turns it into
        A·gamma = (I + lower)·delta = -nu_c(delta)."""
        ctx = self.ctx
        rows = [list(row) for row in self.cm.a] + [list(ctx.simples[ctx.aff])]
        rhs = [-w for w in self.weight(self.lower, ctx.delta)]
        return linalg.solve_general(rows, rhs + [0])

    def c_action(self, v):
        """c·v: the letters' reflections, the last letter first."""
        m, v = scale_to_integers(v)
        return divided(m, self._walk(v, reversed(self.word)))

    def c_inverse_action(self, v):
        """c^-1·v: the letters' reflections in word order."""
        m, v = scale_to_integers(v)
        return divided(m, self._walk(v, self.word))

    def _walk(self, v, letters):
        reflect = self.cm.reflect
        for s in letters:
            v = reflect(s, v)
        return v

    # -- construction helpers --------------------------------------------------

    def _build_tubes(self):
        """Components of the finite-orbit subsystem: the roots of the finite
        parabolic on which phi vanishes.  Its simple roots are found in
        height order, since a positive root is simple exactly when
        subtracting no simple root found before it leaves a subsystem root
        (Humphreys, *Introduction to Lie Algebras*, §10.2, Lemma A); each
        component is the cycle c walks from its least simple root, through
        its other simple roots and one affine root, back to the start."""
        ctx = self.ctx
        # the finite parabolic's positive roots are the window's roots with
        # aff-coordinate 0 and positive entries
        ups = {r for r in ctx._window
               if r[ctx.aff] == 0 and sum(r) > 0 and self.phi(r) == 0}
        first = {}  # found simple roots s by first nonzero p; r - s >= 0 needs r[p] > 0
        for r in sorted(ups, key=lambda r: (sum(r), r)):
            support = [i for i, x in enumerate(r) if x]
            if not any(tuple(a - b for a, b in zip(r, s)) in ups
                       for i in support for s in first.get(i, ())):
                first.setdefault(support[0], []).append(r)
        simples = {s for found in first.values() for s in found}
        placed = set()
        out = []
        for start in sorted(simples):
            if start in placed:
                continue
            cycle = [start]
            for _ in simples:   # a cycle holds at most every simple and one more root
                nxt = self.c_action(cycle[-1])
                if nxt == start:
                    break
                cycle.append(nxt)
            placed.update(cycle)
            affine_pos = next(p for p, r in enumerate(cycle) if r not in simples)
            m = sum(r[ctx.aff] for r in cycle) // ctx.delta[ctx.aff]
            out.append(TubeComponent(cycle, affine_pos, m))
        return out

    # -- conjugation ----------------------------------------------------------

    def source_sink_move(self, s: int) -> "CoxeterContext":
        """Context for scs; s must be initial in c (no neighbour before it,
        `lower[s]` empty) or final (`upper[s]` empty)."""
        if s not in range(self.n) or (self.lower[s] and self.upper[s]):
            raise IndexOutOfRange(f"letter {s + 1} is neither initial nor final")
        # an initial letter moves to the end of the word, a final one to the front
        rest = [t for t in self.word if t != s]
        return CoxeterContext(self.ctx, rest + [s] if not self.lower[s] else [s] + rest)

    # -- almost-positive membership -------------------------------------------

    neg_simple_index = staticmethod(neg_simple_index)

    def tube_roots(self):
        """Positive real finite-orbit roots with proper arc support."""
        return sorted(self.tube_arcs)

    def phi_c_class(self, v):
        """Membership class of v in the almost-positive set, or None."""
        return self.root_info(vec(v))[1]

    def member(self, v):
        """The stored record of v from `root_info`, for a member of the
        almost-positive set: the one place a vector is admitted into the set.
        A stored root is found as given, since an int and its equal
        `Fraction` hash the same; only a miss canonicalizes v."""
        record = self._root_info.get(tuple(v))
        if record is None:
            v = vec(v)
            record = self.root_info(v)
            if record[1] is None:
                raise NotInPhiC(f"{format_vector(v)} is not in the almost-positive set")
        return record

    def root_info(self, v):
        """(v, class, simple-coroot coordinates of v^vee, nu_c(v),
        nu_{c^-1}(v)), the record of a canonical tuple v in the almost-positive
        set, made once and stored; v and four Nones when v is outside it."""
        record = self._root_info.get(v)
        if record is None:
            cls = self._classify(v)
            if cls is None:
                return v, None, None, None, None
            # coroot_coords is odd in v, so it also serves the negative simples
            cv = self.ctx.delta_vee_coroot if cls == DELTA else self.ctx.coroot_coords(v)
            record = self._root_info[v] = (v, cls, cv, self.weight(self.lower, v),
                                           self.weight(self.upper, v))
        return record

    def _classify(self, v):
        if len(v) != self.n:
            return None
        if self.neg_simple_index(v) is not None:
            return NEG_SIMPLE
        if v == self.ctx.delta:
            return DELTA
        if not all(x >= 0 for x in v):
            return None
        if not self.ctx.is_real_root(v):
            return None
        if self.phi(v) != 0:
            return TRANSIENT
        if v in self.tube_arcs:
            return TUBE
        return None

    # -- deformed maps ----------------------------------------------------------

    def sigma(self, s: int, v):
        """The involution sigma_s on -Π ∪ Φ+."""
        if not 0 <= s < self.n:
            raise IndexOutOfRange(f"letter {s + 1} out of range 1..{self.n}")
        memo = self._sigma[s]
        if (image := memo.get(tuple(v))) is None:
            v = vec(v)
            if len(v) != self.n or self.neg_simple_index(v) is None and not (
                    all(x >= 0 for x in v) and self.ctx.is_root(v)):
                raise NotAlmostPositive(
                    f"{format_vector(v)} is neither a negative simple nor a positive root")
            image = memo[v] = deformed_reflection(self.cm, s, v)
        return image

    def tau(self, v):
        v = self.member(v)[0]
        if (image := self._tau.get(v)) is None:
            image = self._tau[v] = self._walk(v, reversed(self.word))
        return image

    # -- orbit classification ----------------------------------------------------

    def orbit_classification(self, v):
        """(kind, representative, power) of the tau-orbit of v.

        kind is 'infinite' (representative a negative simple), 'finite'
        (representative in omega) or 'delta'.
        """
        v, cls = self.member(v)[:2]
        if cls == DELTA:
            return ("delta", v, 0)
        if cls == NEG_SIMPLE:
            return ("infinite", v, 0)
        if cls == TUBE:
            # c moves an arc one position along its cycle: c^-p carries the
            # arc at `start` to the one of the same length in omega
            ci, start, length = self.tube_arcs[v]
            k = self.components[ci].rank
            first = (self.components[ci].affine_pos + 1) % k
            return ("finite", self.arc_roots[ci, first, length], (start - first) % k)
        # transient: walk toward the negative simple on its side of phi = 0.
        # Off the transversals tau_c^{±1} is c^{±1}, and it sends psi_to[i]
        # (tau_c^-1, phi > 0) or psi_from[i] (tau_c, phi < 0) to -α_i
        psi, letters, sign = ((self.psi_to, self.word, 1) if self.phi(v) > 0
                              else (self.psi_from, self.word[::-1], -1))
        ends = {root: i for i, root in psi.items()}
        cur = v
        for m in range(1, 4 * self.m_bound + 8 * sum(abs(x) for x in v) + 8):
            if (i := ends.get(cur)) is not None:
                return ("infinite", self.ctx.neg_simples[i], sign * m)
            cur = self._walk(cur, letters)
        raise AssertionError("infinite-orbit walk exhausted")


def source_sink_counts(ctx: AffineContext):
    """(acyclic orientations of the Dynkin diagram, their classes under
    source/sink flips), in closed form.

    An affine diagram is a tree or the n-cycle of A_{n-1}^(1).  Every
    orientation of a tree with E edges is acyclic, and flips connect them
    all: (2^E, 1).  The n-cycle has |chi(-1)| = 2^n - 2 acyclic orientations
    (Stanley); a flip keeps the number of clockwise edges, which runs from
    1 to n - 1 and names the class (Macauley-Mortveit): (2^n - 2, n - 1).
    """
    a, n = ctx.cm.a, ctx.n
    edges = sum(1 for i in range(n) for j in range(i + 1, n) if a[i][j] != 0)
    if edges == n - 1:
        return 2 ** edges, 1
    return 2 ** n - 2, n - 1
