"""The three workloads: inputs made from a seed, the operations, and the
rule checks that need no stored answer.

A workload is built by its constructor (the set-up the benchmark times) and
then exposes `count` operations.  `call(i)` performs operation i and is the
only thing the timed region runs; `before_pass()` runs untimed before each
pass; `query` says whether a latency sample is one operation ("op") or one
whole pass ("pass"); `check(i, result)` returns None or a failure message;
`canonical(result)` gives a hashable, comparable form of an output for the
digest and for comparing repeated passes.

Sizes come in two presets: FULL for measurement and SMOKE for the digest
check made on every run and for the self-tests.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

# Operation kinds of the session workload and their fixed shares of a block.
# The shares are a design choice, not measured traffic: the cheap expansion
# and degree queries make up the median, and exchange and the nu round trip
# (the slowest kinds) stay few enough to form the tail.  README.md gives the
# reason for each share.
SESSION_MIX = (
    ("expand", 0.40),
    ("compat", 0.25),
    ("exchange", 0.05),
    ("nu", 0.10),
    ("phi_class", 0.10),
    ("interior", 0.10),
)

FULL = {
    "oracle": {"labels": "rank2+rank3", "words_per_label": 2,
               "bijection_depth": 7, "conjecture_depth": 3},
    "session": {"labels": "rank2+rank3+rank4", "cluster_depth": 5, "phi_c_reach": 6,
                "root_level": 10, "block": 10000},
    "sweep": {"labels": "rank3+rank4", "axiom_level": 2, "cluster_depth": 3},
}

SMOKE = {
    "oracle": {"labels": ("A1(1)", "A2(2)", "A2(1):k=1"), "words_per_label": 1,
               "bijection_depth": 4, "conjecture_depth": 2},
    "session": {"labels": ("A1(1)", "D3(2)", "A3(1):k=1"), "cluster_depth": 3,
                "phi_c_reach": 3, "root_level": 4, "block": 120},
    "sweep": {"labels": ("A2(1):k=1", "A3(1):k=1"), "axiom_level": 1,
              "cluster_depth": 2},
}


def resolve_labels(api, spec):
    if not isinstance(spec, str):
        return tuple(spec)
    v = api.verification
    groups = {"rank2": v.RANK2_LABELS, "rank3": v.RANK3_LABELS, "rank4": v.RANK4_LABELS}
    return tuple(label for part in spec.split("+") for label in groups[part])


def unit(n, i, sign=1):
    return tuple(sign if j == i else 0 for j in range(n))


def draw_words(rng, n, k):
    """k distinct Coxeter words (permutations of the n nodes), or all n! when
    fewer exist.  Drawing without replacement keeps the batch cost close to
    the same for every seed."""
    words = list(permutations(range(n)))
    return [tuple(w) for w in rng.sample(words, min(k, len(words)))]


def sample_vector(api, rng, cone):
    """A vector inside the cone with its expansion known by construction."""
    coeffs = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in cone]
    v = [0] * len(cone[0])
    for c, g in zip(coeffs, cone):
        for i, x in enumerate(g):
            v[i] += c * x
    return api.linalg.vec(v), {g: api.linalg.canon(c) for g, c in zip(cone, coeffs)}


def _degree_pairs_ok(api, cc, a, b, value):
    """Degree laws for one pair: base and cobase against negative simples,
    and invariance under tau."""
    compat = api.compatibility
    neg_a = cc.neg_simple_index(a)
    neg_b = cc.neg_simple_index(b)
    if neg_a is not None and value != b[neg_a]:
        return f"base law: ({a}||{b}) = {value}, expected {b[neg_a]}"
    if neg_b is not None and value != compat.coroot_coordinates(cc, a)[neg_b]:
        return f"cobase law: ({a}||{b}) = {value}"
    tau_value = compat.degree(cc, cc.tau(a), cc.tau(b))
    if tau_value != value:
        return f"tau invariance: ({a}||{b}) = {value}, tau pair gives {tau_value}"
    return None


def _wall_ok(api, cc, alpha, cand):
    """A wall certificate: joint arc support fills a component cycle and
    alpha + candidate lies in the relative interior of the imaginary cone."""
    sa = api.compatibility.tube_support(cc, alpha)
    sb = api.compatibility.tube_support(cc, cand)
    full = (sa.component == sb.component
            and len(sa.arc | sb.arc) == cc.components[sa.component].rank)
    total = api.linalg.vec(a + b for a, b in zip(alpha, cand))
    return full and api.expansion.in_delta_cone_interior(cc, total)


def _exchange_ok(api, cc, cluster, alpha, result):
    clusters, compat = api.clusters, api.compatibility
    if isinstance(result, clusters.TubeWall):
        if result.removed != alpha or not _wall_ok(api, cc, alpha, result.candidate):
            return f"uncertified wall {result!r} for {alpha} out of {cluster}"
        return None
    beta, new = result
    facet = tuple(r for r in cluster if r != alpha)
    if new != tuple(sorted(facet + (beta,))):
        return f"new cluster {new} is not the facet of {cluster} plus {beta}"
    if compat.degree(cc, alpha, beta) != 1 or compat.degree(cc, beta, alpha) != 1:
        return f"exchange pair {alpha}, {beta} is not degree 1/1"
    kind, reason = clusters.is_cluster(cc, new)
    if kind != clusters.REAL:
        return f"exchange of {alpha} out of {cluster} gives {new}: {reason}"
    return None


class Failed:
    """Marker stored in place of the result of an operation that raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Failed({self.text})"


def canonical(api, result):
    """Hashable, comparable form of any operation output."""
    if isinstance(result, Failed):
        return ("raised", result.text)
    if isinstance(result, api.clusters.TubeWall):
        return ("wall", result.removed, result.candidate)
    if isinstance(result, dict):
        return tuple(sorted((canonical(api, k), canonical(api, v))
                            for k, v in result.items()))
    if isinstance(result, (list, tuple)):
        return tuple(canonical(api, x) for x in result)
    if isinstance(result, (set, frozenset)):
        return tuple(sorted(canonical(api, x) for x in result))
    if isinstance(result, api.compatibility.CompatibilityValue):
        return ("degree", result.degree, result.branch, result.arrow_to,
                result.arrow_from)
    if isinstance(result, Fraction):
        return (result.numerator, result.denominator)
    return result


# ---------------------------------------------------------------------------
# oracle: the seed-mutation cross-check
# ---------------------------------------------------------------------------

class Oracle:
    """verify_bijection then conjecture_evidence on each (label, word)."""

    name = "oracle"
    # Operation costs differ tenfold between labels and words, so a per-op
    # median falls between cost groups; the user waits for the whole batch.
    query = "pass"

    def __init__(self, api, seed, size):
        self.api = api
        self.size = size
        rng = random.Random(f"oracle:{seed}")
        self.jobs = []
        for label in resolve_labels(api, size["labels"]):
            ctx, _ = api.cartan.context_from_label(label)
            for word in draw_words(rng, ctx.n, size["words_per_label"]):
                self.jobs.append((label, word, ctx))
        self.contexts = None
        self.count = len(self.jobs)
        self.before_pass()

    def before_pass(self):
        """Fresh Coxeter contexts, so that every pass fills the degree memo
        that conjecture_evidence reads, as the first one does."""
        CoxeterContext = self.api.coxeter.CoxeterContext
        self.contexts = [CoxeterContext(ctx, word) for _, word, ctx in self.jobs]

    def describe(self, i):
        label, word, _ = self.jobs[i]
        return {"label": label, "word": list(word)}

    def sizes(self):
        labels = sorted({label for label, _, _ in self.jobs})
        return {"labels": labels, "words": self.count, **{
            k: self.size[k] for k in ("bijection_depth", "conjecture_depth")}}

    def call(self, i):
        cc = self.contexts[i]
        report = self.api.oracle_bridge.verify_bijection(cc, self.size["bijection_depth"])
        evidence = self.api.oracle_bridge.conjecture_evidence(
            cc, self.size["conjecture_depth"])
        return report, evidence

    def check(self, i, result):
        report, evidence = result
        if not report["ok"]:
            return f"bijection failures {report['failures'][:3]}"
        if evidence["match_fraction"] != 1.0:
            return (f"match fraction {evidence['match_fraction']}, "
                    f"first mismatches {evidence['mismatches'][:3]}")
        return None


# ---------------------------------------------------------------------------
# session: interactive queries against warm, long-lived contexts
# ---------------------------------------------------------------------------

class Session:
    """A seeded block of single queries over one context per label.  The
    constructor enumerates clusters and the almost-positive pool, draws the
    block, and runs it once as the warm-up pass."""

    name = "session"
    query = "op"

    def __init__(self, api, seed, size):
        self.api = api
        self.size = size
        rng = random.Random(f"session:{seed}")
        self.contexts = []
        for label in resolve_labels(api, size["labels"]):
            ctx, _ = api.cartan.context_from_label(label)
            word = draw_words(rng, ctx.n, 1)[0]
            cc = api.coxeter.CoxeterContext(ctx, word)
            real, imag = api.clusters.enumerate_clusters(cc, size["cluster_depth"])
            self.contexts.append({
                "label": label, "word": word, "cc": cc,
                "real": sorted(real), "imag": sorted(imag),
                "pool": api.almost_positive.enumerate_phi_c(cc, size["phi_c_reach"]),
                "roots": ctx.positive_real_roots(size["root_level"]),
                "tubes": set(cc.tube_roots()),
                "norms": {ctx.k(unit(cc.n, i), unit(cc.n, i)) for i in range(cc.n)},
            })
        kinds = []
        for kind, share in SESSION_MIX:
            kinds += [kind] * round(share * size["block"])
        rng.shuffle(kinds)
        self.queries = [self._draw(rng, kind, n) for n, kind in enumerate(kinds)]
        self.count = len(self.queries)
        self.warm = [self.run_guarded(i) for i in range(self.count)]

    def before_pass(self):
        """Contexts stay warm across passes."""

    def run_guarded(self, i):
        try:
            return self.call(i)
        except Exception as exc:  # one failed query must not stop the run
            return Failed(exc)

    def _draw(self, rng, kind, n):
        c = rng.randrange(len(self.contexts))
        ctx = self.contexts[c]
        cc = ctx["cc"]
        vec = self.api.linalg.vec
        if kind == "expand":
            imaginary = n % 10 == 9
            cones = ctx["imag"] if imaginary else ctx["real"]
            v, expected = sample_vector(self.api, rng, cones[rng.randrange(len(cones))])
            return (kind, c, v, expected)
        if kind == "compat":
            a, b = rng.sample(ctx["pool"], 2)
            return (kind, c, a, b)
        if kind == "exchange":
            cluster = ctx["real"][rng.randrange(len(ctx["real"]))]
            return (kind, c, cluster, cluster[rng.randrange(len(cluster))])
        if kind == "nu":
            v = vec(Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(cc.n))
            return (kind, c, v, None)
        if kind == "phi_class":
            root = ctx["roots"][rng.randrange(len(ctx["roots"]))]
            if rng.random() < 0.5:
                return (kind, c, root, "real")
            while True:
                j = rng.randrange(cc.n)
                v = vec(x + (1 if i == j else 0) for i, x in enumerate(root))
                if v != cc.ctx.delta and cc.ctx.k(v, v) not in ctx["norms"]:
                    return (kind, c, v, "non-member")
                root = ctx["roots"][rng.randrange(len(ctx["roots"]))]
        if kind == "interior":
            cone = ctx["imag"][rng.randrange(len(ctx["imag"]))]
            v, _ = sample_vector(self.api, rng, cone)
            if rng.random() < 0.5:
                return (kind, c, v, True)
            j = next(j for j in range(cc.n) if cc.phi(unit(cc.n, j)) != 0)
            return (kind, c, vec(x + (1 if i == j else 0) for i, x in enumerate(v)),
                    False)
        raise ValueError(kind)

    def describe(self, i):
        kind, c, x, y = self.queries[i]
        ctx = self.contexts[c]
        return {"kind": kind, "label": ctx["label"], "word": list(ctx["word"]),
                "input": repr((x, y) if kind == "compat" else x)}

    def sizes(self):
        counts = {}
        for q in self.queries:
            counts[q[0]] = counts.get(q[0], 0) + 1
        return {"labels": [c["label"] for c in self.contexts],
                "words": {c["label"]: list(c["word"]) for c in self.contexts},
                "cluster_depth": self.size["cluster_depth"],
                "phi_c_reach": self.size["phi_c_reach"],
                "root_level": self.size["root_level"],
                "block": self.count, "block_mix": counts}

    def call(self, i):
        kind, c, x, y = self.queries[i]
        cc = self.contexts[c]["cc"]
        api = self.api
        if kind == "expand":
            return api.expansion.cluster_expansion(cc, x)
        if kind == "compat":
            return api.compatibility.compatibility_degree(cc, x, y)
        if kind == "exchange":
            return api.clusters.exchange(cc, x, y)
        if kind == "nu":
            return api.clusters.nu_inverse(cc, api.clusters.nu(cc, x))
        if kind == "phi_class":
            return cc.phi_c_class(x)
        return api.expansion.in_delta_cone_interior(cc, x)

    def check(self, i, result):
        kind, c, x, y = self.queries[i]
        ctx = self.contexts[c]
        cc = ctx["cc"]
        if kind == "expand":
            return None if result == y else f"expansion {result}, expected {y}"
        if kind == "compat":
            return _degree_pairs_ok(self.api, cc, x, y, result.degree)
        if kind == "exchange":
            return _exchange_ok(self.api, cc, x, y, result)
        if kind == "nu":
            return None if result == x else f"nu round trip gave {result}"
        if kind == "interior":
            return None if result is y else f"interior test {result}, expected {y}"
        if y == "non-member":
            expected = None
        elif cc.phi(x) != 0:
            expected = self.api.coxeter.TRANSIENT
        else:
            expected = self.api.coxeter.TUBE if x in ctx["tubes"] else None
        return None if result == expected else f"class {result}, expected {expected}"


# ---------------------------------------------------------------------------
# sweep: cold contexts, every law checked inside the operation
# ---------------------------------------------------------------------------

class Sweep:
    """Each operation builds a fresh context and checks the degree laws on
    the level pool, exchange out of every root of every enumerated real
    cluster and, in rank 3, pairwise face intersections of those cones."""

    name = "sweep"
    query = "pass"

    def __init__(self, api, seed, size):
        self.api = api
        self.size = size
        rng = random.Random(f"sweep:{seed}")
        self.jobs = []
        for label in resolve_labels(api, size["labels"]):
            ctx, _ = api.cartan.context_from_label(label)
            self.jobs.append((label, draw_words(rng, ctx.n, 1)[0]))
        self.count = len(self.jobs)

    def before_pass(self):
        """Every operation builds its own context."""

    def describe(self, i):
        label, word = self.jobs[i]
        return {"label": label, "word": list(word)}

    def sizes(self):
        return {"labels": [label for label, _ in self.jobs],
                "words": {label: list(word) for label, word in self.jobs},
                "axiom_level": self.size["axiom_level"],
                "cluster_depth": self.size["cluster_depth"]}

    def call(self, i):
        label, word = self.jobs[i]
        api = self.api
        compat = api.compatibility
        ctx, _ = api.cartan.context_from_label(label)
        cc = api.coxeter.CoxeterContext(ctx, word)
        n = cc.n
        violations = []
        pool = [r for r in api.roots.roots_up_to_level(ctx, self.size["axiom_level"])
                if cc.phi_c_class(r) is not None]
        negs = [unit(n, i, -1) for i in range(n)]
        for beta in pool:
            cv = compat.coroot_coordinates(cc, beta)
            for j in range(n):
                if compat.degree(cc, negs[j], beta) != beta[j]:
                    violations.append(("base", j, beta))
                if compat.degree(cc, beta, negs[j]) != cv[j]:
                    violations.append(("cobase", j, beta))
        moved = {s: cc.source_sink_move(s) for s in (cc.word[0], cc.word[-1])}
        degrees = []
        for a, b in combinations(pool, 2):
            d_ab = compat.degree(cc, a, b)
            d_ba = compat.degree(cc, b, a)
            degrees.append((d_ab, d_ba))
            ta, tb = cc.tau(a), cc.tau(b)
            if compat.degree(cc, ta, tb) != d_ab or compat.degree(cc, tb, ta) != d_ba:
                violations.append(("tau", a, b))
            for s, other in moved.items():
                if compat.degree(other, cc.sigma(s, a), cc.sigma(s, b)) != d_ab:
                    violations.append(("sigma", s, a, b))
        real, imag = api.clusters.enumerate_clusters(cc, self.size["cluster_depth"])
        partners = []
        for cluster in sorted(real):
            for alpha in cluster:
                result = api.clusters.exchange(cc, cluster, alpha)
                partners.append(canonical(api, result))
                bad = _exchange_ok(api, cc, cluster, alpha, result)
                if bad:
                    violations.append(("exchange", bad))
        faces = None
        if n == 3:
            cones = sorted(real) + sorted(imag)
            faces = 0
            for c1, c2 in combinations(cones, 2):
                faces += 1
                if not api.clusters.cones_intersect_in_face(cc, c1, c2):
                    violations.append(("face", c1, c2))
        return {"pool": len(pool), "degrees": degrees, "real": sorted(real),
                "imaginary": sorted(imag), "partners": partners, "faces": faces,
                "violations": violations}

    def check(self, i, result):
        if result["violations"]:
            return f"{len(result['violations'])} law violations, first {result['violations'][:3]}"
        return None


WORKLOADS = {"oracle": Oracle, "session": Session, "sweep": Sweep}
