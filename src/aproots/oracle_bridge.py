"""Cross-checks between the seed-mutation oracle and the root model.

The oracle side knows nothing about roots; the model side knows nothing
about Laurent polynomials.  These functions compare them: denominator
vectors against the almost-positive set and clusters, g-vectors against
the piecewise-linear weight map, the mutation graph against the exchange
graph, and the compatibility-degree description of re-rooted denominator
vectors.
"""

from __future__ import annotations

from . import compatibility as compat
from .clusters import REAL, is_cluster, nu, real_clusters
from .coxeter import CoxeterContext
from .mutation import Seed, exchange_matrix_from_cartan, seed_bfs


def verify_bijection(cc: CoxeterContext, depth: int) -> dict:
    """Denominator vectors land in the almost-positive set, injectively, seed
    clusters are real clusters, and g-vectors equal the weight map.

    Membership and grading are checked once per distinct cluster variable;
    its failures are reported at every (seed, slot) that holds it."""
    b = exchange_matrix_from_cartan(cc.cm, cc.word)
    reps, edges = seed_bfs(b, depth)
    report = {
        "seeds": len(reps),
        "all_d_in_set": True,
        "d_injective": True,
        "seed_clusters_real": True,
        "g_equals_nu_of_d": True,
        "failures": [],
    }
    flags = {"membership": "all_d_in_set", "grading": "g_equals_nu_of_d"}
    checked = {}        # variable key -> its membership and grading failures
    first_with_d = {}   # d-vector -> key of the first variable seen with it
    delta = cc.ctx.delta
    for key, seed in reps.items():
        dvecs = []
        for slot in range(seed.n):
            d = seed.d_vector(slot)
            dvecs.append(d)
            var = seed.variable_key(slot)
            if var not in checked:
                g = seed.g_vector(slot)
                found = checked[var] = []
                if cc.phi_c_class(d) is None or d == delta:
                    found.append(("membership", d))
                if nu(cc, d) != g:
                    found.append(("grading", d, g))
            for failure in checked[var]:
                report[flags[failure[0]]] = False
                report["failures"].append(failure)
            if first_with_d.setdefault(d, var) != var:
                report["d_injective"] = False
                report["failures"].append(("injectivity", d))
        kind, reason = is_cluster(cc, dvecs)
        if kind != REAL:
            report["seed_clusters_real"] = False
            report["failures"].append(("cluster", tuple(dvecs), reason))
    report["ok"] = (report["all_d_in_set"] and report["d_injective"]
                    and report["seed_clusters_real"] and report["g_equals_nu_of_d"])
    return report


def exchange_graphs_agree(cc: CoxeterContext, depth: int) -> dict:
    """The depth-d mutation graph maps onto the depth-d exchange graph via
    denominator vectors, as rooted graphs."""
    b = exchange_matrix_from_cartan(cc.cm, cc.word)
    reps, edges = seed_bfs(b, depth)
    seed_clusters = {
        key: tuple(sorted(seed.d_vector(s) for s in range(seed.n)))
        for key, seed in reps.items()
    }
    model_clusters = real_clusters(cc, depth)
    same_vertices = set(seed_clusters.values()) == set(model_clusters)
    edges_ok = True
    for pair in edges:
        # a mutation that gives back its own cluster is an edge with one end
        ends = [set(seed_clusters[key]) for key in pair]
        if len(ends) != 2 or len(ends[0] ^ ends[1]) != 2:
            edges_ok = False
    return {
        "vertices_agree": same_vertices,
        "edges_are_exchanges": edges_ok,
        "seed_count": len(reps),
        "cluster_count": len(model_clusters),
        "ok": same_vertices and edges_ok,
    }


def conjecture_evidence(cc: CoxeterContext, depth: int) -> dict:
    """Compare re-rooted denominator vectors with compatibility-degree
    vectors; a mismatch is reported, never raised.

    Re-rooting at seed' starts a fresh seed at its exchange matrix b' and
    mutates back along its history, then out along the other seed's.
    Mutation is an involution, so only the reduced word (equal adjacent
    letters cancelled) matters.  Seeds with the same b' share one memo of
    replays keyed by reduced word, dropped after the last of them."""
    b = exchange_matrix_from_cartan(cc.cm, cc.word)
    reps, _ = seed_bfs(b, depth)
    last = {seed.btilde[:seed.n]: seed for seed in reps.values()}
    memos = {}          # b' -> {reduced word: replayed seed}
    comparisons = 0
    mismatches = []
    for seed_prime in reps.values():
        beta_labels = [seed_prime.d_vector(i) for i in range(seed_prime.n)]
        b_prime = seed_prime.btilde[:seed_prime.n]
        memo = memos.setdefault(b_prime, {})
        back = seed_prime.history[::-1]

        def replay_at(word):
            seed = memo.get(word)
            if seed is None:
                seed = memo[word] = (replay_at(word[:-1]).mutate(word[-1]) if word
                                     else Seed.initial(b_prime))
            return seed

        degrees = {}    # beta -> its degrees against seed_prime's labels
        # seed_bfs adds the seeds level by level, so in order of history length
        for other in reps.values():
            replay = replay_at(_reduced(back + other.history))
            for slot in range(other.n):
                beta = other.d_vector(slot)
                d_prime = replay.d_vector(slot)
                expected = degrees.get(beta)
                if expected is None:
                    expected = degrees[beta] = tuple(
                        compat.degree(cc, label, beta) for label in beta_labels)
                comparisons += 1
                if d_prime != expected:
                    mismatches.append({
                        "seed": seed_prime.history,
                        "variable": beta,
                        "denominator": d_prime,
                        "degrees": expected,
                    })
        if last[b_prime] is seed_prime:
            del memos[b_prime]
    return {
        "comparisons": comparisons,
        "mismatches": mismatches,
        "match_fraction": 1.0 if not comparisons
        else (comparisons - len(mismatches)) / comparisons,
    }


def _reduced(word) -> tuple:
    """A mutation word with equal adjacent letters cancelled."""
    out = []
    for k in word:
        if out and out[-1] == k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)
