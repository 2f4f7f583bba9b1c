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
from .mutation import exchange_matrix_from_cartan, initial_btilde, mutate_d_vectors, seed_bfs


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
    vectors, each degree read through `compat.degree` and its cache; a
    mismatch is reported, never raised.

    Re-rooting at seed_prime replays (B̃, d-vector) pairs by
    `mutate_d_vectors`, with no polynomial, from its exchange matrix b' over
    the identity and the initial d-vectors -e_i.  The replay walks back
    along seed_prime's history once, to the initial seed, then down the BFS
    tree: each seed's history extends an earlier seed's by one letter
    (`seed_bfs`), so a dict keyed by history gets each replay in one step
    from its parent's."""
    b = exchange_matrix_from_cartan(cc.cm, cc.word)
    reps, _ = seed_bfs(b, depth)
    n = len(b)
    start = tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))
    comparisons = 0
    mismatches = []
    for seed_prime in reps.values():
        beta_labels = [seed_prime.d_vector(i) for i in range(n)]
        state = initial_btilde(seed_prime.btilde[:n]), start
        for k in reversed(seed_prime.history):
            state = mutate_d_vectors(*state, k)
        replays = {(): state}
        for other in reps.values():
            word = other.history
            if word:
                replays[word] = mutate_d_vectors(*replays[word[:-1]], word[-1])
            dvecs = replays[word][1]
            for slot in range(n):
                beta, d_prime = other.d_vector(slot), dvecs[slot]
                expected = tuple(compat.degree(cc, label, beta) for label in beta_labels)
                comparisons += 1
                if d_prime != expected:
                    mismatches.append({"seed": seed_prime.history, "variable": beta,
                                       "denominator": d_prime, "degrees": expected})
    return {
        "comparisons": comparisons,
        "mismatches": mismatches,
        "match_fraction": 1.0 if not comparisons
        else (comparisons - len(mismatches)) / comparisons,
    }
