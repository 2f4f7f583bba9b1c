"""Cross-checks between the seed-mutation oracle and the root model.

The oracle side knows nothing about roots; the model side knows nothing
about Laurent polynomials.  These functions compare them: denominator
vectors against the almost-positive set and clusters, principal-grading
degrees against the piecewise-linear weight map, the mutation graph against
the exchange graph, and the compatibility-degree description of
re-rooted denominator vectors.
"""

from __future__ import annotations

from . import compatibility as compat
from .clusters import REAL, enumerate_clusters, is_cluster, nu
from .coxeter import CoxeterContext
from .mutation import Seed, exchange_matrix_from_cartan, seed_bfs


def verify_bijection(cc: CoxeterContext, depth: int) -> dict:
    """Denominator vectors land in the almost-positive set, injectively, seed
    clusters are real clusters, and grading degrees equal the weight map."""
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
    first_with_d = {}   # d-vector -> key of the first variable seen with it
    delta = cc.ctx.delta
    for key, seed in reps.items():
        dvecs = []
        for slot in range(seed.n):
            d = seed.d_vector(slot)
            g = seed.g_vector(slot, b)
            dvecs.append(d)
            cls = cc.phi_c_class(d)
            if cls is None or d == delta:
                report["all_d_in_set"] = False
                report["failures"].append(("membership", d))
            if nu(cc, d) != g:
                report["g_equals_nu_of_d"] = False
                report["failures"].append(("grading", d, g))
            var = seed.variable_key(slot)
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
    model_clusters, _ = enumerate_clusters(cc, depth)
    same_vertices = set(seed_clusters.values()) == set(model_clusters)
    edges_ok = True
    for pair in edges:
        pair = list(pair)
        if len(pair) == 1:
            continue
        c1, c2 = seed_clusters.get(pair[0]), seed_clusters.get(pair[1])
        if c1 is None or c2 is None:
            continue
        if len(set(c1) ^ set(c2)) != 2:
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
    vectors; a mismatch is reported, never raised."""
    b = exchange_matrix_from_cartan(cc.cm, cc.word)
    reps, _ = seed_bfs(b, depth)
    by_length = sorted(reps.values(), key=lambda seed: len(seed.history))
    comparisons = 0
    mismatches = []
    for seed_prime in reps.values():
        beta_labels = [seed_prime.d_vector(i) for i in range(seed_prime.n)]
        b_prime = tuple(seed_prime.btilde[i] for i in range(seed_prime.n))
        # re-root: fresh principal coefficients at the mutated exchange matrix,
        # walked back to the original position
        rerooted = Seed.initial(b_prime)
        for k in reversed(seed_prime.history):
            rerooted = rerooted.mutate(k)
        replay_cache = {(): rerooted}

        def replay_at(history):
            seed = replay_cache.get(history)
            if seed is None:
                seed = replay_at(history[:-1]).mutate(history[-1])
                replay_cache[history] = seed
            return seed

        for other in by_length:
            replay = replay_at(other.history)
            for slot in range(other.n):
                beta = other.d_vector(slot)
                d_prime = replay.d_vector(slot)
                expected = tuple(
                    compat.degree(cc, label, beta) for label in beta_labels
                )
                comparisons += 1
                if d_prime != expected:
                    mismatches.append({
                        "seed": seed_prime.history,
                        "variable": beta,
                        "denominator": d_prime,
                        "degrees": expected,
                    })
    return {
        "comparisons": comparisons,
        "mismatches": mismatches,
        "match_fraction": 1.0 if not comparisons
        else (comparisons - len(mismatches)) / comparisons,
    }
