"""Answers depend on c and on A up to relabeling.

The almost-positive set, the compatibility degree, the clusters and the
cluster expansions are defined from the Cartan matrix and c alone (arXiv
1707.00340).  So a second word for the same c, made by swapping adjacent
commuting letters, gives the same answers, and relabeling the nodes by a
permutation π permutes every answer by π.  Every internal table is indexed
by word position or by node, so a fault that reads one where it should read
the other shows here, even where the catalog orders hide it.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aproots.cartan import AffineContext, validate_cartan
from aproots.clusters import exchange, nu, nu_inverse, real_clusters
from aproots.compatibility import degree
from aproots.coxeter import CoxeterContext
from aproots.expansion import cluster_expansion
from aproots.roots import roots_up_to_level

from strategies import coxeter_contexts

vectors = st.lists(st.tuples(*[st.integers(-3, 3)] * 4), min_size=1, max_size=3)


def inputs(cc, seed, drawn):
    """(roots of level at most 1, a seeded sample of 6 of them in the
    almost-positive set, the drawn 4-tuples cut to rank n)."""
    roots = roots_up_to_level(cc.ctx, 1)
    members = [r for r in roots if cc.phi_c_class(r) is not None]
    return (roots, random.Random(seed).sample(members, min(6, len(members))),
            [v[:cc.n] for v in drawn])


def answers(cc, roots, members, vectors):
    """γ_c, membership, the degree on every pair of members, expansion, ν
    and ν⁻¹ of each vector, the real clusters within two exchanges and every
    exchange out of each of them."""
    clusters = real_clusters(cc, 2)
    return {
        "gamma": cc.gamma(),
        "class": [cc.phi_c_class(r) for r in roots],
        "degree": [degree(cc, a, b) for a in members for b in members],
        "expansion": [cluster_expansion(cc, v) for v in vectors],
        "nu": [nu(cc, v) for v in vectors],
        "nu_inverse": [nu_inverse(cc, v) for v in vectors],
        "clusters": clusters,
        "exchange": {(cl, a): exchange(cc, cl, a) for cl in clusters for a in cl},
    }


@settings(max_examples=60, deadline=None)
@given(coxeter_contexts(), st.integers(0, 2 ** 16), vectors, st.data())
def test_two_words_for_one_coxeter_element_give_the_same_answers(cc, seed, drawn, data):
    a = cc.cm.a
    swaps = [p for p in range(cc.n - 1) if a[cc.word[p]][cc.word[p + 1]] == 0]
    assume(swaps)
    p = data.draw(st.sampled_from(swaps))
    word = cc.word[:p] + (cc.word[p + 1], cc.word[p]) + cc.word[p + 2:]
    other = CoxeterContext(cc.ctx, word)
    args = inputs(cc, seed, drawn)
    assert answers(other, *args) == answers(cc, *args)


def relabeled(pi, v):
    """v with its entry at node i moved to node pi[i]."""
    out = [0] * len(v)
    for i, x in enumerate(v):
        out[pi[i]] = x
    return tuple(out)


def relabeled_answers(pi, ans):
    """The answers of the relabeled context that `ans` predicts."""
    def cluster(cl):
        return tuple(sorted(relabeled(pi, r) for r in cl))

    return {
        "gamma": relabeled(pi, ans["gamma"]),
        "class": ans["class"],
        "degree": ans["degree"],
        "expansion": [{relabeled(pi, r): x for r, x in e.items()} for e in ans["expansion"]],
        "nu": [relabeled(pi, w) for w in ans["nu"]],
        "nu_inverse": [relabeled(pi, v) for v in ans["nu_inverse"]],
        "clusters": {cluster(cl) for cl in ans["clusters"]},
        "exchange": {(cluster(cl), relabeled(pi, a)): (relabeled(pi, b), cluster(new))
                     for (cl, a), (b, new) in ans["exchange"].items()},
    }


@settings(max_examples=60, deadline=None)
@given(coxeter_contexts(), st.integers(0, 2 ** 16), vectors, st.data())
def test_relabeling_the_nodes_permutes_every_answer(cc, seed, drawn, data):
    n = cc.n
    pi = data.draw(st.permutations(range(n)))
    inv = [pi.index(p) for p in range(n)]
    cm = validate_cartan([[cc.cm.a[inv[p]][inv[q]] for q in range(n)] for p in range(n)])
    ctx = AffineContext(cm, aff=pi[cc.ctx.aff])
    assert ctx.delta == relabeled(pi, cc.ctx.delta)
    other = CoxeterContext(ctx, [pi[i] for i in cc.word])
    roots, members, vecs = inputs(cc, seed, drawn)
    got = answers(other, [relabeled(pi, r) for r in roots],
                  [relabeled(pi, r) for r in members], [relabeled(pi, v) for v in vecs])
    assert got == relabeled_answers(pi, answers(cc, roots, members, vecs))
