"""The exactness corpus: one SHA-256 per (label, word, family).

Each digest hashes the `repr` of a family's answers, in order, on seeded
inputs of one context, so the types of the entries and the order of a
dict's keys count.  An answer that raises is recorded by the class and
message of its error.  The contexts are every `catalog_labels(6)` label in
its catalog word and in two seeded shuffles; the inputs are seeded rational
vectors, vectors on the hyperplane phi = 0 and vectors of the imaginary cone,
the roots of level at most 2, pairs drawn from pools of members, and each
root of each real cluster within two exchanges of the negative simples.
One more digest per label, which no word changes, records the real roots:
the period and both enumerations at levels 0 to 4.

`tests/test_golden.py` recomputes the digests against `golden/exact.json`.
This script rewrites that file from the package on the path:

    PYTHONPATH=src python tests/golden.py [--dump ANSWERS.txt]

`--dump` also writes every answer, one per line, so that the answers of two
trees can be diffed.  A change that alters an exact result on purpose
rewrites the affected digests and names each one in CHANGES.md.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from aproots.almost_positive import neg_simples
from aproots.cartan import catalog_labels
from aproots.clusters import exchange, is_exchangeable, nu, nu_inverse, real_clusters
from aproots.compatibility import compat_arrows, compatibility_degree, coroot_coordinates
from aproots.coxeter import CoxeterContext
from aproots.expansion import cluster_expansion, in_delta_cone, in_delta_cone_interior
from aproots.linalg import primitive_integer_vector, vec
from aproots.roots import roots_up_to_level

from strategies import affine_for, integer_kernel_basis

PATH = Path(__file__).resolve().parent / "golden" / "exact.json"
LABELS = catalog_labels(6)
# family -> (the kind of input it reads, the function of (cc, *input))
FAMILIES = {
    "cluster_expansion": ("vectors", cluster_expansion),
    "in_delta_cone": ("vectors", in_delta_cone),
    "in_delta_cone_interior": ("vectors", in_delta_cone_interior),
    "nu": ("vectors", nu),
    "nu_inverse": ("vectors", nu_inverse),
    "c_action": ("vectors", CoxeterContext.c_action),
    "c_inverse_action": ("vectors", CoxeterContext.c_inverse_action),
    "phi_c_class": ("roots", CoxeterContext.phi_c_class),
    "coroot_coordinates": ("roots", coroot_coordinates),
    "orbit_classification": ("pool", CoxeterContext.orbit_classification),
    "compatibility_degree": ("pairs", compatibility_degree),
    "is_exchangeable": ("pairs", is_exchangeable),
    "compat_arrows": ("arrow pairs", compat_arrows),
    "exchange": ("exchanges", exchange),
}
# the family of one digest per label, read off the AffineContext
REAL_ROOTS = "real_roots"


def words(label):
    """The catalog word of `label` and two seeded shuffles of it, each once
    (a rank-2 label has only two words)."""
    word = affine_for(label)[1]
    rng = random.Random(f"{label} words")
    return list(dict.fromkeys([tuple(word)] + [tuple(rng.sample(word, len(word)))
                                              for _ in range(2)]))


def inputs(cc, rng):
    """Seeded rational, hyperplane and imaginary-cone vectors of `cc`."""
    n = cc.n
    out = [vec(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
           for _ in range(12)]
    basis = integer_kernel_basis(primitive_integer_vector(cc._phi_fun))
    for _ in range(6):
        coeffs = [rng.randint(-6, 6) for _ in basis]
        den = rng.randint(1, 4)
        out.append(vec(Fraction(sum(c * b[i] for c, b in zip(coeffs, basis)), den)
                       for i in range(n)))
    gens = [r for comp in cc.components for r in comp.cycle] + [cc.ctx.delta]
    for _ in range(6):
        coeffs = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in gens]
        out.append(vec(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)))
    return out


def arrow_pairs(cc, seed):
    """A pool of at most 120 members of level at most 2, holding delta, the
    negative simples and every tube root, each member against a seeded
    sample of 10 pool members in both orders.  Unlike the degree, the arrows
    are read on tube pairs whose arcs cover their cycle too."""
    pool = list(neg_simples(cc)) + [cc.ctx.delta] + cc.tube_roots()
    rest = [r for r in roots_up_to_level(cc.ctx, 2)
            if r not in pool and cc.phi_c_class(r) is not None]
    rng = random.Random(f"{seed} arrows")
    pool += rng.sample(rest, min(len(rest), 120 - len(pool)))
    return [pair for a in pool for b in rng.sample(pool, min(10, len(pool)))
            for pair in ((a, b), (b, a))]


def input_kinds(cc, seed):
    """kind -> the list of argument tuples of the families of that kind."""
    pool = [r for r in roots_up_to_level(cc.ctx, 1) if cc.phi_c_class(r) is not None]
    pool = random.Random(f"{seed} pool").sample(pool, min(20, len(pool)))
    return {
        "vectors": [(v,) for v in inputs(cc, random.Random(seed))],
        "roots": [(r,) for r in roots_up_to_level(cc.ctx, 2)],
        "pool": [(r,) for r in pool],
        "pairs": [(a, b) for a in pool for b in pool],
        "arrow pairs": arrow_pairs(cc, seed),
        "exchanges": [(cluster, alpha) for cluster in sorted(real_clusters(cc, 2))
                      for alpha in cluster],
    }


def answer(f, cc, args):
    try:
        return repr(f(cc, *args))
    except Exception as e:
        return f"!{type(e).__name__}: {e}"


def answers(label, word):
    """family -> the list of (input, answer) texts of one context."""
    cc = CoxeterContext(affine_for(label)[0], word)
    kinds = input_kinds(cc, f"{label} {word}")
    return {family: [(repr(args), answer(f, cc, args)) for args in kinds[kind]]
            for family, (kind, f) in FAMILIES.items()}


def real_root_answers(label):
    """(input, answer) texts of the period and of both enumerations of the
    real roots at levels 0 to 4."""
    ctx = affine_for(label)[0]
    return ([("period", repr(ctx.period))]
            + [(f"roots_up_to_level {level}", repr(roots_up_to_level(ctx, level)))
               for level in range(5)]
            + [(f"positive_real_roots {level}", repr(ctx.positive_real_roots(level)))
               for level in range(5)])


def key(label, word, family):
    return f"{label} {' '.join(map(str, word))} {family}"


def label_key(label):
    return f"{label} {REAL_ROOTS}"


def digest(pairs):
    return hashlib.sha256("\n".join(a for _, a in pairs).encode()).hexdigest()


def digests(label):
    """key -> digest for every word and family of `label`, and its real roots."""
    return {key(label, word, family): digest(pairs)
            for word in words(label)
            for family, pairs in answers(label, word).items()} | {
        label_key(label): digest(real_root_answers(label))}


def main(argv):
    table, lines = {}, []
    for label in LABELS:
        for word in words(label):
            for family, pairs in answers(label, word).items():
                table[key(label, word, family)] = digest(pairs)
                lines += [f"{key(label, word, family)}\t{v}\t{a}" for v, a in pairs]
        pairs = real_root_answers(label)
        table[label_key(label)] = digest(pairs)
        lines += [f"{label_key(label)}\t{v}\t{a}" for v, a in pairs]
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"{len(table)} digests written to {PATH}")
    if argv[:1] == ["--dump"]:
        Path(argv[1]).write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
