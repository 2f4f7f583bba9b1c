"""Planted mutants of the package, each run against the tests meant to kill it.

For each mutant the script copies `src`, `tests` and `pyproject.toml` to a
temporary directory, replaces one text in one file of the copy, runs the
mutant's target test files there with `-x`, and prints KILLED (a test
failed) or SURVIVED (every test passed) with the time the run took.  An old
text that does not occur exactly once in its file stops the script: the
list has gone stale.  The mutants of EQUIVALENT change no answer, each for
the reason it gives; they run too, and their survival is expected.  The exit
status is 1 when a mutant of MUTANTS survived.  It uses only the standard
library and pytest, and pytest does not collect it.

    python tests/mutants.py [NAME ...]

With names, only those mutants run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CARTAN = "src/aproots/cartan.py"
CLUSTERS = "src/aproots/clusters.py"
COMPAT = "src/aproots/compatibility.py"
COXETER = "src/aproots/coxeter.py"
EXPANSION = "src/aproots/expansion.py"
MUTATION = "src/aproots/mutation.py"
# the property test draws its labels; the corpus holds every one of them
REAL_ROOTS_TESTS = ["tests/test_cartan.py::test_real_roots_translate_the_window_in_any_node_order",
                    "tests/test_golden.py"]

# (name, file, old text, new text, target test files)
MUTANTS = [
    ("base law read as the weight pairing", COMPAT,
     "        k = cc.neg_simple_index(alpha)\n        return beta[k], beta[k]\n",
     "        return sum(map(mul, cv, nu_to)), sum(map(mul, cv, nu_from))\n",
     ["tests/test_compatibility.py"]),
    ("weight kernel without the positive truncation", COXETER,
     "for j, a in row if v[j] > 0)", "for j, a in row)",
     ["tests/test_clusters.py"]),
    ("arrow_from read through lower", COXETER,
     "self.weight(self.upper, v))", "self.weight(self.lower, v))",
     ["tests/test_compatibility.py"]),
    ("nu_c and nu_c^-1 swapped in the record", COXETER,
     "(cls, cv, self.weight(self.lower, v),\n"
     "                                         self.weight(self.upper, v))",
     "(cls, cv, self.weight(self.upper, v),\n"
     "                                         self.weight(self.lower, v))",
     ["tests/test_compatibility.py"]),
    ("the arrows' tables swapped", COMPAT,
     "return sum(map(mul, cv, nu_to)), sum(map(mul, cv, nu_from))",
     "return sum(map(mul, cv, nu_from)), sum(map(mul, cv, nu_to))",
     ["tests/test_compatibility.py"]),
    ("phi's sign negated before the rotation", EXPANSION,
     "rotate_affine(cc, v, sign)", "rotate_affine(cc, v, -sign)",
     ["tests/test_golden.py"]),
    ("a hyperplane vector outside the cone expands to nothing", EXPANSION,
     "            pass\n", "            return {}\n",
     ["tests/test_golden.py"]),
    ("hyperplane vectors sent straight to the rotation", EXPANSION,
     "    if sign == 0:\n        try:", "    if False:\n        try:",
     ["tests/test_golden.py"]),
    ("the sink word off by one", EXPANSION,
     "word[-t:] + word[:-t] if sink", "word[-t - 1:] + word[:-t - 1] if sink",
     ["tests/test_expansion.py"]),
    ("the rotation kernel without its diagonal term", EXPANSION,
     "x -= a * v[j]", "x -= 0 if j == s else a * v[j]",
     ["tests/test_expansion.py"]),
    ("nu_inverse keeping negative neighbours", CLUSTERS,
     "for j, a in cc.lower[i] if v[j] > 0)", "for j, a in cc.lower[i])",
     ["tests/test_clusters.py"]),
    ("the orbit walk's sides swapped", COXETER,
     "if self.phi(v) > 0", "if self.phi(v) < 0",
     ["tests/test_coxeter.py"]),
    ("c_action dividing by m squared", COXETER,
     "return divided(m, self._walk(v, reversed(self.word)))",
     "return divided(m * m, self._walk(v, reversed(self.word)))",
     ["tests/test_golden.py"]),
    ("the pair search with delta checking only alpha", CLUSTERS,
     "for a in (alpha, beta) for r in facet", "for a in (alpha,) for r in facet",
     ["tests/test_clusters.py"]),
    ("the window's translates starting one too low", CARTAN,
     "range(-((cap + w[self.aff]) // step),", "range(-((cap + w[self.aff]) // step) - 1,",
     REAL_ROOTS_TESTS),
    ("the window's translates stopping one too low", CARTAN,
     "(cap - w[self.aff]) // step + 1)", "(cap - w[self.aff]) // step)",
     REAL_ROOTS_TESTS),
    ("the translates counted in steps of delta, not of the period", CARTAN,
     "step = self.period * self.delta[self.aff]", "step = self.delta[self.aff]",
     REAL_ROOTS_TESTS),
    ("the negative simples built without the sign", CARTAN,
     "tuple(tuple(-x for x in e) for e in self.simples)",
     "tuple(tuple(x for x in e) for e in self.simples)",
     ["tests/test_golden.py"]),
    ("the sparse mutation rule without its abs", MUTATION,
     "row[j] += abs(bik) * bkj", "row[j] += bik * bkj",
     ["tests/test_mutation.py"]),
    ("the sparse mutation rule skipping the C rows", MUTATION,
     "        elif bik:\n", "        elif bik and i < len(row):\n",
     ["tests/test_mutation.py"]),
    # the catalog puts the affine node last, so only relabeled nodes tell them apart
    ("gamma pinned at the last node, not at the affine node", COXETER,
     "[list(ctx.simples[ctx.aff])]", "[list(ctx.simples[-1])]",
     ["tests/test_invariance.py"]),
]

# (name, file, old text, new text, target test files, why no answer changes)
EQUIVALENT = [
    ("the pair search with delta without beta not in facet", CLUSTERS,
     "alpha not in facet and beta not in facet", "alpha not in facet",
     ["tests/test_clusters.py"],
     "a tube root has degree -1 with itself, so a facet holding beta already "
     "fails the compatibility test"),
]


def _copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def run(name, path, old, new, targets):
    """(verdict, seconds) of one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        mutated = tree / path
        text = mutated.read_text()
        if text.count(old) != 1:
            sys.exit(f"{name}: the old text occurs {text.count(old)} times in {path}")
        mutated.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *targets],
            cwd=tree, env=env, capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
    if proc.returncode == 1:
        return "KILLED", elapsed
    if proc.returncode == 0:
        return "SURVIVED", elapsed
    sys.exit(f"{name}: pytest exited {proc.returncode}\n"
             f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")


def main(names):
    every = [m + (None,) for m in MUTANTS] + EQUIVALENT
    chosen = [m for m in every if not names or m[0] in names]
    if names and len(chosen) != len(names):
        sys.exit(f"unknown mutants: {sorted(set(names) - {m[0] for m in every})}")
    survived = 0
    for *mutant, reason in chosen:
        verdict, elapsed = run(*mutant)
        survived += verdict == "SURVIVED" and reason is None
        note = f" (equivalent: {reason})" if reason else ""
        print(f"{verdict:<8} {elapsed:6.1f} s  {mutant[0]}{note}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
