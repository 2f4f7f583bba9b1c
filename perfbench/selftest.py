"""Self-tests of the benchmark at smoke size (a few seconds each).

    python3 perfbench/selftest.py                   # run the tests
    python3 perfbench/selftest.py --update-digests  # rewrite digests.json

The tests check the harness, not the package: that each traced function
records calls on the workload built to exercise it, that `mutation` is
idle outside `oracle`, that the wrapper catches calls made through
`from`-imported names, that a planted wrong expected value and an
operation that raises each count as exactly one failed operation, that
scaling to reference speed covers every operation, and that the stored
smoke digests still match.

Rewrite the digests only when a change to the benchmark itself alters its
inputs; a package change that alters them has changed an exact result.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Traced functions each workload is designed to exercise.
EXERCISES = {
    "oracle": ["mutation.Seed.mutate", "mutation.poly_mul", "mutation.poly_div_exact",
               "mutation.seed_bfs", "oracle_bridge.verify_bijection",
               "oracle_bridge.conjecture_evidence"],
    "session": ["expansion.cluster_expansion", "expansion.rotate_affine",
                "expansion.expand_in_parabolic", "expansion.imaginary_expansion",
                "expansion.in_delta_cone_interior", "clusters.exchange",
                "clusters.nu_inverse", "clusters.is_cluster",
                "compatibility.compatibility_degree", "compatibility.degree",
                "compatibility.compat_arrows", "almost_positive.enumerate_phi_c",
                "linalg.vec", "linalg.solve_general", "coxeter.CoxeterContext.phi_c_class",
                "cartan.AffineContext.is_real_root"],
    "sweep": ["linalg.vec", "linalg.solve_general", "linalg.in_simplicial_cone",
              "linalg.inverse", "linalg.mat_vec", "cartan.AffineContext.is_real_root",
              "cartan.AffineContext.ensure_level", "cartan.AffineContext.coroot_coords",
              "coxeter.CoxeterContext.__init__", "coxeter.CoxeterContext.phi_c_class",
              "coxeter.CoxeterContext.tau", "coxeter.CoxeterContext.sigma",
              "almost_positive.enumerate_phi_c", "compatibility.degree",
              "compatibility.compatibility_degree", "compatibility.compat_arrows",
              "compatibility.coroot_coordinates", "compatibility.tube_support",
              "clusters.exchange", "clusters.enumerate_clusters", "clusters.is_cluster",
              "clusters.cones_intersect_in_face"],
}


def traced_smoke(name):
    """Smoke-size workload run once with tracing on; returns the metrics."""
    api = run.import_package()
    wl = workloads.WORKLOADS[name](api, run.DEFAULT_SEED, workloads.SMOKE[name])
    tracer = tracing.Tracer()
    tracer.install(api)
    _, _, _, wall = run.run_pass(wl, workloads.Failed, tracer)
    assert not tracer.on, "tracing left on after the pass"
    return {k: v for k, (v, _) in tracer.metrics(wall).items()}


def test_every_traced_function_is_exercised():
    covered = {key for keys in EXERCISES.values() for key in keys}
    missing = sorted(set(tracing.TRACED) - covered)
    assert not missing, f"no workload is designed to exercise {missing}"
    for name, keys in EXERCISES.items():
        metrics = traced_smoke(name)
        idle = [k for k in keys if metrics[f"{k}.calls"] == 0]
        assert not idle, f"{name}: no calls recorded for {idle}"
        if name != "oracle":
            busy = [k for k in tracing.LAYERS["mutation"]
                    if metrics[f"mutation.{k}.calls"] != 0]
            assert not busy, f"{name}: mutation calls recorded for {busy}"


def test_wrapper_catches_from_imported_names():
    api = run.import_package()
    original = api.linalg.in_simplicial_cone
    assert api.clusters.in_simplicial_cone is original
    tracer = tracing.Tracer()
    tracer.install(api)
    assert api.clusters.in_simplicial_cone is api.linalg.in_simplicial_cone
    assert api.clusters.in_simplicial_cone is not original
    assert api.expansion.vec is api.linalg.vec
    ctx, word = api.cartan.context_from_label("D3(2)")
    cc = api.coxeter.CoxeterContext(ctx, word)
    tracer.on = True
    # cone_contains reaches in_simplicial_cone only through the name that
    # clusters imported from linalg
    assert api.clusters.cone_contains(cc, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 2, 3))
    tracer.on = False
    metrics = tracer.metrics(1.0)
    assert metrics["linalg.in_simplicial_cone.calls"][0] == 1
    assert metrics["linalg.in_simplicial_cone.hit_ratio"][0] == 1.0
    assert metrics["linalg.solve_general.calls"][0] == 1


def test_planted_wrong_expected_value_counts_once():
    api = run.import_package()
    wl = workloads.Session(api, run.DEFAULT_SEED, workloads.SMOKE["session"])
    expand = next(i for i, q in enumerate(wl.queries) if q[0] == "expand")
    kind, c, v, expected = wl.queries[expand]
    wrong = dict(expected)
    wrong[next(iter(wrong))] += 1
    wl.queries[expand] = (kind, c, v, wrong)
    checker = run.checked_pass(wl, workloads)[0]
    assert checker.attempted == wl.count
    assert [f["op"] for f in checker.failures] == [expand], checker.failures
    assert checker.failures[0]["error"].startswith("expansion "), checker.failures


def test_raising_operation_counts_once():
    api = run.import_package()
    wl = workloads.Sweep(api, run.DEFAULT_SEED, workloads.SMOKE["sweep"])
    label, word = wl.jobs[0]
    wl.jobs[0] = ("Z9(9)", word)   # context_from_label raises inside the call
    checker = run.checked_pass(wl, workloads)[0]
    assert checker.attempted == wl.count
    assert [f["op"] for f in checker.failures] == [0], checker.failures
    # the text is the Failed marker's, made where run_pass caught the error
    assert checker.failures[0]["error"] == "UnknownLabel: Z9(9)", checker.failures


def test_speed_scaling_covers_every_operation():
    class Zero:
        """A reference speed that scales every chunk of work to nothing."""
        calls = 0

        def factor(self):
            self.calls += 1
            return 0.0

    api = run.import_package()
    wl = workloads.Session(api, run.DEFAULT_SEED, workloads.SMOKE["session"])
    zero = Zero()
    _, latencies, wall, raw_wall = run.run_pass(wl, workloads.Failed, speed=zero)
    assert zero.calls >= 1 and raw_wall > 0
    assert wall == 0 and not any(latencies), "an operation escaped scaling"


def test_stored_digests_match():
    stored = json.loads((HERE / "digests.json").read_text())
    for name in workloads.WORKLOADS:
        api = run.import_package()
        got, failures = run.smoke_digest(api, workloads, name)
        assert not failures, failures
        assert stored.get(name) == got, f"{name}: digest {got}, stored {stored.get(name)}"


def update_digests():
    out = {}
    for name in workloads.WORKLOADS:
        got, failures = run.smoke_digest(run.import_package(), workloads, name)
        if failures:
            raise SystemExit(f"{name}: smoke batch has failures {failures[:3]}")
        out[name] = got
    (HERE / "digests.json").write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out))


def main(argv):
    if argv == ["--update-digests"]:
        update_digests()
        return 0
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
