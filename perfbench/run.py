"""Benchmark of the aproots package: one workload per run, driven from outside.

    python3 perfbench/run.py --workload {oracle,session,sweep} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; the package is imported from ``src/``.
One single-threaded client drives the package's public functions in a
closed loop: the next call starts only after the previous one returned.

Set-up (import, contexts, inputs and, for `session`, the warm-up pass) is
repeated on a fresh import each time, and its median is `setup_s`.  A cheap
set-up is also repeated after every pass of an untraced run, so that its
median samples the machine's speed over the whole run, not only over its
first seconds.
The timed region then runs passes over the workload's fixed batch until
the next pass would end after `--seconds`, and always at least one;
`wall_s` is its wall time per pass.  Query latencies (one per operation in
`session`, one per pass in the batch workloads) give `query_p50_ms` and
`query_p99_ms`; when fewer than ten samples lie above the 99th percentile,
`query_p99_ms` is the median instead, and the record says so
(`query_p99_resolved`).

Every timing is scaled to reference speed (see speed.py): a fixed reference
loop is timed between chunks of work, and each chunk's time is scaled by
the reference loop's nominal time over its measured one.  The raw times are
in the run record.

With ``--trace 0`` the last line of standard output is the result object
with every end-to-end metric; with ``--trace 1`` one untraced pass is
followed by one traced pass and the result carries the per-layer metrics
and the tracing overhead.  Tracing is on only inside the pass's timed
loop, so neither `before_pass` nor the output checks are traced.  The lines
before the result are a run record (``record {...}``) and, if any operation
failed, one ``failed {...}`` line each.  A
fuller record, with every latency, goes to ``perfbench/out/``, and the
spans of a traced run next to it.

Every operation's output is checked by rules that need no stored answer.
Afterwards a smoke-size batch with the default seed is run and its digest
compared with ``digests.json``, so an exact result that changes shows up as
``correct: false``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from contextlib import nullcontext
from pathlib import Path

from speed import REF_NOMINAL_S, SAMPLE_EVERY_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SEED = 1
# Set-up is repeated at least SETUP_MIN_REPS times, and more while the
# repetitions so far took under SETUP_MIN_TOTAL_S (cheap set-ups are noisy).
# A set-up whose median is under SETUP_CHEAP_S is repeated SETUP_REPS_AFTER_PASS
# more times after every pass.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 25
SETUP_MIN_TOTAL_S = 1.0
SETUP_CHEAP_S = 0.5
SETUP_REPS_AFTER_PASS = 5
PACKAGE = "aproots"
MODULES = ("linalg", "cartan", "roots", "coxeter", "almost_positive",
           "compatibility", "expansion", "clusters", "mutation",
           "oracle_bridge", "verification")


def import_package():
    """Import the package afresh, dropping any earlier import."""
    for name in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    api = importlib.import_module(PACKAGE)
    for mod in MODULES:
        importlib.import_module(f"{PACKAGE}.{mod}")
    return api


def timed_setup(workloads, name, seed, speed, times):
    """One set-up on a fresh import, its time scaled to reference speed
    and appended to `times` as (scaled, raw); returns (api, workload)."""
    gc.collect()
    t0 = time.perf_counter()
    api = import_package()
    wl = workloads.WORKLOADS[name](api, seed, workloads.FULL[name])
    raw = time.perf_counter() - t0
    times.append((raw * speed.factor(), raw))
    return api, wl


def setup_again(workloads, name, seed, speed, times):
    """Repeat the set-up SETUP_REPS_AFTER_PASS times into `times`, then put
    back the modules of the running workload: the package imports some
    names lazily, and those must keep resolving to its own modules."""
    running = {k: m for k, m in sys.modules.items()
               if k == PACKAGE or k.startswith(PACKAGE + ".")}
    for _ in range(SETUP_REPS_AFTER_PASS):
        timed_setup(workloads, name, seed, speed, times)
    sys.modules.update(running)


def run_pass(wl, failed_cls, tracer=None, speed=None):
    """One pass over the batch; returns (results, latencies, wall, raw_wall).

    With `speed`, the reference loop is timed after every
    speed.SAMPLE_EVERY_S of work, and the latencies and wall time of the
    operations since the previous sample are scaled to reference speed;
    `raw_wall` is the unscaled wall time, reference samples left out.  A
    tracer records the timed loop only."""
    wl.before_pass()
    clock = time.perf_counter
    results, latencies = [], array("d")
    wall = raw_wall = 0.0
    first = 0   # first operation of the current chunk
    if tracer is not None:
        tracer.on = True
    begin = clock()
    try:
        for i in range(wl.count):
            with tracer.op_span(i) if tracer is not None else nullcontext():
                t0 = clock()
                try:
                    result = wl.call(i)
                except Exception as exc:  # counted as one failed operation
                    result = failed_cls(exc)
                t1 = clock()
            results.append(result)
            latencies.append(t1 - t0)
            chunk = clock() - begin
            if i + 1 == wl.count or (speed is not None
                                     and chunk >= SAMPLE_EVERY_S):
                factor = 1.0 if speed is None else speed.factor()
                for j in range(first, i + 1):
                    latencies[j] *= factor
                wall += chunk * factor
                raw_wall += chunk
                first = i + 1
                begin = clock()
    finally:
        if tracer is not None:
            tracer.on = False
    return results, latencies, wall, raw_wall


class Checker:
    """Judges the reference results once by the workload's rules, then each
    pass against them.  Only failures are kept, so memory stays flat however
    many passes run."""

    def __init__(self, wl, workloads, reference):
        self.wl = wl
        self.workloads = workloads
        self.ref_canon = [workloads.canonical(wl.api, r) for r in reference]
        self.verdict = []
        for i, result in enumerate(reference):
            if isinstance(result, workloads.Failed):
                self.verdict.append(result.text)
                continue
            try:
                self.verdict.append(wl.check(i, result))
            except Exception as exc:  # a check that raises fails its operation
                self.verdict.append(f"check raised {type(exc).__name__}: {exc}")
        self.attempted = 0
        self.passes = 0
        self.failures = []

    def add(self, results):
        """Count one pass; a failure records the operation's inputs."""
        for i, result in enumerate(results):
            reason = self.verdict[i]
            if reason is None and (self.workloads.canonical(self.wl.api, result)
                                   != self.ref_canon[i]):
                reason = f"output differs from the reference pass: {result!r}"
            if reason is not None:
                self.failures.append({"pass": self.passes, "op": i,
                                      "input": self.wl.describe(i), "error": reason})
        self.attempted += len(results)
        self.passes += 1

    def digest(self):
        return hashlib.sha256(repr(self.ref_canon).encode()).hexdigest()[:16]


def checked_pass(wl, workloads, checker=None, tracer=None, speed=None):
    """Run and check one pass; returns (checker, latencies, wall, raw_wall)."""
    results, *timing = run_pass(wl, workloads.Failed, tracer, speed)
    if checker is None:
        checker = Checker(wl, workloads, getattr(wl, "warm", results))
    checker.add(results)
    return checker, *timing


def smoke_digest(api, workloads, name):
    """Digest and failures of the smoke-size batch at the default seed."""
    wl = workloads.WORKLOADS[name](api, DEFAULT_SEED, workloads.SMOKE[name])
    checker = checked_pass(wl, workloads)[0]
    return checker.digest(), checker.failures


def latency_percentiles(values, beyond=10):
    """(p50, p99, resolved).  The 99th percentile counts only when at least
    `beyond` samples lie above it; otherwise the median stands in for it."""
    p50 = statistics.median(values)
    if len(values) < 2:
        return p50, p50, False
    p99 = statistics.quantiles(values, n=100, method="inclusive")[98]
    if sum(1 for v in values if v > p99) >= beyond:
        return p50, p99, True
    return p50, p50, False


def environment():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": model,
            "platform": platform.platform()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("oracle", "session", "sweep"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no package at {src / PACKAGE}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    name = args.workload
    speed = Speed()
    setup_times = []   # (scaled, raw) per repetition
    wl = None
    while len(setup_times) < SETUP_MIN_REPS or (
            sum(raw for _, raw in setup_times) < SETUP_MIN_TOTAL_S
            and len(setup_times) < SETUP_MAX_REPS):
        wl = None
        api, wl = timed_setup(workloads, name, args.seed, speed, setup_times)
    cheap_setup = statistics.median(raw for _, raw in setup_times) < SETUP_CHEAP_S

    tracer = None
    if args.trace:
        # The traced pass runs on a second, identical set-up, so that both
        # passes start from the same cache state.
        first, *untraced = checked_pass(wl, workloads, speed=speed)
        wl = workloads.WORKLOADS[name](api, args.seed, workloads.FULL[name])
        tracer = tracing.Tracer()
        rebound = tracer.install(api)
        second, *traced = checked_pass(wl, workloads, tracer=tracer, speed=speed)
        checkers = [first, second]
        passes = [untraced, traced]
    else:
        checker, passes = None, []
        begin = time.perf_counter()
        while True:
            checker, *timing = checked_pass(wl, workloads, checker, speed=speed)
            passes.append(timing)
            if cheap_setup:
                setup_again(workloads, name, args.seed, speed, setup_times)
            if time.perf_counter() - begin + timing[2] > args.seconds:
                break
        checkers = [checker]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(c.attempted for c in checkers)
    failures = [f for c in checkers for f in c.failures]
    smoke, smoke_failures = smoke_digest(api, workloads, name)
    stored = json.loads((HERE / "digests.json").read_text()).get(name)

    walls = [p[1] for p in passes]
    raw_walls = [p[2] for p in passes]
    samples = [x for p in passes for x in p[0]] if wl.query == "op" else walls
    p50, p99, p99_resolved = latency_percentiles(samples)
    metrics = {}
    if args.trace:
        untraced, traced = walls
        # shares are of the traced pass's own, unscaled time
        for key, (value, unit) in tracer.metrics(raw_walls[1]).items():
            metrics[key] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": traced / untraced - 1.0,
                                          "unit": "fraction"}
        metrics["trace.spans"] = {"value": len(tracer.name), "unit": "count"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(t for t, _ in setup_times),
                        "unit": "s"},
            "wall_s": {"value": sum(walls) / len(walls), "unit": "s"},
            "queries_per_s": {"value": len(samples) / sum(walls), "unit": "1/s"},
            "query_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
            "query_p99_ms": {"value": p99 * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    failed = len(failures)
    correct = failed == 0 and not smoke_failures and smoke == stored
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(), "sizes": wl.sizes(),
        "setup_s_reps": [t for t, _ in setup_times],
        "setup_s_reps_raw": [raw for _, raw in setup_times],
        "pass_wall_s": walls, "pass_wall_raw_s": raw_walls,
        "reference_s": {"nominal": REF_NOMINAL_S, "samples": len(speed.samples),
                        "median": statistics.median(speed.samples),
                        "min": min(speed.samples), "max": max(speed.samples)},
        "passes": len(passes), "ops_per_pass": wl.count,
        "query_unit": wl.query, "latency_samples": len(samples),
        "query_p99_resolved": p99_resolved,
        "failed_frac": failed / attempted, "attempted": attempted, "failed": failed,
        "digest": checkers[0].digest(), "smoke_digest": smoke, "smoke_digest_stored": stored,
        "smoke_failures": smoke_failures[:5],
        "metrics": {k: v["value"] for k, v in metrics.items()},
    }
    if args.trace:
        record["trace_rebound_names"] = rebound
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**record, "failures": failures, "latencies_s": [list(p[0]) for p in passes]}))
    if tracer is not None:
        tracer.dump(OUT / f"{stem}.spans.gz")

    for failure in failures[:20]:
        print("failed " + json.dumps(failure, default=repr))
    print("record " + json.dumps(record, default=repr))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
