"""CPU time of context construction on the rank-n cycle.

The rank-n cycle is the Cartan matrix of A_{n-1}^(1) with every node on one
cycle; its contexts are the largest the package builds.  For each n the
script builds one `AffineContext` and then one `CoxeterContext` with the
word 1..n, and prints the CPU time (`time.process_time`) of each and their
sum.  It then runs `aproots oracle --cartan-json FILE --depth 1` in this
process, context build included, and prints its wall time and output.  It
uses only the standard library, and pytest does not collect it.

    python tests/construction_times.py [n ...]      (default: 60 120 150)

The same builds run from the command line as
`aproots context --cartan-json FILE` with {"cartan": <the matrix>}.
"""

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aproots import cli  # noqa: E402
from aproots.cartan import AffineContext, validate_cartan  # noqa: E402
from aproots.coxeter import CoxeterContext  # noqa: E402


def cycle_rows(n):
    return [[2 if i == j else -1 if (i - j) % n in (1, n - 1) else 0
             for j in range(n)] for i in range(n)]


def oracle_wall_time(n):
    """(wall seconds, stdout) of `aproots oracle --depth 1` on the rank-n cycle."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cycle.json"
        path.write_text(json.dumps({"cartan": cycle_rows(n)}))
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(["oracle", "--cartan-json", str(path), "--depth", "1"])
        elapsed = time.perf_counter() - t0
    assert code == 0, out.getvalue()
    return elapsed, out.getvalue()


def main(argv):
    ranks = [int(x) for x in argv] or [60, 120, 150]
    print(f"{'n':>5} {'AffineContext':>14} {'CoxeterContext':>15} {'total':>8} "
          f"{'oracle --depth 1':>17}")
    for n in ranks:
        cm = validate_cartan(cycle_rows(n))
        t0 = time.process_time()
        ctx = AffineContext(cm)
        t1 = time.process_time()
        CoxeterContext(ctx, range(n))
        t2 = time.process_time()
        wall, out = oracle_wall_time(n)
        print(f"{n:>5} {t1 - t0:>13.3f}s {t2 - t1:>14.3f}s {t2 - t0:>7.3f}s "
              f"{wall:>16.3f}s  {out.strip()!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
