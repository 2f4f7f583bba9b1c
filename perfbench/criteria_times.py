"""Wall time of each `aproots verify` criterion, called from outside.

    python3 perfbench/criteria_times.py [name ...]

Calls ``verification.CRITERIA[name]()`` once per criterion in a single
process and prints a Markdown table of seconds and pass/fail.  The times
are informational: they are not gated, and each criterion's own budget row
stays the acceptance check.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aproots.verification import CRITERIA  # noqa: E402


def main(names):
    print("| criterion | time (s) | rows ok |")
    print("| --- | --- | --- |")
    all_ok = True
    for name in names or CRITERIA:
        t0 = time.perf_counter()
        rows = CRITERIA[name]()
        elapsed = time.perf_counter() - t0
        ok = sum(row["ok"] for row in rows)
        all_ok = all_ok and ok == len(rows)
        print(f"| `{name}` | {elapsed:.1f} | {ok}/{len(rows)} |", flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
