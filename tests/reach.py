"""Statement reach of the Tier-1 suite: the lines of `src/aproots` that no
test runs in-process.

The script runs the Tier-1 suite in this process under `sys.settrace` (and
`threading.settrace`, for threads the tests start), recording the lines run
in frames whose code lies under `src/aproots`.  It then prints each line of
a function body in the package that never ran, as `file:line: text`, their
count, and the count outside `cli.py`.  Module-level and class-body lines
run at import and are not counted.  It uses only the standard library, and
pytest does not collect it.

    python tests/reach.py [extra pytest arguments]

Tracing slows the suite down several times over.
"""

import inspect
import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aproots"

_hits = defaultdict(set)    # code filename -> line numbers run
_inside = {}                # code filename -> whether it lies in the package


def _trace_lines(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    name = frame.f_code.co_filename
    inside = _inside.get(name)
    if inside is None:
        inside = _inside[name] = Path(os.path.realpath(name)).is_relative_to(PACKAGE)
    if not inside:
        return None
    _hits[name].add(frame.f_lineno)
    return _trace_lines


def function_lines(code):
    """Line numbers of the instructions of every function, lambda and
    comprehension nested in a code object."""
    lines = set()
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:   # not a class body
                lines.update(line for _, _, line in const.co_lines() if line is not None)
            lines |= function_lines(const)
    return lines


def main(args):
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors",
                              "-p", "no:cacheprovider", "tests", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    run = defaultdict(set)
    for name, lines in _hits.items():
        run[Path(os.path.realpath(name))] |= lines
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        code = compile("\n".join(text), str(path), "exec")
        for line in sorted(function_lines(code) - run[path]):
            unreached.append(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    outside = [line for line in unreached if not line.startswith("src/aproots/cli.py:")]
    print("\n".join(unreached))
    print(f"{len(unreached)} lines never run in-process, {len(outside)} of them outside cli.py")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
