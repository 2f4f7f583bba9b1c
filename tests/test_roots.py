"""Root enumeration, reflections, coroots, and package-wide source checks."""

import ast
from fractions import Fraction
from pathlib import Path

import aproots
from aproots import roots
from aproots.roots import roots_up_to_level

from strategies import affine_for, finite_positive_roots, run_here, run_python_O


def test_simple_reflection_examples():
    ctx, _ = affine_for("A1(1)")
    assert ctx.cm.reflect(0, (1, 0)) == (-1, 0)
    assert ctx.cm.reflect(1, (1, 0)) == (1, 2)
    assert ctx.cm.reflect(0, ctx.delta) == ctx.delta
    assert ctx.cm.reflect(1, ctx.delta) == ctx.delta


def test_reflection_involution():
    ctx, _ = affine_for("D3(2)")
    v = (Fraction(3, 2), -1, 4)
    for i in range(3):
        assert ctx.cm.reflect(i, ctx.cm.reflect(i, v)) == v


def test_roots_level_zero_rank2():
    ctx, _ = affine_for("A1(1)")
    out = roots_up_to_level(ctx, 0)
    assert set(out) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_roots_level_one_rank2():
    ctx, _ = affine_for("A1(1)")
    out = set(roots_up_to_level(ctx, 1))
    assert ctx.delta in out
    assert (2, 1) in out           # alpha_1 + delta
    assert (1, 2) in set(roots_up_to_level(ctx, 2))   # alpha_2 + delta: level 2


def test_closure_invariant():
    # reflections of enumerated real roots are again real roots; the level
    # of the image is whatever |K(α_aff^vee, ·)| dictates, so the image is
    # located by its own level rather than a uniform margin
    for label in ("A1(1)", "D3(2)", "A4(2)", "A2(1):k=1"):
        ctx, _ = affine_for(label)
        for root in roots_up_to_level(ctx, 2):
            if not ctx.is_real_root(root):
                continue
            for i in range(ctx.n):
                img = ctx.cm.reflect(i, root)
                assert ctx.is_real_root(img)
                lvl = -(-abs(img[ctx.aff]) // ctx.delta[ctx.aff])
                assert img in set(roots_up_to_level(ctx, lvl))


def test_sign_dichotomy_and_coroot_duality():
    for label in ("D3(2)", "C2(1)", "A2(2)"):
        ctx, _ = affine_for(label)
        for root in roots_up_to_level(ctx, 2):
            assert all(x >= 0 for x in root) or all(x <= 0 for x in root)
            if not ctx.is_real_root(root):
                continue
            # double dual: the coroot of the coroot, in the dual system,
            # recovers the original coordinates
            norm = ctx.k(root, root)
            vee_root_coords = tuple(Fraction(2) * x / norm for x in root)
            norm_vee = ctx.k(vee_root_coords, vee_root_coords)
            back = tuple(Fraction(2) * x / norm_vee for x in vee_root_coords)
            assert tuple(back) == tuple(root)


# each call stops at an explicit guard, which `python -O` keeps
ROOT_GUARDS = """
    from aproots.almost_positive import enumerate_phi_c
    from aproots.cartan import context_from_label
    from aproots.coxeter import CoxeterContext
    from aproots.errors import NegativeBound, NotAffine, NotARoot, NotInImaginaryCone
    from aproots.expansion import imaginary_expansion
    from aproots.linalg import primitive_integer_vector
    from aproots.roots import roots_up_to_level

    print(__debug__)
    ctx, word = context_from_label("D3(2)")
    cc = CoxeterContext(ctx, word)
    for call in (lambda: ctx.coroot_coords(ctx.delta),
                 lambda: enumerate_phi_c(cc, -1),
                 lambda: imaginary_expansion(cc, (1, -1, 1)),
                 lambda: imaginary_expansion(cc, (1, 0, 0)),
                 lambda: roots_up_to_level("D3(2)", 2),
                 lambda: primitive_integer_vector((0, 0, 0))):
        try:
            call()
        except (NotARoot, NegativeBound, NotInImaginaryCone, NotAffine,
                ValueError) as exc:
            print(type(exc).__name__)
"""
ROOT_GUARD_ERRORS = ["NotARoot", "NegativeBound", "NotInImaginaryCone", "NotInImaginaryCone",
                     "NotAffine", "ValueError"]


def test_root_guards_raise_in_process():
    assert run_here(ROOT_GUARDS).split() == ["True", *ROOT_GUARD_ERRORS]


def test_root_guards_hold_under_python_O():
    assert run_python_O(ROOT_GUARDS).split() == ["False", *ROOT_GUARD_ERRORS]


def test_package_has_no_assert_statements():
    # invariants live in tests; an assert in the package vanishes under -O
    package = Path(roots.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_not_in_phi_c_is_raised_only_by_member():
    # CoxeterContext.member is the one boundary of the almost-positive set
    package = Path(roots.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and any(
                    getattr(sub, "id", getattr(sub, "attr", None)) == "NotInPhiC"
                    for sub in ast.walk(node)):
                owner = max((f for f in funcs if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                found.append(f"{path.name}:{owner.name if owner else '<module>'}")
    assert found == ["coxeter.py:member"]


def _reads(tree):
    """(name, line) of every name or attribute that the tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_public_definition_has_a_caller():
    # each public function, class, method and module constant is read by
    # package code outside its own definition, exported in __all__, or read
    # by the benchmark; what only tests read belongs in the tests
    package = Path(roots.__file__).resolve().parent
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    assert bench.is_dir()
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    defs = []
    for fname, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((fname, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(fname, f"{node.name}.{sub.name}", sub) for sub in node.body
                         if isinstance(sub, ast.FunctionDef)]
            if isinstance(node, ast.Assign):
                defs += [(fname, t.id, node) for t in node.targets if isinstance(t, ast.Name)]
    reads = [(fname, *read) for fname, tree in trees.items() for read in _reads(tree)]
    outside = set(aproots.__all__) | {
        name for path in bench.glob("*.py") for name, _ in _reads(ast.parse(path.read_text()))}
    uncalled = [
        f"{fname}:{node.lineno} {qual}" for fname, qual, node in defs
        if not any(part.startswith("_") for part in qual.split("."))
        and qual.split(".")[-1] not in outside
        and not any(name == qual.split(".")[-1]
                    and (f != fname or not node.lineno <= line <= node.end_lineno)
                    for f, name, line in reads)
    ]
    assert uncalled == []


def test_every_stored_attribute_has_a_reader():
    # each `self.<attr>` the package assigns and each dataclass field is
    # read as an attribute by package code (the CLI included) or by the
    # benchmark; state that nothing reads is not stored
    package = Path(roots.__file__).resolve().parent
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    assert bench.is_dir()
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    stored = []
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) == "self"):
                stored.append((fname, node.lineno, node.attr))
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
                stored += [(fname, sub.lineno, sub.target.id) for sub in node.body
                           if isinstance(sub, ast.AnnAssign)]
    read = {node.attr
            for tree in [*trees.values(),
                         *(ast.parse(path.read_text()) for path in bench.glob("*.py"))]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert len(stored) > 50
    assert [f"{fname}:{line} {attr}" for fname, line, attr in stored if attr not in read] == []


def test_standard_types_are_delta_translates():
    for label in ("A2(1):k=1", "C2(1)", "G2(1)"):
        ctx, _ = affine_for(label)
        fin = finite_positive_roots(ctx.cm, [j for j in range(ctx.n) if j != ctx.aff])
        fin_all = fin | {tuple(-x for x in r) for r in fin}
        for root in roots_up_to_level(ctx, 3):
            if not ctx.is_real_root(root):
                continue
            shifted = [tuple(a - k * b for a, b in zip(root, ctx.delta))
                       for k in range(-4, 5)]
            assert any(s in fin_all for s in shifted), (label, root)
