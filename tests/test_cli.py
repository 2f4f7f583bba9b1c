"""Command-line surface: outputs, determinism, exit codes.

The commands run in this process through `cli.main`, where an uncaught
exception fails the test as a traceback would.  Two tests start `python -m
aproots.cli`: one for the module entry point, and one for output that must
not change from one process to the next.
"""

import importlib
import json
import time

import pytest

from aproots import cli, compatibility

from strategies import run_python


@pytest.fixture
def aproots(capsys):
    """`aproots ARGS` run in this process: (exit code, stdout, stderr)."""
    def run(*args):
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        return code, out, err
    return run


def run_cli(*args, **env):
    return run_python("-m", "aproots.cli", *args, **env)


def test_compat_worked_example(aproots):
    code, out, _ = aproots("compat", "--type", "D3(2)", "--c", "1,2,3",
                           "--alpha", "2,1,0", "--beta", "0,1,0")
    assert code == 0
    assert "degree: 1" in out
    assert "(-1, 1)" in out


def test_expand_command(aproots):
    code, out, _ = aproots("expand", "--type", "A1(1)", "--c", "1,2", "--vector", "1,-1")
    assert code == 0
    assert "1·(1,0)" in out and "1·(0,-1)" in out


def test_classify_json_and_fractional_vectors(aproots):
    code, out, _ = aproots("classify", "--type", "A2(2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "affine"
    assert payload["delta"] == [1, 2]
    code, out, _ = aproots("expand", "--type", "D3(2)", "--vector", "1/2,1,1/2", "--json")
    assert code == 0
    terms = json.loads(out)
    assert {"root": [1, 1, 1], "coefficient": "1/2"} in terms


def test_phic_lists_roots_with_their_classes(aproots):
    code, out, _ = aproots("phic", "--type", "A1(1)", "--m-bound", "0")
    assert code == 0
    assert out.splitlines() == [
        "-1,0  [negative-simple]", "0,-1  [negative-simple]", "0,1  [transient]",
        "1,0  [transient]", "1,1  [delta]", "1,2  [transient]", "2,1  [transient]"]


def test_clusters_command(aproots):
    code, out, _ = aproots("clusters", "--type", "A1(1)", "--depth", "1")
    assert code == 0
    assert out.splitlines() == ["real clusters: 3", "  -1,0; 0,-1", "  -1,0; 0,1",
                                "  0,-1; 1,0", "imaginary clusters: 1", "  1,1"]
    code, out, _ = aproots("clusters", "--type", "A1(1)", "--depth", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"real": [[[-1, 0], [0, -1]], [[-1, 0], [0, 1]],
                                        [[0, -1], [1, 0]]],
                               "imaginary": [[[1, 1]]]}


def test_exchange_json_keys(aproots):
    code, out, _ = aproots("exchange", "--type", "A1(1)", "--cluster=-1,0;0,-1",
                           "--remove=-1,0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"partner", "cluster"}
    assert payload["partner"] == [1, 0]


# (Euler matrix E_c, Coxeter matrix) of the catalog word
CONTEXT_MATRICES = {
    "A1(1)": (((1, 0), (-2, 1)), ((3, -2), (2, -1))),
    "D3(2)": (((1, 0, 0), (-1, 1, 0), (0, -2, 1)), ((1, 2, -2), (1, 1, -1), (0, 2, -1))),
}


@pytest.mark.parametrize("label", sorted(CONTEXT_MATRICES))
def test_context_prints_the_euler_and_coxeter_matrices(label, aproots):
    euler, coxeter = ([[str(x) for x in row] for row in m] for m in CONTEXT_MATRICES[label])
    code, out, _ = aproots("context", "--type", label)
    assert code == 0
    assert f"coxeter matrix: {coxeter}\n" in out
    code, out, _ = aproots("context", "--type", label, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["euler_matrix"] == euler
    assert payload["coxeter_matrix"] == coxeter


# (arguments, message, the costly step that must not start)
REJECTED_BEFORE_WORK = [
    (("fan-svg", "--type", "A1(1)", "--depth", "2000"), "error: fan pictures need rank 3, got 2\n",
     ("aproots.clusters", "enumerate_clusters")),
    (("fan-svg", "--type", "B3(1)", "--depth", "2000"), "error: fan pictures need rank 3, got 4\n",
     ("aproots.clusters", "enumerate_clusters")),
    (("oracle", "--type", "D3(2)", "--depth", "14", "--check", "thm12,conj14,thm99"),
     "error: unknown check 'thm99'\n", ("aproots.oracle_bridge", "verify_bijection")),
]


@pytest.mark.parametrize("args, message, costly", REJECTED_BEFORE_WORK,
                         ids=["fan-svg-rank-2", "fan-svg-rank-4", "oracle-unknown-check"])
def test_rejects_before_working(args, message, costly, tmp_path, aproots, monkeypatch):
    def refuse(*_):
        raise AssertionError(f"{costly[1]} ran before the input was checked")

    monkeypatch.setattr(importlib.import_module(costly[0]), costly[1], refuse)
    svg = tmp_path / "fan.svg"
    argv = [*args, "--out", str(svg)] if args[0] == "fan-svg" else args
    t0 = time.perf_counter()
    code, _, err = aproots(*argv)
    assert code == 1
    assert time.perf_counter() - t0 < 1.0
    assert err == message
    assert not svg.exists()


def test_verify_returns_two_on_a_planted_wrong_arrow(aproots, monkeypatch):
    arrows = compatibility.compat_arrows

    def wrong_arrow_to(cc, alpha, beta):
        to, frm = arrows(cc, alpha, beta)
        return to + 1, frm

    monkeypatch.setattr(compatibility, "compat_arrows", wrong_arrow_to)
    code, out, _ = aproots("verify", "--criteria", "worked-example")
    assert code == 2
    assert "[FAIL] worked example arrows " in out and "arrows=(0, 1) degree=1\n" in out


def test_domain_error_exit_code():
    proc = run_cli("classify", "--type", "Q9(9)")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_malformed_input_exits_with_one_line(tmp_path, aproots):
    cycle, finite = tmp_path / "cycle.json", tmp_path / "finite.json"
    cycle.write_text(json.dumps({"cartan": [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]]}))
    finite.write_text(json.dumps({"cartan": [[2, -1], [-1, 2]]}))
    cases = [(args, "") for args in (
        ("expand", "--type", "D3(2)", "--vector", "1,2"),
        ("expand", "--type", "D3(2)", "--vector", "1/0,1,1"),
        ("expand", "--type", "D3(2)", "--c", "1,x", "--vector", "1,1,1"),
        ("phic", "--type", "D3(2)", "--m-bound", "-1"),
        ("classify", "--type", "A3(1):k=x"),
        ("verify", "--type", "A3(1):k=x"),
        ("classify", "--type", "(1)"),
        ("verify", "--type", "(1)"),
        ("classify", "--type", "A3(1):k="),
        ("classify", "--type", "A\u00b2(1)"),
        ("roots", "--type", "D3(2)", "--level", "-1"),
        ("clusters", "--type", "D3(2)", "--depth", "-1"),
        ("oracle", "--type", "A2(2)", "--depth", "-1"),
        ("fan-svg", "--type", "D3(2)", "--depth", "-1", "--out", str(tmp_path / "fan.svg")),
        ("fan-svg", "--type", "D3(2)", "--depth", "1",
         "--out", str(tmp_path / "missing" / "fan.svg")),
        ("fan-svg", "--type", "D3(2)", "--pole", "0,0,0", "--out", str(tmp_path / "fan.svg")),
    )]
    # the message says what is wrong, not only which value
    cases += [
        (("compat", "--type", "D3(2)", "--alpha", "5,0,0", "--beta", "0,1,0"),
         "(5, 0, 0) is not in the almost-positive set"),
        (("compat", "--type", "D3(2)", "--alpha", "1/2,0,0", "--beta", "0,1,0"),
         "error: (1/2, 0, 0) is not in the almost-positive set\n"),
        (("classify", "--type", "Q3(1)"), "Q3(1): not a catalog type label"),
        (("classify", "--type", "B2(1)"), "B2(1): rank out of the catalog's range"),
        (("exchange", "--type", "A1(1)", "--cluster=-1,0;0,-1", "--remove=1,0"),
         "(1, 0) is not in the cluster"),
        (("exchange", "--type", "D3(2)", "--cluster=1/2,0,0;0,-1,0;0,0,-1",
          "--remove=0,-1,0"),
         "error: (1/2, 0, 0) is not in the almost-positive set\n"),
        # a blank name is quoted, so the message does not end in nothing
        (("oracle", "--type", "A1(1)", "--depth", "1", "--check", "thm12,"),
         "error: unknown check ''\n"),
        (("verify", "--criteria", "axioms,"), "error: unknown criteria: ''\n"),
        # an empty value is given, not left out: it neither falls back to
        # the default nor ends the message in nothing
        (("oracle", "--type", "A1(1)", "--depth", "1", "--check", ""),
         "error: unknown check ''\n"),
        (("verify", "--criteria", ""), "error: unknown criteria: ''\n"),
        (("classify", "--type", ""), "error: --type is blank\n"),
        (("verify", "--type", ""), "error: --type is blank\n"),
        (("context", "--type", "D3(2)", "--c", ""), "error: --c must list node numbers: ''\n"),
        (("fan-svg", "--type", "D3(2)", "--pole", "", "--out", str(tmp_path / "fan.svg")),
         "error: not a vector of rationals: ''\n"),
        (("roots", "--cartan-json", ""), "error: cannot read --cartan-json"),
        # neither a type nor a matrix
        (("classify",), "error: pass --type LABEL or --cartan-json FILE\n"),
        (("roots",), "error: pass --type LABEL or --cartan-json FILE\n"),
        # a matrix that validation or the context rejects
        (("classify", "--cartan-json", str(cycle)),
         "error: inconsistent symmetrizer at a[3][2]\n"),
        (("roots", "--cartan-json", str(finite)), "error: matrix is of finite type\n"),
        # usage errors are malformed input too, not a failed verification
        ((), "error: the following arguments are required: command\n"),
        (("expand", "--type", "A1(1)"),
         "error: the following arguments are required: --vector\n"),
        (("classify", "--type", "A1(1)", "--frob"), "error: unrecognized arguments: --frob\n"),
        (("roots", "--type", "A1(1)", "--level", "x"),
         "error: argument --level: invalid int value: 'x'\n"),
        # a negative vector after a space reads as an option
        (("expand", "--type", "A1(1)", "--vector", "-1,0"),
         "error: argument --vector: expected one argument\n"),
    ]
    for args, reason in cases:
        code, _, err = aproots(*args)
        assert code == 1, args
        assert err.startswith("error: ") and err.count("\n") == 1, args
        assert reason in err, (args, err)
    with pytest.raises(SystemExit) as help_exit:
        aproots("--help")
    assert help_exit.value.code == 0


def test_verification_failure_exit_code_is_distinct(aproots):
    code, _, _ = aproots("verify", "--criteria", "nonsense")
    assert code == 1


def test_deterministic_output():
    # two processes, two string-hash orders
    args = ("clusters", "--type", "D3(2)", "--depth", "2", "--json")
    first = run_cli(*args, PYTHONHASHSEED="1")
    second = run_cli(*args, PYTHONHASHSEED="2")
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_fan_svg_writes_file(tmp_path, aproots):
    svg = tmp_path / "fan.svg"
    code, _, _ = aproots("fan-svg", "--type", "D3(2)", "--depth", "3", "--out", str(svg))
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "cone-neg-simples" in text


def test_oracle_command(aproots):
    code, out, _ = aproots("oracle", "--type", "A1(1)", "--depth", "4",
                           "--check", "thm12,thm13,conj14", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["thm12"]["ok"] and payload["thm13"]["ok"]
    assert payload["conj14"]["mismatches"] == []


def test_cartan_json_input(tmp_path, aproots):
    src = tmp_path / "cartan.json"
    src.write_text(json.dumps({"cartan": [[2, -2], [-2, 2]], "aff": 2}))
    code, out, _ = aproots("roots", "--cartan-json", str(src), "--level", "0")
    assert code == 0
    assert "1,0" in out


def test_malformed_cartan_json_exits_with_one_line(tmp_path, aproots):
    contents = {
        "not_json.json": "cartan: [[2, -2], [-2, 2]]",
        "no_key.json": json.dumps({"matrix": [[2, -2], [-2, 2]]}),
        "entry.json": json.dumps({"cartan": [[2, "-2"], [-2, 2]]}),
        "aff.json": json.dumps({"cartan": [[2, -2], [-2, 2]], "aff": 1.5}),
    }
    # affine node numbers outside 1..n name the range
    for aff in (0, -1, 4):
        contents[f"aff_range_{aff}.json"] = json.dumps(
            {"cartan": [[2, -2, 0], [-1, 2, -1], [0, -2, 2]], "aff": aff})
    for name, text in contents.items():
        (tmp_path / name).write_text(text)
    for name in ["missing.json", *contents]:
        path = str(tmp_path / name)
        for args in (("classify", "--cartan-json", path),
                     ("roots", "--cartan-json", path, "--level", "0")):
            code, _, err = aproots(*args)
            assert code == 1, args
            assert err.startswith("error: ") and err.count("\n") == 1, args
            if name.startswith("aff_range_"):
                assert "out of range 1..3" in err, (args, err)


def test_verify_subset(aproots):
    code, out, _ = aproots("verify", "--criteria", "worked-example")
    assert code == 0
    assert "PASS" in out and "checks passed" in out
