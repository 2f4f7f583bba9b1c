"""Command-line surface: outputs, determinism, exit codes."""

import importlib
import json
import subprocess
import sys
import time

import pytest

from aproots import cli, compatibility


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "aproots.cli", *args],
        capture_output=True, text=True,
    )
    return proc


def test_compat_worked_example():
    proc = run_cli("compat", "--type", "D3(2)", "--c", "1,2,3",
                   "--alpha", "2,1,0", "--beta", "0,1,0")
    assert proc.returncode == 0
    assert "degree: 1" in proc.stdout
    assert "(-1, 1)" in proc.stdout


def test_expand_command():
    proc = run_cli("expand", "--type", "A1(1)", "--c", "1,2", "--vector", "1,-1")
    assert proc.returncode == 0
    assert "1·(1,0)" in proc.stdout and "1·(0,-1)" in proc.stdout


def test_classify_json_and_fractional_vectors():
    proc = run_cli("classify", "--type", "A2(2)", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["kind"] == "affine"
    assert payload["delta"] == [1, 2]
    proc2 = run_cli("expand", "--type", "D3(2)", "--vector", "1/2,1,1/2", "--json")
    assert proc2.returncode == 0
    terms = json.loads(proc2.stdout)
    assert {"root": [1, 1, 1], "coefficient": "1/2"} in terms


def test_exchange_json_keys():
    proc = run_cli("exchange", "--type", "A1(1)", "--cluster=-1,0;0,-1", "--remove=-1,0",
                   "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert set(payload) == {"partner", "cluster"}
    assert payload["partner"] == [1, 0]


# (Euler matrix E_c, Coxeter matrix) of the catalog word
CONTEXT_MATRICES = {
    "A1(1)": (((1, 0), (-2, 1)), ((3, -2), (2, -1))),
    "D3(2)": (((1, 0, 0), (-1, 1, 0), (0, -2, 1)), ((1, 2, -2), (1, 1, -1), (0, 2, -1))),
}


@pytest.mark.parametrize("label", sorted(CONTEXT_MATRICES))
def test_context_prints_the_euler_and_coxeter_matrices(label, capsys):
    euler, coxeter = ([[str(x) for x in row] for row in m] for m in CONTEXT_MATRICES[label])
    assert cli.main(["context", "--type", label]) == 0
    assert f"coxeter matrix: {coxeter}\n" in capsys.readouterr().out
    assert cli.main(["context", "--type", label, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
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
def test_rejects_before_working(args, message, costly, tmp_path, capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError(f"{costly[1]} ran before the input was checked")

    monkeypatch.setattr(importlib.import_module(costly[0]), costly[1], refuse)
    out = tmp_path / "fan.svg"
    argv = [*args, "--out", str(out)] if args[0] == "fan-svg" else list(args)
    t0 = time.perf_counter()
    assert cli.main(argv) == 1
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_verify_returns_two_on_a_planted_wrong_arrow(capsys, monkeypatch):
    arrows = compatibility.compat_arrows

    def wrong_arrow_to(cc, alpha, beta):
        to, frm = arrows(cc, alpha, beta)
        return to + 1, frm

    monkeypatch.setattr(compatibility, "compat_arrows", wrong_arrow_to)
    assert cli.main(["verify", "--criteria", "worked-example"]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] worked example arrows " in out and "arrows=(0, 1) degree=1\n" in out


def test_domain_error_exit_code():
    proc = run_cli("classify", "--type", "Q9(9)")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_malformed_input_exits_with_one_line(tmp_path):
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
    ]
    for args, reason in cases:
        proc = run_cli(*args)
        assert proc.returncode == 1, args
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, args
        assert reason in proc.stderr, (args, proc.stderr)


def test_verification_failure_exit_code_is_distinct():
    proc = run_cli("verify", "--criteria", "nonsense")
    assert proc.returncode == 1


def test_deterministic_output():
    args = ("clusters", "--type", "D3(2)", "--depth", "2", "--json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_fan_svg_writes_file(tmp_path):
    out = tmp_path / "fan.svg"
    proc = run_cli("fan-svg", "--type", "D3(2)", "--depth", "3", "--out", str(out))
    assert proc.returncode == 0
    text = out.read_text()
    assert text.startswith("<svg") and "cone-neg-simples" in text


def test_oracle_command():
    proc = run_cli("oracle", "--type", "A1(1)", "--depth", "4",
                   "--check", "thm12,thm13,conj14", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["thm12"]["ok"] and payload["thm13"]["ok"]
    assert payload["conj14"]["mismatches"] == []


def test_cartan_json_input(tmp_path):
    src = tmp_path / "cartan.json"
    src.write_text(json.dumps({"cartan": [[2, -2], [-2, 2]], "aff": 2}))
    proc = run_cli("roots", "--cartan-json", str(src), "--level", "0")
    assert proc.returncode == 0
    assert "1,0" in proc.stdout


def test_malformed_cartan_json_exits_with_one_line(tmp_path):
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
            proc = run_cli(*args)
            assert proc.returncode == 1, args
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, args
            if name.startswith("aff_range_"):
                assert "out of range 1..3" in proc.stderr, (args, proc.stderr)


def test_verify_subset():
    proc = run_cli("verify", "--criteria", "worked-example")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout and "checks passed" in proc.stdout
