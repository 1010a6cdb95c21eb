from __future__ import annotations

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from wodkit import (
    VertexSet,
    _table,
    cli,
    kappa,
    kappa_prime,
    parse_graph6,
    random_graph,
    verify_non_wod_certificate,
    verify_wod_certificate,
    write_graph6,
)


def run_cli(*args: str, stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "wodkit", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestCompute:
    def test_star_all_quantities(self):
        proc = run_cli("compute", "--graph", "D?{", "--all", "--no-timing")
        assert proc.returncode == 0
        env = json.loads(proc.stdout)
        assert env["command"] == "compute"
        assert env["graph6"] == "D?{"
        assert env["n"] == 5
        assert "timing" not in env
        res = env["results"]
        assert res["kappa"]["value"] == 4
        assert res["kappa"]["witness"] == [4]
        assert res["kappa"]["wod_set"] == [0, 1, 2, 3]
        assert res["kappa_prime"]["value"] == 2
        assert res["kappa_q"]["value"] == 4
        assert res["bounds"]["kappa"] == [4, 4]
        assert res["bounds"]["kappa_prime"] == [2, 2]

    def test_gpq_source(self):
        proc = run_cli("compute", "--gpq", "2,3", "--all", "--no-timing")
        assert proc.returncode == 0
        res = json.loads(proc.stdout)["results"]
        assert res["kappa"]["value"] == 4
        assert res["kappa_prime"]["value"] == 3

    def test_stdin_source(self):
        proc = run_cli("compute", "--kappa", "--no-timing", stdin="C~\n")
        assert proc.returncode == 0
        env = json.loads(proc.stdout)
        assert env["results"]["kappa"]["value"] == 3
        assert "kappa_prime" not in env["results"]

    def test_file_source(self, tmp_path):
        path = tmp_path / "graph.g6"
        path.write_text("A_")
        proc = run_cli("compute", "--file", str(path), "--kappa-prime",
                       "--no-timing")
        assert proc.returncode == 0
        env = json.loads(proc.stdout)
        assert env["results"]["kappa_prime"]["value"] == 2

    def test_witnesses_verify(self):
        g6 = write_graph6(random_graph(11, 5))
        proc = run_cli("compute", "--graph", g6, "--all", "--no-timing")
        env = json.loads(proc.stdout)
        g = parse_graph6(env["graph6"])
        k = env["results"]["kappa"]
        c = VertexSet.from_indices(g.n, k["witness"])
        b = VertexSet.from_indices(g.n, k["wod_set"])
        assert verify_wod_certificate(g, b, c)
        kp = env["results"]["kappa_prime"]
        d = VertexSet.from_indices(g.n, kp["witness"])
        covered = VertexSet.from_indices(g.n, kp["non_wod_set"])
        assert verify_non_wod_certificate(g, covered, d)
        assert env["results"]["kappa_q"]["value"] == max(
            k["value"], g.n - kp["value"]
        )

    def test_timing_present_by_default(self):
        proc = run_cli("compute", "--graph", "A_", "--kappa")
        env = json.loads(proc.stdout)
        assert env["timing"]["seconds"] >= 0

    def test_malformed_graph6_exits_2(self):
        proc = run_cli("compute", "--graph", "~zz", "--no-timing")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_empty_stdin_exits_2(self):
        proc = run_cli("compute", "--no-timing", stdin="")
        assert proc.returncode == 2

    @pytest.mark.parametrize("source", ["--graph", "--gpq", "--file"])
    def test_empty_source_exits_2(self, source):
        # an empty source is an input error; stdin holds a graph that
        # would be read if the source fell through to it
        proc = run_cli("compute", source, "", "--kappa", "--no-timing",
                       stdin="C~\n")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--kappa-prime", "--bounds"])
    def test_workers_zero_exits_2(self, flag, capsys):
        assert cli.main(["compute", "--graph", "C~", flag, "--workers", "0",
                         "--no-timing"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: workers must be >= 1, got 0\n"

    def test_cap_exceeded_exits_3(self):
        g6 = write_graph6(random_graph(31, 7))
        proc = run_cli("compute", "--graph", g6, "--kappa", "--no-timing")
        assert proc.returncode == 3
        assert "cap" in proc.stderr

    def test_byte_identical_reruns(self):
        args = ("compute", "--graph", "D?{", "--all", "--no-timing")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_both_quantities_take_one_table_pass(self, monkeypatch, capsys):
        g = random_graph(20, 1)
        k = kappa(g, engine="numpy")
        kp = kappa_prime(g, engine="numpy")
        want = {
            "kappa": cli._witness_payload(g, k),
            "kappa_prime": cli._witness_payload(g, kp),
            "kappa_q": {"value": max(k.value, g.n - kp.value)},
        }
        blocks = _table._odd_blocks
        for flag in ("--all", "--kappa-q"):
            seen = []

            def spy(*args):
                for h, s in blocks(*args):
                    seen.append(h)
                    yield h, s

            monkeypatch.setattr(_table, "_odd_blocks", spy)
            assert cli.main(["compute", "--graph", write_graph6(g), flag,
                             "--engine", "numpy", "--no-timing"]) == 0
            assert seen == list(range(1 << (g.n - _table._LO_BITS))), flag
            res = json.loads(capsys.readouterr().out)["results"]
            res.pop("bounds", None)
            assert res == want, flag


class TestVerify:
    def test_valid_wod_certificate(self):
        proc = run_cli(
            "verify", "--graph", "Cl",
            "--certificate",
            json.dumps({"kind": "WOD", "b": [0, 2], "witness": [1]}),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"kind": "WOD", "valid": True}

    def test_invalid_wod_certificate(self):
        proc = run_cli(
            "verify", "--graph", "Cl",
            "--certificate",
            json.dumps({"kind": "WOD", "b": [0, 2], "witness": [0]}),
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout) == {"kind": "WOD", "valid": False}
        assert "invalid" in proc.stderr

    def test_witness_meeting_b_is_invalid(self):
        # in K2 both vertices see C = {0, 1} oddly, so only C's overlap with
        # B rejects it: B = V is never WOD
        proc = run_cli(
            "verify", "--graph", "A_",
            "--certificate",
            json.dumps({"kind": "WOD", "b": [0, 1], "witness": [0, 1]}),
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout) == {"kind": "WOD", "valid": False}

    def test_valid_non_wod_certificate(self):
        proc = run_cli(
            "verify", "--graph", "A_",
            "--certificate",
            json.dumps({"kind": "NON_WOD", "b": [0, 1], "witness": [0]}),
        )
        assert proc.returncode == 0

    def test_certificate_file(self, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"kind": "WOD", "b": [0, 2], "witness": [1]}))
        proc = run_cli("verify", "--graph", "Cl", "--certificate-file", str(path))
        assert proc.returncode == 0

    def test_truncated_json_exits_2(self):
        proc = run_cli("verify", "--graph", "Cl", "--certificate",
                       '{"kind": "WOD", "b": [0')
        assert proc.returncode == 2

    def test_missing_key_exits_2(self):
        proc = run_cli("verify", "--graph", "Cl", "--certificate",
                       json.dumps({"kind": "WOD", "b": [0]}))
        assert proc.returncode == 2

    def test_bad_kind_exits_2(self):
        proc = run_cli("verify", "--graph", "Cl", "--certificate",
                       json.dumps({"kind": "MAYBE", "b": [], "witness": []}))
        assert proc.returncode == 2

    def test_empty_graph_source_exits_2(self):
        cert = json.dumps({"kind": "WOD", "b": [0], "witness": [1]})
        proc = run_cli("verify", "--graph", "", "--certificate", cert,
                       stdin="C~\n")
        assert proc.returncode == 2

    def test_vertex_out_of_range_exits_2(self):
        proc = run_cli("verify", "--graph", "A_", "--certificate",
                       json.dumps({"kind": "WOD", "b": [5], "witness": []}))
        assert proc.returncode == 2

    def test_deeply_nested_json_exits_2(self, capsys):
        # json.loads raises RecursionError here, not JSONDecodeError
        deep = "[" * 5000 + "]" * 5000
        assert cli.main(["verify", "--graph", "Cl", "--certificate", deep]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestGenerate:
    def test_gpq_k4(self):
        proc = run_cli("generate", "gpq", "1", "4")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "C~"

    def test_random_deterministic(self):
        a = run_cli("generate", "random", "12", "42")
        b = run_cli("generate", "random", "12", "42")
        assert a.stdout == b.stdout
        assert parse_graph6(a.stdout.strip()).n == 12

    def test_power_of_k2(self):
        proc = run_cli("generate", "power", "A_", "3")
        g = parse_graph6(proc.stdout.strip())
        assert g.n == 6
        assert g.edge_count() == 3

    def test_complement(self):
        proc = run_cli("generate", "complement", "C~")
        g = parse_graph6(proc.stdout.strip())
        assert g.n == 4 and g.edge_count() == 0

    def test_fixture_single_and_pool(self):
        proc = run_cli("generate", "fixture", "petersen")
        assert parse_graph6(proc.stdout.strip()).degree_sequence() == [3] * 10
        pool = run_cli("generate", "fixture", "cubic-8")
        assert len(pool.stdout.strip().splitlines()) == 6

    def test_unknown_family_exits_2(self):
        proc = run_cli("generate", "mystery", "1")
        assert proc.returncode == 2

    def test_unknown_fixture_exits_2(self):
        proc = run_cli("generate", "fixture", "nonsense")
        assert proc.returncode == 2


class TestSearch:
    def test_line_structure(self):
        proc = run_cli("search", "--n", "14", "--trials", "20", "--seed", "1",
                       "--threshold", "0.85", "--no-timing")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 21
        reports = [json.loads(s) for s in lines[:-1]]
        for i, rep in enumerate(reports):
            assert rep["trial"] == i
            assert rep["n"] == 14
            assert rep["kappa_q"] == max(rep["kappa"], 14 - rep["kappa_prime"])
            assert "elapsed" not in rep
        summary = json.loads(lines[-1])["summary"]
        assert summary["trials"] == 20
        assert summary["threshold_ratio"] == 0.85
        below = sum(1 for r in reports if r["kappa_q"] < 0.85 * 14)
        assert summary["below_threshold"] == below
        assert summary["fraction"] == pytest.approx(below / 20)
        ratios = [r["ratio"] for r in reports]
        assert summary["min_ratio"] == min(ratios)
        assert summary["max_ratio"] == max(ratios)

    def test_zero_trials(self):
        proc = run_cli("search", "--n", "10", "--trials", "0", "--seed", "3",
                       "--no-timing")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 1
        summary = json.loads(lines[0])["summary"]
        assert summary["trials"] == 0
        assert summary["fraction"] is None

    def test_byte_identical_reruns(self):
        args = ("search", "--n", "12", "--trials", "5", "--seed", "9",
                "--no-timing")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_elapsed_present_by_default(self):
        proc = run_cli("search", "--n", "6", "--trials", "1", "--seed", "0")
        rep = json.loads(proc.stdout.strip().splitlines()[0])
        assert rep["elapsed"] >= 0

    def test_cap_exits_3(self):
        proc = run_cli("search", "--n", "31", "--trials", "1", "--seed", "0")
        assert proc.returncode == 3

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-1", "2", "1.0001"])
    def test_threshold_outside_unit_interval_exits_2(self, threshold):
        # NaN and inf would print as bare NaN or Infinity, which is not JSON
        proc = run_cli("search", "--n", "6", "--trials", "1", "--seed", "0",
                       f"--threshold={threshold}", "--no-timing")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: threshold must be a ratio in [0, 1]")

    @pytest.mark.parametrize("threshold", ["0", "1"])
    def test_threshold_endpoints_accepted(self, threshold):
        proc = run_cli("search", "--n", "6", "--trials", "2", "--seed", "0",
                       f"--threshold={threshold}", "--no-timing")
        assert proc.returncode == 0
        summary = json.loads(proc.stdout.strip().splitlines()[-1])["summary"]
        assert summary["threshold_ratio"] == float(threshold)
        # kappa_q < n on every graph, so every trial is below ratio 1
        assert summary["below_threshold"] == (0 if threshold == "0" else 2)


class TestTopLevel:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"

    def test_no_command_exits_2(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_workers_flag_preserves_output(self):
        base = run_cli("compute", "--gpq", "3,3", "--all", "--no-timing")
        par = run_cli("compute", "--gpq", "3,3", "--all", "--no-timing",
                      "--workers", "2")
        assert base.stdout == par.stdout


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(argv, printed text) of every `$ wodkit ...` line in README's sh blocks."""
    examples = []
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            cmd, _, out = chunk.partition("\n")
            argv = shlex.split(cmd, comments=True)
            if argv[0] == "wodkit":
                examples.append((argv[1:], out))
    return examples


@pytest.mark.parametrize("command", [
    "compute", "verify", "generate gpq 2 3", "search",
])
def test_readme_example_output(command, capsys):
    prefix = command.split()
    [(argv, want)] = [(argv, out) for argv, out in readme_examples()
                      if argv[:len(prefix)] == prefix]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want
