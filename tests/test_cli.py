"""End-to-end CLI tests driven through main(argv)."""

import importlib.metadata as md
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schottky_gauge import certify, cli, lattice


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def write_gram(tmp_path, entries, mode="ppav", name="gram.json"):
    entries = np.asarray(entries, dtype=float)
    p = tmp_path / name
    p.write_text(json.dumps({
        "dim": entries.shape[0],
        "entries": entries.reshape(-1).tolist(),
        "mode": mode,
    }))
    return str(p)


class TestMinima:
    def test_identity(self, capsys, tmp_path):
        path = write_gram(tmp_path, np.eye(4))
        code, rows, _ = run_json(capsys, "minima", path)
        assert code == 0
        assert [r["norm_sq"] for r in rows] == [1.0] * 4

    def test_k_limit(self, capsys, tmp_path):
        path = write_gram(tmp_path, np.eye(4))
        code, rows, _ = run_json(capsys, "minima", path, "--k", "2")
        assert code == 0
        assert len(rows) == 2

    def test_tiny_entries_accepted(self, capsys, tmp_path):
        path = write_gram(tmp_path, 1e-300 * np.eye(2), mode="plain")
        code, rows, _ = run_json(capsys, "minima", path)
        assert code == 0
        assert [r["norm_sq"] for r in rows] == [1e-300, 1e-300]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "minima", "/nonexistent/gram.json")
        assert code == 3
        assert "cannot read" in err

    def test_malformed_file(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"dim": 2, "entries": [1.0, 2.0, 2.0, 1.0]}))
        code, _, err = run(capsys, "minima", str(p))
        assert code == 3
        assert "NotPositiveDefinite" in err


class TestExclude:
    def test_identity_inconclusive(self, capsys, tmp_path):
        path = write_gram(tmp_path, np.eye(4), mode="plain")
        # exclude always applies PPAV validation regardless of stored mode
        code, rows, _ = run_json(capsys, "exclude", path)
        assert code == 0
        assert rows[0]["verdict"] == "Inconclusive"
        assert rows[0]["margin_m1_vs_bs"] == pytest.approx(
            0.7110042581561341, rel=1e-12)

    def test_not_unit_determinant(self, capsys, tmp_path):
        path = write_gram(tmp_path, 2.0 * np.eye(4))
        code, _, err = run(capsys, "exclude", path)
        assert code == 3
        assert "DeterminantNotOne" in err

    def test_odd_dimension(self, capsys, tmp_path):
        path = write_gram(tmp_path, np.eye(3), mode="plain")
        code, _, err = run(capsys, "exclude", path)
        assert code == 3
        assert "OddDimension" in err

    @pytest.mark.parametrize("command", ["minima", "exclude"])
    @pytest.mark.parametrize("entries", [
        [1, math.nan, math.nan, 1], [math.nan, 0, 0, 1],
        [math.inf, 0, 0, 1], [1e308, 0, 0, 1e308],
    ], ids=str)
    def test_non_finite_is_invalid_input(self, capsys, tmp_path, command, entries):
        # json writes NaN and Infinity literals, which the loader accepts
        path = write_gram(tmp_path, np.reshape(entries, (2, 2)))
        code, out, err = run(capsys, command, path)
        assert code == 3
        assert err.strip() == "NotPositiveDefinite"
        assert out == ""

    @pytest.mark.parametrize("command", ["minima", "exclude"])
    def test_exactly_indefinite_is_invalid_input(self, capsys, tmp_path, command):
        # float Cholesky accepts this PPAV form and its float det misses 1;
        # its exact leading 2x2 minor is negative
        b, c = 2.2465396758287683, 2.5234702575364136
        form = np.eye(4)
        form[:2, :2] = [[2.0, b], [b, c]]
        code, out, err = run(capsys, command, write_gram(tmp_path, form))
        assert code == 3
        assert err.strip() == "NotPositiveDefinite"
        assert out == ""

    @pytest.mark.parametrize("command", ["minima", "exclude"])
    def test_node_budget_is_invalid_input(self, capsys, tmp_path, command):
        # a det-1 PPAV form whose 1e-200 entry puts so many lattice points
        # below the search radius that enumeration stops at its node budget
        path = write_gram(tmp_path, np.diag([1e200, 1e-200, 1.0, 1.0]))
        code, out, err = run(capsys, command, path)
        assert code == 3
        assert err.strip() == (
            f"enumeration exceeded {lattice.NODE_BUDGET} nodes")
        assert out == ""

    def test_parser_built_once(self, capsys, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        with pytest.raises(SystemExit) as exc:
            cli.main(["exclude"])
        assert exc.value.code == 2
        code, rows, _ = run_json(capsys, "exclude", write_gram(tmp_path, np.eye(4)))
        assert code == 0
        assert rows[0]["verdict"] == "Inconclusive"


class TestCertify:
    def test_single_family(self, capsys):
        code, rows, _ = run_json(capsys, "certify", "--families", "CF-G")
        assert code == 0
        assert rows[0]["family"] == "CF-G"
        assert rows[0]["status"] == "Certified"

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", "--families", "CF-Z"])
        assert exc.value.code == 2

    def test_exempt_family_does_not_fail_exit_code(self, capsys):
        code, rows, _ = run_json(capsys, "certify", "--families", "CF-F'")
        assert code == 0
        assert rows[0]["status"] == "Undecided"

    @pytest.mark.parametrize("budget, other, code", [
        (3, "CF-A", 5), (certify.CELL_BUDGET, "CF-G", 0),
    ], ids=["budget-3", "gmax-1000"])
    def test_exit_code_reads_exempt_of_families_run(
            self, capsys, monkeypatch, budget, other, code):
        # an Undecided exempt family never fails the run; any other does
        monkeypatch.setattr(certify, "CELL_BUDGET", budget)
        got, rows, _ = run_json(capsys, "certify", "--families", "CF-F'", other)
        assert got == code
        assert rows[0]["status"] == "Undecided"

    def test_violated_family_exits_4(self, capsys, monkeypatch):
        neg = certify.CertFamily(
            id="T-NEG",
            tasks=(certify.Task("neg", (certify.Dim("x", 0.0, 1.0),),
                                lambda x: x - 2.0),))
        monkeypatch.setattr(certify, "FAMILIES", (neg,))
        code, rows, _ = run_json(capsys, "certify")
        assert code == 4
        assert [r["status"] for r in rows] == ["Violated"]
        assert rows[0]["min_slack_hi"] < 0.0

    def test_budget_flag(self, capsys, monkeypatch):
        # the cell budget is the constant certify.CELL_BUDGET, read once
        # per family; a run that spends it is Undecided (exit 5)
        assert certify.CELL_BUDGET == 10**7
        monkeypatch.setattr(certify, "CELL_BUDGET", 3)
        code, rows, _ = run_json(capsys, "certify", "--families", "CF-A")
        assert code == 5
        assert rows[0]["status"] == "Undecided"
        assert rows[0]["note"] == "cell budget exhausted in task main"

    @pytest.mark.parametrize("setting", [
        ("--budget", "0"), ("--budget", "-5"), ("--tol", "0"),
        ("--tol", "nan"), ("--gmax", "nan"), ("--gmax", "inf"),
        ("--gmax", "1"),
    ], ids=" ".join)
    def test_bad_setting_is_usage_error(self, capsys, setting):
        # certify takes no tuning flag: each of these is a usage error
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", "--families", "CF-G", *setting])
        assert exc.value.code == 2


class TestYPiece:
    def test_degenerate(self, capsys):
        code, out, _ = run(
            capsys, "ypiece", "--gamma", "0.1", "--w", "0.1", "--config", "2")
        assert code == 0
        assert out == "degenerate\n"

    def test_nonpositive_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ypiece", "--gamma", "-1", "--w", "1", "--config", "1"])
        assert exc.value.code == 2


class TestCorollary:
    @pytest.mark.parametrize("t", ["800", "1500"])
    def test_large_t_saturates(self, capsys, t):
        """M is 1/2 and the denominator 2 pi/3 for every t >= 2, also where
        sinh(t/2)^2 or sinh(t/2) overflows."""
        code, rows, _ = run_json(capsys, "corollary", "--t", t, "--piece", "2,1")
        assert code == 0
        assert rows[0]["M"] == 0.5
        assert rows[0]["denominator"] == pytest.approx(2.0 * math.pi / 3.0,
                                                       rel=1e-15)
        assert rows[0]["bound"] == pytest.approx(3.0 * float(t) / math.pi,
                                                 rel=1e-15)

    def test_nonpositive_t_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["corollary", "--t", "0", "--piece", "2,1"])
        assert exc.value.code == 2

    def test_bad_piece_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["corollary", "--t", "1", "--piece", "2-1"])
        assert exc.value.code == 2


HUGE_GENUS = "1" + "0" * 400

# (argv, text of the file that "{file}" names, expected exit code[, error
# name expected in stderr]); an exit 0 row pins the edge of a range
BAD_INPUTS = [
    (["corollary", "--t", "1", "--piece", "a,b"], None, 2),
    (["corollary"], None, 2),
    (["corollary", "--t", "1"], None, 2),
    (["corollary", "--t", "1", "--piece=-1,5"], None, 2),
    # --file takes neither --t nor --piece
    (["corollary", "--file", "{file}", "--t", "1", "--piece", "2,1"],
     '{"t": 1, "pieces": [[2, 1]]}', 2),
    (["corollary", "--file", "{file}"], '{"t": 1, "pieces": [[-1, 5]]}', 3),
    (["corollary", "--file", "{file}"], '{"t": 1}', 3),
    (["corollary", "--file", "{file}"], "nope", 3),
    (["corollary", "--file", "{file}"], "[1,2]", 3),
    (["corollary", "--file", "{file}"], '{"t": 1, "pieces": [[2]]}', 3),
    (["corollary", "--file", "{file}"], '{"t": 1, "pieces": [[2.5, 1]]}', 3),
    (["corollary", "--file", "{file}"], '{"t": 1, "pieces": [[2, false]]}', 3),
    (["corollary", "--file", "{file}"], '{"t": true, "pieces": [[2, 1]]}', 3),
    (["corollary", "--file", "{file}"], '{"t": "1", "pieces": [[2, 1]]}', 3),
    (["bounds", "--g", HUGE_GENUS], None, 3),
    (["collar", "--gamma", "1", "--g", HUGE_GENUS], None, 3),
    (["ypiece", "--gamma", "1e308", "--w", "1e308", "--config", "1"], None, 3),
    (["corollary", "--t", "1e308", "--piece", "2,1"], None, 3),
    (["ypiece", "--gamma", "nan", "--w", "1", "--config", "1"], None, 2),
    (["ypiece", "--gamma", "inf", "--w", "1", "--config", "1"], None, 2),
    (["collar", "--gamma", "nan"], None, 2),
    (["corollary", "--t", "nan", "--piece", "2,1"], None, 2),
    (["corollary", "--t", "inf", "--piece", "2,1"], None, 2),
    (["minima", "{file}"], b"\xff\xfe", 3, "MalformedGram"),
    (["exclude", "{file}"], b"\xff\xfe", 3, "MalformedGram"),
    (["minima", "{file}"], "nope", 3, "MalformedGram"),
    (["minima", "{file}"], "", 3, "MalformedGram"),
    (["minima", "{file}"], "2 1 0 0", 3, "MalformedGram"),
    (["minima", "{file}"], '{"entries": [1, 0, 0, 1]}', 3, "MalformedGram"),
    (["exclude", "{file}"], '{"dim": null, "entries": []}', 3, "MalformedGram"),
    (["minima", "{file}"], '{"dim": true, "entries": [true]}', 3, "MalformedGram"),
    (["minima", "{file}"], '{"dim": 2.7, "entries": [1, 0, 0, 1]}', 3,
     "MalformedGram"),
    (["minima", "{file}"], '{"dim": "2", "entries": [1, 0, 0, 1]}', 3,
     "MalformedGram"),
    (["minima", "{file}"], '{"dim": 2, "entries": ["1", 0, 0, 1]}', 3,
     "MalformedGram"),
    (["minima", "{file}"], "0", 3, "NotSymmetric"),
    (["minima", "{file}"], "2 1 5 0 1", 3, "NotSymmetric"),
    (["corollary", "--file", "{file}"], b"\xff\xfe", 3),
    (["collar", "--gamma", "1e-320"], None, 3),
    # sinh(800) overflows: no enclosure, which is not a degenerate Y-piece
    (["ypiece", "--gamma", "1", "--w", "800", "--config", "1"], None, 3),
    (["ypiece", "--gamma", "1", "--w", "800", "--config", "2"], None, 3),
    # the separation's sinh(gamma/2) is finite up to gamma ~ 1421
    (["collar", "--gamma", "1420"], None, 0),
    (["collar", "--gamma", "1500"], None, 3),
]


@pytest.mark.parametrize("argv, file_text, code, name", [
    (*case, None)[:4] for case in BAD_INPUTS], ids=[
    " ".join(argv).replace(HUGE_GENUS, "1e400")
    + (f" <{text}>" if text is not None else "")
    for argv, text, *_ in BAD_INPUTS])
def test_bad_input_exit_code(capsys, tmp_path, argv, file_text, code, name):
    # a bad flag exits 2; a bad file value or an out-of-range value exits 3
    if file_text is not None:
        path = tmp_path / "input.json"
        if isinstance(file_text, bytes):
            path.write_bytes(file_text)
        else:
            path.write_text(file_text)
        argv = [str(path) if a == "{file}" else a for a in argv]
    try:
        got = cli.main([*argv, "--format", "json"])
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    assert "Traceback" not in err
    assert "NaN" not in out and "Infinity" not in out
    if name is not None:
        assert err.strip() == name


@pytest.mark.parametrize("argv", [
    ["collar", "--gamma", "2", "--g", "1"],
    ["minima", "{gram}", "--k", "0"],
    ["corollary", "--t", "1", "--piece", "1,0"],
], ids=" ".join)
def test_flag_range_is_usage_error(capsys, tmp_path, argv):
    # a flag outside its range is a usage error even where the library
    # would also reject the value
    gram = write_gram(tmp_path, np.eye(2))
    with pytest.raises(SystemExit) as exc:
        cli.main([gram if a == "{gram}" else a for a in argv])
    assert exc.value.code == 2


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def _declared_scripts():
    """The `[project.scripts]` table of the repository's pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def _installed():
    try:
        md.distribution("schottky-gauge")
    except md.PackageNotFoundError:
        return False
    return True


def test_console_entrypoint_installed(capsys):
    ep = md.EntryPoint(name="schottky-gauge",
                       value=_declared_scripts()["schottky-gauge"],
                       group="console_scripts")
    script = ep.load()
    assert script is cli.main
    assert ep.name == cli.build_parser().prog
    assert script(["bounds", "--g", "2"]) == 0


@pytest.mark.skipif(not _installed(), reason="schottky-gauge is not installed")
def test_installed_console_scripts_match_declaration():
    dist = md.distribution("schottky-gauge")
    installed = {ep.name: ep.value for ep in dist.entry_points
                 if ep.group == "console_scripts"}
    assert installed == _declared_scripts()


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_closed_stdout_is_not_an_input_error(flags):
    """A reader that has gone away before the report is written (a pipe
    whose read end is closed) leaves the command's exit code and stderr as
    they were: not exit 3 with "cannot read input", nor an ignored
    BrokenPipeError at the interpreter's exit flush. The degenerate
    Y-piece's one line goes through the same guarded write as a report."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    for argv in (["certify", "--families", "CF-G", "--format", "json"],
                 ["ypiece", "--gamma", "0.5", "--w", "0.01", "--config", "1"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "schottky_gauge.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=120, env=env)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
