import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import c1rect
from c1rect import study
from c1rect.cli import main
from c1rect.study import CSV_COLUMNS, parse_csv


def test_study_table_output(capsys):
    code = main(["study", "--family", "p-enriched", "--k", "4", "--levels", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dim V_h" in out
    assert out.strip().splitlines()[-1].split()[-1] == "48"


def test_study_csv_output(capsys):
    code = main(["study", "--family", "q-bfs", "--k", "4", "--levels", "3",
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = parse_csv(out)
    assert [r.dim for r in rows] == [25, 64, 196]


def test_study_json_to_file(tmp_path):
    target = tmp_path / "report.json"
    code = main(["study", "--family", "p-enriched", "--k", "5", "--levels", "2",
                 "--format", "json", "--out", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["config"]["k"] == 5
    assert [r["dim"] for r in payload["rows"]] == [28, 72]


def test_study_solver_flag(capsys):
    code = main(["study", "--family", "p-enriched", "--k", "4", "--levels", "2",
                 "--solver", "cg", "--tol", "1e-12", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["meta"]["levels"][1]["method"] == "cg"
    assert payload["meta"]["levels"][1]["fill"] == 0


def test_study_imports_no_scipy_linear_algebra():
    # a fresh interpreter per command: importing scipy.sparse cost 0.2-0.3 s
    # and 22 MB of a study or a verify, which use no assembled matrix
    src = str(Path(c1rect.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for args in (["study", "--family", "p-enriched", "--k", "4", "--levels", "3"],
                 ["study", "--family", "p-enriched", "--k", "4", "--levels", "3",
                  "--solver", "cg"],
                 ["verify", "--family", "q-bfs", "--k", "4", "--level", "2"]):
        script = ("import io, contextlib, sys\n"
                  "from c1rect.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    code = main({args!r})\n"
                  "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "[]"], args


def test_verify_text(capsys):
    code = main(["verify", "--family", "p-enriched", "--k", "4", "--level", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS duality_residual" in out
    assert "FAIL" not in out


def test_verify_json(capsys):
    code = main(["verify", "--family", "q-bfs", "--k", "5", "--level", "1",
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    names = {c["name"] for c in payload}
    assert {"duality_residual", "unisolvency_rcond", "dimension_count",
            "space_reproduction", "quadrature_exactness", "c1_jump_relative"} <= names


def test_csv_columns_constant():
    assert CSV_COLUMNS == ("level", "n", "dim", "l2_err", "l2_order",
                           "h2_err", "h2_order")


def test_study_solver_failure_exit_code(capsys):
    # no iterate reaches a relative residual of 1e-300 on the level-2 system
    code = main(["study", "--family", "p-enriched", "--k", "4", "--levels", "2",
                 "--solver", "cg", "--tol", "1e-300"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("solver failure: level 2: no convergence after")


def _parse_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    return capsys.readouterr().err


def test_study_rejects_levels_below_one(capsys):
    err = _parse_error(["study", "--family", "p-enriched", "--k", "4",
                        "--levels", "0"], capsys)
    assert "--levels: must be positive, got 0" in err


def test_verify_rejects_level_below_one(capsys):
    err = _parse_error(["verify", "--family", "p-enriched", "--k", "4",
                        "--level", "0"], capsys)
    assert "--level: must be positive, got 0" in err


@pytest.mark.parametrize("command", [
    ["verify", "--family", "q-bfs", "--k", "4", "--level", "17"],
    ["study", "--family", "q-bfs", "--k", "4", "--levels", "40"],
])
def test_level_above_mesh_bound_rejected_before_work(command, monkeypatch, capsys):
    # level 17 would need a local-to-global table of more than 680 GB
    def unreachable(*args):
        raise AssertionError("no work may run for an out-of-range level")

    monkeypatch.setattr(study, "verify", unreachable)
    monkeypatch.setattr(study, "run_study", unreachable)
    err = _parse_error(command, capsys)
    assert f"must be at most 16, got {command[-1]}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,target", [
    (["study", "--family", "q-bfs", "--k", "4", "--levels", "2"], "run_study"),
    (["verify", "--family", "q-bfs", "--k", "4", "--level", "2"], "verify"),
])
def test_out_of_memory_exits_2(command, target, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr(study, target, exhausted)
    code = main(command)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "c1rect: out of memory (Unable to allocate 8.00 GiB)\n"


def test_study_rejects_nonpositive_tolerance(capsys):
    err = _parse_error(["study", "--family", "p-enriched", "--k", "4",
                        "--tol", "-1"], capsys)
    assert "--tol: must be positive, got -1" in err


@pytest.mark.parametrize("command", [
    ["study", "--family", "q-bfs", "--k", "4", "--levels", "2"],
    ["verify", "--family", "q-bfs", "--k", "4"],
])
def test_out_in_missing_directory_rejected_before_work(command, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    err = _parse_error(command + ["--out", str(target)], capsys)
    assert "--out: directory" in err and "does not exist" in err
    assert "Traceback" not in err
    assert not target.parent.exists()


@pytest.mark.parametrize("command", [
    ["study", "--family", "q-bfs", "--k", "4", "--levels", "1"],
    ["verify", "--family", "q-bfs", "--k", "4", "--level", "1"],
])
def test_unwritable_out_exits_2(command, tmp_path, capsys):
    # the directory exists, but the path names a directory, not a file
    target = tmp_path / "report"
    target.mkdir()
    code = main(command + ["--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"c1rect: cannot write {target}: ")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert list(target.iterdir()) == []
