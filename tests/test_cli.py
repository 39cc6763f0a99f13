import json
import subprocess
import sys

import pytest

from wreath_identity import identity
from wreath_identity.cli import main

from golden import DES_101, FIGURE_R2_K1, FIGURE_R2_K2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify ------------------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--r", "2", "--n", "2", "--t-cap", "5")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["claim"] == "theorem"
    assert reports[0]["status"] == "pass"
    assert reports[0]["params"] == {"r": 2, "n": 2, "t_cap": 5}
    assert reports[0]["counterexample"] is None


def test_verify_rejects_nonpositive_r(capsys):
    code, out, err = run_cli(capsys, "verify", "--r", "0", "--n", "2")
    assert code == 2
    assert not out
    assert "error" in err


def test_verify_budget_exceeded(capsys):
    code, _, err = run_cli(capsys, "verify", "--r", "3", "--n", "4", "--budget", "100")
    assert code == 3
    assert "budget" in err


def test_verify_refuses_before_any_step(capsys, monkeypatch):
    def cone_sum(*args):
        raise AssertionError("a cone sum ran before the budget refusal")

    monkeypatch.setattr(identity, "cone_sum", cone_sum)
    code, out, err = run_cli(
        capsys, "verify", "--all-steps", "--r", "3", "--n", "5", "--budget", "1000"
    )
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_verify_all_steps(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--r", "2", "--n", "2", "--t-cap", "4", "--all-steps"
    )
    assert code == 0
    reports = json.loads(out)
    claims = [rep["claim"] for rep in reports]
    assert claims[0] == "same_support"
    assert claims[-1] == "theorem"
    assert claims.count("descent_shift") == 3  # l = 0, 1, 2
    assert claims.count("few_colors") == 3
    assert claims.count("cone_generating_function") == 4  # every eps in Z_2^2
    assert claims.count("triple_preserving") == 3  # one per color multiset
    assert all(rep["status"] == "pass" for rep in reports)


def test_verify_all_steps_r1_skips_colored_cases(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--r", "1", "--n", "2", "--all-steps"
    )
    assert code == 0
    reports = json.loads(out)
    claims = [rep["claim"] for rep in reports]
    assert claims.count("descent_shift") == 1  # only l = 0
    assert all(rep["status"] == "pass" for rep in reports)


def test_verify_tsv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--r", "2", "--n", "1", "--format", "tsv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "claim\tstatus\tparams\tcounterexample\telapsed_ms"
    assert lines[1].startswith("theorem\tpass\t")


def test_verify_threads_env(capsys, monkeypatch):
    monkeypatch.setenv("WREATH_ID_THREADS", "2")
    code, out, _ = run_cli(
        capsys, "verify", "--r", "2", "--n", "2", "--all-steps"
    )
    assert code == 0
    assert all(rep["status"] == "pass" for rep in json.loads(out))


def test_verify_threads_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("WREATH_ID_THREADS", "lots")
    code, _, err = run_cli(capsys, "verify", "--r", "2", "--n", "2")
    assert code == 2
    assert "WREATH_ID_THREADS" in err
    # A usage error wins over the up-front budget refusal.
    code, _, err = run_cli(capsys, "verify", "--r", "3", "--n", "7")
    assert code == 2
    assert "WREATH_ID_THREADS" in err


def test_output_is_deterministic(capsys):
    argv = ("verify", "--r", "2", "--n", "2", "--all-steps")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


# -- table -------------------------------------------------------------------------


def test_table_two_colors_one_letter(capsys):
    code, out, _ = run_cli(capsys, "table", "--r", "2", "--n", "1")
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {"window": "[1^0]", "Des": [], "maj": 0, "des": 0, "col": 0},
        {"window": "[1^1]", "Des": [0], "maj": 0, "des": 1, "col": 1},
    ]


def test_table_filter_eps_reproduces_golden_listing(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--r", "3", "--n", "3", "--filter-eps", "1,0,1"
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert {row["window"]: set(row["Des"]) for row in rows} == DES_101


def test_table_r1_is_classical(capsys):
    code, out, _ = run_cli(capsys, "table", "--r", "1", "--n", "3")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert all(row["col"] == 0 for row in rows)
    by_window = {row["window"]: row for row in rows}
    assert by_window["[3^0 2^0 1^0]"]["Des"] == [1, 2]
    assert by_window["[1^0 2^0 3^0]"]["Des"] == []


def test_table_tsv(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--r", "2", "--n", "1", "--format", "tsv"
    )
    assert code == 0
    assert out.splitlines() == [
        "window\tDes\tmaj\tdes\tcol",
        "[1^0]\t[]\t0\t0\t0",
        "[1^1]\t[0]\t0\t1\t1",
    ]


def test_table_filter_eps_validation(capsys):
    code, _, err = run_cli(
        capsys, "table", "--r", "2", "--n", "3", "--filter-eps", "1,0"
    )
    assert code == 2 and "filter-eps" in err
    code, _, err = run_cli(
        capsys, "table", "--r", "2", "--n", "3", "--filter-eps", "1,0,2"
    )
    assert code == 2 and "filter-eps" in err


# -- figure ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "k,golden", [(1, FIGURE_R2_K1), (2, FIGURE_R2_K2)], ids=["k1", "k2"]
)
def test_figure_golden_grids(capsys, k, golden):
    code, out, _ = run_cli(
        capsys, "figure", "--r", "2", "--n", "2", "--k", str(k)
    )
    assert code == 0
    grid = json.loads(out)
    assert len(grid) == (2 * k + 1) ** 2
    got = {tuple(cell["v"]): (cell["monomial"]["q"], cell["monomial"]["u"]) for cell in grid}
    assert got == golden


def test_figure_requires_n2(capsys):
    code, _, err = run_cli(capsys, "figure", "--r", "2", "--n", "3", "--k", "1")
    assert code == 2
    assert "n = 2" in err


def test_figure_r1_grid_is_pure_q(capsys):
    code, out, _ = run_cli(capsys, "figure", "--r", "1", "--n", "2", "--k", "2")
    assert code == 0
    for cell in json.loads(out):
        assert cell["monomial"]["u"] == 0
        assert cell["monomial"]["q"] == sum(cell["v"])


def test_figure_tsv(capsys):
    code, out, _ = run_cli(
        capsys, "figure", "--r", "2", "--n", "2", "--k", "1", "--format", "tsv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "v1\tv2\tq\tu"
    assert "2\t1\t1\t1" in lines  # point (2,1) carries qu


# -- decompose ---------------------------------------------------------------------


def test_decompose_cell_sizes(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--r", "2", "--n", "2", "--k", "1")
    assert code == 0
    cells = json.loads(out)
    assert [cell["eps"] for cell in cells] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert [len(cell["points"]) for cell in cells] == [4, 2, 2, 1]
    assert cells[3]["points"] == [[2, 2]]


def test_decompose_apex(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--r", "2", "--n", "2", "--k", "0")
    assert code == 0
    cells = json.loads(out)
    assert [len(cell["points"]) for cell in cells] == [1, 0, 0, 0]
    assert cells[0]["points"] == [[0, 0]]


def test_decompose_interval_partition(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--r", "3", "--n", "1", "--k", "2")
    assert code == 0
    cells = json.loads(out)
    assert [cell["points"] for cell in cells] == [
        [[0], [1], [2]],
        [[3], [4]],
        [[5], [6]],
    ]


def test_decompose_covers_every_point_once(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--r", "3", "--n", "2", "--k", "3")
    assert code == 0
    cells = json.loads(out)
    seen = [tuple(v) for cell in cells for v in cell["points"]]
    assert len(seen) == len(set(seen)) == 10 * 10


# -- plumbing ----------------------------------------------------------------------


def test_out_writes_file(capsys, tmp_path):
    path = tmp_path / "grid.json"
    code, out, _ = run_cli(
        capsys, "figure", "--r", "2", "--n", "2", "--k", "1", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    grid = json.loads(path.read_text())
    assert len(grid) == 9


def test_out_unwritable_path_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "--r", "1", "--n", "1", "--out", str(path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not path.exists()


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wreath_identity", "table", "--r", "2", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[1]["window"] == "[1^1]"
