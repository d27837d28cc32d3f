import hashlib
import importlib.util
import io
import json
import resource
import subprocess
import sys

import pytest

from lapoly.budgets import BudgetError, cell_budget, point_budget
from lapoly.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_OK,
    build_parser,
    hstar_by_method,
    load_reference_table,
    main,
)
from lapoly.laplacian import LaplacianOrderingError


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "lapoly.cli", *args],
        capture_output=True,
        text=True,
    )


def test_build_boundary_simplex():
    r = run_cli("build", "--boundary-simplex", "3", "--k", "2")
    assert r.returncode == EXIT_OK
    out = json.loads(r.stdout)
    res = out["results"]
    assert res["vertex_count"] == 4
    assert res["dim"] == 2
    assert res["facet_count"] == 4
    assert "digest" in out["inputs"]
    # two isolated vertices: L_0 is zero, its two equal columns one point
    r = run_cli("build", "--boundary-simplex", "1", "--k", "0")
    assert r.returncode == EXIT_OK
    res = json.loads(r.stdout)["results"]
    assert (res["dim"], res["vertex_count"], res["vertices"]) == (0, 1, [[0, 0]])


@pytest.mark.parametrize("argv", [
    ["build", "--boundary-simplex", "3", "--k", "2"],
    ["hstar", "--d", "3"],
    ["verify-table", "--max-d", "1"],
], ids=["build", "hstar", "verify-table"])
def test_report_is_one_write(argv, monkeypatch):
    class Counting(io.StringIO):
        writes = 0

        def write(self, text):
            Counting.writes += 1
            return super().write(text)

    out = Counting()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == EXIT_OK
    assert Counting.writes == 1 and out.getvalue().endswith("}\n")
    json.loads(out.getvalue())


def test_build_complex_files(tmp_path):
    plain = tmp_path / "cycle4.cplx"
    plain.write_text("order: 1 2 3 4\n1 2\n2 3\n3 4\n1 4\n", encoding="utf-8")
    swapped = tmp_path / "cycle4_swapped.cplx"
    swapped.write_text("order: 1 2 4 3\n1 2\n2 3\n3 4\n1 4\n", encoding="utf-8")
    r = run_cli("build", "--complex", str(plain), "--k", "1")
    assert r.returncode == EXIT_OK
    out = json.loads(r.stdout)
    assert out["results"]["dim"] == 3
    assert out["results"]["vertex_count"] == 4
    r = run_cli("build", "--complex", str(swapped), "--k", "1")
    out = json.loads(r.stdout)
    assert out["results"]["dim"] == 2
    # an edge and two isolated vertices: the two zero columns of L_0 are one
    # point, the midpoint of the edge's two columns
    isolated = tmp_path / "edge_and_points.cplx"
    isolated.write_text("order: 1 2 3 4\n1 2\n3\n4\n", encoding="utf-8")
    r = run_cli("build", "--complex", str(isolated), "--k", "0")
    assert r.returncode == EXIT_OK
    res = json.loads(r.stdout)["results"]
    assert (res["dim"], res["vertex_count"]) == (1, 2)
    assert res["vertices"] == [[1, -1, 0, 0], [-1, 1, 0, 0]]


def test_build_input_errors(tmp_path):
    r = run_cli("build", "--k", "1")
    assert r.returncode == EXIT_INPUT
    r = run_cli("build", "--boundary-simplex", "3", "--complex", "x", "--k", "1")
    assert r.returncode == EXIT_INPUT
    bad = tmp_path / "bad.cplx"
    bad.write_text("order: 1 2\n1 3\n", encoding="utf-8")
    r = run_cli("build", "--complex", str(bad), "--k", "0")
    assert r.returncode == EXIT_INPUT
    r = run_cli("build", "--boundary-simplex", "3", "--k", "5")
    assert r.returncode == EXIT_INPUT


@pytest.mark.parametrize(
    "d,method,expected",
    [
        (2, "structural", [1, 10, 5]),
        (1, "ehrhart", [1, 2, 0]),
        (3, "triangulation", [1, 22, 78, 24, 0]),
        (3, "fundamental", [1, 22, 78, 24, 0]),
        (7, "structural",
         [1, 926, 157566, 1135846, 2188310, 1150800, 145600, 3920, 0]),
        (9, "fundamental",
         [1, 5722, 5994992, 109743187, 578168332, 971384057, 574945455,
          112453635, 5199390, 52920, 0]),
    ],
)
def test_hstar_methods(d, method, expected):
    r = run_cli("hstar", "--d", str(d), "--method", method)
    assert r.returncode == EXIT_OK, r.stderr
    out = json.loads(r.stdout)
    assert out["results"]["hstar"] == expected
    assert out["results"]["volume"] == sum(expected)


def test_hstar_flags():
    r = run_cli("hstar", "--d", "5")
    out = json.loads(r.stdout)
    res = out["results"]
    assert res["real_rooted"] is True
    assert res["unimodal"] is True and res["peak"] == 3
    assert res["palindromic"] is False


def test_hstar_budget_and_input_errors():
    r = run_cli("--budget-cells", "80", "hstar", "--d", "4", "--method", "triangulation")
    assert r.returncode == EXIT_BUDGET
    r = run_cli("hstar", "--d", "6", "--method", "fundamental")
    assert r.returncode == EXIT_INPUT
    r = run_cli("--budget-points", "50", "hstar", "--d", "3",
                "--method", "ehrhart")
    assert r.returncode == EXIT_BUDGET


def test_fundamental_budget_counts_dp_states():
    # the residue DP visits 81 * 73 = 5913 states at d = 7; the walk would
    # visit 9^7 = 4782969 points
    r = run_cli("--budget-points", "5913", "hstar", "--d", "7",
                "--method", "fundamental")
    assert r.returncode == EXIT_OK, r.stderr
    assert json.loads(r.stdout)["results"]["hstar"] == list(load_reference_table()[7])
    r = run_cli("--budget-points", "5912", "hstar", "--d", "7",
                "--method", "fundamental")
    assert r.returncode == EXIT_BUDGET
    assert "residue DP needs 5913 states" in r.stderr


@pytest.mark.parametrize("method", ["structural", "triangulation", "fundamental", "ehrhart"])
@pytest.mark.parametrize("d", [0, -1])
def test_hstar_rejects_d_below_one(d, method):
    assert main(["hstar", "--d", str(d), "--method", method]) == EXIT_INPUT


@pytest.mark.parametrize("argv", [
    pytest.param(["hstar", "--d", "\uff13"], id="d-fullwidth-3"),
    pytest.param(["hstar", "--d", "1_0"], id="d-underscore"),
    pytest.param(["hstar", "--d", "+3"], id="d-plus-sign"),
    pytest.param(["hstar", "--d", " 3"], id="d-space"),
    pytest.param(["build", "--boundary-simplex", "\uff12", "--k", "1"], id="boundary-simplex-fullwidth-2"),
    pytest.param(["build", "--boundary-simplex", "2", "--k", "1_1"], id="k-underscore"),
    pytest.param(["verify-table", "--max-d", "\u0663"], id="max-d-arabic-indic-3"),
])
def test_integer_flags_are_ascii_integers(argv, capsys):
    # the rule of complex-file labels, -?[0-9]+ in ASCII
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert "is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("override", [-5, -1, 2.7, "10",
                                      pytest.param("\uff11\uff10", id="fullwidth-10"), True])
def test_budget_override_must_be_an_int(override):
    for budget in (point_budget, cell_budget):
        with pytest.raises(ValueError, match="a budget must be an int >= 0"):
            budget(override)
    assert point_budget(0) == 0 and cell_budget(7) == 7
    # an input error, not a budget exceeded
    with pytest.raises(ValueError, match="a budget must be an int >= 0"):
        hstar_by_method(3, "triangulation", cells_budget=override)


@pytest.mark.parametrize("flag,value", [
    pytest.param(flag, value, id=flag + suffix)
    for flag in ("--budget-points", "--budget-cells")
    for value, suffix in (("-5", ""), ("\uff11\uff10", "-fullwidth-10"))
])
def test_negative_budget_is_input_error(flag, value):
    r = run_cli(flag, value, "hstar", "--d", "5", "--method", "fundamental")
    assert r.returncode == EXIT_INPUT
    assert "need an integer >= 0" in r.stderr


@pytest.mark.parametrize("value", ["-5", "abc", pytest.param("\u0663", id="arabic-indic-3")])
@pytest.mark.parametrize("variable", ["LAPOLY_BUDGET_POINTS", "LAPOLY_BUDGET_CELLS"])
@pytest.mark.parametrize("argv", [
    ["hstar", "--d", "5", "--method", "fundamental"],
    ["verify-table", "--max-d", "2"],
    ["build", "--boundary-simplex", "2", "--k", "1"],
])
def test_bad_budget_variable_is_input_error(argv, variable, value, monkeypatch, capsys):
    monkeypatch.setenv(variable, value)
    assert main(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {variable}: need an integer >= 0")


def test_budget_env_override(tmp_path):
    import os

    env = dict(os.environ)
    env["LAPOLY_BUDGET_CELLS"] = "3"
    r = subprocess.run(
        [sys.executable, "-m", "lapoly.cli", "hstar", "--d", "2",
         "--method", "triangulation"],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == EXIT_BUDGET


def test_verify_table_pass_and_determinism():
    r1 = run_cli("verify-table", "--max-d", "4")
    r2 = run_cli("verify-table", "--max-d", "4")
    assert r1.returncode == EXIT_OK
    out1 = json.loads(r1.stdout)
    out2 = json.loads(r2.stdout)
    assert out1["results"] == out2["results"]
    assert out1["inputs"]["digest"] == out2["inputs"]["digest"]
    rows = out1["results"]["rows"]
    for d in range(1, 5):
        row = rows[str(d)]
        assert row["match"] is True
        assert set(row["oracles"]) >= {"triangulation", "ehrhart"}
        for vec in row["oracles"].values():
            assert vec == row["structural"]


def test_verify_table_tampered_reference(tmp_path):
    from lapoly.cli import load_reference_table

    table = load_reference_table()
    rows = {str(d): list(table[d]) for d in table}
    rows["2"][1] = 11
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps({"rows": rows}), encoding="utf-8")
    r = run_cli("verify-table", "--max-d", "3", "--table", str(bad))
    assert r.returncode == EXIT_MISMATCH
    out = json.loads(r.stdout)
    assert out["results"]["rows"]["2"]["diff"] == [
        {"index": 1, "computed": 10, "reference": 11}
    ]


@pytest.mark.parametrize("table, message", [
    ({"rows": {"1": 5}}, '"rows" must map'),
    ({"rows": [1]}, '"rows" must map'),
    ([1], '"rows" must map'),
    ({"rows": {"1": [1, "2"]}}, '"rows" must map'),
    # two keys for d = 1: the wrong row must not pass by being read last
    ({"rows": {"1": [9, 9, 9], "01": [1, 2, 0]}}, '"rows" must map'),
    ('{"rows": {"1": [9, 9, 9], "1": [1, 2, 0]}}', "repeated key '1'"),
], ids=["row-not-a-list", "rows-not-an-object", "table-not-an-object",
        "entry-not-an-int", "non-canonical-key", "repeated-key"])
def test_verify_table_malformed_table(tmp_path, table, message):
    bad = tmp_path / "malformed.json"
    bad.write_text(table if isinstance(table, str) else json.dumps(table), encoding="utf-8")
    r = run_cli("verify-table", "--max-d", "2", "--table", str(bad))
    assert r.returncode == EXIT_INPUT
    assert r.stderr.startswith("error: cannot load table")
    assert message in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("row, diff", [
    ([1, 10], [{"index": 2, "computed": 5, "reference": None}]),
    ([1, 10, 5, 7], [{"index": 3, "computed": None, "reference": 7}]),
], ids=["short", "long"])
def test_verify_table_diff_lists_unmatched_positions(tmp_path, capsys, row, diff):
    rows = {str(d): list(h) for d, h in load_reference_table().items()}
    rows["2"] = row
    bad = tmp_path / "wrong-length.json"
    bad.write_text(json.dumps({"rows": rows}), encoding="utf-8")
    assert main(["verify-table", "--max-d", "2", "--table", str(bad)]) == EXIT_MISMATCH
    entry = json.loads(capsys.readouterr().out)["results"]["rows"]["2"]
    assert entry["match"] is False and entry["diff"] == diff


def test_verify_table_missing_table_is_input_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["verify-table", "--max-d", "1", "--table", str(missing)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: cannot load table")


def test_default_table_is_the_packaged_file():
    from importlib import resources

    text = resources.files("lapoly").joinpath("reference_hstar.json").read_text()
    rows = json.loads(text)["rows"]
    assert load_reference_table() == {int(d): tuple(v) for d, v in rows.items()}


@pytest.mark.parametrize("payload", [
    {"d": 3, "method": "structural"},
    {"max_d": 8, "table": None},
    {"boundary_simplex": 4, "k": 3},
    {"complex_file": "complexes/kömplex.txt", "k": 1},
    {},
], ids=["hstar", "verify-table", "build", "non-ascii", "empty"])
def test_digest_is_sha256_of_canonical_inputs(payload):
    from lapoly.cli import _digest

    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    assert _digest(payload) == hashlib.sha256(canonical).hexdigest()


def test_cli_import_loads_neither_openssl_nor_resources():
    """`import lapoly.cli` pulls in no `importlib.resources` and, where the
    interpreter has a built-in sha256, no OpenSSL `_hashlib`.  -S keeps
    site hooks out, as a `.pth` file may import either; PYTHONPATH (set by
    conftest) still points at `src/`."""
    r = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, lapoly.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
    )
    loaded = set(r.stdout.split())
    assert "lapoly.cli" in loaded and "importlib.resources" not in loaded
    if any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        assert "_hashlib" not in loaded


def test_main_entry_point(capsys):
    rc = main(["hstar", "--d", "2"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["hstar"] == [1, 10, 5]
    # one parser serves every call, and keeps nothing from the last one
    assert build_parser() is build_parser()
    assert main(["hstar", "--d", "1", "--method", "ehrhart"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["hstar"] == [1, 2, 0]
    assert main(["hstar", "--d", "1"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["inputs"]["method"] == "structural"


def test_report_is_one_json_line(capsys):
    assert main(["hstar", "--d", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["results"]["hstar"] == [1, 22, 78, 24, 0]


def test_public_exports_resolve():
    import lapoly

    assert len(set(lapoly.__all__)) == len(lapoly.__all__)
    for name in lapoly.__all__:
        assert hasattr(lapoly, name), name
    namespace = {}
    exec("from lapoly import *", namespace)
    assert set(lapoly.__all__) <= set(namespace)


def test_verify_table_status_reflects_every_check(monkeypatch, capsys):
    import lapoly.cli as cli

    real = cli.hstar_by_method

    def skewed(d, method, **kwargs):
        h = real(d, method, **kwargs)
        return h[:-1] + (h[-1] + 1,) if method == "ehrhart" else h

    monkeypatch.setattr(cli, "hstar_by_method", skewed)
    assert main(["verify-table", "--max-d", "1"]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    row = json.loads(captured.out)["results"]["rows"]["1"]
    assert row["match"] is True and row["oracle_mismatch"] == "ehrhart"
    assert "d=1: FAIL" in captured.err


def test_assertion_maps_to_mismatch_exit(monkeypatch, capsys):
    import lapoly.cli as cli

    monkeypatch.setattr(cli, "h_vector_of", lambda tri: (1, 2, 0, 7))
    assert main(["hstar", "--d", "1", "--method", "triangulation"]) == EXIT_MISMATCH
    assert "nonzero tail" in capsys.readouterr().err
    assert main(["verify-table", "--max-d", "1"]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert "d=1: FAIL" in captured.err and "nonzero tail" in captured.err
    assert captured.out == ""


def test_build_assertion_maps_to_mismatch_exit(monkeypatch, capsys):
    import lapoly.polytope as polytope
    from lapoly.linalg import snf_with_transform

    # with the first row of V dropped or doubled, the basis V[:r] no
    # longer rebuilds the points from their coordinates (U S)[:, :r]
    for broken in (lambda v: v[1:], lambda v: [[2 * x for x in v[0]], *v[1:]]):
        def smith(rows, broken=broken):
            u, s, v, vinv = snf_with_transform(rows)
            return u, s, broken(v), vinv

        monkeypatch.setattr(polytope, "snf_with_transform", smith)
        assert main(["build", "--boundary-simplex", "2", "--k", "1"]) == EXIT_MISMATCH
        captured = capsys.readouterr()
        assert "mismatch: saturated basis must span all points" in captured.err
        assert captured.out == ""


def test_build_makes_one_smith_form_at_corank_0_and_1(monkeypatch, tmp_path, capsys):
    import lapoly.polytope as polytope
    from lapoly.linalg import snf_with_transform

    calls = []
    monkeypatch.setattr(polytope, "snf_with_transform",
                        lambda rows: calls.append(len(rows)) or snf_with_transform(rows))
    cycle = tmp_path / "cycle4.cplx"
    cycle.write_text("order: 1 2 3 4\n1 2\n2 3\n3 4\n1 4\n", encoding="utf-8")
    for argv, points, corank in ((["--boundary-simplex", "5", "--k", "4"], 6, 1),
                                 (["--complex", str(cycle), "--k", "1"], 4, 0)):
        calls.clear()
        assert main(["build", *argv]) == EXIT_OK
        res = json.loads(capsys.readouterr().out)["results"]
        assert (res["vertex_count"], points - 1 - res["dim"]) == (points, corank)
        # one Smith form of the points' difference rows, none on the copy
        assert calls == [points]


# only `build` assembles a Laplacian: `hstar` and `verify-table` take the
# simplex boundary's from its closed form
@pytest.mark.parametrize("argv", [
    ["build", "--boundary-simplex", "2", "--k", "1"],
], ids=["build"])
def test_laplacian_ordering_error_maps_to_mismatch_exit(argv, monkeypatch, capsys):
    import lapoly.laplacian as laplacian

    # every Laplacian entry now disagrees with the combinatorial rule
    monkeypatch.setattr(laplacian, "_combinatorial_entry", lambda *args: None)
    assert main(argv) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert "mismatch: Laplacian entry" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("error,code", [
    (BudgetError, EXIT_BUDGET),
    (AssertionError, EXIT_MISMATCH),
    (LaplacianOrderingError, EXIT_MISMATCH),
    (ValueError, EXIT_INPUT),
    (IndexError, EXIT_INPUT),
    (OSError, EXIT_INPUT),
], ids=lambda v: getattr(v, "__name__", None))
@pytest.mark.parametrize("argv,target", [
    (["build", "--boundary-simplex", "2", "--k", "1"], "laplacian_polytope"),
    (["hstar", "--d", "2"], "hstar_by_method"),
    (["verify-table", "--max-d", "1"], "hstar_by_method"),
], ids=["build", "hstar", "verify-table"])
def test_every_failure_class_maps_to_its_exit_code(argv, target, error, code,
                                                   monkeypatch, capsys):
    import lapoly.cli as cli

    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, target, fail)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "injected" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_hstar_triangulation_d6_under_memory_limit():
    # the 4096-cell cone of the interior polytope, verified and counted on
    # its walk, fits in 128 MB of address space; the 262144-cell
    # refinement would not
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 27, 1 << 27))

    r = subprocess.run(
        [sys.executable, "-m", "lapoly.cli", "hstar", "--d", "6",
         "--method", "triangulation"],
        capture_output=True,
        text=True,
        preexec_fn=limit_memory,
    )
    assert r.returncode == EXIT_OK, r.stderr
    assert json.loads(r.stdout)["results"]["hstar"] == list(load_reference_table()[6])


def test_hstar_triangulation_refuses_d10_before_building(monkeypatch, capsys):
    # the d = 10 cone needs 6^10 cells, over the default budget, and the
    # budget is checked before any construction starts
    import lapoly.triangulate as triangulate

    def built(d):
        raise AssertionError("built despite the budget")

    monkeypatch.setattr(triangulate, "_interior_cone", built)
    assert main(["hstar", "--d", "10", "--method", "triangulation"]) == EXIT_BUDGET
    assert "needs 60466176 cells" in capsys.readouterr().err


def test_hstar_triangulation_rejects_a_dropped_cone_cell(monkeypatch, capsys):
    import lapoly.cli as cli
    from lapoly.triangulate import Triangulation, interior_polytope_triangulation

    def dropped(d, budget=None):
        t = interior_polytope_triangulation(d, budget)
        return Triangulation(t.vertex_pool, t.cells[1:], t.carrier)

    monkeypatch.setattr(cli, "interior_polytope_triangulation", dropped)
    assert main(["hstar", "--d", "4", "--method", "triangulation"]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert captured.err.startswith("mismatch: ") and captured.out == ""


def test_hstar_beyond_the_reference_table():
    r = run_cli("hstar", "--d", "11")
    assert r.returncode == EXIT_OK, r.stderr
    res = json.loads(r.stdout)["results"]
    assert res["volume"] == 13**11
    assert len(res["hstar"]) == 13 and res["real_rooted"] is True
