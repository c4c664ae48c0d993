import functools
import json
import math

import pytest

from ksray import graph_from_json, load_rayset, operators
from ksray.cli import build_parser, run


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list(capsys):
    code, out, _ = capture(capsys, ["catalog", "list"])
    assert code == 0
    assert "cube13" in out and "three-cubes" in out


def test_catalog_list_order(capsys):
    _, out, _ = capture(capsys, ["catalog", "list"])
    assert out == "cube13\nperes24\nthree-cubes\nkcbs5\nceg18\n"


def test_catalog_emit_cube13_roundtrips(capsys):
    code, out, _ = capture(capsys, ["catalog", "emit", "cube13"])
    assert code == 0
    rs = load_rayset(out)
    assert len(rs) == 13 and rs.dimension == 3


def test_catalog_emit_three_cubes_with_phase(capsys):
    code, out, _ = capture(capsys, ["catalog", "emit", "three-cubes",
                                    "--phase", "0.3"])
    assert code == 0
    rs = load_rayset(out)
    assert len(rs) == 33 and rs.field == "complex"


def test_graph_roundtrips(capsys):
    code, out, _ = capture(capsys, ["graph", "--set", "cube13"])
    assert code == 0
    g = graph_from_json(out)
    assert g.n == 13 and len(g.edges) == 24 and g.dimension == 3


def test_color_three_cubes_uncolorable(capsys):
    code, out, _ = capture(capsys, ["color", "--set", "three-cubes",
                                    "--phase", "0"])
    assert code == 0
    assert out.startswith("UNCOLORABLE")


def test_color_ceg18_parity(capsys):
    code, out, _ = capture(capsys, ["color", "--set", "ceg18"])
    assert code == 0
    assert "UNCOLORABLE" in out and "parity" in out and "9 bases" in out


def test_color_cube13_witness(capsys):
    code, out, _ = capture(capsys, ["color", "--set", "cube13"])
    assert code == 0
    assert out.startswith("COLORABLE")
    assert "witness:" in out


def test_bounds_kcbs5_json(capsys):
    code, out, _ = capture(capsys, ["bounds", "--set", "kcbs5", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["alpha"] == 2
    assert abs(obj["theta"] - math.sqrt(5)) < 1e-5
    assert abs(obj["alpha_star"] - 2.5) < 1e-9
    assert obj["theta_gap"] <= 1e-6


def test_spectrum_cube13(capsys):
    code, out, _ = capture(capsys, ["spectrum", "--set", "cube13"])
    assert code == 0
    assert "equal-weight POVM: yes" in out


def test_platter_deterministic_output(capsys):
    argv = ["platter", "--strategy", "quantum", "--trials", "20000",
            "--seed", "5"]
    code1, out1, _ = capture(capsys, argv)
    code2, out2, _ = capture(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "seed: 5" in out1


def test_platter_invalid_assignment_exit_code(capsys):
    code, _, err = capture(capsys, ["platter", "--strategy", "classical",
                                    "--trials", "10", "--assignment",
                                    "1,1,0,0,0"])
    assert code == 2
    assert "error" in err


def test_measure_fraction_closed_form(capsys):
    code, out, _ = capture(capsys, ["measure", "fraction", "--field",
                                    "complex", "--dim", "3", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["closed_form"] - 29 / 36) < 1e-12


def test_measure_fraction_mc_deterministic(capsys):
    argv = ["measure", "fraction", "--field", "real", "--dim", "3",
            "--mc", "20000", "--seed", "9", "--json"]
    code1, out1, _ = capture(capsys, argv)
    code2, out2, _ = capture(capsys, argv)
    assert code1 == code2 == 0 and out1 == out2
    obj = json.loads(out1)
    assert abs(obj["value"] - obj["closed_form"]) < 4 * obj["stderr"]


def test_measure_scan_csv(capsys):
    code, out, _ = capture(capsys, ["measure", "fraction", "--field",
                                    "complex", "--scan", "2:5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dimension,fraction"
    assert len(lines) == 5


def test_measure_validity(capsys):
    code, out, _ = capture(capsys, ["measure", "validity", "--field", "real",
                                    "--dim", "3", "--mc", "5000", "--seed",
                                    "3", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["both_red_pairs"] == 0 and obj["all_green_bases"] == 0


def test_measure_separable(capsys):
    code, out, _ = capture(capsys, ["measure", "separable", "--mc", "5000",
                                    "--seed", "4", "--json"])
    assert code == 0
    assert json.loads(out)["same_quadrant_pairs"] == 0


def test_measure_bases(capsys):
    code, out, _ = capture(capsys, ["measure", "bases", "--dim", "2",
                                    "--mc", "2000", "--seed", "6", "--json"])
    assert code == 0
    assert json.loads(out)["value"] == 1.0


def test_file_overrides_set(tmp_path, capsys):
    code, out, _ = capture(capsys, ["catalog", "emit", "kcbs5"])
    path = tmp_path / "pent.json"
    path.write_text(out, encoding="utf-8")
    code, out2, _ = capture(capsys, ["graph", "--set", "cube13",
                                     "--file", str(path)])
    assert code == 0
    assert graph_from_json(out2).n == 5


def test_unknown_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    code, _, err = capture(capsys, ["color", "--file", str(bad)])
    assert code == 2 and "error" in err


def test_missing_set_exit_code(capsys):
    code, _, err = capture(capsys, ["graph"])
    assert code == 2 and "no ray set" in err


@pytest.mark.parametrize("argv", [
    ["measure", "bases", "--dim", "4", "--mc", "0"],
    ["measure", "validity", "--field", "real", "--dim", "3", "--mc", "0"],
])
def test_measure_zero_samples_exit_code(capsys, argv):
    code, out, err = capture(capsys, argv)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: samples must be >= 1"]


@pytest.mark.parametrize("argv,message", [
    (["measure", "fraction", "--field", "real"],
     "error: measure fraction needs --dim or --scan"),
    (["measure", "fraction", "--field", "real", "--scan", "1:3"],
     "error: --scan needs 2 <= LO <= HI, got '1:3'"),
    (["measure", "fraction", "--field", "complex", "--scan", "5:4"],
     "error: --scan needs 2 <= LO <= HI, got '5:4'"),
    (["measure", "fraction", "--field", "real", "--scan", "3"],
     "error: --scan must be LO:HI, got '3'"),
    (["measure", "fraction", "--field", "real", "--scan", "2:x"],
     "error: --scan must be LO:HI, got '2:x'"),
])
def test_measure_fraction_bad_range_exit_code(capsys, argv, message):
    code, out, err = capture(capsys, argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [message]


def _ray_file(tmp_path, third):
    path = tmp_path / "rays.json"
    path.write_text(json.dumps({
        "dimension": 3, "field": "real",
        "rays": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                 [[0, 0], [0, 0], [third, 0]]]}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("verb", ["color", "bounds"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_file_exit_code(tmp_path, capsys, verb, bad):
    code, out, err = capture(capsys, [verb, "--file", _ray_file(tmp_path, bad)])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ray 2: ") and "not finite" in err


def test_zero_quantum_state_exit_code(capsys):
    code, out, err = capture(capsys, ["platter", "--strategy", "quantum",
                                      "--trials", "1000", "--state", "0,0,0"])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_missing_file_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "no-such-file.json")
    code, out, err = capture(capsys, ["color", "--file", missing])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "no-such-file.json" in err


def test_parser_built_once_per_process(capsys):
    sequence = [
        ["catalog", "list"],
        ["color", "--set", "kcbs5"],
        ["measure", "validity", "--field", "complex", "--dim", "3",
         "--mc", "2000", "--seed", "2"],
        ["catalog", "emit", "three_cubes", "--phase", "0.5"],
        ["measure", "fraction", "--field", "real", "--dim", "4"],
        ["platter", "--strategy", "conspiratorial", "--trials", "500"],
        ["measure", "bases", "--dim", "3", "--mc", "2000", "--json"],
        ["color", "--set", "kcbs5"],
    ]
    reused = [capture(capsys, argv) for argv in sequence]
    assert build_parser() is build_parser()
    for argv, result in zip(sequence, reused):
        build_parser.cache_clear()
        assert capture(capsys, argv) == result


@pytest.mark.parametrize("name", ["a{1}.json", "{a}.json"])
def test_file_name_with_braces(tmp_path, capsys, name):
    _, text, _ = capture(capsys, ["catalog", "emit", "kcbs5"])
    (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, err = capture(capsys, ["color", "--file", str(tmp_path / name)])
    assert code == 0 and out.startswith("COLORABLE") and err == ""


def test_failed_eigen_residual_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(operators, "eigen_max",
                        functools.partial(operators.eigen_max, tol=-1.0))
    code, _, err = capture(capsys, ["spectrum", "--set", "cube13"])
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: eigen residual")
