import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import ksray
from ksray import bounds, load_rayset, operators
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
    g = json.loads(out)
    assert g["n"] == 13 and len(g["edges"]) == 24 and g["dimension"] == 3


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


RECORDS = [  # (command line, exact stdout), text and --json forms
    ("bounds --set kcbs5",
     "alpha      = 2\ntheta      = 2.23606797749 (gap 3.37e-11)\n"
     "alpha_star = 2.5\nindependent set: [1, 4]\n"),
    # theta and its gap at full float precision: a BLAS build that rounds
    # differently changes these digits, not the text form's
    ("bounds --set kcbs5 --json",
     '{"alpha": 2, "alpha_star": 2.5, "independent_set": [1, 4], '
     '"packing_weights": [0.5, 0.5, 0.5, 0.5, 0.5], '
     '"theta": 2.2360679774894465, "theta_gap": 3.3727687309692556e-11}\n'),
    ("measure fraction --field real --dim 4 --mc 3000 --seed 2",
     "closed form: 0.79068789486\nvalue: 0.782666666667 "
     "stderr: 0.00752993040153 samples: 3000 seed: 2\n"),
    ("measure fraction --field real --dim 4 --mc 3000 --seed 2 --json",
     '{"closed_form": 0.7906878948604386, "samples": 3000, "seed": 2, '
     '"stderr": 0.00752993040152775, "value": 0.7826666666666666}\n'),
    ("measure fraction --field real --scan 2:5",
     "dimension,fraction\n2,1\n3,0.870243488003\n4,0.79068789486\n"
     "5,0.742215557217\n"),
    ("measure fraction --field real --scan 2:5 --json",
     '{"dimensions": [2, 3, 4, 5], "fractions": [1.0, 0.8702434880030782, '
     '0.7906878948604386, 0.7422155572167566]}\n'),
    ("measure fraction --field complex --dim 3",
     "closed form: 0.805555555556\n"),
    ("measure fraction --field complex --dim 3 --json",
     '{"closed_form": 0.8055555555555555}\n'),
    ("measure bases --dim 4 --mc 3000 --seed 6",
     "value: 0.459333333333 stderr: 0.00909846547908 samples: 3000 "
     "seed: 6\n"),
    ("measure bases --dim 4 --mc 3000 --seed 6 --json",
     '{"samples": 3000, "seed": 6, "stderr": 0.009098465479083495, '
     '"value": 0.4593333333333333}\n'),
    ("measure validity --field complex --dim 3 --mc 3000 --seed 3",
     "both-red orthogonal pairs: 0\nall-green bases: 0\n"
     "samples: 3000 seed: 3\n"),
    ("measure validity --field complex --dim 3 --mc 3000 --seed 3 --json",
     '{"all_green_bases": 0, "both_red_pairs": 0, "samples": 3000, '
     '"seed": 3}\n'),
    ("measure separable --mc 3000 --seed 4",
     "same-quadrant orthogonal pairs: 0\nsamples: 3000 seed: 4\n"),
    ("measure separable --mc 3000 --seed 4 --json",
     '{"same_quadrant_pairs": 0, "samples": 3000, "seed": 4}\n'),
]


@pytest.mark.parametrize("line,expected", RECORDS,
                         ids=[line for line, _ in RECORDS])
def test_record_output_pinned(capsys, line, expected):
    assert capture(capsys, line.split()) == (0, expected, "")


@pytest.mark.parametrize("line,message", [
    ("measure fraction --field real --dim 3 --mc 0",
     "error: samples must be >= 1"),
    ("measure bases --dim 1 --mc 0", "error: d must be >= 2"),
    ("measure validity --field real --dim 1 --mc 0",
     "error: samples must be >= 1"),
    ("platter --strategy quantum --trials 0", "error: trials must be >= 1"),
    ("platter --strategy quantum --trials 0 --state 0,0,0",
     "error: trials must be >= 1"),
])
def test_budget_error_precedence(capsys, line, message):
    code, out, err = capture(capsys, line.split())
    assert code == 2 and out == ""
    assert err.splitlines() == [message]


def test_runs_without_scipy():
    """With scipy unimportable, the package and two scipy-era commands
    still run, and no scipy module gets loaded."""
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        import ksray, ksray.cli
        for line in ("bounds --set kcbs5 --json",
                     "measure fraction --field real --scan 2:64"):
            assert ksray.cli.run(line.split()) == 0, line
        loaded = [m for m in sys.modules
                  if m.startswith("scipy") and sys.modules[m] is not None]
        assert not loaded, loaded
    """)
    src = os.path.dirname(os.path.dirname(ksray.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith('{"alpha": 2, "alpha_star": 2.5')


def test_file_overrides_set(tmp_path, capsys):
    code, out, _ = capture(capsys, ["catalog", "emit", "kcbs5"])
    path = tmp_path / "pent.json"
    path.write_text(out, encoding="utf-8")
    code, out2, _ = capture(capsys, ["graph", "--set", "cube13",
                                     "--file", str(path)])
    assert code == 0
    assert json.loads(out2)["n"] == 5


def test_catalog_emit_from_file(tmp_path, capsys):
    _, text, _ = capture(capsys, ["catalog", "emit", "kcbs5"])
    path = tmp_path / "pent.json"
    path.write_text(text, encoding="utf-8")
    assert capture(capsys, ["catalog", "emit", "--file", str(path)]) == \
        (0, text, "")


def test_catalog_emit_needs_name_or_file(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["catalog", "emit"])
    assert exc.value.code == 2
    assert "catalog emit needs a set name or --file" in capsys.readouterr().err
    code, out, err = capture(capsys, ["catalog", "emit", "nosuch"])
    assert code == 2 and out == "" and "unknown set 'nosuch'" in err


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


@pytest.mark.parametrize("verb", [["color", "--set"], ["catalog", "emit"]])
@pytest.mark.parametrize("phase", ["nan", "inf"])
def test_non_finite_phase_exit_code(capsys, verb, phase):
    code, out, err = capture(capsys, [*verb, "three-cubes", "--phase", phase])
    assert code == 2 and out == ""
    assert err == f"error: phase must be finite, got {phase}\n"


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


@pytest.mark.parametrize("component", ["true", "1" + "0" * 400])
def test_non_number_component_exits_2(tmp_path, capsys, component):
    path = tmp_path / "bad.json"
    path.write_text('{"dimension": 2, "field": "real", "rays": '
                    f'[[[{component}, 0], [0, 0]]]}}', encoding="utf-8")
    code, out, err = capture(capsys, ["color", "--file", str(path)])
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: ray 0: entries must be [re, im] pairs of numbers"]


@pytest.mark.parametrize("name", ["a{1}.json", "{a}.json"])
def test_file_name_with_braces(tmp_path, capsys, name):
    _, text, _ = capture(capsys, ["catalog", "emit", "kcbs5"])
    (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, err = capture(capsys, ["color", "--file", str(tmp_path / name)])
    assert code == 0 and out.startswith("COLORABLE") and err == ""


def test_failed_eigen_residual_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(operators, "EIGEN_TOL", -1.0)
    code, _, err = capture(capsys, ["spectrum", "--set", "cube13"])
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: eigen residual")


@pytest.mark.parametrize("verb", [["bases"], ["validity", "--field", "real"]])
def test_dimension_past_numpy_limit_exit_code(capsys, verb):
    code, out, err = capture(capsys, ["measure", *verb, "--dim", str(2**70),
                                      "--mc", "1"])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_lapack_failure_exit_code(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    code, out, err = capture(capsys, ["bounds", "--set", "kcbs5"])
    assert (code, out) == (1, "")
    assert err == "numerical failure: Eigenvalues did not converge\n"


def test_internal_bug_is_not_invalid_input(monkeypatch, capsys):
    """A plain ValueError is a ksray bug: it escapes run, not as exit 2."""
    def fail(g):
        raise ValueError("operands could not be broadcast together")
    monkeypatch.setattr(bounds, "maximal_cliques", fail)
    with pytest.raises(ValueError, match="could not be broadcast"):
        run(["bounds", "--set", "kcbs5"])
    assert capsys.readouterr().err == ""


def test_argv_fuzz_exits_0_1_or_2(tmp_path, capsys):
    """Arbitrary argv over the subcommands, their flags and ray-set files
    (truncated prefixes of a cube13 file, a directory, a missing file, a
    binary file, an integer past int()'s digit limit and arrays nested past
    the recursion limit): every run exits 0, 1 or 2, and none ends in a
    traceback."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    text = ksray.rayset_to_json(ksray.cube13())
    prefixes = []
    for cut in (0, 1, 2, 17, 60, 200, 700, len(text) // 2, len(text) - 3,
                len(text) - 1, len(text)):
        path = tmp_path / f"cut{cut}.json"
        path.write_text(text[:cut], encoding="utf-8")
        prefixes.append(str(path))
    broken = [str(tmp_path), str(tmp_path / "missing.json")]
    for name, data in (("binary", b"\xff\xfe\x00\x81\x9c{"),
                       ("huge", b'{"dimension": 1' + b"0" * 5000 + b"}"),
                       ("deep", b"[" * 5000)):
        (tmp_path / f"{name}.json").write_bytes(data)
        broken.append(str(tmp_path / f"{name}.json"))
    # integers stay at most 300, so that no accepted run is slow
    ints = st.integers(-5, 300).map(str) | st.sampled_from(["x", "1.5", ""])
    entries = st.lists(st.sampled_from(["0", "1", "2", "-1", "x", "", "nan",
                                        "1j", "1e999"]), min_size=1,
                       max_size=6).map(",".join)
    values = {
        "--set": st.sampled_from([*ksray.CATALOGS, "three_cubes", "nosuch"]),
        "--phase": st.sampled_from(["0", "0.3", "2", "nan", "-inf", "x"]),
        "--file": st.sampled_from(prefixes) | st.sampled_from(broken),
        "--strategy": st.sampled_from(["classical", "conspiratorial",
                                       "quantum", "x"]),
        "--trials": ints, "--seed": ints, "--dim": ints, "--mc": ints,
        "--assignment": entries, "--state": entries,
        "--field": st.sampled_from(["real", "complex", "Real"]),
        "--scan": st.tuples(ints, ints).map(":".join) | ints,
    }

    def option(flag):
        if flag == "--json":
            return st.just([flag])
        return st.tuples(st.just(flag), values[flag]).map(list)

    def command(words, required=(), optional=()):
        opts = (st.lists(st.sampled_from(optional).flatmap(option),
                         max_size=3) if optional else st.just([]))
        return st.tuples(st.tuples(*map(option, required)), opts).map(
            lambda t: [*words, *(w for pair in t[0] + tuple(t[1])
                                 for w in pair)])

    sets = ("--set", "--phase", "--file")
    argvs = st.one_of(
        st.sampled_from([[], ["nosuch"], ["measure"], ["catalog", "list"]]),
        st.tuples(st.lists(values["--set"], max_size=1),
                  command(["catalog", "emit"], (), ("--phase", "--file"))
                  ).map(lambda t: t[1][:2] + t[0] + t[1][2:]),
        *(command([verb], (), sets) for verb in ("graph", "color",
                                                 "spectrum")),
        command(["bounds"], (), sets + ("--json",)),
        command(["platter"], ("--strategy", "--trials", "--assignment",
                              "--state"), ("--seed",)),
        command(["measure", "fraction"], ("--field",),
                ("--dim", "--mc", "--seed", "--json", "--scan")),
        command(["measure", "bases"], ("--dim", "--mc"),
                ("--seed", "--json")),
        command(["measure", "validity"], ("--field", "--dim", "--mc"),
                ("--seed", "--json")),
        command(["measure", "separable"], ("--mc",), ("--seed", "--json")),
    )

    @hypothesis.settings(max_examples=400, derandomize=True, database=None,
                         deadline=None)
    @hypothesis.given(argvs)
    def check(argv):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse refuses argv this way
            code = exc.code
        assert code in (0, 1, 2), argv
        assert "Traceback" not in capsys.readouterr().err

    check()
