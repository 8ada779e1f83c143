import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import perfbench_gen
from rigidity import data, exactpoly, symdom
from rigidity.cli import main

ROOT = Path(__file__).resolve().parents[1]

L3_PATH = data.data_path("origamis", "l_shape_3")
TORUS_PATH = data.data_path("origamis", "torus")
DIAG_PATH = data.data_path("paths", "diagonal_radial")
ESCAPE_PATH = data.data_path("paths", "escape_diagonal")
SQRT_POLY = data.data_path("charpolys", "sqrt_branch")
SHEAR_PATH = data.data_path("paths", "shear_mix")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_child(*argv, timeout):
    """The CLI in a fresh process with a deadline, the package from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from rigidity.cli import main; sys.exit(main())",
         *argv],
        capture_output=True, text=True, timeout=timeout, env=env)


def test_intersection_l_shape(tmp_path, capsys):
    csv = tmp_path / "profile.csv"
    code, out, _ = run(capsys, "intersection", "--origami", L3_PATH,
                       "--samples", "360", "--out", str(csv))
    assert code == 0
    summary = json.loads(out)
    assert summary["constant_half_refuted"] is True
    assert abs(summary["max"] - 3.0) < 1e-9
    assert summary["max"] - summary["min"] >= 2.9
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "theta,value"
    assert len(lines) == 361
    for line in lines[1:]:
        theta, value = map(float, line.split(","))
        assert abs(value - 3 * abs(math.cos(theta / 2))) < 1e-9


def test_intersection_four_samples_still_refutes(tmp_path, capsys):
    csv = tmp_path / "p.csv"
    code, out, _ = run(capsys, "intersection", "--origami", L3_PATH,
                       "--samples", "4", "--out", str(csv))
    assert code == 0
    summary = json.loads(out)
    assert summary["constant_half_refuted"] is True
    values = [float(line.split(",")[1]) for line in csv.read_text().strip().splitlines()[1:]]
    expected = [3.0, 3 / math.sqrt(2), 0.0, 3 / math.sqrt(2)]
    assert all(abs(a - b) < 1e-9 for a, b in zip(values, expected))


def test_intersection_grid_rule(tmp_path, capsys):
    # one sample is a valid grid, and a flat sampled profile is reported, not
    # raised as ConstantProfile the way profile_nonconstancy does
    for argv in (["--samples", "1"], ["--samples", "5", "--tolerance", "100"]):
        code, out, _ = run(capsys, "intersection", "--origami", L3_PATH,
                           "--out", str(tmp_path / "p.csv"), *argv)
        assert code == 0
        assert json.loads(out)["constant_half_refuted"] is False
    code, out, err = run(capsys, "intersection", "--origami", L3_PATH,
                         "--samples", "0", "--out", str(tmp_path / "p.csv"))
    assert code == 1 and out == "" and "at least one sample" in err


def test_intersection_torus_single_curve(tmp_path, capsys):
    code, out, _ = run(capsys, "intersection", "--origami", TORUS_PATH,
                       "--samples", "360", "--out", str(tmp_path / "t.csv"))
    assert code == 0
    summary = json.loads(out)
    assert abs(summary["max"] - 1.0) < 1e-9
    assert summary["min"] < 1e-2


def test_intersection_census_flag(tmp_path, capsys):
    code, out, _ = run(capsys, "intersection", "--origami", TORUS_PATH,
                       "--samples", "8", "--length-bound", "2.0",
                       "--out", str(tmp_path / "t.csv"))
    assert code == 0
    assert json.loads(out)["saddle_connection_count"] == 8


@pytest.mark.parametrize("bound", ["inf", "nan", "-1"])
def test_intersection_bad_length_bound_is_an_input_error(tmp_path, capsys, bound):
    code, out, err = run(capsys, "intersection", "--origami", TORUS_PATH,
                         "--length-bound", bound, "--out", str(tmp_path / "t.csv"))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()


def test_intersection_deterministic_output(tmp_path, capsys):
    csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
    _, out1, _ = run(capsys, "intersection", "--origami", L3_PATH, "--out", str(csv1))
    _, out2, _ = run(capsys, "intersection", "--origami", L3_PATH, "--out", str(csv2))
    assert out1 == out2
    assert csv1.read_bytes() == csv2.read_bytes()


@pytest.mark.parametrize("payload", [
    {"n": 2.0, "h": [2, 1], "v": [1, 2]},
    {"n": True, "h": [1], "v": [1]},
], ids=["float_n", "bool_n"])
def test_intersection_non_integer_square_count_is_an_input_error(tmp_path, payload):
    origami = tmp_path / "origami.json"
    origami.write_text(json.dumps(payload))
    proc = run_child("intersection", "--origami", str(origami),
                     "--out", str(tmp_path / "p.csv"), timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert re.fullmatch(r"error: square count n must be an int, got [^\n]*\n", proc.stderr)
    assert not (tmp_path / "p.csv").exists()


def test_intersection_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "intersection", "--origami", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "error" in err


def test_horocycle_default(capsys, tmp_path):
    out_file = tmp_path / "h.json"
    code, out, _ = run(capsys, "horocycle", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["distance"] - math.log(2)) < 1e-9
    assert abs(payload["intersection"] - 0.5) < 1e-9
    assert abs(payload["P1"][0] - 1 / 3) < 1e-6
    assert json.loads(out_file.read_text()) == payload


def test_horocycle_twist_matches_untwisted(capsys):
    _, out_plain, _ = run(capsys, "horocycle")
    _, out_twist, _ = run(capsys, "horocycle", "--theta-twist", "1.3")
    d0 = json.loads(out_plain)["distance"]
    d1 = json.loads(out_twist)["distance"]
    assert abs(d0 - d1) < 1e-9


def test_horocycle_overtight_tolerance_exits_two(capsys):
    code, _, err = run(capsys, "horocycle", "--tolerance", "1e-15")
    assert code == 2
    assert "log(2)" in err


def test_bug_in_a_computation_is_not_an_input_error(monkeypatch):
    # only what inputs raise (ValueError, OSError) becomes an error line
    from rigidity import chplane

    def broken(theta_twist):
        raise TypeError("broken step")

    monkeypatch.setattr(chplane, "step2_verify", broken)
    with pytest.raises(TypeError, match="broken step"):
        main(["horocycle"])


def test_smoothness_path_report(capsys):
    code, out, _ = run(capsys, "smoothness", "--path", DIAG_PATH)
    assert code == 0
    payload = json.loads(out)
    assert payload["K"] == 1
    assert payload["agreement"] is True
    assert payload["newton_puiseux_K"] == payload["monodromy_K"] == 1
    assert payload["fit_residual"] < 1e-8


def test_smoothness_charpoly_mode(capsys):
    code, out, _ = run(capsys, "smoothness", "--path", SQRT_POLY, "--charpoly",
                       "--epsilon", "0.05")
    assert code == 0
    payload = json.loads(out)
    assert payload["newton_puiseux_K"] == 2
    assert payload["monodromy_K"] == 2
    assert payload["K"] == 4  # square root of the branch doubles the index
    assert payload["agreement"] is True


def test_smoothness_shear_path(capsys):
    # both eigenvalue branches of the shear path are analytic and distinct
    code, out, _ = run(capsys, "smoothness", "--path",
                       data.data_path("paths", "shear_mix"))
    assert code == 0
    payload = json.loads(out)
    assert payload["K"] == 1 and payload["agreement"] is True


def test_oracle_disagreement_exits_three(capsys, monkeypatch):
    # force the two branch indices apart to check the exit-code wiring
    monkeypatch.setattr(symdom, "monodromy_index",
                        lambda P, epsilon: 99)
    code, _, err = run(capsys, "smoothness", "--path", DIAG_PATH)
    assert code == 3
    assert "mismatch" in err


def smoothness_inputs():
    inputs = {name: ["--path", data.data_path("paths", name)]
              for name in ("diagonal_radial", "shear_mix")}
    inputs["escape_diagonal"] = ["--path", ESCAPE_PATH, "--epsilon", "1.0"]
    for name in data.charpoly_names():
        inputs[name] = ["--charpoly", "--path", data.data_path("charpolys", name)]
    return inputs


@pytest.mark.parametrize("name", sorted(smoothness_inputs()))
def test_smoothness_runs_each_stage_once(name, capsys, monkeypatch):
    calls = Counter()

    def count(holder, attr):
        original = getattr(holder, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(holder, attr, counted)

    count(exactpoly.BivariatePolynomial, "discriminant")
    count(symdom, "rational_roots")
    count(symdom, "charpoly_path")
    count(symdom, "newton_puiseux_index")
    run(capsys, "smoothness", *smoothness_inputs()[name])
    assert calls["discriminant"] <= 1
    assert calls["rational_roots"] == 1
    assert calls["charpoly_path"] <= 1
    assert calls["newton_puiseux_index"] == 1


def test_cli_grid_matches_the_recorded_reference(capsys, monkeypatch, tmp_path):
    # every invocation of the benchmark's CLI grid, in process, against the
    # exit codes and stdout digests recorded from the seed code
    reference = json.loads((ROOT / "perfbench" / "cli_reference.json").read_text())
    grid = perfbench_gen().cli_grid()
    assert sorted(grid) == sorted(reference)
    monkeypatch.chdir(ROOT)
    for key, argv in grid.items():
        argv = [str(tmp_path / "profile.csv") if a == "@OUT" else a for a in argv]
        code, out, _ = run(capsys, *argv)
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert (code, digest) == (reference[key]["exit"],
                                  reference[key]["stdout_sha256"]), key


def test_smoothness_boundary_exit_one(capsys):
    code, _, err = run(capsys, "smoothness", "--path", ESCAPE_PATH,
                       "--epsilon", "1.0")
    assert code == 1
    assert "ball" in err


def test_smoothness_deterministic(capsys):
    _, out1, _ = run(capsys, "smoothness", "--path", DIAG_PATH)
    _, out2, _ = run(capsys, "smoothness", "--path", DIAG_PATH)
    assert out1 == out2


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("mode", [["--path", DIAG_PATH], ["--charpoly", "--path", SQRT_POLY]])
def test_smoothness_non_finite_epsilon_exits_one(capsys, mode, value):
    code, out, err = run(capsys, "smoothness", *mode, "--epsilon", value)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "epsilon" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_non_finite_tolerance_exits_one(capsys, tmp_path, value):
    # argparse would exit 2, which means a tolerance violation here
    for argv in (["intersection", "--origami", L3_PATH, "--out", str(tmp_path / "p.csv")],
                 ["horocycle"]):
        code, out, err = run(capsys, *argv, "--tolerance", value)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "tolerance" in err
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_horocycle_non_finite_twist_exits_one(capsys, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "horocycle", "--theta-twist", value)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "theta_twist" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, option, value", [
    (["intersection", "--origami", L3_PATH], "--direction", "-1,2"),
    (["intersection", "--origami", L3_PATH], "--direction", "-1,-1"),
    (["intersection", "--origami", L3_PATH], "--samples", "-3"),
    (["horocycle"], "--theta-twist", "-1e-3"),
    (["horocycle"], "--theta-twist", "-.5"),
    (["horocycle"], "--tolerance", "-1e-3"),
    (["smoothness", "--path", DIAG_PATH], "--epsilon", "-1e-2"),
    (["horocycle"], "--theta-twist", "-inf"),
    (["horocycle"], "--theta-twist", "-Infinity"),
    (["horocycle"], "--theta-twist", "-nan"),
    (["horocycle"], "--tolerance", "-INF"),
    (["horocycle"], "--tolerance", "-NaN"),
    (["intersection", "--origami", L3_PATH], "--tolerance", "-infinity"),
    (["smoothness", "--path", DIAG_PATH], "--epsilon", "-inf"),
    (["smoothness", "--path", DIAG_PATH], "--epsilon", "-nan"),
])
def test_a_value_starting_with_minus_parses_as_after_equals(capsys, tmp_path, argv,
                                                            option, value):
    # argparse reads -1,2 and -1e-3 as options and exits 2, which means a
    # tolerance violation here
    out = ["--out", str(tmp_path / "p.csv")] if argv[0] == "intersection" else []
    spaced = run(capsys, *argv, *out, option, value)
    joined = run(capsys, *argv, *out, f"{option}={value}")
    assert spaced[:2] == joined[:2]
    assert spaced[0] != 2


@pytest.mark.parametrize("epsilon", ["1e-30", "1e-300"])
@pytest.mark.parametrize("source", [
    ["--charpoly", "--path", SQRT_POLY],
    ["--charpoly", "--path", data.data_path("charpolys", "shifted_double_root")],
    ["--path", SHEAR_PATH],
])
def test_smoothness_at_tiny_epsilon_certifies_or_names_the_step(source, epsilon):
    # a fresh process with a deadline: either both oracles agree, or the
    # monodromy tracker names the step it could not certify
    proc = run_child("smoothness", *source, "--epsilon", epsilon, timeout=2)
    if proc.returncode == 0:
        payload = json.loads(proc.stdout)
        assert payload["monodromy_K"] == payload["newton_puiseux_K"]
    else:
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert re.fullmatch(r"error: .*\bstep \d+ of \d+\n", proc.stderr)


# Oversized inputs: past a cost cap the CLI refuses at once with one error
# line; the rows at each cap still answer.
@pytest.mark.parametrize("argv, code", [
    (["--direction", "1,1000000000"], 1),
    (["--length-bound", "1e6"], 1),
    (["--length-bound", "1e9"], 1),
    (["--direction", "1,99999"], 0),
    (["--length-bound", "100000"], 0),
    (["--samples", "1000000000"], 1),
    (["--samples", "100000"], 0),
], ids=["direction_1e9", "length_1e6", "length_1e9", "direction_at_cap", "length_at_cap",
        "samples_1e9", "samples_at_cap"])
def test_oversized_inputs_finish_in_time(tmp_path, argv, code):
    proc = run_child("intersection", "--origami", L3_PATH,
                     "--out", str(tmp_path / "p.csv"), *argv, timeout=10)
    assert proc.returncode == code
    if code:
        assert proc.stdout == ""
        assert re.fullmatch(r"error: [^\n]*\n", proc.stderr)
    else:
        assert proc.stderr == "" and "max" in json.loads(proc.stdout)


def _linear_factor_charpoly(degree):
    """JSON rows of prod_k (y - k/16 - k t/64) for k = 1..degree: its roots
    k (1 + t/4) / 16 are real and apart for t > -4, and the top one is
    degree/16 at t = 0."""
    coeffs = [exactpoly.RationalPoly.one()]
    for k in range(1, degree + 1):
        c = exactpoly.RationalPoly([Fraction(-k, 16), Fraction(-k, 64)])
        coeffs = [a + b * c for a, b in zip([exactpoly.RationalPoly.zero()] + coeffs,
                                            coeffs + [0])]
    return [[[str(c.re), str(c.im)] for c in poly.coeffs] for poly in coeffs]


def _diagonal_path(size):
    """JSON of the size x size diagonal path with entries k/32 + t/64."""
    return [[[[f"{k}/32", "0"], ["1/64", "0"]] if j == k else [] for j in range(size)]
            for k in range(size)]


# The discriminant's cap: smoothness refuses a degree in y over
# exactpoly.MAX_DEGREE_Y before its first stage; the row at the cap answers.
# The trial division of rational_roots is capped too: 10^400, and the 20-digit
# numerator of a bare 0.25000000000000000001 read from its digits, are refused.
_DEGREE_CAP = r"error: degree \d+ in y is over the discriminant's cap 8\n"
_DIVISOR_CAP = r"error: rational roots: over 10000000 trial divisions\n"


@pytest.mark.parametrize("mode, text, error", [
    (["--charpoly"], json.dumps(_linear_factor_charpoly(12)), _DEGREE_CAP),
    ([], json.dumps(_diagonal_path(9)), _DEGREE_CAP),
    (["--charpoly"], json.dumps(_linear_factor_charpoly(8)), None),
    (["--charpoly"], '[[["1e400", "0"]], [["1", "0"]]]', _DIVISOR_CAP),
    (["--charpoly"], '[[[-0.25000000000000000001, 0], [-1, 0]], [], [[1, 0]]]', _DIVISOR_CAP),
], ids=["charpoly_degree_12", "path_9_columns", "charpoly_at_cap",
        "charpoly_y_plus_10_400", "charpoly_bare_long_decimal"])
def test_oversized_smoothness_inputs_finish_in_time(tmp_path, mode, text, error):
    path = tmp_path / "input.json"
    path.write_text(text)
    proc = run_child("smoothness", *mode, "--path", str(path), timeout=10)
    if error:
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert re.fullmatch(error, proc.stderr)
    else:
        assert proc.returncode == 0
        assert proc.stderr == "" and json.loads(proc.stdout)["agreement"] is True


# A coefficient whose float conversion overflows, met first in the
# discriminant of the charpoly and in V(0) of the path; a bare 1e400 is read
# as the integer it spells, not as a float.
@pytest.mark.parametrize("mode, text", [
    (["--charpoly"], json.dumps([[["-1/4", "0"]], [["0", "0"], ["1e300", "0"]], [["1", "0"]]])),
    ([], json.dumps([[[["1/2", "0"], ["1e400", "0"]]]])),
    ([], '[[[["1/2", "0"], [1e400, 0]]]]'),
], ids=["charpoly_1e300", "path_1e400", "path_bare_1e400"])
def test_coefficient_too_large_for_a_float_is_an_input_error(tmp_path, mode, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    proc = run_child("smoothness", *mode, "--path", str(path), timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: a coefficient is too large for a float\n"


# NaN and Infinity are not JSON numbers, and the reader refuses them by name.
@pytest.mark.parametrize("constant", ["NaN", "-Infinity"])
def test_non_json_constants_are_an_input_error(tmp_path, constant):
    path = tmp_path / "input.json"
    path.write_text(f'[[[["1/2", "0"], [{constant}, 0]]]]')
    proc = run_child("smoothness", "--path", str(path), timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {constant} is not a JSON number\n"


# Well-formed JSON of another shape: each loader names the shape it expects.
@pytest.mark.parametrize("command, payload, shape", [
    (["smoothness", "--path"], [[5]], "a path must be a list of rows"),
    (["smoothness", "--path"], [[[["1/2"]]]], "a path must be a list of rows"),
    (["smoothness", "--charpoly", "--path"], [5], "a charpoly must be a list of one list"),
    (["smoothness", "--charpoly", "--path"], {"a": 1}, "a charpoly must be a list of one list"),
    (["intersection", "--origami"], {"n": 2, "h": 5, "v": [1, 2]},
     'origami JSON must be {"n": int, "h": [...], "v": [...]}'),
], ids=["path_int_entry", "path_one_element_pair", "charpoly_int_row", "charpoly_object",
        "origami_int_h"])
def test_json_of_another_shape_is_an_input_error(tmp_path, command, payload, shape):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    proc = run_child(*command, str(path), "--out", str(tmp_path / "out"), timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert re.fullmatch(r"error: [^\n]*\n", proc.stderr) and shape in proc.stderr


def test_discriminant_whose_roots_underflow_has_no_branch_point(tmp_path):
    # y**2 - 1/4 - 10**-400 t: the deflated discriminant's leading float
    # coefficient is 0.0, so np.roots finds no root and the radius is free
    path = tmp_path / "input.json"
    path.write_text(json.dumps([[["-1/4", "0"], ["-1e-400", "0"]], [], [["1", "0"]]]))
    proc = run_child("smoothness", "--charpoly", "--path", str(path), timeout=10)
    assert proc.returncode == 0 and proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert (payload["K"], payload["monodromy_K"], payload["agreement"]) == (1, 1, True)


_EPS = Fraction(1, 10**400)


# Polygon decisions that end in one error line with no numpy scalar in it.
# y**2 - 10**-400 t: the polygon finds the real top branch 10**-200 t**(1/2),
# but the tracker's float coefficients of P round it to y**2, whose roots it
# cannot separate.  (y - 1)(y**2 - 2) - t: the top eigenvalue sqrt(2) at
# t = 0 is irrational, decided exactly by Descartes' rule of signs.
# ((y - 5/8 - t/8)**2 + 10**-400 t**2)(y - 3/8): the top pair 5/8 + t/8 +-
# 10**-200 i t is not real, which the exact count of the edge roots tells.
@pytest.mark.parametrize("payload, error", [
    ([[["0", "0"], ["-1e-400", "0"]], [], [["1", "0"]]],
     "error: cannot separate the roots at step 0 of 16\n"),
    ([[["2", "0"], ["-1", "0"]], [["-2", "0"]], [["-1", "0"]], [["1", "0"]]],
     "error: top eigenvalue at t = 0 is irrational: a root lies above the largest "
     "rational one, 1; exact shifting is unavailable\n"),
    ([[["-75/512", "0"], ["-15/256", "0"], [str(Fraction(-3, 512) - 3 * _EPS / 8), "0"]],
      [["55/64", "0"], ["1/4", "0"], [str(Fraction(1, 64) + _EPS), "0"]],
      [["-13/8", "0"], ["-1/4", "0"]], [["1", "0"]]],
     "error: no real branch tends to the top eigenvalue\n"),
], ids=["y2_minus_tiny_t", "irrational_top", "non_real_top_cluster"])
def test_polygon_refusals_print_one_plain_line(capsys, tmp_path, payload, error):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "smoothness", "--charpoly", "--path", str(path))
    assert (code, out, err) == (1, "", error)
