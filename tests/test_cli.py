"""End-to-end tests of the command-line interface.

Everything runs in-process through cli.main so exit codes and output files
can be asserted without spawning subprocesses.
"""

import json
import math
import re
import warnings

import pytest

from anisotetra import acceptance, cli
from anisotetra.verify import TetraGenSpec, generate


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_reference_element(capsys):
    report = run_json(
        ["analyze", "--tetra", "ref", "--gamma-max", "1.5708"], capsys
    )
    results = report["results"]
    assert report["schema_version"] == 1
    assert report["command"] == "analyze"
    assert results["geometry"]["R_T"] == pytest.approx(12.0, rel=1e-12)
    assert results["mac"]["satisfied"] is True
    assert results["classification"]["kind"] == 1


def test_analyze_explicit_vertices(capsys):
    report = run_json(
        ["analyze", "--vertices", "0,0,0 1,0,0 0,1,0 0,0,1"], capsys
    )
    assert report["results"]["geometry"]["volume"] == pytest.approx(1 / 6)


def test_analyze_tetra_file(tmp_path, capsys):
    path = tmp_path / "tet.txt"
    path.write_text("# comment\n0 0 0\n1 0 0  # inline\n0 1 0\n\n0 0 1\n")
    report = run_json(["analyze", "--tetra-file", str(path)], capsys)
    assert report["results"]["geometry"]["R_T"] == pytest.approx(12.0, rel=1e-12)


def test_analyze_missing_vertex_exits_2(capsys):
    code, _, err = run(["analyze", "--vertices", "0,0,0 1,0,0 0,1,0"], capsys)
    assert code == 2
    assert "--vertices" in err


def test_analyze_two_sources_exits_2(capsys):
    code, _, err = run(
        ["analyze", "--tetra", "ref", "--vertices", "0,0,0 1,0,0 0,1,0 0,0,1"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
def test_analyze_nonfinite_vertex_exits_2(capsys, bad):
    code, _, err = run(
        ["analyze", "--vertices", "0,0,0 1,0,0 0,1,0 0,0,%s" % bad], capsys
    )
    assert code == 2
    assert "finite" in err


def test_analyze_coplanar_exits_3(capsys):
    code, _, err = run(
        ["analyze", "--vertices", "0,0,0 1,0,0 0,1,0 1,1,0"], capsys
    )
    assert code == 3
    assert "degenerate" in err.lower()


def test_analyze_bad_gamma_exits_2(capsys):
    code, _, _ = run(
        ["analyze", "--tetra", "ref", "--gamma-max", "0.5"], capsys
    )
    assert code == 2


# ---------------------------------------------------------------------------
# error


def test_error_quadratic_expression(capsys):
    report = run_json(
        ["error", "--tetra", "ref", "--expr", "x^2",
         "--k", "1", "--m", "0", "--p", "2"],
        capsys,
    )
    results = report["results"]
    assert results["error"] > 0
    assert 0 < results["ratio"] < 1
    assert results["indeterminate"] is False


def test_error_corpus_field_sup_norm(capsys):
    report = run_json(
        ["error", "--tetra", "ref", "--field", "trig0",
         "--k", "2", "--m", "1", "--p", "inf"],
        capsys,
    )
    assert report["results"]["p"] == "inf"
    assert report["results"]["error"] > 0


def test_error_on_rotated_sliver_k4(capsys):
    t = generate(TetraGenSpec(family="sliver", seed=5), 5)[4]
    vertices = " ".join(",".join(repr(c) for c in point) for point in t.coords())
    report = run_json(
        ["error", "--vertices", vertices, "--expr", "sin(x+2*y+3*z)",
         "--k", "4", "--m", "1", "--p", "2"],
        capsys,
    )
    assert report["results"]["error"] > 0


def test_error_at_large_p_does_not_overflow(capsys):
    # |d^gamma v|^400 overflows a float; the seminorms scale their samples
    # first, so the ratio is finite and no numpy warning escapes.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_json(
            ["error", "--tetra", "ref", "--expr", "sin(3*x)",
             "--k", "2", "--m", "1", "--p", "400"],
            capsys,
        )
    assert math.isfinite(report["results"]["ratio"])


def test_error_unknown_field_exits_2(capsys):
    code, _, err = run(
        ["error", "--tetra", "ref", "--field", "nope",
         "--k", "1", "--m", "0", "--p", "2"],
        capsys,
    )
    assert code == 2
    assert "trig0" in err


def test_error_inadmissible_pc_exits_2(capsys):
    code, _, err = run(
        ["error", "--tetra", "ref", "--expr", "x^2",
         "--k", "1", "--m", "1", "--p", "2"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("p", ["2", "inf"])
def test_error_nonfinite_field_values_exit_4(capsys, p):
    # 1/x is infinite at the nodes on the face x = 0.  The diagnostic is the
    # only output: no numpy warning escapes the expression evaluation.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            ["error", "--tetra", "ref", "--expr", "1/x", "--k", "1", "--m", "0", "--p", p],
            capsys,
        )
    assert code == 4
    assert out == ""
    assert "not finite" in err


@pytest.mark.parametrize("degree", ["0", "21"])
def test_error_degree_out_of_range_exits_2(capsys, degree):
    code, out, err = run(
        ["error", "--tetra", "ref", "--expr", "x^2", "--k", "1", "--m", "0", "--p", "2",
         "--degree", degree],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "quadrature degree" in err


@pytest.mark.parametrize("degree", ["12", "30"])
def test_error_degree_at_p_inf_exits_2(capsys, degree):
    # p = inf samples a lattice, so a quadrature degree would go unused.
    code, out, err = run(
        ["error", "--tetra", "ref", "--expr", "x*x", "--k", "1", "--m", "0", "--p", "inf",
         "--degree", degree],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "finite p only" in err


def test_error_malformed_expression_caret(capsys):
    code, _, err = run(
        ["error", "--tetra", "ref", "--expr", "x^2 + )",
         "--k", "1", "--m", "0", "--p", "2"],
        capsys,
    )
    assert code == 2
    assert "^" in err.splitlines()[-1]


def test_error_needs_exactly_one_field_source(capsys):
    code, _, _ = run(
        ["error", "--tetra", "ref", "--k", "1", "--m", "0", "--p", "2"],
        capsys,
    )
    assert code == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_layout(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    report = run_json(
        ["sweep", "--k", "1", "--m", "0", "--p", "2",
         "--eps-levels", "4", "--csv", str(csv_path)],
        capsys,
    )
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1"  # schema_version
    assert first[1] == "0"  # level
    assert report["results"]["trend_ok"] is True


def test_sweep_rerun_is_byte_identical(tmp_path, capsys):
    argv = ["sweep", "--k", "1", "--m", "1", "--p", "3",
            "--eps-levels", "4"]
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    a_out, b_out = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(argv + ["--csv", str(a_csv), "--out", str(a_out)]) == 0
    assert cli.main(argv + ["--csv", str(b_csv), "--out", str(b_out)]) == 0
    capsys.readouterr()
    assert a_csv.read_bytes() == b_csv.read_bytes()
    assert a_out.read_bytes() == b_out.read_bytes()


def test_sweep_custom_alpha_pattern(capsys):
    report = run_json(
        ["sweep", "--k", "1", "--m", "0", "--p", "2",
         "--alphas", "1,1,eps", "--eps-levels", "3"],
        capsys,
    )
    rows = report["results"]["rows"]
    assert rows[2]["alpha"] == [1.0, 1.0, 0.25]


def test_sweep_bad_alpha_pattern_exits_2(capsys):
    code, _, _ = run(
        ["sweep", "--k", "1", "--m", "0", "--p", "2", "--alphas", "1,zap,eps"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("entry", ["0", "-1", "1.5"])
def test_sweep_alpha_out_of_range_exits_2(capsys, entry):
    code, out, err = run(
        ["sweep", "--k", "1", "--m", "0", "--p", "2",
         "--alphas", "1,%s,eps" % entry, "--eps-levels", "2"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "(0, 1]" in err


@pytest.mark.parametrize("levels", ["0", "-2"])
def test_sweep_nonpositive_eps_levels_exits_2(capsys, levels):
    code, _, err = run(
        ["sweep", "--k", "1", "--m", "0", "--p", "2", "--eps-levels", levels],
        capsys,
    )
    assert code == 2
    assert "--eps-levels" in err


# ---------------------------------------------------------------------------
# mac


def test_mac_right_angle_run_is_clean(capsys):
    report = run_json(
        ["mac", "--gamma-max", "1.5707963267948966", "--n", "200",
         "--seed", "3"],
        capsys,
    )
    results = report["results"]
    assert results["counterexamples"] == 0
    assert results["forward_checked"] == 200
    assert results["reverse_checked"] == 200
    assert results["d_bound"] == pytest.approx(15.678755578516522)


def test_mac_bad_env_seed_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("ANISOTETRA_SEED", "not-a-number")
    code, _, err = run(["mac", "--gamma-max", "1.5707963267948966", "--n", "10"], capsys)
    assert code == 2
    assert "ANISOTETRA_SEED" in err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_mac_nonpositive_n_exits_2(capsys, n):
    code, _, err = run(["mac", "--gamma-max", "1.5707963267948966", "--n", n], capsys)
    assert code == 2
    assert "--n" in err


def test_mac_invalid_gamma_exits_2(capsys):
    code, _, _ = run(["mac", "--gamma-max", "0.3", "--n", "10"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# selftest


def test_selftest_prints_wall_time_per_criterion(capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", (acceptance.criterion_9,))
    code, out, _ = run(["selftest"], capsys)
    assert code == 0
    assert re.fullmatch(r"criterion  9: PASS - .* \[\d+\.\d\d s\]\n", out)


# ---------------------------------------------------------------------------
# dq


def test_dq_worked_example(capsys):
    report = run_json(["dq", "--k", "4", "--delta", "2,1,1"], capsys)
    results = report["results"]
    assert results["term_count"] == 12
    assert results["expansion_ok"] is True
    from fractions import Fraction
    from math import comb
    for c in results["coefficients"]:
        i, j, l = c["eta"]
        want = Fraction((-1) ** (4 - i - j - l) * comb(2, i) * comb(1, j) * comb(1, l), 2)
        assert Fraction(c["numerator"], c["denominator"]) == want
    assert results["residual_quotient_max"] < 1e-9


def test_dq_first_order(capsys):
    report = run_json(["dq", "--k", "2", "--delta", "1,0,0"], capsys)
    coeffs = {tuple(c["eta"]): (c["numerator"], c["denominator"])
              for c in report["results"]["coefficients"]}
    assert coeffs == {(0, 0, 0): (-1, 1), (1, 0, 0): (1, 1)}


def test_dq_delta_validation(capsys):
    assert run(["dq", "--k", "2", "--delta", "0,0,0"], capsys)[0] == 2
    assert run(["dq", "--k", "2", "--delta", "1,-1,1"], capsys)[0] == 2
    assert run(["dq", "--k", "1", "--delta", "1,1,1"], capsys)[0] == 2
    assert run(["dq", "--k", "2", "--delta", "1,1"], capsys)[0] == 2


# ---------------------------------------------------------------------------
# output plumbing


def test_out_dash_writes_stdout(capsys):
    code, out, _ = run(["analyze", "--tetra", "tilde", "--out", "-"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["classification"]["kind"] == 2


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        ["analyze", "--tetra", "ref", "--out", str(path)], capsys
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["command"] == "analyze"


def test_floats_carry_17_significant_digits(capsys):
    _, out, _ = run(["analyze", "--tetra", "ref"], capsys)
    assert "0.70710678118654746" in out or "0.70710678118654757" in out


def test_unknown_flag_exits_nonzero(capsys):
    code, _, _ = run(["analyze", "--tetra", "ref", "--bogus", "1"], capsys)
    assert code == 2


def test_infinity_spelled_out(capsys):
    report = run_json(
        ["error", "--tetra", "ref", "--expr", "x^2",
         "--k", "1", "--m", "0", "--p", "inf"],
        capsys,
    )
    assert report["results"]["p"] == "inf"


def test_config_lists_every_option_once_in_declaration_order(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ANISOTETRA_SEED", "5")
    tetra = ["vertices", "tetra_file", "tetra"]
    cases = [
        (["analyze", "--tetra", "ref"], tetra + ["gamma_max"]),
        (["error", "--tetra", "ref", "--expr", "x*y", "--k", "1", "--m", "0", "--p", "2"],
         tetra + ["expr", "field", "k", "m", "p", "degree"]),
        (["sweep", "--k", "1", "--m", "0", "--p", "2", "--eps-levels", "2",
          "--csv", str(tmp_path / "sweep.csv")],
         ["k", "m", "p", "kind", "alphas", "eps_levels"]),
        (["mac", "--gamma-max", "1.5707963267948966", "--n", "5"], ["gamma_max", "n", "seed"]),
        (["dq", "--k", "2", "--delta", "1,0,0"], ["k", "delta"]),
    ]
    for argv, keys in cases:
        report = run_json(argv + ["--out", "-"], capsys)
        assert report["command"] == argv[0]
        assert list(report["config"]) == keys, argv[0]
    assert report["config"]["delta"] == "1,0,0"
    mac = run_json(cases[3][0], capsys)
    assert mac["config"]["seed"] == 5  # the resolved seed, not the absent --seed
