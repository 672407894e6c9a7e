"""End-to-end CLI tests: exit codes, report structure, CSV output, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qpmaps import QPFlow, QPMap, State, model_document, save_model
from qpmaps.cli import main
from qpmaps.errors import IllConditionedBlockError
from qpmaps.linalg import RationalMatrix

M = RationalMatrix.from_rows
ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out: str) -> dict:
    return json.loads(out)


@pytest.fixture
def worked_model(tmp_path):
    qp = QPMap(lam=(1, Fraction(1, 2), 0),
               A=M([[1, -1, 0], [0, 1, -1], [0, 0, 0]]),
               B=M([[1, 1, 1], [1, 1, 0], [1, 0, 0]]))
    path = tmp_path / "worked.json"
    save_model(qp, path, name="worked-reduction-example")
    return str(path)


@pytest.fixture
def lv_model(tmp_path):
    qp = QPMap(lam=(1, 1), A=M([[-1, 0], [0, -2]]), B=RationalMatrix.identity(2))
    path = tmp_path / "lv.json"
    save_model(qp, path, initial=State((1.0, 0.5)))
    return str(path)


@pytest.fixture
def flow_model(tmp_path):
    flow = QPFlow(lam_star=(1,), A_star=M([[-1]]), B=M([[1]]))
    path = tmp_path / "flow.json"
    save_model(flow, path, initial=State((0.5,)))
    return str(path)


def test_reduce_worked_example(capsys, worked_model):
    code, out, _ = run_cli(capsys, "reduce", worked_model)
    assert code == 0
    rep = report_of(out)
    assert rep["command"] == "reduce"
    assert rep["results"]["final"]["B"] == [["1", "1"], ["1", "0"]]
    certs = rep["results"]["rank_certificates"]
    assert certs["rank_B"] == certs["rank_M"] == certs["n"] == 2
    assert rep["results"]["steps"][0]["kind"] == "step3"
    assert rep["results"]["constants_of_motion"][0]["exponents"] == ["0", "0", "1"]


def test_reduce_with_initial_flag(capsys, worked_model):
    code, out, _ = run_cli(capsys, "reduce", worked_model,
                           "--initial", "1.0,1.0,2.0")
    assert code == 0
    rep = report_of(out)
    assert rep["results"]["steps"][0]["q_factors"] == ["2", "1", "1"]
    assert rep["results"]["constants_of_motion"][0]["value"] == 2.0


def test_reduce_nonredundant_reports_noop(capsys, lv_model):
    code, out, _ = run_cli(capsys, "reduce", lv_model)
    assert code == 0
    rep = report_of(out)
    assert rep["results"]["already_nonredundant"] is True
    assert rep["results"]["steps"] == []


def test_reduce_rejects_bad_rational(capsys, tmp_path):
    doc = {"kind": "map", "n": 1, "m": 1, "lambda": ["1"],
           "A": [["1/0"]], "B": [["1"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "reduce", str(path))
    assert code == 2
    assert "A[0][0]" in err


def test_reduce_rejects_flow_file(capsys, flow_model):
    code, _, err = run_cli(capsys, "reduce", flow_model)
    assert code == 2
    assert "kind" in err


def test_canonical_identity_input(capsys, lv_model):
    code, out, _ = run_cli(capsys, "canonical", lv_model)
    assert code == 0
    rep = report_of(out)
    assert rep["exact_checks"]["B_is_identity"] is True
    assert rep["exact_checks"]["lv_matrix_equals_BM"] is True
    assert rep["results"]["constants_of_motion"] == []


def test_canonical_counts_constants(capsys, tmp_path):
    qp = QPMap(lam=(Fraction(1, 4),), A=M([[Fraction(-1, 4), Fraction(-1, 8)]]),
               B=M([[1], [2]]))
    path = tmp_path / "wide.json"
    save_model(qp, path)
    code, out, _ = run_cli(capsys, "canonical", str(path))
    assert code == 0
    rep = report_of(out)
    assert rep["results"]["embedded"] is True
    assert len(rep["results"]["constants_of_motion"]) == 1


def test_canonical_redundant_exits_3(capsys, tmp_path):
    qp = QPMap(lam=(1, 1), A=M([[1, 0], [0, 1]]), B=M([[1, 2], [2, 4]]))
    path = tmp_path / "redundant.json"
    save_model(qp, path)
    code, _, err = run_cli(capsys, "canonical", str(path))
    assert code == 3
    assert "reduce" in err


def test_same_class_self_and_transformed(capsys, tmp_path, lv_model):
    code, out, _ = run_cli(capsys, "same-class", lv_model, lv_model)
    assert code == 0
    rep = report_of(out)
    assert rep["results"]["same_class"] is True
    assert rep["results"]["transform_C"] == [["1", "0"], ["0", "1"]]

    from qpmaps import QMTransform, apply_qm, load_model
    qp = load_model(lv_model).model
    t = QMTransform(M([[1, 1], [0, 1]]))
    mapped = apply_qm(qp, t)
    other = tmp_path / "mapped.json"
    save_model(mapped, other)
    code, out, _ = run_cli(capsys, "same-class", lv_model, str(other))
    assert code == 0
    rep = report_of(out)
    assert rep["results"]["same_class"] is True
    assert rep["results"]["transform_C"] == [["1", "1"], ["0", "1"]]


def test_same_class_mismatched_m_exits_3(capsys, tmp_path, lv_model):
    qp = QPMap(lam=(1, 1), A=M([[-1, 0, 0], [0, -2, 0]]),
               B=M([[1, 0], [0, 1], [1, 1]]))
    path = tmp_path / "wider.json"
    save_model(qp, path)
    code, _, err = run_cli(capsys, "same-class", lv_model, str(path))
    assert code == 3
    assert "DimensionMismatch" in err


def test_simulate_fixed_point_csv(capsys, tmp_path, lv_model):
    csv_path = tmp_path / "orbit.csv"
    code, out, _ = run_cli(capsys, "simulate", lv_model, "--steps", "5",
                           "--initial", "1.0,0.5", "--out", str(csv_path))
    assert code == 0
    rep = report_of(out)
    assert rep["results"]["steps_completed"] == 5
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "p,x1,x2"
    assert len(lines) == 7
    for line in lines[1:]:
        p, x1, x2 = line.split(",")
        assert float(x1) == pytest.approx(1.0, rel=1e-12)
        assert float(x2) == pytest.approx(0.5, rel=1e-12)


def test_simulate_requires_out(capsys, lv_model):
    code, _, err = run_cli(capsys, "simulate", lv_model, "--steps", "3",
                           "--initial", "1.0,0.5")
    assert code == 2
    assert "--out" in err


def test_simulate_divergence_truncates(capsys, tmp_path):
    runaway = QPMap(lam=(5,), A=M([[5]]), B=M([[1]]))
    path = tmp_path / "runaway.json"
    save_model(runaway, path)
    csv_path = tmp_path / "runaway.csv"
    code, out, _ = run_cli(capsys, "simulate", str(path), "--steps", "100",
                           "--initial", "10.0", "--out", str(csv_path))
    assert code == 4
    rep = report_of(out)
    assert rep["results"]["diverged_at_step"] is not None
    k = rep["results"]["diverged_at_step"]
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + k  # header + states 0 .. k-1


def test_discretize_schemes_and_analyses(capsys, flow_model):
    code, out, _ = run_cli(
        capsys, "discretize", flow_model, "--eps", "1/10",
        "--analysis", "divergence", "--analysis", "fixed-point",
        "--analysis", "commutativity", "--horizon", "1.0")
    assert code == 0
    rep = report_of(out)
    qp_map = rep["results"]["qp_map"]
    assert qp_map["lambda"] == ["1/10"]
    assert qp_map["A"] == [["-1/10"]]
    assert rep["results"]["euler_map"]["lambda"] == ["1/10"]
    assert rep["results"]["fixed_point"]["status"] == "ok"
    assert rep["results"]["fixed_point"]["euler_fixes_point"] is True
    assert rep["results"]["fixed_point"]["jacobians_match"] is True
    div = rep["results"]["divergence"]
    assert len(div["times"]) == 11
    table = rep["results"]["commutativity"]
    assert any(row["family"] == "qp-exp" and row["commutes"] for row in table)
    assert any(row["family"].startswith("power-base") and row["commutes"]
               for row in table)
    assert any(row["family"] == "euler-add" and not row["commutes"]
               and row["max_discrepancy"] > 0 for row in table)


def test_discretize_decimal_eps_is_exact(capsys, flow_model):
    code, out, _ = run_cli(capsys, "discretize", flow_model, "--eps", "0.02",
                           "--scheme", "qp")
    assert code == 0
    rep = report_of(out)
    assert rep["results"]["qp_map"]["lambda"] == ["1/50"]


def test_discretize_euler_only_scheme(capsys, flow_model):
    code, out, _ = run_cli(capsys, "discretize", flow_model, "--eps", "1/4",
                           "--scheme", "euler")
    assert code == 0
    rep = report_of(out)
    assert "qp_map" not in rep["results"]
    assert rep["results"]["euler_map"]["lambda"] == ["1/4"]


def test_discretize_bad_eps(capsys, flow_model):
    code, _, err = run_cli(capsys, "discretize", flow_model, "--eps", "0")
    assert code == 2
    assert "--eps" in err


def test_reports_are_deterministic(capsys, worked_model, flow_model):
    def strip_timing(rep):
        rep = dict(rep)
        rep.pop("timing")
        return rep

    for args in (("reduce", worked_model),
                 ("discretize", flow_model, "--eps", "1/10",
                  "--analysis", "commutativity")):
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert strip_timing(report_of(out1)) == strip_timing(report_of(out2))


def test_report_roundtrips_losslessly(capsys, worked_model):
    _, out, _ = run_cli(capsys, "reduce", worked_model)
    rep = report_of(out)
    assert json.loads(json.dumps(rep)) == rep


def test_out_flag_writes_report(capsys, tmp_path, worked_model):
    dest = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "reduce", worked_model, "--out", str(dest))
    assert code == 0
    assert json.loads(dest.read_text()) == report_of(out)


def test_discretize_empty_flow_runs_every_analysis(capsys, tmp_path):
    flow = QPFlow(lam_star=(), A_star=RationalMatrix.zeros(0, 0),
                  B=RationalMatrix.zeros(0, 0))
    path = tmp_path / "empty.json"
    save_model(flow, path, initial=State(()))
    code, out, err = run_cli(
        capsys, "discretize", str(path), "--eps", "1/10",
        "--analysis", "divergence", "--analysis", "fixed-point",
        "--analysis", "commutativity")
    assert code == 0, err
    results = report_of(out)["results"]
    assert results["divergence"]["sup_diffs"] == [0.0] * 11
    assert results["fixed_point"]["fixed_point"] == []
    assert results["fixed_point"]["euler_residual"] == 0.0
    assert results["fixed_point"]["jacobian_max_diff"] == 0.0
    assert all(row["commutes"] for row in results["commutativity"])


@pytest.mark.parametrize("steps", ["-3", "1000001"])
def test_simulate_rejects_bad_step_counts(capsys, tmp_path, lv_model, steps):
    from qpmaps.cli import MAX_STEPS

    assert MAX_STEPS >= 10**6
    csv_path = tmp_path / "orbit.csv"
    code, out, err = run_cli(capsys, "simulate", lv_model, "--steps", steps,
                             "--initial", "1.0,0.5", "--out", str(csv_path))
    assert code == 2
    assert out == "" and "--steps" in err
    assert not csv_path.exists()


@pytest.mark.parametrize("horizon", ["-5", "inf", "nan"])
def test_discretize_rejects_bad_horizon(capsys, flow_model, horizon):
    code, out, err = run_cli(capsys, "discretize", flow_model, "--eps", "1/10",
                             "--horizon", horizon)
    assert code == 2
    assert out == "" and "--horizon" in err


def test_discretize_caps_steps_from_horizon(capsys, flow_model):
    args = ("discretize", flow_model, "--eps", "1/1000000000",
            "--horizon", "1e9")
    code, out, err = run_cli(capsys, *args, "--analysis", "divergence")
    assert code == 2
    assert out == "" and "--horizon" in err
    # without an orbit to run, the horizon sets no run length
    code, _, _ = run_cli(capsys, *args)
    assert code == 0


def test_reduce_factor_beyond_the_float_range_exits_4(capsys, tmp_path):
    # x2 is conserved and enters as x2**3; at x2 = 1e300 the step-3 factor
    # is past the largest double
    qp = QPMap(lam=(Fraction(1, 2), 0), A=M([[-1, 1], [0, 0]]),
               B=M([[1, 0], [0, 3]]))
    path = tmp_path / "cube.json"
    save_model(qp, path, initial=State((1.0, 1e300)))
    code, out, err = run_cli(capsys, "reduce", str(path))
    assert code == 4
    assert out == "" and "divergence" in err and "Traceback" not in err


def test_any_library_error_exits_3_with_one_line(capsys, lv_model,
                                                monkeypatch):
    import qpmaps.cli

    def failing(*args):
        raise IllConditionedBlockError("conserved rows did not vanish")

    monkeypatch.setattr(qpmaps.cli, "reduce_map", failing)
    code, out, err = run_cli(capsys, "reduce", lv_model)
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "qpmaps: IllConditionedBlockError: conserved rows did not vanish"]


def test_discretize_without_computable_probes_exits_3(capsys, tmp_path):
    # eps * lam = -100 sends every Euler probe out of the positive orthant
    flow = QPFlow(lam_star=(-100,), A_star=M([[0]]), B=M([[1]]))
    path = tmp_path / "steep.json"
    save_model(flow, path)
    code, out, err = run_cli(capsys, "discretize", str(path), "--eps", "1",
                             "--analysis", "commutativity")
    assert code == 3
    assert out == "" and "no probe state" in err


def test_simulate_divergence_runs_the_orbit_once(capsys, tmp_path,
                                                 monkeypatch):
    import qpmaps.maps

    calls = []
    real_step = qpmaps.maps.step

    def counting_step(*args, **kwargs):
        calls.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(qpmaps.maps, "step", counting_step)
    # x' = x exp(x) from 5 diverges at step 2
    path = tmp_path / "fast.json"
    save_model(QPMap(lam=(0,), A=M([[1]]), B=M([[1]])), path)
    csv_path = tmp_path / "fast.csv"
    code, out, _ = run_cli(capsys, "simulate", str(path), "--steps", "10",
                           "--initial", "5.0", "--out", str(csv_path))
    assert code == 4
    assert report_of(out)["results"]["diverged_at_step"] == 2
    assert len(csv_path.read_text().strip().splitlines()) == 1 + 2
    assert len(calls) == 2


@pytest.mark.parametrize("eps, horizon", [("1e-400", "0"), ("1e400", "1")])
def test_discretize_extreme_time_steps_count_steps_exactly(capsys, flow_model,
                                                           eps, horizon):
    # horizon / eps is 0 in both cases, though float(eps) is 0 or inf
    code, out, err = run_cli(capsys, "discretize", flow_model, "--eps", eps,
                             "--horizon", horizon, "--analysis", "divergence")
    assert code == 0, err
    assert report_of(out)["results"]["divergence"]["times"] == [0.0]


# rejected --initial values and model-file `initial` entries, for n = 2
BAD_INITIALS = {
    "wrong count": ("1.0,0.5,0.25", ["1.0", "0.5", "0.25"]),
    "non-numeric": ("1.0,abc", ["1.0", "abc"]),
    "nonpositive": ("1.0,-0.5", ["1.0", "-0.5"]),
    "empty field": ("1.0,,0.5", ["1.0", ""]),
}


@pytest.mark.parametrize("row", sorted(BAD_INITIALS))
@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("command", ["reduce", "simulate", "discretize"])
def test_bad_initial_state_exits_2(capsys, tmp_path, command, source, row):
    flag_value, file_value = BAD_INITIALS[row]
    if command == "discretize":
        system = QPFlow(lam_star=(1, 1), A_star=M([[-1, 0], [0, -1]]),
                        B=RationalMatrix.identity(2))
        extra = ["--eps", "1/10", "--analysis", "divergence"]
    else:
        system = QPMap(lam=(1, 1), A=M([[-1, 0], [0, -2]]),
                       B=RationalMatrix.identity(2))
        extra = (["--steps", "3", "--out", str(tmp_path / "orbit.csv")]
                 if command == "simulate" else [])
    doc = model_document(system)
    if source == "file":
        doc["initial"] = file_value
    else:
        extra += ["--initial", flag_value]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, str(path), *extra)
    assert code == 2
    assert out == ""
    assert ("--initial" if source == "flag" else ": initial") in err


def test_main_looks_up_the_simulate_command_by_name(capsys, tmp_path,
                                                     lv_model, monkeypatch):
    # a tracer wraps the module attribute and reads the report it returns
    import qpmaps.cli

    returned = []
    real = qpmaps.cli._cmd_simulate

    def counting(args):
        returned.append(real(args))
        return returned[-1]

    monkeypatch.setattr(qpmaps.cli, "_cmd_simulate", counting)
    code, _, _ = run_cli(capsys, "simulate", lv_model, "--steps", "5",
                         "--out", str(tmp_path / "orbit.csv"))
    assert code == 0
    assert len(returned) == 1
    assert returned[0][0]["results"]["steps_completed"] == 5


def test_discretize_tolerances_are_the_library_constants(capsys, flow_model):
    from qpmaps.discretization import EULER_FIXED_POINT_TOL, JACOBIAN_MATCH_TOL

    _, out, _ = run_cli(capsys, "discretize", flow_model, "--eps", "1/10")
    assert report_of(out)["tolerances"] == {
        "euler_fixed_point": EULER_FIXED_POINT_TOL,
        "jacobian_match": JACOBIAN_MATCH_TOL,
    }


def test_discretize_checks_initial_without_an_orbit(capsys, flow_model):
    # no analysis reads the state, but a malformed flag is still an error
    code, out, err = run_cli(capsys, "discretize", flow_model, "--eps", "1/10",
                             "--initial", "abc")
    assert code == 2
    assert out == "" and "--initial" in err


@pytest.mark.parametrize("lam_star, scheme", [(-30, "euler"), (8000, "qp")])
def test_discretize_reports_the_escaped_scheme(capsys, tmp_path, lam_star,
                                               scheme):
    # at eps 1/10, 1 + eps lam* = -2 leaves the orthant; eps lam* = 800 is
    # past the exponent bound of 700
    flow = QPFlow(lam_star=(lam_star,), A_star=M([[0]]), B=M([[1]]))
    path = tmp_path / "escaping.json"
    save_model(flow, path, initial=State((1.0,)))
    code, out, _ = run_cli(capsys, "discretize", str(path), "--eps", "1/10",
                           "--analysis", "divergence")
    assert code == 4
    escaped = report_of(out)["results"]["divergence"]["escaped"]
    assert (escaped["scheme"], escaped["step"]) == (scheme, 1)


HUGE_FLOW = {"kind": "flow", "n": 1, "m": 1, "lambda": ["1e400"],
             "A": [["-1"]], "B": [["1"]], "initial": ["0.5"]}
# the worked 3-variable map with the exponent B[0][2] past the float range
WIDE_EXPONENT_MAP = {
    "kind": "map", "n": 3, "m": 3, "lambda": ["1/4", "1/4", "0"],
    "A": [["-1/4", "0", "0"], ["0", "-1/4", "0"], ["0", "0", "0"]],
    "B": [["1", "1", "1e400"], ["1", "1", "0"], ["1", "0", "0"]]}
# x3 is conserved; the transform that decouples it has an entry 1e400
WIDE_COEFFICIENT_MAP = {
    "kind": "map", "n": 3, "m": 3, "lambda": ["1", "2", "1e400"],
    "A": [["1", "0", "0"], ["0", "1", "0"], ["1e400", "0", "0"]],
    "B": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
# the fixed point x = 1 is finite, but lambda and A have no float form
HUGE_COEFFICIENT_FLOW = {"kind": "flow", "n": 1, "m": 1, "lambda": ["1e400"],
                         "A": [["-1e400"]], "B": [["1"]]}
MODEL_FILES = {"huge.json": HUGE_FLOW, "wide_b.json": WIDE_EXPONENT_MAP,
               "wide_a.json": WIDE_COEFFICIENT_MAP,
               "huge_coefficients.json": HUGE_COEFFICIENT_FLOW}

# (argv, QP_SEED, exit code, text on stderr); "{tmp}" is a scratch directory.
# A run with text on stderr prints no report.
FAILING_RUNS = {
    "report to a missing directory": (
        ["reduce", "models/lv_2d.json", "--out", "{tmp}/missing/r.json"],
        None, 2, "missing/r.json"),
    "orbit to a missing directory": (
        ["simulate", "models/lv_2d.json", "--steps", "3",
         "--out", "{tmp}/missing/o.csv"], None, 2, "missing/o.csv"),
    "non-integer seed": (
        ["discretize", "models/logistic_flow.json", "--eps", "1/10"],
        "abc", 2, "QP_SEED"),
    "fixed point past the float range": (
        ["discretize", "{tmp}/huge.json", "--eps", "1/10",
         "--analysis", "fixed-point"], None, 0, ""),
    "fixed point of coefficients past the float range": (
        ["discretize", "{tmp}/huge_coefficients.json", "--eps", "1/10",
         "--analysis", "fixed-point"], None, 0, ""),
    "orbit past the float range": (
        ["discretize", "{tmp}/huge.json", "--eps", "1/10",
         "--analysis", "divergence"], None, 4, ""),
    "exponent past the float range with an initial state": (
        ["reduce", "{tmp}/wide_b.json", "--initial", "1.3,0.7,2.1"],
        None, 4, "qpmaps: divergence:"),
    "transform entry past the float range with an initial state": (
        ["reduce", "{tmp}/wide_a.json", "--initial", "1,2,3"],
        None, 4, "qpmaps: divergence:"),
}


@pytest.mark.parametrize("case", sorted(FAILING_RUNS))
def test_failures_exit_with_one_line_and_no_traceback(tmp_path, case):
    argv, seed, want_code, want_err = FAILING_RUNS[case]
    for name, model in MODEL_FILES.items():
        (tmp_path / name).write_text(json.dumps(model))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("QP_SEED", None)
    if seed is not None:
        env["QP_SEED"] = seed
    run = subprocess.run(
        [sys.executable, "-m", "qpmaps.cli",
         *[a.format(tmp=tmp_path) for a in argv]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == want_code, run.stderr
    assert "Traceback" not in run.stderr
    if want_err:
        assert run.stdout == ""
        assert len(run.stderr.splitlines()) == 1 and want_err in run.stderr
    else:
        assert run.stderr == ""
        if "fixed-point" in argv:
            fixed = report_of(run.stdout)["results"]["fixed_point"]
            assert fixed["status"] == "skipped"
            # no golden report covers the skipped section
            assert list(fixed) == [
                "status", "reason", "fixed_point", "euler_residual",
                "jacobian_max_diff", "euler_fixes_point", "jacobians_match"]
            assert list(fixed.values())[2:] == [None] * 5
    assert not (tmp_path / "missing").exists()
