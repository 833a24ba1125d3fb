import json
import warnings
from typing import NamedTuple

import numpy as np
import pytest

from finslerlab.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_zoo_lists_five(capsys):
    assert run_cli("zoo") == 0
    out = capsys.readouterr().out
    assert "built-in metrics (5)" in out
    for metric_id in ("euclidean", "riemannian", "minkowski_quartic", "randers", "funk_ball"):
        assert metric_id in out
    assert "||b(x)|| < 1" in out


def test_curvature_funk(tmp_path):
    out = tmp_path / "curv.json"
    code = run_cli(
        "curvature", "--metric", "funk_ball", "--dim", "3",
        "--x", "0,0,0", "--y", "0,0,2", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    q = doc["quantities"]
    assert q["F"] == pytest.approx(2.0)
    assert q["S"] == pytest.approx(4.0, abs=1e-6)
    assert doc["fibre"]["e"] == pytest.approx(4.0, abs=1e-5)


def test_curvature_euclidean_zeros(tmp_path):
    out = tmp_path / "curv.json"
    assert run_cli(
        "curvature", "--metric", "euclidean", "--dim", "3",
        "--x", "0,0,0", "--y", "1,2,2", "--out", str(out),
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["quantities"]["F"] == pytest.approx(3.0)
    assert doc["quantities"]["S"] == pytest.approx(0.0, abs=1e-12)
    assert max(map(abs, sum(doc["quantities"]["cartan"][0], []))) <= 1e-12


def test_curvature_zero_y_is_input_error(capsys):
    # 1e-200 is not 0.0, but the norm of the direction underflows to 0.0
    for y in ("0,0,0", "1e-200,0,0"):
        code = run_cli(
            "curvature", "--metric", "euclidean", "--dim", "3", "--x", "0,0,0", "--y", y
        )
        assert code == 2
        assert capsys.readouterr().err == "error: y: y must be nonzero\n"


@pytest.mark.parametrize(
    "metric,field,x,y",
    [("euclidean", "x", "nan,0,0", "1,0,0"), ("randers", "y", "0,0,0", "inf,0,0")],
)
def test_curvature_point_that_is_not_finite_exits_2(capsys, metric, field, x, y):
    code = run_cli("curvature", "--metric", metric, "--dim", "3", "--x", x, "--y", y)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: expected finite numbers")


@pytest.mark.parametrize(
    "metric, param, name",
    [
        (["--metric", "randers", "--dim", "3"], "eps=nan", "eps"),
        (["--metric", "randers", "--dim", "3"], "eps=inf", "eps"),
        (["--metric-expr", "sqrt(y1^2+y2^2+y3^2) + k*y1", "--dim", "3"], "k=nan", "k"),
        (["--metric", "riemannian", "--dim", "3"], "a_diag=1,nan,1", "a_diag"),
    ],
    ids=["randers-eps-nan", "randers-eps-inf", "expr-nan", "riemannian-a-diag-nan"],
)
def test_metric_parameter_that_is_not_finite_exits_2(capsys, metric, param, name):
    point = ["--x", "0.1,0,0", "--y", "1,0,0"]
    assert run_cli("curvature", *metric, "--params", param, *point) == 2
    assert capsys.readouterr().err.startswith(f"error: params: {name}: expected a finite number")


def test_randers_form_whose_norm_overflows_a_dot_product_exits_2_without_a_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(
            "check", "--metric", "randers", "--dim", "3", "--params", "eps=1e308",
            "--samples", "1", "--base-points", "1",
        )
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: metric: Randers condition ||b(x)|| < 1 violated: norm 5.01378e+307 at x = "
    )


@pytest.mark.parametrize("params", [["b0=0.1,0,0"], ["b0=0.1,0,0", "eps=0"]], ids=["with-x", "without-x"])
def test_randers_with_a_constant_form_b0_checks_clean(tmp_path, params):
    out = tmp_path / "report.json"
    code = run_cli(
        "check", "--metric", "randers", "--dim", "3", "--params", *params,
        "--samples", "4", "--base-points", "2", "--out", str(out),
    )
    assert code == 0
    assert all(check["pass"] for check in json.loads(out.read_text())["checks"])


def test_randers_form_b0_outside_the_unit_ball_exits_2(capsys):
    code = run_cli("check", "--metric", "randers", "--dim", "3", "--params", "b0=1.5,0,0", "eps=0")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: metric: Randers condition ||b(x)|| < 1 violated: norm 1.5 at x = ")


def test_non_homogeneous_expression_exits_2(capsys):
    code = run_cli("check", "--metric-expr", "y1 + y2^2", "--dim", "2")
    assert code == 2
    assert "homogeneous" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source,err",
    [
        (["--metric-expr", "sqrt(y1^2+y2^2)^10^400"], "metric: exponent chain does not fold to a finite real at offset 16"),
        (["--metric-expr", "sqrt(y1^2+y2^2)^(-0)^(-1)"], "metric: exponent chain does not fold to a finite real at offset 16"),
        (["--metric-expr", "sqrt(y1^2+y2^2)^(-8)^0.5"], "metric: exponent chain does not fold to a finite real at offset 16"),
        (["--metric-expr", "sqrt(y1^2+y2^2)^1e400"], "metric: numeric literal 1e400 overflows at offset 16"),
        (
            ["--metric-expr", "sqrt(y1^2+y2^2)", "--volume", "expr:exp(x1)^1e400"],
            "volume: numeric literal 1e400 overflows at offset 8",
        ),
        (["--metric-expr", "sqrt(y1^2+y2^2)", "--volume", "expr:1e400"], "volume: numeric literal 1e400 overflows at offset 0"),
    ],
    ids=["overflow", "zero-division", "complex", "exponent-literal", "volume-exponent", "volume-literal"],
)
def test_expression_that_is_not_a_finite_real_exits_2(capsys, source, err):
    """A literal that overflows, or an exponent chain that folds to no finite
    real, is a parse error at its offset, not a traceback or an infinite tau;
    it is labelled by the expression it is in."""
    code = run_cli("curvature", "--dim", "2", "--x", "0,0", "--y", "1,0", *source)
    assert code == 2
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize(
    "volume,err",
    [
        ("expr:x1+", "unexpected 'end of input' at offset 3 (expected an operand)"),
        ("expr:y1", "the volume coefficient may only depend on x"),
        ("simplex", "unknown volume form kind 'simplex'"),
    ],
    ids=["parse", "y-dependent", "kind"],
)
def test_a_volume_the_model_refuses_is_labelled_volume(capsys, volume, err):
    """Every fault of the volume form at model construction names the volume,
    not the metric, whose F is fine."""
    metric = ["--metric-expr", "sqrt(y1^2+y2^2)", "--dim", "2", "--volume", volume]
    for argv in (["curvature", "--x", "0,0", "--y", "1,0"], ["check", "--samples", "1", "--base-points", "1"]):
        assert run_cli(*argv, *metric) == 2
        assert capsys.readouterr().err == f"error: volume: {err}\n"


def test_conflicting_metric_flags(capsys):
    code = run_cli("check", "--metric", "euclidean", "--metric-expr", "y1", "--dim", "2")
    assert code == 2
    assert "metric" in capsys.readouterr().err


def test_unknown_metric(capsys):
    code = run_cli("check", "--metric", "nope", "--dim", "3")
    assert code == 2
    assert "unknown metric id" in capsys.readouterr().err


def test_check_small_suite_passes(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        "check", "--metric", "funk_ball", "--dim", "3",
        "--samples", "4", "--base-points", "2", "--seed", "9", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "1"
    tags = [c["tag"] for c in doc["checks"]]
    assert tags == ["eq-1.11", "eq-1.12", "eq-2.1", "eq-2.2"]
    for check in doc["checks"]:
        assert check["pass"]
        assert len(check["points"]) == 8


@pytest.mark.parametrize(
    "args",
    [
        ["check", "--metric", "randers", "--dim", "3", "--samples", "5"],
        # two base points: the second samples its fibre after the first's
        ["audit", "--metric", "funk_ball", "--dim", "3", "--samples", "4"],
    ],
    ids=["check", "audit"],
)
def test_check_reports_are_byte_identical(tmp_path, args):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = [*args, "--base-points", "2", "--seed", "42"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_check_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = run_cli(
        "check", "--metric", "euclidean", "--dim", "2",
        "--samples", "3", "--base-points", "2", "--seed", "1",
        "--format", "csv", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tag,base,fibre,residual,tolerance,pass"
    assert len(lines) == 1 + 4 * 6  # four checks, 2x3 points each


def test_check_tolerance_flag_can_fail(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        "check", "--metric", "randers", "--dim", "3",
        "--samples", "2", "--base-points", "1", "--seed", "1",
        "--tol-eq-2.1", "1e-30", "--out", str(out),
    )
    assert code == 1
    doc = json.loads(out.read_text())
    by_tag = {c["tag"]: c for c in doc["checks"]}
    assert not by_tag["eq-2.1"]["pass"]


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "metric": "euclidean", "dim": 2, "samples": 2, "base_points": 1, "seed": 3,
    }))
    out = tmp_path / "report.json"
    code = run_cli("check", "--config", str(config), "--seed", "7", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == 7
    assert doc["config"]["dim"] == 2


def test_audit_funk(tmp_path):
    out = tmp_path / "audit.json"
    code = run_cli(
        "audit", "--metric", "funk_ball", "--dim", "3",
        "--samples", "8", "--base-points", "2", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["audits"]) == 2
    for record in doc["audits"]:
        assert record["schur"]["verdict"] == "isotropic-and-constant"
        assert record["schur"]["tag"] == "thm-1"
        assert record["weak_isotropy"]["c"] == pytest.approx(2.0, abs=1e-5)


def test_audit_reports_a_violation_and_exits_1(tmp_path, monkeypatch):
    """A planted defect: every point reads as isotropic, while the Berwald
    scalar of randers varies along each fibre."""
    from finslerlab import checks

    monkeypatch.setattr(checks, "isotropy_residual", lambda fj: np.zeros(len(fj.points)))
    out = tmp_path / "audit.json"
    code = run_cli(
        "audit", "--metric", "randers", "--dim", "3", "--samples", "4", "--base-points", "2", "--out", str(out),
    )
    assert code == 1
    audits = json.loads(out.read_text())["audits"]
    assert [record["schur"]["verdict"] for record in audits] == ["VIOLATION", "VIOLATION"]
    assert all(record["schur"]["e_spread"] > record["schur"]["tol_constancy"] for record in audits)


def test_audit_randers_non_isotropy_is_a_finding_not_a_failure(tmp_path):
    out = tmp_path / "audit.json"
    code = run_cli(
        "audit", "--metric", "randers", "--dim", "3",
        "--samples", "8", "--base-points", "1", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["audits"][0]["schur"]["verdict"] == "non-isotropic"


def test_missing_dim_is_input_error(capsys):
    code = run_cli("check", "--metric", "euclidean")
    assert code == 2
    assert "dim" in capsys.readouterr().err


class _Under(NamedTuple):
    """A config value given for another metric than the default randers."""

    metric: dict
    value: object


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("check", "dim", "three"),
        ("check", "seed", "zero"),
        ("check", "samples", "many"),
        ("check", "base_points", [2]),
        ("check", "tol_eq_2_1", "tiny"),
        ("check", "tol_eq_2_2", "tiny"),
        ("check", "tol_eq_1_11", "tiny"),
        ("check", "tol_eq_1_12", "tiny"),
        ("check", "tol_thm_1", "tiny"),
        ("audit", "dim", "three"),
        ("audit", "seed", "zero"),
        ("audit", "samples", "many"),
        ("audit", "base_points", [2]),
        ("audit", "tol_thm_1", "tiny"),
        ("check", "params", 7),
        ("check", "params", ["eps=1", 2]),
        ("check", "metric_expr", 5),
        ("check", "volume", 3),
        ("check", "out", 7),
        ("check", "samples", 2.5),
        ("audit", "samples", 2.5),
        ("audit", "base_points", True),
        ("check", "samples", 0),
        ("audit", "base_points", 0),
        ("check", "params", {"eps": [1]}),
        ("check", "params", {"eps": {}}),
        ("check", "params", {"b0": 5}),
        ("check", "params", _Under({"metric_expr": "sqrt(y1^2 + y2^2 + y3^2) + k*y1"}, {"k": [1]})),
        ("check", "params", _Under({"metric": "riemannian"}, {"a_diag": "x"})),
        ("check", "seed", -1),
        ("audit", "seed", -1),
        ("check", "tol_eq_2_1", -1.0),
        ("check", "tol_eq_1_12", 0),
        ("audit", "tol_thm_1", -1e-3),
        ("audit", "tol_thm_1", 0.0),
    ],
)
def test_badly_typed_config_value_exits_2(tmp_path, capsys, command, field, value):
    base = {"metric": "randers"}
    if isinstance(value, _Under):
        base, value = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**base, "dim": 3, field: value}))
    assert run_cli(command, "--config", str(config)) == 2
    assert f"error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "command,flag,field",
    [("check", "--tol-eq-2.1", "tol_eq_2_1"), ("audit", "--tol-thm-1", "tol_thm_1")],
)
def test_tolerance_flag_that_is_not_finite_exits_2(capsys, command, flag, field, value):
    assert run_cli(command, "--metric", "funk_ball", "--dim", "3", flag, value) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: must be a finite number above 0")


@pytest.mark.parametrize("document", [[1, 2], "randers", 3])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, document):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    assert run_cli("check", "--config", str(config), "--metric", "randers", "--dim", "3") == 2
    assert capsys.readouterr().err.startswith("error: config: expected a JSON object")


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark
    assert run_cli("check", "--config", str(config), "--metric", "randers", "--dim", "3") == 2
    assert capsys.readouterr().err.startswith(f"error: config: invalid JSON in {str(config)!r}: 'utf-8' codec")


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--metric", "randers", "--dim", "3", "--samples", "1", "--base-points", "1"),
        ("zoo",),
    ],
    ids=["check", "zoo"],
)
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "report.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: out: cannot write {str(out)!r}: No such file or directory\n"


@pytest.mark.parametrize(
    "command,sweep",
    [("check", "run_identity_suite"), ("audit", "run_isotropy_audit")],
)
def test_unwritable_out_is_refused_before_the_sweep(monkeypatch, tmp_path, capsys, command, sweep):
    from finslerlab import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, sweep, unreachable)
    out = tmp_path / "missing" / "report.json"
    assert run_cli(command, "--metric", "randers", "--dim", "3", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: out: cannot write {str(out)!r}: No such file or directory\n"


def test_the_out_probe_keeps_an_existing_report_and_leaves_no_file(tmp_path, capsys):
    """A run that passes the writability probe and then faults in its sweep
    (a non-convex F) leaves a file already there as it was, and no file
    where there was none."""
    argv = [
        "audit", "--metric-expr", "sqrt(y1^2+y2^2+y3^2) + 0.9*y1^3/(y1^2+y2^2+y3^2)", "--dim", "3",
        "--samples", "5", "--base-points", "2",
    ]
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("earlier report\n")
    assert run_cli(*argv, "--out", str(kept)) == 2
    assert kept.read_text() == "earlier report\n"
    assert run_cli(*argv, "--out", str(fresh)) == 2
    assert not fresh.exists()
    assert ", stage schur:" in capsys.readouterr().err


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    from finslerlab import cli

    calls = [0]
    build_parser = cli.build_parser

    def counted():
        calls[0] += 1
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert run_cli("zoo") == 0
        assert run_cli("check", "--metric", "euclidean", "--dim", "2", "--samples", "1", "--base-points", "1") == 0
    finally:
        cli._parser.cache_clear()
    assert calls[0] == 1
    capsys.readouterr()


def test_curvature_point_that_is_not_a_string_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"metric": "euclidean", "dim": 3, "x": [0, 0, 0], "y": "0,0,1"}))
    assert run_cli("curvature", "--config", str(config)) == 2
    assert capsys.readouterr().err.startswith("error: x: expected a string")


def test_check_takes_only_the_tolerances_of_its_checks(tmp_path, capsys):
    argv = ["check", "--metric", "euclidean", "--dim", "2", "--samples", "1", "--base-points", "1"]
    with pytest.raises(SystemExit) as info:
        run_cli(*argv, "--tol-thm-1", "1e-30")
    assert info.value.code == 2
    assert "unrecognized arguments: --tol-thm-1" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tol_thm_1": 1e-30}))
    assert run_cli(*argv, "--config", str(config)) == 2
    assert capsys.readouterr().err.startswith("error: tol_thm_1:")
    out = tmp_path / "report.json"
    assert run_cli(*argv, "--tol-eq-2.1", "1e-3", "--out", str(out)) == 0
    tolerances = json.loads(out.read_text())["config"]["tolerances"]
    assert tolerances == {"eq-1.11": 1e-5, "eq-1.12": 1e-5, "eq-2.1": 1e-3, "eq-2.2": 1e-4}


def test_non_convex_point_is_named_and_exits_2(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(
        "check", "--metric-expr", "sqrt(y1^2+y2^2+y3^2) + 0.9*y1^3/(y1^2+y2^2+y3^2)",
        "--dim", "3", "--samples", "5", "--base-points", "1", "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "NonPositiveDefiniteError at base 0, fibre " in err
    assert ", chart " in err and ", u=[" in err
    doc = json.loads(out.read_text())
    for check in doc["checks"]:
        assert not check["pass"]
        assert check["error"] in err


def test_failing_suite_point_leaves_no_partial_rows(tmp_path, capsys):
    # seed 6 reaches a non-convex point at base 1, fibre 1, after 5 + 1 good points
    out = tmp_path / "report.json"
    code = run_cli(
        "check", "--metric-expr", "sqrt(y1^2+y2^2+y3^2) + 0.9*y1^3/(y1^2+y2^2+y3^2)",
        "--dim", "3", "--samples", "5", "--base-points", "2", "--seed", "6", "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "NonPositiveDefiniteError at base 1, fibre 1, chart " in err
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 4
    for check in checks:
        assert check["error"] in err
        rows = [(row["base"], row["fibre"]) for row in check["points"]]
        assert rows == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0)]


def test_non_convex_point_in_the_audit_is_named_and_exits_2(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(
        "audit", "--metric-expr", "sqrt(y1^2+y2^2+y3^2) + 0.9*y1^3/(y1^2+y2^2+y3^2)",
        "--dim", "3", "--samples", "5", "--base-points", "1", "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "NonPositiveDefiniteError at base 0, fibre " in err
    assert ", chart " in err and ", u=[" in err and ", stage schur: " in err
    assert not out.exists()


def test_check_and_audit_name_the_same_non_convex_point(capsys):
    """Both walk one sweep, so both stop at its first non-convex point."""
    argv = ["--metric-expr", "sqrt(y1^2+y2^2+y3^2) + 0.9*y1^3/(y1^2+y2^2+y3^2)", "--dim", "3",
            "--samples", "5", "--base-points", "2"]
    assert run_cli("check", *argv) == 2
    check_err = capsys.readouterr().err
    assert run_cli("audit", *argv) == 2
    audit_err = capsys.readouterr().err
    where = "NonPositiveDefiniteError at base 0, fibre 0, chart south, u=[-0.3199284284897"
    assert check_err.startswith(f"error: {where}")
    # the same line, with the audit's stage before the message
    assert audit_err == check_err.replace("]: ", "], stage schur: ", 1)


# numpy still warns where these jets overflow, as nothing yet turns the
# overflow itself into an error; what is tested here is that the number it
# leaves never passes
@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)
@pytest.mark.parametrize(
    "argv,located",
    [
        (
            ["check", "--metric", "riemannian", "--dim", "2",
             "--params", "a11=1e200*(1+x1^2)", "a22=1e200", "--samples", "2", "--base-points", "1"],
            "fibre 0, chart south, u=[0.09699382017751003]: the eq-2.1 residual is nan",
        ),
        (
            ["audit", "--metric", "riemannian", "--dim", "3", "--params", "a11=1e200*(1+x1^2)",
             "a22=1e200", "a33=1e200", "--samples", "2", "--base-points", "1"],
            "fibre 0, chart north, u=[-0.1941272469523367, 0.1310424975520206], stage schur: "
            "the isotropy residual is nan",
        ),
    ],
    ids=["check-jets", "audit-jets"],
)
def test_a_residual_that_is_not_finite_is_a_located_fault_and_exits_2(tmp_path, capsys, argv, located):
    out = tmp_path / "report.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: NonFiniteError at base 0, {located}, not a finite number\n"
    if argv[0] == "check":  # the report fails every block and holds no row
        for block in json.loads(out.read_text())["checks"]:
            assert not block["pass"] and block["points"] == [] and block["error"] in err
    else:
        assert not out.exists()


def test_a_volume_that_overflows_at_a_sampled_point_names_sigma(tmp_path, capsys):
    """sigma = 1e300 exp(700 x1) overflows where F is fine: the fault is the
    volume's, located at its point, with no numpy warning and no residual."""
    argv = ["--metric", "euclidean", "--dim", "2", "--volume", "expr:1e300*exp(x1*700)"]
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("check", *argv, "--samples", "2", "--base-points", "3", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: VolumeFormError at base 0, fibre 0, chart south, u=[-0.6221760818800789]: "
        "sigma(x) or its gradient overflows at x = [0.13955057475168636, -0.1466259220692872]\n"
    )
    for block in json.loads(out.read_text())["checks"]:
        assert not block["pass"] and block["points"] == [] and block["error"] in err


def test_a_volume_whose_float_quotient_overflows_names_sigma(capsys):
    """sigma = 1 + x1/1e-310: the jet of x1 divided by a float overflows,
    which is the volume's fault at its point, with no numpy warning."""
    argv = ["--metric", "euclidean", "--dim", "2", "--volume", "expr:1+x1/1e-310"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("check", *argv, "--samples", "1", "--base-points", "1") == 2
    assert capsys.readouterr().err == (
        "error: VolumeFormError at base 0, fibre 0, chart south, u=[0.09699382017751003]: "
        "sigma(x) or its gradient overflows at x = [0.13955057475168636, -0.1466259220692872]\n"
    )


@pytest.fixture
def rule_levels(monkeypatch):
    """The level of each BH sphere-rule evaluation, in call order."""
    from finslerlab import volume

    levels = []
    quadrature = volume.unit_set_volume
    monkeypatch.setattr(
        volume, "unit_set_volume", lambda m, x, level: levels.append(level) or quadrature(m, x, level)
    )
    return levels


def test_curvature_computes_the_bh_coefficient_once(tmp_path, rule_levels):
    from finslerlab import volume

    argv = ["--metric", "funk_ball", "--dim", "3", "--volume", "bh", "--x", "0.2,0.1,0", "--y", "0,1,0"]
    assert run_cli("curvature", *argv, "--out", str(tmp_path / "curv.json")) == 0
    # one coefficient: one climb of the ladder, each rule at most once
    climb = list(volume.BH_LEVELS[: len(rule_levels)])
    assert rule_levels == climb and len(climb) >= 2


@pytest.mark.parametrize("command", ["check", "audit"])
def test_x_free_bh_check_and_audit_make_no_quadrature(tmp_path, rule_levels, command):
    argv = ["--metric", "minkowski_quartic", "--dim", "3", "--volume", "bh", "--samples", "1"]
    assert run_cli(command, *argv, "--base-points", "3", "--out", str(tmp_path / "c.json")) == 0
    # F has no x: sigma_BH is a constant, and no reported number reads its value
    assert rule_levels == []


def test_a_bh_rule_above_the_cap_exits_2_before_it_is_built(tmp_path, capsys):
    # the level -1 rule at n = 8 would hold 95,551,488 nodes, several GB;
    # curvature reads sigma through tau
    argv = ["--metric", "euclidean", "--dim", "8", "--volume", "bh", "--x", ",".join("0" * 8)]
    assert run_cli("curvature", *argv, "--y", "1" + ",0" * 7, "--out", str(tmp_path / "c.json")) == 2
    assert capsys.readouterr().err == (
        "error: the BH sphere rule at n = 8, level -1 has 95,551,488 nodes, above the cap of 8,388,608\n"
    )


def test_guard_rejecting_every_direction_exits_2(tmp_path, monkeypatch, capsys):
    from finslerlab import cli

    resolve = cli._resolve_model

    def no_directions(config):
        model = resolve(config)
        model.y_guard = lambda y: False
        model.sample_attempts = 20
        return model

    monkeypatch.setattr(cli, "_resolve_model", no_directions)
    for command in ("check", "audit"):
        out = tmp_path / f"{command}.json"
        code = run_cli(
            command, "--metric", "euclidean", "--dim", "3", "--samples", "2", "--base-points", "2",
            "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        # located at the draw that gave up, with no chart or u to name
        assert err.startswith("error: SamplingError at base 0, fibre 0: no admissible direction in 20 draws")
        assert "y_guard" in err
        if command == "check":  # the report fails every block and holds no row
            for block in json.loads(out.read_text())["checks"]:
                assert not block["pass"] and block["points"] == [] and block["error"] in err
        else:
            assert not out.exists()


def test_audit_expands_once_per_fibre_point(tmp_path, core_counts):
    # 3 points per base point, whose expansions feed both thm-1 and the
    # weak-isotropy test
    out = tmp_path / "audit.json"
    code = run_cli(
        "audit", "--metric", "funk_ball", "--dim", "4", "--volume", "bh",
        "--samples", "3", "--base-points", "2", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    records = json.loads(out.read_text())["audits"]
    assert all("weak_isotropy" in record for record in records)
    assert core_counts["expansions"] == 3 * 2


def test_bh_quadrature_gate_is_relative_above_one(tmp_path):
    # sigma_BH = sqrt(det a) = 2e12 converges to 2.4e-12 relative, which an
    # absolute gate of QUAD_TOL would reject
    metric = ["--metric", "riemannian", "--dim", "3", "--params", "a_diag=1e8,4e8,1e8", "--volume", "bh"]
    assert run_cli("check", *metric, "--samples", "2", "--base-points", "1", "--out", str(tmp_path / "c.json")) == 0
    out = tmp_path / "curv.json"
    assert run_cli("curvature", *metric, "--x", "0,0,0", "--y", "1,0,0", "--out", str(out)) == 0
    assert json.loads(out.read_text())["quantities"]["S"] == 0.0


@pytest.mark.parametrize(
    "argv,base,located,message",
    [
        # b near 0.97 puts the unit set so close to the origin that the BH
        # sphere quadrature of F^-3 does not settle; b depends on x, so S
        # reads grad ln sigma_BH
        (
            ["--metric-expr", "sqrt(y1^2+y2^2+y3^2) + (0.97 + 0.001*x1)*y1", "--dim", "3",
             "--volume", "bh", "--base-points", "1", "--samples", "1"],
            0, "QuadratureError", "sphere quadrature did not converge",
        ),
        # sigma(x) = x1 is positive at base point 0 and negative at base point 1
        (
            ["--metric", "euclidean", "--dim", "2", "--volume", "expr:x1",
             "--base-points", "3", "--samples", "2", "--seed", "1"],
            1, "VolumeFormError", "sigma(x) = -0.534338312799916 must be positive",
        ),
    ],
    ids=["quadrature", "volume-form"],
)
def test_a_fault_at_a_sampled_point_is_named_in_the_report_and_exits_2(
    tmp_path, capsys, argv, base, located, message
):
    out = tmp_path / "report.json"
    assert run_cli("check", *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    prefix = f"{located} at base {base}, fibre 0, chart "
    assert prefix in err
    assert ", u=[" in err and message in err
    doc = json.loads(out.read_text())
    for check in doc["checks"]:
        assert not check["pass"]
        assert check["error"].startswith(prefix)
        assert check["error"] in err
        # the rows of the base points before the failing one, and no other
        assert {row["base"] for row in check["points"]} == set(range(base))


@pytest.mark.parametrize("command", ["audit", "curvature"])
def test_only_check_writes_csv(tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "metric": "funk_ball", "dim": 3, "base_points": 1, "samples": 2,
        "x": "0,0,0", "y": "0,0,1", "format": "csv",
    }))
    out = tmp_path / "report"
    assert run_cli(command, "--config", str(config), "--out", str(out)) == 2
    assert "format:" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as info:
        run_cli(command, "--metric", "funk_ball", "--dim", "3", "--format", "csv")
    assert info.value.code == 2


@pytest.mark.parametrize(
    "point,err",
    [
        # |y| = 1e-160 is a fine direction, but the degree-k jets of F scale as |y|^(1 - k)
        (
            ["--metric", "euclidean", "--dim", "3", "--x", "0,0,0", "--y", "1e-160,0,0"],
            "y: the jets of F overflow at y = [1e-160, 0.0, 0.0]",
        ),
        # here F itself is too large, whatever the length of y
        (
            ["--metric-expr", "exp(300*x1)*sqrt(y1^2+y2^2)", "--dim", "2", "--x", "0.9,0", "--y", "1,0"],
            "x/y: the jets of F overflow at x = [0.9, 0.0]",
        ),
        # |y|^2 = 1e400 overflows before any jet is built
        (
            ["--metric", "euclidean", "--dim", "3", "--x", "0,0,0", "--y", "1e200,0,0"],
            "y: the jets of F overflow at y = [1e+200, 0.0, 0.0]",
        ),
        # F is fine; sigma = 1e300 exp(350) is not
        (
            ["--metric", "euclidean", "--dim", "2", "--volume", "expr:1e300*exp(x1*700)", "--x", "0.5,0", "--y", "1,0"],
            "volume: sigma(x) or its gradient overflows at x = [0.5, 0.0]",
        ),
        # F and sigma = exp(1000 x1) both overflow at x: the volume is named
        (
            ["--metric-expr", "exp(300*x1)*sqrt(y1^2+y2^2)", "--dim", "2", "--volume", "expr:exp(1000*x1)",
             "--x", "0.9,0", "--y", "1,0"],
            "volume: sigma(x) or its gradient overflows at x = [0.9, 0.0]",
        ),
    ],
    ids=["tiny-y", "huge-f", "huge-y", "huge-volume", "huge-f-and-volume"],
)
def test_curvature_point_whose_jets_overflow_exits_2(capsys, point, err):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("curvature", *point)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {err}")


def test_curvature_at_a_tiny_direction_whose_jets_are_finite(tmp_path):
    """At |y| = 1e-100 the jets of F up to the order of the expansion are
    finite (|y|^(1 - k) <= 1e300), so the Euclidean g is the identity."""
    out = tmp_path / "tiny.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("curvature", "--metric", "euclidean", "--dim", "3", "--x", "0,0,0", "--y", "1e-100,0,0", "--out", str(out))
    assert code == 0
    quantities = json.loads(out.read_text())["quantities"]
    assert quantities["F"] == pytest.approx(1e-100, rel=1e-15)
    for i, row in enumerate(quantities["g"]):
        assert row == pytest.approx([float(i == j) for j in range(3)], abs=1e-12)


@pytest.mark.parametrize("dim", ["9", "10", "2000"])
def test_dimension_above_the_jet_variable_cap_exits_2_before_the_metric_is_built(
    monkeypatch, capsys, dim
):
    from finslerlab import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("the metric was built")

    monkeypatch.setattr(cli, "build", unreachable)
    monkeypatch.setattr(cli, "MetricModel", unreachable)
    commands = (
        ["check", "--metric", "euclidean", "--samples", "1", "--base-points", "1"],
        ["curvature", "--metric", "euclidean", "--x", "0", "--y", "1"],
        ["audit", "--metric-expr", "sqrt(y1^2+y2^2)", "--samples", "1", "--base-points", "1"],
    )
    for argv in commands:
        assert run_cli(*argv, "--dim", dim) == 2
        err = capsys.readouterr().err
        assert err == f"error: dim: dimension must be at most 8, the jet variable cap, got {dim}\n"


@pytest.mark.parametrize("dim", ["5", "8"])
def test_x_dependent_metric_above_half_the_cap_exits_2_before_any_expansion(capsys, core_counts, dim):
    commands = (
        ["check", "--samples", "1", "--base-points", "1"],
        ["audit", "--samples", "1", "--base-points", "1"],
        ["curvature", "--x", ",".join(["0"] * int(dim)), "--y", ",".join(["1"] * int(dim))],
    )
    for argv in commands:
        assert run_cli(*argv, "--metric", "randers", "--dim", dim) == 2
        err = capsys.readouterr().err
        assert err == f"error: dim: dimension must be at most 4 for an x-dependent F, got {dim}\n"
    assert core_counts["expansions"] == 0


def test_every_error_class_of_the_package_is_an_input_fault():
    """An input error outside the family would escape the exit-2 boundary of
    the CLI and the point location of the identity suite and the audit."""
    import inspect

    from finslerlab import InputFault, checks, cli, core, expr, volume, zoo

    classes = {
        cls
        for module in (expr, core, volume, zoo, checks, cli)
        for cls in vars(module).values()
        if inspect.isclass(cls)
        and issubclass(cls, BaseException)
        and cls.__module__.startswith("finslerlab")
    }
    outside = {f"{cls.__module__}.{cls.__qualname__}" for cls in classes if not issubclass(cls, InputFault)}
    # a jet domain fault never leaves expr, which raises it as an EvalDomainError
    assert outside == {"finslerlab.jets.JetDomainError"}


@pytest.mark.parametrize(
    "point,err",
    [
        (
            ["--metric-expr", "sqrt(y1^2+y2^2)*exp(x1)", "--x", "800,0"],
            "exp() overflows at value 800.0 in subexpression 'exp(x1)'",
        ),
        # an overflow in the volume names sigma
        (
            ["--metric-expr", "sqrt(y1^2+y2^2)", "--x", "1,0", "--volume", "expr:exp(1000*x1)"],
            "volume: sigma(x) or its gradient overflows at x = [1.0, 0.0]",
        ),
        # a11 overflows at a validation trial, so the model is rejected and
        # the trial named
        (
            ["--metric", "riemannian", "--params", "a11=exp(1000*x1)", "--x", "1,0"],
            "metric: exp() overflows at value 728.5355120505275 in subexpression 'exp(1000.0 * x1)'"
            " at x=[ 0.72853551 -0.07020534], y=[0.18560738 0.96608758]",
        ),
        (
            ["--metric-expr", "sqrt(y1^2+y2^2)*(1+x1^2)^1.5", "--x", "1e103,0"],
            "pow[1.5]() overflows at value 1e+206 in subexpression '(1.0 + x1^2.0)^1.5'",
        ),
        # a float quotient that overflows, not a non-positive F of -inf
        (
            ["--metric-expr", "sqrt(y1^2+y2^2)*(1+x1/1e-310)", "--x", "0.5,0"],
            "metric: div() overflows at value 1e-310 in subexpression 'x1 / 1e-310'"
            " at x=[0.17049474 0.41208141], y=[ 1.3019584 -0.4697052]",
        ),
        # a float product that overflows, not an F of inf
        (
            ["--metric-expr", "sqrt(y1^2+y2^2)*1e300*1e300", "--x", "0,0"],
            "metric: mul() overflows at value 1e+300 in subexpression 'sqrt(y1^2.0 + y2^2.0) * 1e+300 * 1e+300'"
            " at x=[0.17049474 0.41208141], y=[ 1.3019584 -0.4697052]",
        ),
        # the jets of F are finite; det a = 1e400 (1 + x1^2) overflows
        (
            ["--metric", "riemannian", "--params", "a11=1e200*(1+x1^2)", "a22=1e200", "--x", "0,0"],
            "volume: sigma(x) or its gradient overflows at x = [0.0, 0.0]",
        ),
        # the jets of F overflow at every length of y, and sigma(x) is refused
        (
            ["--metric-expr", "sqrt(y1^2+y2^2)*exp(x1*705)", "--volume", "expr:1e300*exp(x1*700)", "--x", "0.5,0"],
            "volume: sigma(x) or its gradient overflows at x = [0.5, 0.0]",
        ),
    ],
    ids=["exp-metric", "exp-volume", "exp-param", "pow", "div", "mul", "det-volume", "f-and-volume"],
)
def test_curvature_where_a_jet_function_overflows_exits_2(capsys, point, err):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("curvature", "--dim", "2", "--y", "1,0", *point)
    assert code == 2
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize(
    "metric,code,err",
    [("euclidean", 0, ""), ("funk_ball", 2, "error: x: |x| must be < 1.0 for this metric\n")],
)
def test_curvature_at_a_huge_x_is_judged_against_the_metric_domain(tmp_path, capsys, metric, code, err):
    # |x|^2 = 1e400 overflows, |x| does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_cli(
            "curvature", "--metric", metric, "--dim", "3", "--x", "1e200,0,0", "--y", "1,0,0",
            "--out", str(tmp_path / "report.json"),
        )
    assert got == code
    assert capsys.readouterr().err == err
