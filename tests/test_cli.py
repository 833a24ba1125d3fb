import json

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
    code = run_cli(
        "curvature", "--metric", "euclidean", "--dim", "3", "--x", "0,0,0", "--y", "0,0,0"
    )
    assert code == 2
    assert "y must be nonzero" in capsys.readouterr().err


def test_non_homogeneous_expression_exits_2(capsys):
    code = run_cli("check", "--metric-expr", "y1 + y2^2", "--dim", "2")
    assert code == 2
    assert "homogeneous" in capsys.readouterr().err


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


def test_check_reports_are_byte_identical(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = [
        "check", "--metric", "randers", "--dim", "3",
        "--samples", "5", "--base-points", "2", "--seed", "42",
    ]
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
    ],
)
def test_badly_typed_config_value_exits_2(tmp_path, capsys, command, field, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"metric": "randers", "dim": 3, field: value}))
    assert run_cli(command, "--config", str(config)) == 2
    assert f"{field}:" in capsys.readouterr().err


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


def test_guard_rejecting_every_direction_exits_2(monkeypatch, capsys):
    from finslerlab import cli

    resolve = cli._resolve_model

    def no_directions(config):
        model = resolve(config)
        model.y_guard = lambda y: False
        model.sample_attempts = 20
        return model

    monkeypatch.setattr(cli, "_resolve_model", no_directions)
    for command in ("check", "audit"):
        code = run_cli(
            command, "--metric", "euclidean", "--dim", "3", "--samples", "2", "--base-points", "1"
        )
        assert code == 2
        assert "y_guard" in capsys.readouterr().err


def test_audit_expands_once_per_fibre_point(tmp_path, core_counts):
    # 3 schur points and 3 weak-isotropy points per base point; c comes from
    # the first weak-isotropy expansion
    out = tmp_path / "audit.json"
    code = run_cli(
        "audit", "--metric", "funk_ball", "--dim", "4", "--volume", "bh",
        "--samples", "3", "--base-points", "2", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    records = json.loads(out.read_text())["audits"]
    assert all("weak_isotropy" in record for record in records)
    assert core_counts["expansions"] == 6 * 2


def test_quadrature_failure_is_named_in_the_report_and_exits_2(tmp_path, capsys):
    # b = 0.97 puts the unit set so close to the origin that the BH sphere
    # quadrature of F^-3 does not settle
    out = tmp_path / "report.json"
    code = run_cli(
        "check", "--metric-expr", "sqrt(y1^2+y2^2+y3^2) + 0.97*y1", "--dim", "3",
        "--volume", "bh", "--base-points", "1", "--samples", "1", "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "QuadratureError at base 0, fibre 0, chart " in err
    assert ", u=[" in err and "sphere quadrature did not converge" in err
    doc = json.loads(out.read_text())
    for check in doc["checks"]:
        assert not check["pass"]
        assert check["error"].startswith("QuadratureError at base 0, fibre 0, chart ")
        assert check["error"] in err


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
