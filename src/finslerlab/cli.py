"""Command-line front end: run check suites, print curvature quantities,
run the isotropy audit, and list the built-in metrics.

Subcommands:

    zoo         list built-in metric families and their parameters
    curvature   print the coordinate tensors at one flag point
    check       run the four identity checks over sampled fibre points
    audit       run the isotropy audit plus the weak-isotropy test

Exit codes: 0 on success, 1 when a check fails or the audit reports a
VIOLATION, 2 on usage errors and on every :class:`~finslerlab.InputFault`,
including a sampled point where the metric is not Finsler (the error names
the point, and in the audit the stage).  Reports are JSON (``check`` can
flatten its report to CSV) and byte-identical for identical
configurations; the sampling generator is numpy's seeded PCG64.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import InputFault, __version__
from .checks import DEFAULT_TOLERANCES, run_identity_suite, run_isotropy_audit
from .core import (
    CoordinateTensors,
    FlagPoint,
    MetricModel,
    UnsupportedDimensionError,
    coordinate_tensors,
)
from .indicatrix import FibreChart, direction_chart, fibre_jets
from .jets import MAX_VARS
from .zoo import ParamError, build, entries, number_param

SCHEMA_VERSION = "1"

# the checks `check` runs, and the config key of each tolerance
_TOL_FLAGS = {
    "eq-2.1": "tol_eq_2_1",
    "eq-2.2": "tol_eq_2_2",
    "eq-1.11": "tol_eq_1_11",
    "eq-1.12": "tol_eq_1_12",
}


# config fields that must be strings when present
_TEXT_FIELDS = ("metric", "metric_expr", "volume", "x", "y", "format", "out")


class InputError(InputFault):
    """A configuration problem; printed with the offending field, exit 2."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _parse_floats(text: str, field: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InputError(field, f"expected comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise InputError(field, f"expected finite numbers, got {text!r}")
    return values


def _typed(config: dict, field: str, kind, default=None):
    """``config[field]`` converted by ``kind`` (int or float), or ``default``
    when absent; a value of the wrong type is an input error naming the field."""
    value = config.get(field)
    if value is None:
        return default
    # int() would truncate 2.5, and a JSON true is not the number 1
    integral = kind is not int or not isinstance(value, float) or value.is_integer()
    if integral and not isinstance(value, bool):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    expected = "an integer" if kind is int else "a number"
    raise InputError(field, f"expected {expected}, got {value!r}")


def _parse_params(items) -> dict:
    out = {}
    for item in items or []:
        if not isinstance(item, str) or "=" not in item:
            raise InputError("params", f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finslerlab",
        description="curvature quantities and identity checks for Finsler metrics",
    )
    parser.add_argument("--version", action="version", version=f"finslerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_metric_flags(p):
        p.add_argument("--metric", help="built-in metric id (see the zoo subcommand)")
        p.add_argument("--metric-expr", help="expression for F over x1..xn, y1..yn")
        p.add_argument("--dim", type=int, help="dimension n >= 2")
        p.add_argument(
            "--volume",
            help="volume form: lebesgue | bh | auto | expr:<sigma(x)> (default per metric)",
        )
        p.add_argument(
            "--params",
            nargs="*",
            metavar="K=V",
            help="metric parameters, e.g. eps=0.2 a_diag=1,4",
        )
        p.add_argument("--config", help="JSON file with the same fields; flags override")
        p.add_argument("--out", help="write the report to this path instead of stdout")

    p_zoo = sub.add_parser("zoo", help="list built-in metric families")
    p_zoo.add_argument("--out", help="write the listing to this path instead of stdout")

    p_curv = sub.add_parser("curvature", help="print curvature quantities at a flag point")
    add_metric_flags(p_curv)
    p_curv.add_argument("--x", help="base point, comma separated")
    p_curv.add_argument("--y", help="flag direction, comma separated")

    p_check = sub.add_parser("check", help="run the identity checks")
    add_metric_flags(p_check)
    p_check.add_argument("--format", choices=("json", "csv"), help="report format (default json)")
    p_check.add_argument("--samples", type=int, help="fibre samples per base point (default 50)")
    p_check.add_argument("--base-points", type=int, help="number of base points (default 5)")
    p_check.add_argument("--seed", type=int, help="sampling seed (default 0)")
    for tag, dest in _TOL_FLAGS.items():
        p_check.add_argument(f"--tol-{tag}", dest=dest, type=float, help=f"tolerance for {tag}")

    p_audit = sub.add_parser("audit", help="run the isotropy audit")
    add_metric_flags(p_audit)
    p_audit.add_argument("--samples", type=int, help="fibre samples per base point (default 40)")
    p_audit.add_argument("--base-points", type=int, help="number of base points (default 5)")
    p_audit.add_argument("--seed", type=int, help="sampling seed (default 0)")
    p_audit.add_argument("--tol-thm-1", dest="tol_thm_1", type=float, help="audit tolerance")

    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """File config first, flags override; returns a plain dict."""
    merged: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as handle:
                loaded = json.load(handle)
        except OSError as err:
            raise InputError("config", f"cannot read {config_path!r}: {err}") from None
        except json.JSONDecodeError as err:
            raise InputError("config", f"invalid JSON in {config_path!r}: {err}") from None
        if not isinstance(loaded, dict):
            raise InputError("config", f"expected a JSON object of fields, got {loaded!r}")
        merged.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        merged[key] = value
    for field in _TEXT_FIELDS:
        value = merged.get(field)
        if value is not None and not isinstance(value, str):
            raise InputError(field, f"expected a string, got {value!r}")
    return merged


def _resolve_model(config: dict) -> MetricModel:
    metric_id = config.get("metric")
    expr_text = config.get("metric_expr")
    if bool(metric_id) == bool(expr_text):
        raise InputError("metric", "exactly one of --metric or --metric-expr is required")
    dim = _typed(config, "dim", int)
    if dim is None:
        raise InputError("dim", "the dimension is required")
    if dim < 2:
        raise InputError("dim", f"dimension must be at least 2, got {dim}")
    if dim > MAX_VARS:  # checked before the metric is built: its F has dim terms
        raise InputError("dim", f"dimension must be at most {MAX_VARS}, the jet variable cap, got {dim}")
    params = config.get("params")
    if isinstance(params, (list, tuple)):
        params = _parse_params(params)
    elif params is None:
        params = {}
    elif not isinstance(params, dict):
        raise InputError("params", f"expected key=value strings or an object, got {params!r}")
    config["params"] = params
    volume = config.get("volume")
    try:
        if metric_id:
            model = build(metric_id, dim, params, volume)
        else:
            model = MetricModel(
                dim,
                expr_text,
                params={k: number_param(v, k) for k, v in params.items()},
                volume=volume or "lebesgue",
                metric_id="expr",
            )
    except KeyError as err:
        raise InputError("metric", str(err.args[0])) from None
    except ParamError as err:
        raise InputError("params", str(err)) from None
    except UnsupportedDimensionError as err:
        raise InputError("dim", str(err)) from None
    except ValueError as err:
        raise InputError("metric", str(err)) from None
    return model


def _sampling(config: dict, default_samples: int) -> tuple[int, int, int]:
    """The seed, the fibre samples per base point and the base points
    (default 5); a seed below 0 or a count below 1 is an input error naming it."""
    seed = _typed(config, "seed", int, 0)
    if seed < 0:
        raise InputError("seed", f"must be at least 0, got {seed}")
    samples = _typed(config, "samples", int, default_samples)
    base_points = _typed(config, "base_points", int, 5)
    for field, count in (("samples", samples), ("base_points", base_points)):
        if count < 1:
            raise InputError(field, f"must be at least 1, got {count}")
    return seed, samples, base_points


def _tolerance(config: dict, field: str) -> float | None:
    """A tolerance field, or None when absent; anything but a finite number
    above 0 is an input error naming it."""
    value = _typed(config, field, float)
    if value is not None and not (math.isfinite(value) and value > 0.0):
        raise InputError(field, f"must be a finite number above 0, got {value!r}")
    return value


def _tolerances_from(config: dict) -> dict:
    if config.get("tol_thm_1") is not None:
        raise InputError("tol_thm_1", "check does not run thm-1, which only audit takes")
    out = {}
    for tag, dest in _TOL_FLAGS.items():
        value = _tolerance(config, dest)
        if value is not None:
            out[tag] = value
    return out


def _json_only(config: dict) -> None:
    """Only ``check`` writes CSV; a config asking another command for it fails."""
    fmt = config.get("format", "json")
    if fmt != "json":
        raise InputError("format", f"this command writes json only, got {fmt!r}")


def _echo_config(config: dict, model: MetricModel, **extra) -> dict:
    echo = {
        "metric": config.get("metric") or "expr",
        "metric_expr": config.get("metric_expr"),
        "dim": model.dim,
        "volume": model.volume.kind,
        "params": {k: str(v) for k, v in sorted((config.get("params") or {}).items())},
        "seed": extra.get("seed"),
        "samples": extra.get("samples"),
        "base_points": extra.get("base_points"),
        "tolerances": extra.get("tolerances"),
        "format": config.get("format", "json"),
    }
    return {k: v for k, v in echo.items() if v is not None}


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(document: dict, out_path: str | None) -> None:
    _emit(json.dumps(document, sort_keys=True, indent=2) + "\n", out_path)


# -- subcommands -----------------------------------------------------------------


def _cmd_zoo(args) -> int:
    lines = [f"built-in metrics ({len(entries())}):", ""]
    for entry in entries():
        lines.append(f"{entry.id}  ({entry.dims})")
        lines.append(f"    {entry.summary}")
        for name, doc in entry.params_schema.items():
            lines.append(f"    param {name}: {doc}")
        if entry.notes:
            lines.append(f"    note: {entry.notes}")
        lines.append("")
    _emit("\n".join(lines), getattr(args, "out", None))
    return 0


def _tensors_in_range(model: MetricModel, point: FlagPoint) -> CoordinateTensors:
    """The coordinate tensors, with ``FloatingPointError`` where a jet overflows."""
    with np.errstate(over="raise", invalid="raise"):
        return coordinate_tensors(model, point)


def _overflow_error(model: MetricModel, point: FlagPoint) -> InputError:
    """Name the direction when its jets overflow and those of the same ray at
    moderate length do not: the degree-k jets of F scale as |y|^(1 - k)."""
    try:
        _tensors_in_range(model, FlagPoint(point.x, point.y / np.max(np.abs(point.y))))
    except FloatingPointError:
        return InputError("x/y", f"the jets of F overflow at x = {point.x.tolist()}, also with max |y_i| = 1")
    message = f"the jets of F overflow at y = {point.y.tolist()}; give a direction of moderate length"
    return InputError("y", message)


def _cmd_curvature(args) -> int:
    config = _merge_config(args)
    _json_only(config)
    model = _resolve_model(config)
    if "x" not in config or "y" not in config:
        raise InputError("x/y", "both --x and --y are required")
    x = _parse_floats(config["x"], "x")
    y = _parse_floats(config["y"], "y")
    if len(x) != model.dim or len(y) != model.dim:
        raise InputError("x/y", f"need {model.dim} components each")
    try:
        point = FlagPoint(np.asarray(x), np.asarray(y))
    except ValueError as err:  # a direction whose norm is 0.0, even if some entry is not
        raise InputError("y", str(err)) from None
    if math.hypot(*x) >= model.x_max_norm:  # a norm that does not overflow
        raise InputError("x", f"|x| must be < {model.x_max_norm} for this metric")
    try:
        tensors = _tensors_in_range(model, point)
    except FloatingPointError:
        raise _overflow_error(model, point) from None
    chart_id, u = direction_chart(point.y)
    fibre = fibre_jets(model, FibreChart(model, point.x, chart_id), u, {"g": 1, "e": 1})
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": "curvature",
        "config": _echo_config(config, model),
        "x": list(point.x),
        "y": list(point.y),
        "quantities": {
            "F": tensors.f,
            "g": tensors.g.tolist(),
            "cartan": tensors.cartan.tolist(),
            "spray": tensors.spray.tolist(),
            "mean_berwald": tensors.mean_berwald.tolist(),
            "tau": tensors.tau,
            "S": tensors.s,
        },
        "fibre": {
            "chart": chart_id,
            "u": list(u),
            "induced_metric": fibre.g[..., 0].tolist(),
            "berwald_pullback": fibre.e[..., 0].tolist(),
            "e": float(fibre.berwald_scalar[0]),
        },
    }
    _emit_json(document, config.get("out"))
    return 0


def _cmd_check(args) -> int:
    config = _merge_config(args)
    model = _resolve_model(config)
    seed, samples, base_points = _sampling(config, 50)
    tolerances = _tolerances_from(config)
    reports = run_identity_suite(model, base_points, samples, seed, tolerances)
    reports.sort(key=lambda r: r.tag)
    echo = _echo_config(
        config, model, seed=seed, samples=samples, base_points=base_points,
        tolerances={report.tag: report.tolerance for report in reports},
    )
    fmt = config.get("format", "json")
    if fmt == "csv":
        lines = ["tag,base,fibre,residual,tolerance,pass"]
        for report in reports:
            for row in report.points:
                lines.append(
                    f"{report.tag},{row['base']},{row['fibre']},{row['residual']!r},"
                    f"{report.tolerance!r},{str(report.passed).lower()}"
                )
        _emit("\n".join(lines) + "\n", config.get("out"))
    else:
        document = {
            "schema_version": SCHEMA_VERSION,
            "command": "check",
            "config": echo,
            "checks": [report.to_dict() for report in reports],
        }
        _emit_json(document, config.get("out"))
    error = next((report.error for report in reports if report.error), None)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0 if all(report.passed for report in reports) else 1


def _cmd_audit(args) -> int:
    config = _merge_config(args)
    _json_only(config)
    model = _resolve_model(config)
    seed, samples, base_points = _sampling(config, 40)
    tol = _tolerance(config, "tol_thm_1") or DEFAULT_TOLERANCES["thm-1"]
    audits = []
    for index, (x, audit) in enumerate(run_isotropy_audit(model, base_points, samples, seed, tol)):
        record = {"base": index, "x": list(x), "schur": audit.to_dict()}
        if audit.weak is not None:
            record["weak_isotropy"] = audit.weak.to_dict()
        audits.append(record)
    echo = _echo_config(
        config, model, seed=seed, samples=samples, base_points=base_points, tolerances={"thm-1": tol}
    )
    document = {"schema_version": SCHEMA_VERSION, "command": "audit", "config": echo, "audits": audits}
    _emit_json(document, config.get("out"))
    return 1 if any(record["schur"]["verdict"] == "VIOLATION" for record in audits) else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "zoo": _cmd_zoo,
        "curvature": _cmd_curvature,
        "check": _cmd_check,
        "audit": _cmd_audit,
    }
    try:
        return handlers[args.command](args)
    except InputFault as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
