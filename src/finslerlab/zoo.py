"""Built-in metric families with closed-form facts used throughout testing.

Every entry assembles an expression for F and hands it to
:class:`~finslerlab.core.MetricModel`, so the same evaluation and
differentiation machinery covers built-ins and user expressions alike.

Families:

- ``euclidean``          F = |y|
- ``riemannian``         F = sqrt(a_ij(x) y^i y^j), diagonal constants or
                         expression entries
- ``minkowski_quartic``  F = (sum_i y_i^4)^(1/4)
- ``randers``            F = |y| + b_i(x) y^i with ||b|| < 1 enforced
- ``funk_ball``          the positively complete metric of the unit ball,
                         solving |x + y/F| = 1

The default Randers instance uses b(x) = eps * (x2, -x1, 0, ...), an
x-dependent non-closed 1-form that keeps every curvature term generically
nonzero.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import InputFault
from .core import MetricModel
from .expr import parse

__all__ = [
    "ZooEntry", "ParamError", "RandersConditionViolated", "build", "entries", "number_param",
    "zoo_ids",
]


class RandersConditionViolated(InputFault):
    """The 1-form of a Randers metric reached norm >= 1 on the sampled domain."""

    def __init__(self, x, norm: float):
        self.x = [float(v) for v in x]
        super().__init__(
            f"Randers condition ||b(x)|| < 1 violated: norm {norm:.6g} at x = {self.x}"
        )
        self.norm = norm


class ParamError(InputFault):
    """A metric parameter has the wrong type, length or sign."""


@dataclass(frozen=True)
class ZooEntry:
    id: str
    summary: str
    dims: str
    params_schema: Mapping[str, str]
    builder: Callable[..., MetricModel] = field(repr=False)
    notes: str = ""

    def build(self, dim: int, params=None, volume=None) -> MetricModel:
        return self.builder(dim, dict(params or {}), volume)


def _sum_text(terms) -> str:
    return " + ".join(terms)


def _norm_sq_text(prefix: str, dim: int) -> str:
    return _sum_text([f"{prefix}{i}^2" for i in range(1, dim + 1)])


def number_param(value, what: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ParamError(f"{what}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ParamError(f"{what}: expected a finite number, got {value!r}")
    return number


def _float_list(value, dim: int, what: str) -> list[float]:
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip()]
    if not isinstance(value, (list, tuple)):
        raise ParamError(f"{what}: expected comma-separated numbers or a list, got {value!r}")
    out = [number_param(p, what) for p in value]
    if len(out) != dim:
        raise ParamError(f"{what} needs {dim} entries, got {len(out)}")
    return out


def _build_euclidean(dim: int, params: dict, volume) -> MetricModel:
    text = f"sqrt({_norm_sq_text('y', dim)})"
    return MetricModel(
        dim,
        text,
        volume=volume or "lebesgue",
        metric_id="euclidean",
    )


_A_KEY = re.compile(r"^a([0-9])([0-9])$")


def _build_riemannian(dim: int, params: dict, volume) -> MetricModel:
    entry_texts = {}
    for key, value in list(params.items()):
        m = _A_KEY.match(key)
        if m is None:
            continue
        i, j = int(m.group(1)), int(m.group(2))
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ParamError(f"ground-metric entry {key} outside dimension {dim}")
        entry_texts[(i, j)] = str(value)
    if entry_texts:
        texts = [[None] * dim for _ in range(dim)]
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                given = entry_texts.get((i, j)) or entry_texts.get((j, i))
                if given is None:
                    given = "1" if i == j else "0"
                texts[i - 1][j - 1] = given
    else:
        diag = params.get("a_diag", [1.0] * dim)
        diag = _float_list(diag, dim, "a_diag")
        if any(d <= 0 for d in diag):
            raise ParamError("a_diag entries must be positive")
        texts = [
            [repr(diag[i]) if i == j else "0" for j in range(dim)] for i in range(dim)
        ]
    terms = []
    for i in range(dim):
        for j in range(dim):
            if texts[i][j] not in ("0", "0.0"):
                terms.append(f"({texts[i][j]})*y{i + 1}*y{j + 1}")
    f_text = f"sqrt({_sum_text(terms)})"
    a_asts = [[parse(texts[i][j], dim) for j in range(dim)] for i in range(dim)]
    return MetricModel(
        dim,
        f_text,
        volume=volume or "riemannian_auto",
        metric_id="riemannian",
        a_asts=a_asts,
    )


def _build_minkowski_quartic(dim: int, params: dict, volume) -> MetricModel:
    text = f"({_sum_text([f'y{i}^4' for i in range(1, dim + 1)])})^0.25"

    def y_guard(y) -> bool:
        # g degenerates on the coordinate axes; keep samples away from them
        scale = np.linalg.norm(y)
        return scale > 0 and np.min(np.abs(y)) / scale > 0.02

    return MetricModel(
        dim,
        text,
        volume=volume or "lebesgue",
        metric_id="minkowski_quartic",
        y_guard=y_guard,
    )


def _randers_b(dim: int, eps: float, b0: list[float]):
    def b_of_x(x) -> np.ndarray:
        b = np.array(b0, dtype=float)
        if dim >= 2 and eps != 0.0:
            b[0] += eps * x[1]
            b[1] -= eps * x[0]
        return b

    return b_of_x


def _build_randers(dim: int, params: dict, volume) -> MetricModel:
    eps = number_param(params.get("eps", 0.2), "eps")
    b0 = _float_list(params.get("b0", [0.0] * dim), dim, "b0")
    b_of_x = _randers_b(dim, eps, b0)
    # one draw of all 128 points gives the bytes of 128 draws of one point
    for x in np.random.default_rng(20240817).uniform(-1.0, 1.0, size=(128, dim)):
        norm = math.hypot(*b_of_x(x))  # does not overflow
        if norm >= 1.0:
            raise RandersConditionViolated(x, norm)
    norm0 = math.hypot(*b_of_x(np.zeros(dim)))
    if norm0 >= 1.0:
        raise RandersConditionViolated(np.zeros(dim), norm0)
    terms = [f"sqrt({_norm_sq_text('y', dim)})"]
    if eps != 0.0:
        terms.append(f"eps*(x2*y1 - x1*y2)")
    for i, b in enumerate(b0):
        if b != 0.0:
            terms.append(f"{repr(b)}*y{i + 1}")
    model_params = {"eps": eps} if eps != 0.0 else {}
    return MetricModel(
        dim,
        _sum_text(terms),
        params=model_params,
        volume=volume or "lebesgue",
        metric_id="randers",
        x_radius=0.8,
    )


def _build_funk_ball(dim: int, params: dict, volume) -> MetricModel:
    dot = "(" + _sum_text([f"x{i}*y{i}" for i in range(1, dim + 1)]) + ")"
    y_sq = "(" + _norm_sq_text("y", dim) + ")"
    x_sq = "(" + _norm_sq_text("x", dim) + ")"
    text = f"(sqrt({dot}^2 + {y_sq}*(1 - {x_sq})) + {dot}) / (1 - {x_sq})"
    return MetricModel(
        dim,
        text,
        volume=volume or "lebesgue",
        metric_id="funk_ball",
        x_radius=0.8,
        x_max_norm=1.0,
    )


_ENTRIES = {
    "euclidean": ZooEntry(
        id="euclidean",
        summary="F = |y|, the flat reference metric",
        dims="n >= 2",
        params_schema={},
        builder=_build_euclidean,
    ),
    "riemannian": ZooEntry(
        id="riemannian",
        summary="F = sqrt(a_ij(x) y^i y^j) from a positive ground metric",
        dims="n >= 2",
        params_schema={
            "a_diag": "comma-separated positive diagonal entries (default all 1)",
            "aIJ": "expression in x for entry (I, J), e.g. a11=exp(x1)",
        },
        builder=_build_riemannian,
        notes="volume form defaults to riemannian_auto: sigma = sqrt(det a)",
    ),
    "minkowski_quartic": ZooEntry(
        id="minkowski_quartic",
        summary="F = (sum_i y_i^4)^(1/4), an x-independent non-Riemannian norm",
        dims="n >= 2",
        params_schema={},
        builder=_build_minkowski_quartic,
        notes="the fundamental tensor degenerates on the coordinate axes; "
        "samples keep min|y_i|/|y| > 0.02",
    ),
    "randers": ZooEntry(
        id="randers",
        summary="F = |y| + b_i(x) y^i with b = b0 + eps*(x2, -x1, 0, ...)",
        dims="n >= 2",
        params_schema={
            "eps": "rotational strength of the x-dependent part (default 0.2)",
            "b0": "comma-separated constant 1-form entries (default zeros)",
        },
        builder=_build_randers,
        notes="requires ||b(x)|| < 1 on the sampled domain [-1, 1]^n",
    ),
    "funk_ball": ZooEntry(
        id="funk_ball",
        summary="Funk metric of the unit ball, defined by |x + y/F| = 1",
        dims="n >= 2",
        params_schema={},
        builder=_build_funk_ball,
        notes="defined for |x| < 1; samplers stay inside |x| <= 0.8",
    ),
}


def entries() -> list[ZooEntry]:
    return [_ENTRIES[key] for key in sorted(_ENTRIES)]


def zoo_ids() -> list[str]:
    return sorted(_ENTRIES)


_ALIASES = {"funk": "funk_ball", "quartic": "minkowski_quartic"}


def build(metric_id: str, dim: int, params=None, volume=None) -> MetricModel:
    """Construct a built-in metric; raises KeyError for unknown ids."""
    metric_id = _ALIASES.get(metric_id, metric_id)
    try:
        entry = _ENTRIES[metric_id]
    except KeyError:
        raise KeyError(
            f"unknown metric id {metric_id!r}; available: {', '.join(zoo_ids())}"
        ) from None
    return entry.build(dim, params, volume)


def funk_norm(x, y) -> float:
    """Closed-form Funk norm, solving |x + y/F| = 1 (test oracle)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xy = float(x @ y)
    yy = float(y @ y)
    xx = float(x @ x)
    return (math.sqrt(xy * xy + yy * (1.0 - xx)) + xy) / (1.0 - xx)
