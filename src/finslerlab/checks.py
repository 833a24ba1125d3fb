"""Pointwise residual checks of the fibre identities, plus the isotropy audit.

Each check evaluates one identity of the restricted fields at sampled
indicatrix points and reports the worst residual, normalised per point by
max(1, magnitude of the largest participating term).  The identities hold
for every Finsler metric, so a persistent exceedance indicates a defect in
the computation, not in the input.

Stable tags identify the checks in reports and tolerance flags:

    eq-2.1   vertical PDE linking the S-curvature Hessian, the Cartan
             pullback, and the mean Berwald pullback
    eq-2.2   Codazzi equation of the mean Berwald pullback
    eq-1.11  full symmetry of the covariant derivative of the Cartan pullback
    eq-1.12  Gauss-type equation for the fibre curvature
    eq-2.5   commutator of covariant derivatives against the curvature
    thm-1    isotropy audit: pointwise isotropy forces a fibrewise-constant
             Berwald scalar (asserted for dim >= 3)
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (
    MetricModel,
    NonPositiveDefiniteError,
    NonPositiveMetricError,
    TensorJets,
    s_main_jet,
)
from .expr import EvalDomainError
from .indicatrix import (
    FibreChart,
    IndicatrixPoint,
    RestrictedFields,
    berwald_fields,
    chart_embed,
    fibre_snapshot,
    restrict_fields,
    s_third_covariant,
    sample_fibre_points,
)
from .jets import extract_derivative

__all__ = [
    "TAGS",
    "DEFAULT_TOLERANCES",
    "CheckReport",
    "FibrePointError",
    "SchurAudit",
    "WeakIsotropyRecord",
    "check_pde",
    "check_codazzi",
    "check_cartan_symmetry",
    "check_gauss",
    "check_ricci",
    "isotropy_residual",
    "schur_audit",
    "weak_isotropy_check",
    "run_identity_suite",
    "sample_base_points",
]

TAGS = {
    "pde": "eq-2.1",
    "codazzi": "eq-2.2",
    "cartan_symmetry": "eq-1.11",
    "gauss": "eq-1.12",
    "ricci": "eq-2.5",
    "schur": "thm-1",
}

# tolerance scales with the depth of the derivative chain behind each check
DEFAULT_TOLERANCES = {
    "eq-2.1": 1e-5,
    "eq-2.2": 1e-4,
    "eq-1.11": 1e-5,
    "eq-1.12": 1e-5,
    "eq-2.5": 1e-5,
    "thm-1": 1e-5,
}


# the metric is not Finsler at a sampled point: an input fault, not a defect
_DOMAIN_ERRORS = (NonPositiveDefiniteError, NonPositiveMetricError, EvalDomainError)


def _where(fibre: int, point: IndicatrixPoint) -> str:
    return f"fibre {fibre}, chart {point.chart.chart_id}, u={[float(v) for v in point.u]}"


class FibrePointError(ValueError):
    """A domain fault at one sampled fibre point of an audit stage
    (``schur`` or ``weak-isotropy``); :meth:`located` adds the base point."""

    def __init__(self, error: Exception, fibre: int, point: IndicatrixPoint, stage: str):
        self.error = error
        self.where = f"{_where(fibre, point)}, stage {stage}"
        super().__init__(f"{type(error).__name__} at {self.where}: {error}")

    def located(self, base: int) -> str:
        return f"{type(self.error).__name__} at base {base}, {self.where}: {self.error}"


@contextmanager
def _stage(stage: str, fibre: int, point: IndicatrixPoint):
    """Re-raise a domain fault inside the block as a :class:`FibrePointError`."""
    try:
        yield
    except _DOMAIN_ERRORS as err:
        raise FibrePointError(err, fibre, point, stage) from err


def _scale(*terms) -> float:
    return max(1.0, *(float(np.max(np.abs(t))) for t in terms))


def _maxabs(t) -> float:
    return float(np.max(np.abs(t)))


# -- residual tensors from a restricted-field bundle ----------------------------


def pde_residual(rf: RestrictedFields) -> tuple[np.ndarray, float]:
    """Hess(S) + H(., ., grad S) + S g - E, expected to vanish."""
    h_term = np.einsum("abe,ec,c->ab", rf.cartan, rf.g_inv, rf.s_grad)
    s_term = rf.s * rf.g
    residual = rf.s_hess + h_term + s_term - rf.berwald
    return residual, _scale(rf.s_hess, h_term, s_term, rf.berwald)


def codazzi_residual(rf: RestrictedFields) -> tuple[np.ndarray, float]:
    """E_{ab;c} - E_{ac;b} - (H_ab^d E_dc - H_ac^d E_db), expected to vanish."""
    he = np.einsum("abe,ed,dc->abc", rf.cartan, rf.g_inv, rf.berwald)
    first = rf.berwald_cov - np.transpose(rf.berwald_cov, (0, 2, 1))
    second = he - np.transpose(he, (0, 2, 1))
    return first - second, _scale(rf.berwald_cov, he)


def cartan_symmetry_residual(rf: RestrictedFields) -> tuple[np.ndarray, float]:
    """H_{abc;d} - H_{abd;c}: the covariant derivative of the Cartan pullback
    is symmetric under exchanging the derivative slot with a tensor slot."""
    residual = rf.cartan_cov - np.transpose(rf.cartan_cov, (0, 1, 3, 2))
    return residual, _scale(rf.cartan_cov)


def gauss_residual(rf: RestrictedFields) -> tuple[np.ndarray, float]:
    """Curvature against the quadratic Cartan terms and the constant-curvature
    part, in the calibrated index convention."""
    q = np.einsum("bce,ef,fad->bcad", rf.cartan, rf.g_inv, rf.cartan)
    hh = np.einsum("bcad->abcd", q) - np.einsum("bdac->abcd", q)
    gg = np.einsum("bc,ad->abcd", rf.g, rf.g) - np.einsum("bd,ac->abcd", rf.g, rf.g)
    residual = rf.riemann - (hh - gg)
    return residual, _scale(rf.riemann, hh, gg)


# -- per-point public check operations -------------------------------------------


def _fields_at(model: MetricModel, point: IndicatrixPoint) -> RestrictedFields:
    return restrict_fields(model, point.chart, point.u)


def check_pde(model: MetricModel, point: IndicatrixPoint) -> np.ndarray:
    return pde_residual(_fields_at(model, point))[0]


def check_codazzi(model: MetricModel, point: IndicatrixPoint) -> np.ndarray:
    return codazzi_residual(_fields_at(model, point))[0]


def check_cartan_symmetry(model: MetricModel, point: IndicatrixPoint) -> np.ndarray:
    return cartan_symmetry_residual(_fields_at(model, point))[0]


def check_gauss(model: MetricModel, point: IndicatrixPoint) -> np.ndarray:
    return gauss_residual(_fields_at(model, point))[0]


def check_ricci(model: MetricModel, point: IndicatrixPoint) -> np.ndarray:
    """Commutator of the second and third covariant derivatives of the
    restricted S-curvature against the curvature contraction."""
    w, s_grad, r_up, _ = s_third_covariant(model, point.chart, point.u)
    lhs = w - np.transpose(w, (0, 2, 1))
    rhs = np.einsum("eabc,e->abc", r_up, s_grad)
    return lhs - rhs


def isotropy_residual(model: MetricModel, point: IndicatrixPoint) -> float:
    """max|E - (e/(n-1)) g| / max(1, max|E|) at the point."""
    snap = fibre_snapshot(model, point.chart, point.u)
    return isotropy_residual_from_fields(snap, model.dim)


def isotropy_residual_from_fields(rf, dim: int) -> float:
    """Accepts any bundle exposing g, berwald and e (full fields or snapshot)."""
    iso = rf.berwald - (rf.e / (dim - 1)) * rf.g
    return _maxabs(iso) / max(1.0, _maxabs(rf.berwald))


# -- reports ---------------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of one identity check over a sample of fibre points."""

    tag: str
    name: str
    metric_id: str
    dim: int
    seed: int
    tolerance: float
    max_residual: float
    passed: bool
    points: list = field(default_factory=list)
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "name": self.name,
            "metric_id": self.metric_id,
            "dim": self.dim,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "pass": self.passed,
            "points": self.points,
            **({"error": self.error} if self.error else {}),
        }

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_dict(), sort_keys=True).encode()


def sample_base_points(model: MetricModel, count: int, rng) -> list[np.ndarray]:
    return [model.sample_x(rng) for _ in range(count)]


_SUITE = (
    ("pde", "vertical-pde", pde_residual),
    ("cartan_symmetry", "cartan-derivative-symmetry", cartan_symmetry_residual),
    ("gauss", "fibre-gauss", gauss_residual),
    ("codazzi", "berwald-codazzi", codazzi_residual),
)


def run_identity_suite(
    model: MetricModel,
    base_points: int,
    fibre_samples: int,
    seed: int,
    tolerances: Mapping[str, float] | None = None,
) -> list[CheckReport]:
    """Evaluate the four identity checks over a seeded sample.

    One restricted-field bundle per point feeds all four residuals, and the
    points are visited in a fixed order, so reports are deterministic for a
    given (metric, seed, sample counts).
    """
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    rng = np.random.default_rng(seed)
    bases = sample_base_points(model, base_points, rng)
    reports = {
        key: CheckReport(
            tag=TAGS[key],
            name=name,
            metric_id=model.metric_id,
            dim=model.dim,
            seed=seed,
            tolerance=tol[TAGS[key]],
            max_residual=0.0,
            passed=True,
        )
        for key, name, _ in _SUITE
    }
    for b_index, x in enumerate(bases):
        points = sample_fibre_points(model, x, fibre_samples, rng)
        for f_index, point in enumerate(points):
            try:
                rf = restrict_fields(model, point.chart, point.u)
            except _DOMAIN_ERRORS as err:
                # not an identity exceedance; record where and fail the whole block
                where = f"base {b_index}, {_where(f_index, point)}"
                for key, _, _ in _SUITE:
                    reports[key].error = f"{type(err).__name__} at {where}: {err}"
                    reports[key].passed = False
                return list(reports.values())
            for key, _, residual_fn in _SUITE:
                tensor, scale = residual_fn(rf)
                value = _maxabs(tensor) / scale
                report = reports[key]
                report.points.append(
                    {"base": b_index, "fibre": f_index, "residual": value}
                )
                if value > report.max_residual:
                    report.max_residual = value
    for report in reports.values():
        report.passed = report.error is None and report.max_residual <= report.tolerance
    return list(reports.values())


# -- isotropy audit ----------------------------------------------------------------


@dataclass
class SchurAudit:
    """Fibrewise audit: if the mean Berwald pullback is isotropic at every
    sampled point, the Berwald scalar must be constant along the fibre.

    ``VIOLATION`` (isotropic but varying scalar, dim >= 3) signals an
    implementation bug, never geometry.  In dimension 2 the audit reports
    without asserting, so the verdict ``isotropic-nonconstant`` replaces it.
    """

    verdict: str
    metric_id: str
    dim: int
    seed: int
    samples: int
    max_isotropy_residual: float
    e_min: float
    e_max: float
    e_spread: float
    max_e_gradient: float
    asserted: bool
    tol_isotropy: float
    tol_constancy: float

    def to_dict(self) -> dict:
        return {
            "tag": TAGS["schur"],
            "verdict": self.verdict,
            "metric_id": self.metric_id,
            "dim": self.dim,
            "seed": self.seed,
            "samples": self.samples,
            "max_isotropy_residual": self.max_isotropy_residual,
            "e_min": self.e_min,
            "e_max": self.e_max,
            "e_spread": self.e_spread,
            "max_e_gradient": self.max_e_gradient,
            "asserted": self.asserted,
            "tol_isotropy": self.tol_isotropy,
            "tol_constancy": self.tol_constancy,
        }


def schur_audit(
    model: MetricModel,
    x,
    fibre_samples: int = 40,
    seed: int = 0,
    tol_isotropy: float | None = None,
    tol_constancy: float | None = None,
    rng=None,
) -> SchurAudit:
    tol_iso = DEFAULT_TOLERANCES["thm-1"] if tol_isotropy is None else tol_isotropy
    tol_const = DEFAULT_TOLERANCES["thm-1"] if tol_constancy is None else tol_constancy
    if rng is None:
        rng = np.random.default_rng(seed)
    points = sample_fibre_points(model, x, fibre_samples, rng)
    max_iso = 0.0
    e_values = []
    max_grad = 0.0
    for f_index, point in enumerate(points):
        with _stage("schur", f_index, point):
            bf = berwald_fields(model, point.chart, point.u)
        max_iso = max(max_iso, isotropy_residual_from_fields(bf, model.dim))
        e_values.append(bf.e)
        grad_norm = float(np.sqrt(bf.e_grad @ bf.g_inv @ bf.e_grad))
        max_grad = max(max_grad, grad_norm)
    e_min = min(e_values)
    e_max = max(e_values)
    spread = e_max - e_min
    isotropic = max_iso <= tol_iso
    constant = spread <= tol_const and max_grad <= tol_const
    if not isotropic:
        verdict = "non-isotropic"
    elif constant:
        verdict = "isotropic-and-constant"
    elif model.dim >= 3:
        verdict = "VIOLATION"
    else:
        verdict = "isotropic-nonconstant"
    return SchurAudit(
        verdict=verdict,
        metric_id=model.metric_id,
        dim=model.dim,
        seed=seed,
        samples=fibre_samples,
        max_isotropy_residual=max_iso,
        e_min=e_min,
        e_max=e_max,
        e_spread=spread,
        max_e_gradient=max_grad,
        asserted=model.dim >= 3,
        tol_isotropy=tol_iso,
        tol_constancy=tol_const,
    )


# -- weak isotropy of the S-curvature ------------------------------------------------


@dataclass
class WeakIsotropyRecord:
    """c = e/(n-1) from the fibre, and the worst y-Hessian of S - c F over the
    samples; a vanishing Hessian means S - c F is linear in y at fixed x."""

    c: float
    max_hessian_residual: float
    samples: int

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "max_hessian_residual": self.max_hessian_residual,
            "samples": self.samples,
        }


def _s_minus_cf_hessian(model: MetricModel, x, y, c: float) -> np.ndarray:
    """y-Hessian of S(x, .) - c F(x, .) at y, via jets.

    The volume contribution to S is linear in y at fixed x, so it drops out
    of the Hessian and only the spray part is differentiated.
    """
    n = model.dim
    with_x = model.depends_on_x
    tj = TensorJets(model, x, y, 5 if with_x else 2, with_x)
    total = s_main_jet(tj, 2) - c * tj.f_jet.truncated(2)
    return np.array(
        [[extract_derivative(total, tj.gamma(y_part=(i, j))) for j in range(n)] for i in range(n)]
    )


def weak_isotropy_check(
    model: MetricModel,
    x,
    fibre_samples: int = 20,
    seed: int = 0,
    rng=None,
    points: Sequence[IndicatrixPoint] | None = None,
    c: float | None = None,
) -> WeakIsotropyRecord:
    """Check that S - (e/(n-1)) F has a vanishing y-Hessian at fixed x.

    ``c`` defaults to e/(n-1) measured at the first sampled fibre point; a
    meaningful result therefore presumes the fibrewise constancy of e that
    :func:`schur_audit` establishes.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    if points is None:
        points = sample_fibre_points(model, x, fibre_samples, rng)
    if c is None:
        with _stage("weak-isotropy", 0, points[0]):
            snap = fibre_snapshot(model, points[0].chart, points[0].u)
        c = snap.e / (model.dim - 1)
    worst = 0.0
    for f_index, point in enumerate(points):
        with _stage("weak-isotropy", f_index, point):
            flag = chart_embed(point.chart, point.u)
            hess = _s_minus_cf_hessian(model, flag.x, flag.y, c)
        worst = max(worst, _maxabs(hess))
    return WeakIsotropyRecord(c=c, max_hessian_residual=worst, samples=len(points))
