"""Pointwise residual checks of the fibre identities, plus the isotropy audit
and the weak-isotropy test it feeds.

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

Every check reads the fibre through the members of one
:class:`~finslerlab.indicatrix.FibreJets` per point: the four identities of
the suite from one object at :data:`SUITE_CHART_ORDER`, ``eq-2.5`` from one
carrying S to chart order 3, and ``thm-1`` from one with g and E only.  The
audit of a fibre is one pass over its sampled points: one expansion per
point gives g, E, e and grad e for ``thm-1`` and, while every point so far
is isotropic, the y-Hessians of S and F for the weak-isotropy test, whose
residual max |Hess S - c Hess F| with c = e/(n-1) is formed once the fibre
is found isotropic with constant e.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Mapping

import numpy as np

from .core import (
    MetricModel,
    NonPositiveDefiniteError,
    NonPositiveMetricError,
    TensorJets,
    s_main_jet,
)
from .expr import EvalDomainError
from .indicatrix import FibreJets, IndicatrixPoint, fibre_jets, sample_fibre_points
from .jets import jet_partials
from .volume import QuadratureError

__all__ = [
    "TAGS",
    "DEFAULT_TOLERANCES",
    "CheckReport",
    "FibrePointError",
    "SchurAudit",
    "WeakIsotropyRecord",
    "SUITE_CHART_ORDER",
    "pde_residual",
    "codazzi_residual",
    "cartan_symmetry_residual",
    "gauss_residual",
    "check_ricci",
    "isotropy_residual",
    "schur_audit",
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


# the metric is not Finsler at a sampled point, or its volume coefficient
# cannot be computed there: an input fault, not a defect
_DOMAIN_ERRORS = (
    NonPositiveDefiniteError,
    NonPositiveMetricError,
    EvalDomainError,
    QuadratureError,
)


def _where(fibre: int, point: IndicatrixPoint) -> str:
    return f"fibre {fibre}, chart {point.chart.chart_id}, u={[float(v) for v in point.u]}"


class FibrePointError(ValueError):
    """A domain fault at one sampled fibre point of the isotropy audit, whose
    one stage is ``schur``; :meth:`located` adds the base point."""

    def __init__(self, error: Exception, fibre: int, point: IndicatrixPoint):
        self.error = error
        self.where = f"{_where(fibre, point)}, stage schur"
        super().__init__(f"{type(error).__name__} at {self.where}: {error}")

    def located(self, base: int) -> str:
        return f"{type(self.error).__name__} at base {base}, {self.where}: {self.error}"


def _scale(*terms) -> float:
    return max(1.0, *(float(np.max(np.abs(t))) for t in terms))


def _maxabs(t) -> float:
    return float(np.max(np.abs(t)))


# -- residual tensors at one fibre point ----------------------------------------

# the chart orders of a FibreJets the four residuals below read: g and S to
# order 2 (the curvature, Hess S), H and E to order 1 (their covariant
# derivatives)
SUITE_CHART_ORDER = {"g": 2, "s": 2, "h": 1, "e": 1}


def pde_residual(fj: FibreJets) -> tuple[np.ndarray, float]:
    """Hess(S) + H(., ., grad S) + S g - E, expected to vanish."""
    ds = fj.covariant(fj.s, 2)
    s_hess = fj.covariant(ds, 1)[..., 0]
    berwald = fj.e[..., 0]
    h_term = np.einsum("abe,ec,c->ab", fj.h[..., 0], fj.g_inv[..., 0], ds[..., 0])
    s_term = float(fj.s[0]) * fj.g[..., 0]
    residual = s_hess + h_term + s_term - berwald
    return residual, _scale(s_hess, h_term, s_term, berwald)


def codazzi_residual(fj: FibreJets) -> tuple[np.ndarray, float]:
    """E_{ab;c} - E_{ac;b} - (H_ab^d E_dc - H_ac^d E_db), expected to vanish."""
    berwald_cov = fj.covariant(fj.e, 1)[..., 0]
    he = np.einsum("abe,ed,dc->abc", fj.h[..., 0], fj.g_inv[..., 0], fj.e[..., 0])
    first = berwald_cov - np.transpose(berwald_cov, (0, 2, 1))
    second = he - np.transpose(he, (0, 2, 1))
    return first - second, _scale(berwald_cov, he)


def cartan_symmetry_residual(fj: FibreJets) -> tuple[np.ndarray, float]:
    """H_{abc;d} - H_{abd;c}: the covariant derivative of the Cartan pullback
    is symmetric under exchanging the derivative slot with a tensor slot."""
    cartan_cov = fj.covariant(fj.h, 1)[..., 0]
    residual = cartan_cov - np.transpose(cartan_cov, (0, 1, 3, 2))
    return residual, _scale(cartan_cov)


def gauss_residual(fj: FibreJets) -> tuple[np.ndarray, float]:
    """Curvature against the quadratic Cartan terms and the constant-curvature
    part, in the calibrated index convention."""
    g, cartan = fj.g[..., 0], fj.h[..., 0]
    q = np.einsum("bce,ef,fad->bcad", cartan, fj.g_inv[..., 0], cartan)
    hh = np.einsum("bcad->abcd", q) - np.einsum("bdac->abcd", q)
    gg = np.einsum("bc,ad->abcd", g, g) - np.einsum("bd,ac->abcd", g, g)
    riemann = fj.curvature[1]
    residual = riemann - (hh - gg)
    return residual, _scale(riemann, hh, gg)


def isotropy_residual(fj: FibreJets) -> float:
    """max|E - (e/(n-1)) g| / max(1, max|E|) at a fibre point whose g and E
    are carried to chart order >= 1."""
    e = float(fj.berwald_scalar[0])
    berwald = fj.e[..., 0]
    iso = berwald - (e / (fj.model.dim - 1)) * fj.g[..., 0]
    return _maxabs(iso) / max(1.0, _maxabs(berwald))


# -- the commutator check, which needs a third derivative of S -------------------


def check_ricci(model: MetricModel, point: IndicatrixPoint) -> np.ndarray:
    """Commutator of the second and third covariant derivatives of the
    restricted S-curvature against the curvature contraction."""
    fj = fibre_jets(model, point.chart, point.u, {"g": 2, "s": 3})
    r_up = fj.curvature[0]
    s_grad = fj.covariant(fj.s, 3)
    w = fj.covariant(fj.covariant(s_grad, 2), 1)[..., 0]  # W_abc, derivative slots last
    lhs = w - np.transpose(w, (0, 2, 1))
    rhs = np.einsum("eabc,e->abc", r_up, s_grad[..., 0])
    return lhs - rhs


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

    One :class:`~finslerlab.indicatrix.FibreJets` per point, at
    :data:`SUITE_CHART_ORDER`, feeds all four residuals, and a point's rows
    are recorded once all four are evaluated, so a domain fault leaves no
    row of its point in any report.  The points are visited in a fixed
    order, so reports are deterministic for a given (metric, seed, sample
    counts).
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
                fj = fibre_jets(model, point.chart, point.u, SUITE_CHART_ORDER)
                # g (through the curvature), S, E, then H: a point where more
                # than one of them fails names the first
                for member in ("curvature", "s", "e", "h"):
                    getattr(fj, member)
                residuals = [residual_fn(fj) for _, _, residual_fn in _SUITE]
            except _DOMAIN_ERRORS as err:
                # not an identity exceedance; record where and fail the whole block
                where = f"base {b_index}, {_where(f_index, point)}"
                for key, _, _ in _SUITE:
                    reports[key].error = f"{type(err).__name__} at {where}: {err}"
                    reports[key].passed = False
                return list(reports.values())
            for (key, _, _), (tensor, scale) in zip(_SUITE, residuals):
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
class WeakIsotropyRecord:
    """c = e/(n-1) from the fibre, and the worst y-Hessian of S - c F over the
    samples; a vanishing Hessian means S - c F is linear in y at fixed x."""

    c: float
    max_hessian_residual: float
    samples: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SchurAudit:
    """Fibrewise audit: if the mean Berwald pullback is isotropic at every
    sampled point, the Berwald scalar must be constant along the fibre.

    ``VIOLATION`` (isotropic but varying scalar, dim >= 3) signals an
    implementation bug, never geometry.  In dimension 2 the audit reports
    without asserting, so the verdict ``isotropic-nonconstant`` replaces it.
    ``weak`` is the weak-isotropy record of an ``isotropic-and-constant``
    fibre, else None; it is reported beside the ``thm-1`` record.
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
    tol: float
    weak: WeakIsotropyRecord | None = None

    def to_dict(self) -> dict:
        record = asdict(self)
        del record["weak"]
        tol = record.pop("tol")  # bounds both the isotropy and the constancy test
        return {"tag": TAGS["schur"], **record, "tol_isotropy": tol, "tol_constancy": tol}


def _y_hessians(tj: TensorJets) -> tuple[np.ndarray, np.ndarray]:
    """y-Hessians of the volume-free S and of F at the flag point of an
    expansion of order >= 5 over (x, y), or >= 2 over y for an x-free F.

    The volume contribution to S is linear in y at fixed x, so the y-Hessian
    of S - c F is the first minus c times the second.
    """
    gammas, n = tj.gammas(0, 2), tj.n
    s_and_f = ((tj.x_free(2), s_main_jet(tj, 2)), (tj.f_jet.space, tj.f_jet.coeffs))
    return tuple(jet_partials(*jet, gammas)[..., 0].reshape(n, n) for jet in s_and_f)


def schur_audit(
    model: MetricModel,
    x,
    fibre_samples: int = 40,
    seed: int = 0,
    tol: float | None = None,
    rng=None,
) -> SchurAudit:
    """Audit one fibre in one pass; ``tol`` (default the ``thm-1``
    tolerance) bounds both the isotropy residual and the variation of the
    Berwald scalar.

    One expansion per sampled point feeds both tests: g, E, e and grad e for
    ``thm-1`` and, while every point so far is isotropic, the y-Hessians of
    the volume-free S and of F, from which an ``isotropic-and-constant``
    verdict forms the weak-isotropy record.  Every point checks that g is
    positive definite; a domain fault is raised as a
    :class:`FibrePointError` of stage ``schur``.
    """
    if tol is None:
        tol = DEFAULT_TOLERANCES["thm-1"]
    if rng is None:
        rng = np.random.default_rng(seed)
    points = sample_fibre_points(model, x, fibre_samples, rng)
    max_iso = 0.0
    e_values = []
    max_grad = 0.0
    hessians = []
    for f_index, point in enumerate(points):
        try:
            fj = fibre_jets(model, point.chart, point.u, {"g": 1, "e": 1})
            max_iso = max(max_iso, isotropy_residual(fj))
            if max_iso <= tol:
                hessians.append(_y_hessians(fj.tj))
        except _DOMAIN_ERRORS as err:
            raise FibrePointError(err, f_index, point) from err
        e_values.append(float(fj.berwald_scalar[0]))
        e_grad = fj.covariant(fj.berwald_scalar, 1)[..., 0]
        grad_norm = float(np.sqrt(e_grad @ fj.g_inv[..., 0] @ e_grad))
        max_grad = max(max_grad, grad_norm)
    e_min = min(e_values)
    e_max = max(e_values)
    spread = e_max - e_min
    isotropic = max_iso <= tol
    constant = spread <= tol and max_grad <= tol
    weak = None
    if not isotropic:
        verdict = "non-isotropic"
    elif constant:
        verdict = "isotropic-and-constant"
        c = e_values[0] / (model.dim - 1)  # Hess(S - c F) is linear in c, so c comes last
        worst = max(_maxabs(hess_s - c * hess_f) for hess_s, hess_f in hessians)
        weak = WeakIsotropyRecord(c=c, max_hessian_residual=worst, samples=len(hessians))
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
        tol=tol,
        weak=weak,
    )
