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
suite and the audit walk one :func:`sweep` of seeded base and fibre points,
which is their one fault boundary: an input fault at a point, or a
residual, scale or audit quantity that is not finite, is a
:class:`PointFault` naming base, fibre, chart and u.  The audit of a fibre
takes one expansion per point for g, E, e and grad e and, while every point
so far is isotropic, for the weak-isotropy residual max |Hess S - c Hess F|
with c = e/(n-1) at the fibre's first point.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import groupby
from typing import Iterator, Mapping

import numpy as np

from . import InputFault
from .core import MetricModel, TensorJets, s_main_jet
from .indicatrix import FibreJets, IndicatrixPoint, fibre_jets, fibre_point_draws
from .jets import jet_partials

__all__ = [
    "TAGS",
    "DEFAULT_TOLERANCES",
    "CheckReport",
    "PointFault",
    "NonFiniteError",
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
    "run_isotropy_audit",
    "run_identity_suite",
    "sample_base_points",
    "sweep",
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


class PointFault(InputFault):
    """An input fault at one sampled fibre point of :func:`sweep`, named by
    its base point, fibre point, chart and chart coordinate, and by the
    stage of the caller's work where it has one; where drawing the point
    failed, ``point`` is None and only base and fibre are named."""

    def __init__(self, error: Exception, base: int, fibre: int, point: IndicatrixPoint | None, stage):
        where = f"base {base}, fibre {fibre}"
        if point is not None:
            where += f", chart {point.chart.chart_id}, u={point.u.tolist()}"
            where += f", stage {stage}" if stage else ""
        super().__init__(f"{type(error).__name__} at {where}: {error}")


class NonFiniteError(InputFault):
    """A residual, its scale or an audit quantity at a sampled point is not
    finite: the numbers behind it overflowed, so it can neither pass nor fail."""


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
        record = asdict(self)
        record["pass"] = record.pop("passed")
        if not self.error:
            del record["error"]
        return record

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_dict(), sort_keys=True).encode()


def sample_base_points(model: MetricModel, count: int, rng) -> list[np.ndarray]:
    return [model.sample_x(rng) for _ in range(count)]


# -- the sweep over sampled fibre points -------------------------------------------


def sweep(
    model: MetricModel, base_points: int, samples: int, rng, chart_order, work, stage
) -> Iterator[tuple[int, int, IndicatrixPoint, dict]]:
    """Yield ``(base, fibre, point, quantities)`` in a fixed order: the base
    points drawn from ``rng`` by :func:`sample_base_points`, then the points
    of each fibre by :func:`~finslerlab.indicatrix.fibre_point_draws`.
    ``work(fj, earlier)`` reads one FibreJets of ``chart_order`` per point,
    given the quantities of the earlier points of its fibre, and returns
    named floats.  A fault there or in drawing the point, or a quantity that
    is not finite, is a :class:`PointFault` naming the point and ``stage``."""
    for base, x in enumerate(sample_base_points(model, base_points, rng)):
        yield from _fibre_sweep(model, base, x, samples, rng, chart_order, work, stage)


def _fibre_sweep(model, base, x, samples, rng, chart_order, work, stage):
    """:func:`sweep` over the one fibre at x, numbered ``base``."""
    earlier: list[dict] = []
    draws = fibre_point_draws(model, x, rng)
    for fibre in range(samples):
        point = None
        try:
            point = next(draws)
            quantities = work(fibre_jets(model, point.chart, point.u, chart_order), earlier)
            for name, value in quantities.items():
                if not math.isfinite(value):
                    raise NonFiniteError(f"the {name} is {value!r}, not a finite number")
        except InputFault as err:
            raise PointFault(err, base, fibre, point, stage) from err
        earlier.append(quantities)
        yield base, fibre, point, quantities


# -- the identity suite ------------------------------------------------------------

_SUITE = (
    ("pde", "vertical-pde", pde_residual),
    ("cartan_symmetry", "cartan-derivative-symmetry", cartan_symmetry_residual),
    ("gauss", "fibre-gauss", gauss_residual),
    ("codazzi", "berwald-codazzi", codazzi_residual),
)


def _suite_point(fj: FibreJets, earlier: list) -> dict:
    """The four residuals at one point, each with its scale."""
    # g (through the curvature), S, E, then H: a point where more than one of
    # them fails names the first
    for member in ("curvature", "s", "e", "h"):
        getattr(fj, member)
    quantities = {}
    for key, _, residual_fn in _SUITE:
        tensor, scale = residual_fn(fj)
        quantities[f"{TAGS[key]} residual"] = _maxabs(tensor) / scale
        quantities[f"{TAGS[key]} scale"] = scale
    return quantities


def run_identity_suite(
    model: MetricModel, base_points: int, fibre_samples: int, seed: int,
    tolerances: Mapping[str, float] | None = None,
) -> list[CheckReport]:
    """The four identity checks over one :func:`sweep` of a seeded sample,
    one FibreJets per point at :data:`SUITE_CHART_ORDER`; deterministic for
    a given (metric, seed, sample counts).  A :class:`PointFault` fails
    every block, which keeps the rows of the points before its point."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    rng = np.random.default_rng(seed)
    rows, error = [], None
    try:
        for base, fibre, _, quantities in sweep(
            model, base_points, fibre_samples, rng, SUITE_CHART_ORDER, _suite_point, None
        ):
            rows.append((base, fibre, quantities))
    except PointFault as err:
        # the metric is not Finsler at this point, its volume coefficient
        # cannot be computed there, or a residual overflowed: not an identity
        # exceedance
        error = str(err)
    reports = []
    for key, name, _ in _SUITE:
        tag = TAGS[key]
        points = [
            {"base": b, "fibre": f, "residual": q[f"{tag} residual"]} for b, f, q in rows
        ]
        worst = max([0.0] + [row["residual"] for row in points])
        passed = error is None and worst <= tol[tag]
        reports.append(CheckReport(
            tag, name, model.metric_id, model.dim, seed, tol[tag], worst, passed, points, error
        ))
    return reports


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


_AUDIT_ORDER = {"g": 1, "e": 1}  # g and E to chart order 1, for grad e


def _audit_point(tol: float, fj: FibreJets, earlier: list) -> dict:
    """The audit's quantities at one point: the isotropy residual, e, |grad e|
    and, while every point of the fibre so far is isotropic, c = e/(n-1) at
    its first point and the weak-isotropy residual max |Hess S - c Hess F|."""
    iso = isotropy_residual(fj)
    e = float(fj.berwald_scalar[0])
    e_grad = fj.covariant(fj.berwald_scalar, 1)[..., 0]
    grad_norm = float(np.sqrt(e_grad @ fj.g_inv[..., 0] @ e_grad))
    quantities = {"isotropy residual": iso, "e": e, "|grad e|": grad_norm}
    if iso <= tol and (not earlier or "Hessian residual" in earlier[-1]):
        hess_s, hess_f = _y_hessians(fj.tj)
        c = (earlier[0]["e"] if earlier else e) / (fj.model.dim - 1)
        quantities.update({"c": c, "Hessian residual": _maxabs(hess_s - c * hess_f)})
    return quantities


def _fibre_audit(model: MetricModel, fibre: list[tuple], seed: int, tol: float) -> SchurAudit:
    """The verdict of one fibre from the :func:`sweep` items of its points."""
    points = [quantities for *_, quantities in fibre]
    max_iso = max(0.0, *(q["isotropy residual"] for q in points))
    max_grad = max(0.0, *(q["|grad e|"] for q in points))
    e_min, e_max = min(q["e"] for q in points), max(q["e"] for q in points)
    spread = e_max - e_min
    weak = None
    if max_iso > tol:
        verdict = "non-isotropic"
    elif spread <= tol and max_grad <= tol:
        verdict = "isotropic-and-constant"
        worst = max(q["Hessian residual"] for q in points)
        weak = WeakIsotropyRecord(c=points[0]["c"], max_hessian_residual=worst, samples=len(points))
    elif model.dim >= 3:
        verdict = "VIOLATION"
    else:
        verdict = "isotropic-nonconstant"
    return SchurAudit(
        verdict, model.metric_id, model.dim, seed, len(points), max_iso,
        e_min, e_max, spread, max_grad, model.dim >= 3, tol, weak,
    )


def run_isotropy_audit(
    model: MetricModel, base_points: int, fibre_samples: int, seed: int, tol: float
) -> list[tuple[np.ndarray, SchurAudit]]:
    """The audit of each fibre of one :func:`sweep` over a seeded sample,
    with its base point; ``tol`` bounds both the isotropy residual and the
    variation of the Berwald scalar.  A fault, also where g is not positive
    definite, is a :class:`PointFault` of stage ``schur``."""
    work, rng = partial(_audit_point, tol), np.random.default_rng(seed)
    points = sweep(model, base_points, fibre_samples, rng, _AUDIT_ORDER, work, "schur")
    fibres = [list(fibre) for _, fibre in groupby(points, key=lambda item: item[0])]
    return [(fibre[0][2].chart.x, _fibre_audit(model, fibre, seed, tol)) for fibre in fibres]


def schur_audit(
    model: MetricModel, x, fibre_samples: int = 40, seed: int = 0, tol: float | None = None,
    rng=None,
) -> SchurAudit:
    """:func:`run_isotropy_audit` of the one fibre over x, numbered base 0,
    its points drawn from ``rng`` (default seeded by ``seed``); ``tol``
    defaults to the ``thm-1`` tolerance."""
    tol = DEFAULT_TOLERANCES["thm-1"] if tol is None else tol
    rng = np.random.default_rng(seed) if rng is None else rng
    work = partial(_audit_point, tol)
    points = _fibre_sweep(model, 0, x, fibre_samples, rng, _AUDIT_ORDER, work, "schur")
    return _fibre_audit(model, list(points), seed, tol)
