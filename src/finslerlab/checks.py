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

Every check reads the fibre through the members of a
:class:`~finslerlab.indicatrix.FibreJets` over a batch of points, and every
residual and audit quantity below is computed once per batch, one row per
point: the four identities of the suite at :data:`SUITE_CHART_ORDER`,
``eq-2.5`` from a batch of one carrying S to chart order 3, and ``thm-1``
with g and E only.  The suite and the audit walk one :func:`sweep` of
seeded base and fibre points, drawn in a fixed order and evaluated in
batches of up to :data:`BATCH_POINTS` points across fibres.  The sweep is
their one fault boundary: an input fault at a point, or a residual, scale
or audit quantity that is not finite, is a :class:`PointFault` naming base,
fibre, chart and u.  A batch with such a point is run again one point at a
time, so the fault and the points kept before it are those of a sweep of
batches of one.  The audit of a fibre takes one expansion per point for g,
E, e and grad e and, at the leading run of isotropic points of the fibre,
the weak-isotropy residual max |Hess S - c Hess F| with c = e/(n-1) at its
first point, from one call per batch.
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
from .indicatrix import FibreJets, IndicatrixPoint, fibre_batch, fibre_point_draws
from .jets import jet_partials

__all__ = [
    "DEFAULT_TOLERANCES",
    "CheckReport",
    "PointFault",
    "NonFiniteError",
    "SchurAudit",
    "WeakIsotropyRecord",
    "SUITE_CHART_ORDER",
    "BATCH_POINTS",
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


def _maxabs(t) -> np.ndarray:
    """max |t| over the slots, one value per point."""
    return np.abs(t).max(axis=tuple(range(1, t.ndim)))


def _scale(*terms) -> np.ndarray:
    """max(1, max |t| over the terms) per point; as with Python's ``max``
    from 1.0, a NaN term never wins."""
    return np.fmax.reduce([np.ones(len(terms[0])), *map(_maxabs, terms)])


# -- residual tensors over a batch of fibre points ---------------------------------

# the chart orders of a FibreJets the four residuals below read: g and S to
# order 2 (the curvature, Hess S), H and E to order 1 (their covariant
# derivatives)
SUITE_CHART_ORDER = {"g": 2, "s": 2, "h": 1, "e": 1}


def pde_residual(fj: FibreJets) -> tuple[np.ndarray, np.ndarray]:
    """Hess(S) + H(., ., grad S) + S g - E, expected to vanish."""
    ds = fj.covariant(fj.s, 2)
    s_hess = fj.covariant(ds, 1)[..., 0]
    berwald = fj.e[..., 0]
    h_term = np.einsum("...abe,...ec,...c->...ab", fj.h[..., 0], fj.g_inv[..., 0], ds[..., 0])
    s_term = fj.s[:, 0, None, None] * fj.g[..., 0]
    residual = s_hess + h_term + s_term - berwald
    return residual, _scale(s_hess, h_term, s_term, berwald)


def codazzi_residual(fj: FibreJets) -> tuple[np.ndarray, np.ndarray]:
    """E_{ab;c} - E_{ac;b} - (H_ab^d E_dc - H_ac^d E_db), expected to vanish."""
    berwald_cov = fj.covariant(fj.e, 1)[..., 0]
    he = np.einsum("...abe,...ed,...dc->...abc", fj.h[..., 0], fj.g_inv[..., 0], fj.e[..., 0])
    first = berwald_cov - np.swapaxes(berwald_cov, -1, -2)
    second = he - np.swapaxes(he, -1, -2)
    return first - second, _scale(berwald_cov, he)


def cartan_symmetry_residual(fj: FibreJets) -> tuple[np.ndarray, np.ndarray]:
    """H_{abc;d} - H_{abd;c}: the covariant derivative of the Cartan pullback
    is symmetric under exchanging the derivative slot with a tensor slot."""
    cartan_cov = fj.covariant(fj.h, 1)[..., 0]
    residual = cartan_cov - np.swapaxes(cartan_cov, -1, -2)
    return residual, _scale(cartan_cov)


def gauss_residual(fj: FibreJets) -> tuple[np.ndarray, np.ndarray]:
    """Curvature against the quadratic Cartan terms and the constant-curvature
    part, in the calibrated index convention."""
    g, cartan = fj.g[..., 0], fj.h[..., 0]
    q = np.einsum("...bce,...ef,...fad->...bcad", cartan, fj.g_inv[..., 0], cartan)
    hh = np.einsum("...bcad->...abcd", q) - np.einsum("...bdac->...abcd", q)
    gg = np.einsum("...bc,...ad->...abcd", g, g) - np.einsum("...bd,...ac->...abcd", g, g)
    riemann = fj.curvature[1]
    residual = riemann - (hh - gg)
    return residual, _scale(riemann, hh, gg)


def isotropy_residual(fj: FibreJets) -> np.ndarray:
    """max|E - (e/(n-1)) g| / max(1, max|E|) per point, for fibre points
    whose g and E are carried to chart order >= 1."""
    e = fj.berwald_scalar[:, 0]
    berwald = fj.e[..., 0]
    iso = berwald - (e / (fj.model.dim - 1))[:, None, None] * fj.g[..., 0]
    return _maxabs(iso) / _scale(berwald)


# -- the commutator check, which needs a third derivative of S -------------------


def check_ricci(model: MetricModel, point: IndicatrixPoint) -> np.ndarray:
    """Commutator of the second and third covariant derivatives of the
    restricted S-curvature against the curvature contraction, at one point
    (a batch of one)."""
    fj = fibre_batch(model, [point], {"g": 2, "s": 3})
    r_up = fj.curvature[0]
    s_grad = fj.covariant(fj.s, 3)
    w = fj.covariant(fj.covariant(s_grad, 2), 1)[..., 0]  # W_abc, derivative slots last
    lhs = w - np.swapaxes(w, -1, -2)
    rhs = np.einsum("...eabc,...e->...abc", r_up, s_grad[..., 0])
    return (lhs - rhs)[0]


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

# the most fibre points one batch of the sweep evaluates at once: a batch
# holds every field of its points, so the cap bounds the memory of a sweep
BATCH_POINTS = 16

# what a batch raises when one of its points fails: the batch is then run
# again one point at a time, which names that point
_BATCH_FAULTS = (InputFault, ArithmeticError, np.linalg.LinAlgError)


def sweep(
    model: MetricModel, bases: list[np.ndarray], samples: int, rng, chart_order, work, stage
) -> Iterator[tuple[int, int, IndicatrixPoint, dict]]:
    """Yield ``(base, fibre, point, quantities)`` in a fixed order: the base
    points x in ``bases`` in turn, each numbered by its position, and the
    ``samples`` points of the fibre over each drawn from ``rng`` by
    :func:`~finslerlab.indicatrix.fibre_point_draws`.

    The points are evaluated in batches of up to :data:`BATCH_POINTS`, across
    fibres: ``work(fj, fibres)`` reads one FibreJets of ``chart_order`` over
    the batch and returns one dict of named floats per point.  ``fibres``
    lists the fibres of the batch in order, each as ``(earlier, count)``:
    the quantities of its points before the batch, and the number of its
    points in the batch, which are consecutive.

    A fault there or in drawing the point, or a quantity that is not
    finite, is a :class:`PointFault` naming the point and ``stage``.  A
    batch with a faulty point is run again one point at a time, so the fault
    and the items yielded before it are those of a sweep of batches of
    one; a draw that fails ends its batch, and is raised once the points
    drawn before it have run."""
    earlier: dict[int, list] = {}
    batch: list = []
    for base, x in enumerate(bases):
        draws = fibre_point_draws(model, x, rng)
        for fibre in range(samples):
            try:
                point = next(draws)
            except InputFault as err:
                yield from _batch_sweep(model, batch, earlier, chart_order, work, stage)
                raise PointFault(err, base, fibre, None, stage) from err
            batch.append((base, fibre, point))
            if len(batch) == BATCH_POINTS:
                yield from _batch_sweep(model, batch, earlier, chart_order, work, stage)
                batch = []
    yield from _batch_sweep(model, batch, earlier, chart_order, work, stage)


def _batch_sweep(model, batch, earlier, chart_order, work, stage):
    """The sweep items of one batch of drawn points; a batch with a faulty
    point is replayed as batches of one."""
    if len(batch) > 1:
        try:
            rows = _quantities(model, batch, earlier, chart_order, work)
        except _BATCH_FAULTS:
            pass  # replayed below
        else:
            for (base, fibre, point), quantities in zip(batch, rows):
                earlier.setdefault(base, []).append(quantities)
                yield base, fibre, point, quantities
            return
    for base, fibre, point in batch:
        try:
            (quantities,) = _quantities(model, [(base, fibre, point)], earlier, chart_order, work)
        except InputFault as err:
            raise PointFault(err, base, fibre, point, stage) from err
        earlier.setdefault(base, []).append(quantities)
        yield base, fibre, point, quantities


def _quantities(model, batch, earlier, chart_order, work) -> list[dict]:
    """``work`` over one batch, each quantity checked to be finite."""
    fj = fibre_batch(model, [point for *_, point in batch], chart_order)
    bases = [base for base, *_ in batch]
    fibres = [(earlier.get(base, []), len(list(run))) for base, run in groupby(bases)]
    rows = work(fj, fibres)
    for quantities in rows:
        for name, value in quantities.items():
            if not math.isfinite(value):
                raise NonFiniteError(f"the {name} is {value!r}, not a finite number")
    return rows


# -- the identity suite ------------------------------------------------------------

_SUITE = (
    ("eq-2.1", "vertical-pde", pde_residual),
    ("eq-1.11", "cartan-derivative-symmetry", cartan_symmetry_residual),
    ("eq-1.12", "fibre-gauss", gauss_residual),
    ("eq-2.2", "berwald-codazzi", codazzi_residual),
)


def _suite_batch(fj: FibreJets, fibres: list) -> list[dict]:
    """The four residuals at each point of a batch, each with its scale."""
    # g (through the curvature), S, E, then H: a point where more than one of
    # them fails names the first
    for member in ("curvature", "s", "e", "h"):
        getattr(fj, member)
    columns = {}
    for tag, _, residual_fn in _SUITE:
        tensor, scale = residual_fn(fj)
        columns[f"{tag} residual"] = _maxabs(tensor) / scale
        columns[f"{tag} scale"] = scale
    return [dict(zip(columns, values)) for values in zip(*(c.tolist() for c in columns.values()))]


def run_identity_suite(
    model: MetricModel, base_points: int, fibre_samples: int, seed: int,
    tolerances: Mapping[str, float] | None = None,
) -> list[CheckReport]:
    """The four identity checks over one :func:`sweep` of a seeded sample,
    with FibreJets at :data:`SUITE_CHART_ORDER`; deterministic for
    a given (metric, seed, sample counts).  A :class:`PointFault` fails
    every block, which keeps the rows of the points before its point."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    rng = np.random.default_rng(seed)
    bases = sample_base_points(model, base_points, rng)
    rows, error = [], None
    try:
        for base, fibre, _, quantities in sweep(
            model, bases, fibre_samples, rng, SUITE_CHART_ORDER, _suite_batch, None
        ):
            rows.append((base, fibre, quantities))
    except PointFault as err:
        # the metric is not Finsler at this point, its volume coefficient
        # cannot be computed there, or a residual overflowed: not an identity
        # exceedance
        error = str(err)
    reports = []
    for tag, name, _ in _SUITE:
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
        return {"tag": "thm-1", **record, "tol_isotropy": tol, "tol_constancy": tol}


def _y_hessians(tj: TensorJets) -> tuple[np.ndarray, np.ndarray]:
    """y-Hessians of the volume-free S and of F at the flag points of an
    expansion of order >= 5 over (x, y), or >= 2 over y for an x-free F, one
    per point.

    The volume contribution to S is linear in y at fixed x, so the y-Hessian
    of S - c F is the first minus c times the second.
    """
    gammas, n = tj.gammas(0, 2), tj.n
    s_and_f = ((tj.x_free(2), s_main_jet(tj, 2)), (tj.f_space, tj.f))
    return tuple(jet_partials(*jet, gammas)[..., 0].reshape(-1, n, n) for jet in s_and_f)


_AUDIT_ORDER = {"g": 1, "e": 1}  # g and E to chart order 1, for grad e


def _audit_batch(tol: float, fj: FibreJets, fibres: list) -> list[dict]:
    """The audit's quantities at each point of a batch: the isotropy
    residual, e and |grad e|; and, at the leading run of isotropic points of
    each fibre, c = e/(n-1) at its first point and the weak-isotropy residual
    max |Hess S - c Hess F|, from one call at those points."""
    iso = isotropy_residual(fj)
    e = fj.berwald_scalar[:, 0]
    e_grad = fj.covariant(fj.berwald_scalar, 1)[..., 0]
    grad_norm = np.sqrt(e_grad[:, None, :] @ fj.g_inv[..., 0] @ e_grad[:, :, None])[:, 0, 0]
    rows = [
        {"isotropy residual": r, "e": v, "|grad e|": g}
        for r, v, g in zip(iso.tolist(), e.tolist(), grad_norm.tolist())
    ]
    at, cs, start = [], [], 0
    for before, count in fibres:
        run = not before or "Hessian residual" in before[-1]
        first = before[0]["e"] if before else rows[start]["e"]
        for k in range(start, start + count):
            run = run and rows[k]["isotropy residual"] <= tol
            if run:
                at.append(k)
                cs.append(first / (fj.model.dim - 1))
        start += count
    if at:
        hess_s, hess_f = _y_hessians(fj.tj.take(at))
        residuals = _maxabs(hess_s - np.array(cs)[:, None, None] * hess_f)
        for k, c, r in zip(at, cs, residuals.tolist()):
            rows[k].update({"c": c, "Hessian residual": r})
    return rows


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
    work, rng = partial(_audit_batch, tol), np.random.default_rng(seed)
    bases = sample_base_points(model, base_points, rng)
    points = sweep(model, bases, fibre_samples, rng, _AUDIT_ORDER, work, "schur")
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
    work = partial(_audit_batch, tol)
    points = sweep(model, [x], fibre_samples, rng, _AUDIT_ORDER, work, "schur")
    return _fibre_audit(model, list(points), seed, tol)
