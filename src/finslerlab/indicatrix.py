"""Intrinsic Riemannian geometry of the unit-sphere fibres S_xM = {F(x, .) = 1}.

Each fibre is covered by two stereographic charts of the parameter sphere;
chart coordinates u embed through the radial graph

    y(u) = theta(u) / F(x, theta(u)),

so F(x, y(u)) = 1 identically.  The induced metric is the pullback of the
fundamental tensor, the fibre connection is its Levi-Civita connection, and
curvature and covariant derivatives are computed in chart coordinates.

One pipeline per fibre point: :func:`fibre_jets` expands F once at the
embedded flag point (one :class:`~finslerlab.core.TensorJets`, read through
the core extractors) and composes it with the chart jets of y(u), giving
chart jets of the induced metric g, the Cartan pullback H, the mean Berwald
pullback E and the restricted S-curvature, each computed when first read
at the chart order the caller asked for; the fields of one chart order share
one monomial basis of y(u) - y(u0), and the two charts of a fibre share one
gradient of ln sigma.  Every u-derivative is exact to roundoff.
:func:`restrict_fields`, :func:`fibre_snapshot`, :func:`berwald_fields`,
:func:`s_third_covariant`, :func:`induced_metric`, :func:`christoffels`,
:func:`riemann` and the ``*_field`` factories are views of it, built from
one pullback and one rank-generic covariant derivative.

Sign and index conventions are frozen by the Euclidean calibration: for
F = |y| in dimension 3 the induced metric at the chart centre is 4 times
the identity and the lowered curvature component R_1212 equals +16, which
normalises the sectional curvature of the round fibre to +1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from . import jets
from .core import (
    FlagPoint,
    MetricModel,
    NonPositiveMetricError,
    SamplingError,
    TensorJets,
    _check_pd,
    berwald_jets,
    cartan_jets,
    dln_sigma,
    g_jets,
    s_main_jet,
)
from .expr import evaluate
from .jets import Jet, jet_matrix_inverse, jet_truncated, jet_values

__all__ = [
    "CHART_RADIUS",
    "FibreChart",
    "IndicatrixPoint",
    "FibreJets",
    "RestrictedFields",
    "parameter_direction",
    "direction_chart",
    "chart_transition",
    "transition_jacobian",
    "chart_embed",
    "fibre_jets",
    "induced_metric",
    "christoffels",
    "riemann",
    "restrict_fields",
    "FibreSnapshot",
    "fibre_snapshot",
    "BerwaldFields",
    "berwald_fields",
    "s_third_covariant",
    "covariant_derivative",
    "induced_metric_field",
    "cartan_field",
    "berwald_field",
    "s_field",
    "sample_fibre_points",
]

CHART_RADIUS = 4.0
POLE_MARGIN = 1e-6


@dataclass(frozen=True, eq=False)
class FibreChart:
    """A stereographic chart of the fibre over base point x."""

    model: MetricModel
    x: np.ndarray
    chart_id: str  # "north" or "south"
    # holds grad ln sigma at x once computed; the charts of one fibre share it
    _volume_gradient: dict = dataclasses.field(default_factory=dict, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if self.chart_id not in ("north", "south"):
            raise ValueError(f"chart_id must be 'north' or 'south', got {self.chart_id!r}")
        if self.x.shape != (self.model.dim,):
            raise ValueError("base point dimension does not match the model")
        if np.linalg.norm(self.x) >= self.model.x_max_norm:
            raise ValueError(
                f"|x| = {np.linalg.norm(self.x):.4f} outside the metric's domain "
                f"(requires |x| < {self.model.x_max_norm})"
            )

    @property
    def sigma_grad(self) -> np.ndarray:
        """Gradient of ln sigma at the base point, which every point of the
        fibre shares; computed on first use, by the S-curvature only, and
        shared with the :meth:`opposite` chart."""
        if "grad" not in self._volume_gradient:
            self._volume_gradient["grad"] = dln_sigma(self.model, self.x)
        return self._volume_gradient["grad"]

    def opposite(self) -> "FibreChart":
        """The other chart of the same fibre, sharing the volume gradient."""
        other = "south" if self.chart_id == "north" else "north"
        return FibreChart(self.model, self.x, other, self._volume_gradient)


@dataclass(frozen=True, eq=False)
class IndicatrixPoint:
    """A chart plus a chart coordinate on the fibre."""

    chart: FibreChart
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if self.u.shape != (self.chart.model.dim - 1,):
            raise ValueError("chart coordinate has wrong length")
        _validate_chart_coord(self.u)


def _validate_chart_coord(u: np.ndarray):
    if np.linalg.norm(u) >= CHART_RADIUS:
        raise ValueError(
            f"|u| = {np.linalg.norm(u):.3f} outside the chart validity region "
            f"(|u| < {CHART_RADIUS})"
        )


# -- the parameter sphere ----------------------------------------------------


def parameter_direction(chart_id: str, u) -> np.ndarray:
    """Inverse stereographic map of the chart coordinate to the unit sphere;
    generic over floats and jets."""
    s = sum(ua * ua for ua in u)
    recip = 1.0 / (1.0 + s)
    pole = 1.0 - s if chart_id == "north" else s - 1.0
    return np.array([2.0 * ua * recip for ua in u] + [pole * recip])


def direction_chart(theta) -> tuple[str, np.ndarray]:
    """Pick the chart in which the direction has |u| <= 1 and return (id, u)."""
    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    if theta[-1] >= 0.0:
        return "north", theta[:-1] / (1.0 + theta[-1])
    return "south", theta[:-1] / (1.0 - theta[-1])


def chart_transition(chart_id: str, u) -> tuple[str, np.ndarray]:
    """The same fibre point in the opposite chart: u maps to u / |u|^2."""
    u = np.asarray(u, dtype=float)
    s = float(u @ u)
    if s < POLE_MARGIN ** 2:
        raise ValueError("the chart centre has no coordinate in the opposite chart")
    other = "south" if chart_id == "north" else "north"
    return other, u / s


def transition_jacobian(u) -> np.ndarray:
    """Jacobian d(u / |u|^2) / du of the chart transition."""
    u = np.asarray(u, dtype=float)
    s = float(u @ u)
    m = len(u)
    return (np.eye(m) * s - 2.0 * np.outer(u, u)) / s ** 2


# -- embedding ---------------------------------------------------------------


def chart_embed(chart: FibreChart, u) -> FlagPoint:
    """Embed the chart coordinate as the flag point (x, theta/F(x, theta))."""
    u = np.asarray(u, dtype=float)
    _validate_chart_coord(u)
    return FlagPoint(chart.x, jet_values(_y_ujets(chart, u, 0)))


def _y_ujets(chart: FibreChart, u0: np.ndarray, order: int) -> np.ndarray:
    """The embedding y(u) = theta(u) / F(x, theta(u)) as jets over the chart
    variables."""
    m = len(u0)
    us = [jets.seed_variable(a + 1, float(u0[a]), m, order) for a in range(m)]
    theta = parameter_direction(chart.chart_id, us)
    model = chart.model
    f_jet = evaluate(model.f_ast, [float(v) for v in chart.x], list(theta), model.params)
    if not f_jet.value > 0.0:
        raise NonPositiveMetricError(
            f"F(x, theta) = {f_jet.value!r} must be positive along the fibre ray"
        )
    return theta * f_jet.reciprocal()


# -- the fibre pipeline -----------------------------------------------------------

# Expansion order each field needs at the flag point beyond its chart order:
# g = (1/2)[F^2]_yy, H from (F/4)[F^2]_yyy, E = d^3 G/dy^3 with G built from
# [F^2]_xy, and S from the y- and x-derivatives of ln det g.
_DEPTH = {"g": 2, "h": 3, "e": 5, "s": 3}


class FibreJets:
    """Chart jets of g, H, E and S at one fibre point; see :func:`fibre_jets`."""

    def __init__(self, model: MetricModel, chart: FibreChart, y_u, chart_order):
        top = y_u[0].order - 1
        self.model = model
        self.chart = chart
        self.chart_order = chart_order
        self.y_u = y_u
        self.y0 = jet_values(y_u)
        # dy[a, i] = dy^i/du^a and the offsets y(u) - y0, both to chart order top
        units = np.eye(len(y_u) - 1, dtype=int)
        self.dy = np.array([[y.derivative(unit) for y in y_u] for unit in units])
        self.deltas = [y.truncated(top) - y.value for y in y_u]
        self._bases: dict[int, jets.MonomialBasis] = {}

    @cached_property
    def tj(self) -> TensorJets:
        """The one expansion of F at the embedded flag point, deep enough for
        every requested field and over (x, y) only where E or S needs the
        spray of an x-dependent F."""
        x_dep = self.model.depends_on_x
        depth = {
            field: order + _DEPTH[field]
            for field, order in self.chart_order.items()
            if x_dep or field in ("g", "h")
        }
        with_x = x_dep and ("e" in depth or "s" in depth)
        return TensorJets(self.model, self.chart.x, self.y0, max(depth.values()), with_x)

    def _basis(self, order: int) -> jets.MonomialBasis:
        """Monomials of the offsets of the expansion variables along the chart
        (zero for x), shared by every field composed at this chart order."""
        basis = self._bases.get(order)
        if basis is None:
            deltas = [d.truncated(order) for d in self.deltas]
            if self.tj.with_x:
                deltas = [jets.constant(0.0, len(self.dy), order)] * len(deltas) + deltas
            basis = self._bases[order] = jets.monomial_basis(deltas)
        return basis

    def _on_chart(self, extractor: Callable, field: str) -> np.ndarray:
        """A totally symmetric tensor at the flag point, composed with y(u) and
        pulled back to the chart at the field's chart order."""
        order = self.chart_order[field]
        basis = self._basis(order)
        composed = _symmetric(lambda jet: jet.compose(basis), extractor(self.tj, order))
        return _pullback(composed, jet_truncated(self.dy, order))

    @cached_property
    def g(self) -> np.ndarray:
        """Induced metric g_ab = g_ij dy^i/du^a dy^j/du^b; raises unless
        positive definite."""
        g = self._on_chart(g_jets, "g")
        _check_pd(jet_values(g), "induced metric")
        return g

    @cached_property
    def h(self) -> np.ndarray:
        """Vertical Cartan pullback H_abc.  Its overall sign is fixed by the
        structure identities: the vertical PDE and Codazzi residuals vanish
        with this orientation, cf. the Gauss formula of the radial embedding."""
        return self._on_chart(cartan_jets, "h")

    @cached_property
    def e(self) -> np.ndarray:
        """Mean Berwald pullback E_ab; zero when F does not depend on x."""
        if not self.model.depends_on_x:
            m = len(self.dy)
            return np.full((m, m), jets.constant(0.0, m, self.chart_order["e"]))
        return self._on_chart(berwald_jets, "e")

    @cached_property
    def s(self) -> Jet:
        """Restricted S-curvature: the volume-free part composed with y(u),
        minus y(u) . grad ln sigma."""
        order = self.chart_order["s"]
        s = jets.constant(0.0, len(self.dy), order)
        if self.model.depends_on_x:
            s = s_main_jet(self.tj, order).compose(self._basis(order))
        for i, grad_i in enumerate(self.chart.sigma_grad):
            if grad_i != 0.0:
                s = s - grad_i * self.y_u[i].truncated(order)
        return s


def fibre_jets(
    model: MetricModel, chart: FibreChart, u, chart_order: Mapping[str, int]
) -> FibreJets:
    """The fibre pipeline at chart coordinate u.

    ``chart_order`` maps each field the caller will read -- ``"g"`` (induced
    metric), ``"h"`` (Cartan pullback), ``"e"`` (mean Berwald pullback) and
    ``"s"`` (restricted S-curvature) -- to its chart jet order.  One
    expansion of F at the embedded flag point, of the lowest order that
    serves every requested field, feeds them all.
    """
    u0 = np.asarray(u, dtype=float)
    _validate_chart_coord(u0)
    y_u = _y_ujets(chart, u0, max(chart_order.values()) + 1)
    return FibreJets(model, chart, y_u, dict(chart_order))


# -- tensor calculus in chart coordinates -------------------------------------------


def _symmetric(fn: Callable, t: np.ndarray) -> np.ndarray:
    """``fn`` applied to a totally symmetric array of jets, once per distinct
    entry; the result is exactly symmetric."""
    out = np.empty(t.shape, dtype=object)
    for index in np.ndindex(t.shape):
        key = tuple(sorted(index))  # visited first in lexicographic order
        out[index] = fn(t[index]) if key == index else out[key]
    return out


def _pullback(t: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """T_ab.. = T_ij.. dy^i/du^a dy^j/du^b .. for a totally symmetric T,
    contracted one slot at a time."""
    for _ in range(t.ndim):
        t = np.tensordot(t, dy, axes=([0], [1]))
    return _symmetric(lambda jet: jet, t)


def _partials(t) -> np.ndarray:
    """Chart partial derivatives of an array of jets, derivative index last."""
    t = np.asarray(t)
    units = np.eye(t.flat[0].n_vars, dtype=int)
    out = np.empty(t.shape + (len(units),), dtype=object)
    for index in np.ndindex(t.shape):
        for d, unit in enumerate(units):
            out[index + (d,)] = t[index].derivative(unit)
    return out


def _covariant(t, gamma: np.ndarray) -> np.ndarray:
    """Covariant derivative of a chart tensor of jets, one order lower:
    nabla_d T_a.. = d_d T_a.. - sum over slots Gamma^e_{d a} T_..e..,
    with the derivative index appended last."""
    t = np.asarray(t)
    out = _partials(t)
    if t.ndim:
        order = t.flat[0].order - 1
        low, gamma = jet_truncated(t, order), jet_truncated(gamma, order)
    for slot in range(t.ndim):
        term = np.tensordot(low, gamma, axes=([slot], [0]))  # [.. without slot, d, a]
        out = out - np.moveaxis(term, -1, slot)
    return out


def _christoffel_jets(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse metric and Levi-Civita symbols Gamma^c_ab (upper index first),
    as chart jets one order below those of the metric."""
    order = g[0, 0].order - 1
    g_inv = np.array(jet_matrix_inverse(jet_truncated(g, order).tolist()))
    dg = np.moveaxis(_partials(g), -1, 0)  # dg[c, a, b] = d_c g_ab
    # [d, a, b] = d_a g_db + d_b g_da - d_d g_ab
    bracket = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return g_inv, np.tensordot(g_inv, bracket, axes=1) * 0.5


def _curvature(g: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Curvature R^e_bcd = d_c Gamma^e_db - d_d Gamma^e_cb + Gamma^e_cf Gamma^f_db
    - Gamma^e_df Gamma^f_cb and its lowered form R_abcd = g_ae R^e_bcd, as
    floats, from Christoffel jets of order >= 1."""
    gam = jet_values(gamma)
    dgam = jet_values(_partials(gamma))  # dgam[c, a, b, d] = d_d Gamma^c_ab
    r_up = (
        np.einsum("edbc->ebcd", dgam)
        - np.einsum("ecbd->ebcd", dgam)
        + np.einsum("ecf,fdb->ebcd", gam, gam)
        - np.einsum("edf,fcb->ebcd", gam, gam)
    )
    return r_up, np.einsum("ae,ebcd->abcd", jet_values(g), r_up)


# -- views of the pipeline ----------------------------------------------------------


def induced_metric(chart: FibreChart, u) -> np.ndarray:
    """Pullback of the fundamental tensor to the fibre; positive definite."""
    return jet_values(fibre_jets(chart.model, chart, u, {"g": 0}).g)


def christoffels(chart: FibreChart, u) -> np.ndarray:
    """Levi-Civita symbols Gamma^c_ab of the induced metric (upper index first)."""
    g = fibre_jets(chart.model, chart, u, {"g": 1}).g
    return jet_values(_christoffel_jets(g)[1])


def riemann(chart: FibreChart, u) -> np.ndarray:
    """Lowered curvature tensor R_abcd of the induced metric.

    Convention: R_abcd = g_ae (d_c Gamma^e_db - d_d Gamma^e_cb + ...), so a
    round fibre of sectional curvature +1 gives R_1212 = +16 at the chart
    centre where the metric is 4 times the identity.
    """
    g = fibre_jets(chart.model, chart, u, {"g": 2}).g
    return _curvature(g, _christoffel_jets(g)[1])[1]


@dataclass
class RestrictedFields:
    """Every fibre-restricted field at one indicatrix point.

    Covariant derivatives append the derivative index last; ``riemann`` is
    the lowered tensor in the calibrated convention and ``riemann_up`` has
    the first index raised.
    """

    g: np.ndarray
    g_inv: np.ndarray
    gamma: np.ndarray
    riemann: np.ndarray
    riemann_up: np.ndarray
    s: float
    s_grad: np.ndarray
    s_hess: np.ndarray
    cartan: np.ndarray
    cartan_cov: np.ndarray
    berwald: np.ndarray
    berwald_cov: np.ndarray
    e: float
    e_grad: np.ndarray


def restrict_fields(model: MetricModel, chart: FibreChart, u) -> RestrictedFields:
    """Compute the full bundle of fibre-restricted fields at one point.

    The metric and the restricted S-curvature are carried to second chart
    order (curvature, Hessian), the Cartan and mean Berwald pullbacks to
    first order (their covariant derivatives); one expansion feeds them all.
    """
    fj = fibre_jets(model, chart, u, {"g": 2, "s": 2, "h": 1, "e": 1})
    g_inv, gamma = _christoffel_jets(fj.g)
    r_up, r_low = _curvature(fj.g, gamma)
    ds = _covariant(fj.s, gamma)
    e = np.sum(g_inv * fj.e)  # the Berwald scalar, trace of the pullback
    return RestrictedFields(
        g=jet_values(fj.g),
        g_inv=jet_values(g_inv),
        gamma=jet_values(gamma),
        riemann=r_low,
        riemann_up=r_up,
        s=fj.s.value,
        s_grad=jet_values(ds),
        s_hess=jet_values(_covariant(ds, gamma)),
        cartan=jet_values(fj.h),
        cartan_cov=jet_values(_covariant(fj.h, gamma)),
        berwald=jet_values(fj.e),
        berwald_cov=jet_values(_covariant(fj.e, gamma)),
        e=e.value,
        e_grad=jet_values(_covariant(e, gamma)),
    )


@dataclass
class FibreSnapshot:
    """Values-only fibre data (no derivatives): induced metric, mean Berwald
    pullback, Berwald scalar, and the embedded flag point."""

    g: np.ndarray
    berwald: np.ndarray
    e: float
    flag: FlagPoint


def fibre_snapshot(model: MetricModel, chart: FibreChart, u) -> FibreSnapshot:
    """Cheap value-level evaluation used by the isotropy scan."""
    fj = fibre_jets(model, chart, u, {"g": 0, "e": 0})
    g_inv = np.array(jet_matrix_inverse(fj.g.tolist()))
    return FibreSnapshot(
        g=jet_values(fj.g),
        berwald=jet_values(fj.e),
        e=np.sum(g_inv * fj.e).value,
        flag=FlagPoint(chart.x, fj.y0),
    )


@dataclass
class BerwaldFields:
    """What the isotropy audit reads at one fibre point: the induced metric
    and its inverse, the mean Berwald pullback, the Berwald scalar
    e = tr_g E and its chart gradient."""

    g: np.ndarray
    g_inv: np.ndarray
    berwald: np.ndarray
    e: float
    e_grad: np.ndarray


def berwald_fields(model: MetricModel, chart: FibreChart, u) -> BerwaldFields:
    """g and E to first chart order and nothing else: no S-curvature, so no
    volume gradient, and no Cartan pullback or curvature.  Every value
    equals its counterpart in :func:`restrict_fields` bit for bit."""
    fj = fibre_jets(model, chart, u, {"g": 1, "e": 1})
    g_inv = np.array(jet_matrix_inverse(fj.g.tolist()))
    e = np.sum(g_inv * fj.e)
    return BerwaldFields(
        g=jet_values(fj.g),
        g_inv=jet_values(g_inv),
        berwald=jet_values(fj.e),
        e=e.value,
        e_grad=jet_values(_partials(e)),
    )


def s_third_covariant(model: MetricModel, chart: FibreChart, u):
    """Third covariant derivative W_abc of the restricted S-curvature
    (derivative slots appended last), plus the gradient and raised curvature.

    Used to check the commutator of covariant derivatives against the
    curvature contraction on scalars.
    """
    fj = fibre_jets(model, chart, u, {"g": 2, "s": 3})
    gamma = _christoffel_jets(fj.g)[1]
    ds = _covariant(fj.s, gamma)
    w = _covariant(_covariant(ds, gamma), gamma)
    r_up, r_low = _curvature(fj.g, gamma)
    return jet_values(w), jet_values(ds), r_up, r_low


def covariant_derivative(chart: FibreChart, u, field, rank: int) -> np.ndarray:
    """Covariant derivative of a chart-coordinate tensor field.

    ``field(chart, u, order)`` must return the field as jets over the chart
    variables (an array or nested structure of shape (m,)*rank, or a single
    jet for a scalar).  The derivative index is appended last.
    """
    u0 = np.asarray(u, dtype=float)
    t = np.array(field(chart, u0, 1))
    if t.ndim != rank:
        raise ValueError(f"the field has rank {t.ndim}, expected {rank}")
    gamma = _christoffel_jets(fibre_jets(chart.model, chart, u0, {"g": 1}).g)[1]
    return jet_values(_covariant(t, gamma))


def _field(model: MetricModel, field: str) -> Callable:
    def view(chart: FibreChart, u, order: int):
        return getattr(fibre_jets(model, chart, u, {field: order}), field)

    return view


def induced_metric_field(model: MetricModel) -> Callable:
    return _field(model, "g")


def cartan_field(model: MetricModel) -> Callable:
    return _field(model, "h")


def berwald_field(model: MetricModel) -> Callable:
    return _field(model, "e")


def s_field(model: MetricModel) -> Callable:
    return _field(model, "s")


# -- sampling ------------------------------------------------------------------


def sample_fibre_points(
    model: MetricModel, x, count: int, rng
) -> list[IndicatrixPoint]:
    """Draw fibre points uniformly on the parameter sphere (seeded generator),
    avoiding the chart poles, and attach each to the chart where |u| <= 1."""
    x = np.asarray(x, dtype=float)
    north = FibreChart(model, x, "north")
    charts = {"north": north, "south": north.opposite()}
    points: list[IndicatrixPoint] = []
    for _ in range(count):
        chart_id, u = direction_chart(_fibre_direction(model, rng))
        points.append(IndicatrixPoint(charts[chart_id], u))
    return points


def _fibre_direction(model: MetricModel, rng) -> np.ndarray:
    """One admissible unit direction off the chart poles; raises
    :class:`~finslerlab.core.SamplingError` after ``model.sample_attempts``
    rejected draws."""
    for _ in range(model.sample_attempts):
        v = rng.standard_normal(model.dim)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            continue
        theta = v / norm
        if np.linalg.norm(theta[:-1]) < POLE_MARGIN:
            continue
        if model.y_guard is None or model.y_guard(theta):
            return theta
    raise SamplingError(model)
