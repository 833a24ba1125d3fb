"""Intrinsic Riemannian geometry of the unit-sphere fibres S_xM = {F(x, .) = 1}.

Each fibre is covered by two stereographic charts of the parameter sphere;
chart coordinates u embed through the radial graph

    y(u) = theta(u) / F(x, theta(u)),

so F(x, y(u)) = 1 identically.  The induced metric is the pullback of the
fundamental tensor, the fibre connection is its Levi-Civita connection, and
curvature and covariant derivatives are computed in chart coordinates.

One pipeline per fibre point: :func:`fibre_jets` expands F once at the
embedded flag point (one :class:`~finslerlab.core.TensorJets`, read through
the core extractors) and composes it with y(u) into the induced metric g,
the Cartan pullback H, the mean Berwald pullback E and the restricted
S-curvature, each computed when first read at the chart order the caller
asked for, as one float array of jet coefficients ``(*slots, size)`` over
``jet_space(n - 1, order)``: products are :func:`~finslerlab.jets.jet_einsum`
contractions, derivatives gathers along the last axis.  The fields of one
chart order share one monomial basis of y(u) - y(u0), and the two charts
of a fibre share one gradient of ln sigma.  Every u-derivative is exact to
roundoff.  :func:`restrict_fields`, :func:`fibre_snapshot`,
:func:`berwald_fields` and :func:`s_third_covariant` are views of it, built
from one pullback and one rank-generic covariant derivative.

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
    "restrict_fields",
    "FibreSnapshot",
    "fibre_snapshot",
    "BerwaldFields",
    "berwald_fields",
    "s_third_covariant",
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
    return FlagPoint(chart.x, _y_ujets(chart, u, 0)[:, 0])


def _y_ujets(chart: FibreChart, u0: np.ndarray, order: int) -> np.ndarray:
    """The embedding y(u) = theta(u) / F(x, theta(u)) as a chart field: one
    row of coefficients over the chart variables per component of y."""
    space = jets.jet_space(len(u0), order)
    us = [space.variable(a + 1, float(value)) for a, value in enumerate(u0)]
    theta = parameter_direction(chart.chart_id, us)
    model = chart.model
    f_jet = evaluate(model.f_ast, [float(v) for v in chart.x], list(theta), model.params)
    if not f_jet.value > 0.0:
        raise NonPositiveMetricError(
            f"F(x, theta) = {f_jet.value!r} must be positive along the fibre ray"
        )
    return np.array([y.coeffs for y in theta * f_jet.reciprocal()])


# -- the fibre pipeline -----------------------------------------------------------

# Expansion order each field needs at the flag point beyond its chart order:
# g = (1/2)[F^2]_yy, H from (F/4)[F^2]_yyy, E = d^3 G/dy^3 with G built from
# [F^2]_xy, and S from the y- and x-derivatives of ln det g.
_DEPTH = {"g": 2, "h": 3, "e": 5, "s": 3}


class FibreJets:
    """Chart jets of g, H, E and S at one fibre point, each over the
    :meth:`space` of its chart order; see :func:`fibre_jets`."""

    def __init__(self, model: MetricModel, chart: FibreChart, y_u: np.ndarray, chart_order):
        self.model = model
        self.chart = chart
        self.chart_order = chart_order
        self.y_u = y_u
        space = jets.jet_space(len(y_u) - 1, max(chart_order.values()) + 1)  # that of y_u
        self.dy = np.moveaxis(_partials(space, y_u), -2, 0)  # dy^i/du^a at [a, i]
        self._bases: dict[int, jets.MonomialBasis] = {}

    def space(self, order: int) -> jets.JetSpace:
        """The jet space of the chart fields of this chart order."""
        return jets.jet_space(len(self.dy), order)

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
        return TensorJets(self.model, self.chart.x, self.y_u[:, 0], max(depth.values()), with_x)

    def _basis(self, order: int) -> jets.MonomialBasis:
        """Monomials of the offsets of the expansion variables along the chart,
        shared by every field composed at this chart order.  x stays at the
        base point (zero offset), so the monomials are those of the x-free
        jets of the expansion."""
        basis = self._bases.get(order)
        if basis is None:
            space = self.space(order)
            deltas = self.y_u[:, : space.size].copy()
            deltas[:, 0] = 0.0  # the offsets y(u) - y(u0)
            if self.tj.with_x:
                deltas = np.concatenate([np.zeros_like(deltas), deltas])
            basis = self._bases[order] = jets.monomial_basis(space, deltas, self.tj.x_vars, 0)
        return basis

    def _on_chart(self, extractor: Callable, field: str) -> np.ndarray:
        """A totally symmetric tensor at the flag point, composed with y(u) and
        pulled back to the chart at the field's chart order."""
        order = self.chart_order[field]
        space, t = self.space(order), extractor(self.tj, order)
        flag = [jet.truncated(order, x_degree=0) for jet in t.flat]
        composed = jets.jet_compose(flag, self._basis(order)).reshape(t.shape + (-1,))
        return _pullback(space, composed, self.dy[..., : space.size])

    @cached_property
    def g(self) -> np.ndarray:
        """Induced metric g_ab = g_ij dy^i/du^a dy^j/du^b; raises unless
        positive definite."""
        g = self._on_chart(g_jets, "g")
        _check_pd(g[..., 0], "induced metric")
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
            return np.zeros((m, m, self.space(self.chart_order["e"]).size))
        return self._on_chart(berwald_jets, "e")

    @cached_property
    def s(self) -> np.ndarray:
        """Restricted S-curvature: the volume-free part composed with y(u),
        minus y(u) . grad ln sigma."""
        order = self.chart_order["s"]
        s = -(self.chart.sigma_grad @ self.y_u[:, : self.space(order).size])
        if self.model.depends_on_x:
            s = s + jets.jet_compose([s_main_jet(self.tj, order)], self._basis(order))[0]
        return s

    def snapshot(self) -> "FibreSnapshot":
        """Values of g and E, and the Berwald scalar e = tr_g E."""
        g, berwald = self.g[..., 0], self.e[..., 0]
        return FibreSnapshot(g=g, berwald=berwald, e=float(np.sum(np.linalg.inv(g) * berwald)))


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


# -- tensor calculus in chart coordinates; ``space`` is that of the first field ------


def _pullback(space: jets.JetSpace, t: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """T_ab.. = T_ij.. dy^i/du^a dy^j/du^b .. for a totally symmetric T,
    contracted one slot at a time; made exactly symmetric by reading every
    entry at its sorted multi-index."""
    for _ in range(t.ndim - 1):
        t = jets.jet_einsum(space, "i...,ai->...a", t, dy)
    return t[tuple(np.sort(np.indices(t.shape[:-1]), axis=0))]


def _partials(space: jets.JetSpace, t: np.ndarray) -> np.ndarray:
    """Chart partial derivatives of a field, derivative slot last."""
    tables = [space.derivative_table(tuple(map(int, unit))) for unit in np.eye(space.n_vars)]
    return np.stack([t[..., src] * factor for _, src, factor in tables], axis=-2)


def _covariant(space: jets.JetSpace, t: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Covariant derivative of a chart tensor, one order lower:
    nabla_d T_a.. = d_d T_a.. - sum over slots Gamma^e_{d a} T_..e..,
    with the derivative index appended last."""
    out = _partials(space, t)
    low = jets.jet_space(space.n_vars, space.order - 1)
    t, gamma = t[..., : low.size], gamma[..., : low.size]
    slots = "abcdefgh"[: t.ndim - 1]
    for a in slots:  # y is the summed index e, z the derivative index d
        out = out - jets.jet_einsum(low, f"{slots.replace(a, 'y')},yz{a}->{slots}z", t, gamma)
    return out


def _christoffel_jets(space: jets.JetSpace, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse metric and Levi-Civita symbols Gamma^c_ab (upper index first),
    as chart jets one order below those of the metric."""
    low = jets.jet_space(space.n_vars, space.order - 1)
    g_inv = jets.neumann_inverse(low, g[..., : low.size])
    dg = np.moveaxis(_partials(space, g), -2, 0)  # dg[c, a, b] = d_c g_ab
    # [d, a, b] = d_a g_db + d_b g_da - d_d g_ab
    bracket = dg.transpose(1, 0, 2, 3) + dg.transpose(1, 2, 0, 3) - dg
    return g_inv, jets.jet_einsum(low, "cd,dab->cab", g_inv, bracket) * 0.5


def _curvature(g: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Curvature R^e_bcd = d_c Gamma^e_db - d_d Gamma^e_cb + Gamma^e_cf Gamma^f_db
    - Gamma^e_df Gamma^f_cb and its lowered form R_abcd = g_ae R^e_bcd, as
    floats, from Christoffel jets of order >= 1."""
    first = jets.jet_space(len(gamma), 1)
    gam = gamma[..., 0]
    dgam = _partials(first, gamma[..., : first.size])[..., 0]  # d_d Gamma^c_ab at [c, a, b, d]
    r_up = (
        np.einsum("edbc->ebcd", dgam)
        - np.einsum("ecbd->ebcd", dgam)
        + np.einsum("ecf,fdb->ebcd", gam, gam)
        - np.einsum("edf,fcb->ebcd", gam, gam)
    )
    return r_up, np.einsum("ae,ebcd->abcd", g[..., 0], r_up)


# -- views of the pipeline ----------------------------------------------------------


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
    first = fj.space(1)
    g_inv, gamma = _christoffel_jets(fj.space(2), fj.g)
    r_up, r_low = _curvature(fj.g, gamma)
    ds = _covariant(fj.space(2), fj.s, gamma)
    e = jets.jet_einsum(first, "ab,ab->", g_inv, fj.e)  # the Berwald scalar tr_g E
    return RestrictedFields(
        g=fj.g[..., 0],
        g_inv=g_inv[..., 0],
        gamma=gamma[..., 0],
        riemann=r_low,
        riemann_up=r_up,
        s=float(fj.s[0]),
        s_grad=ds[..., 0],
        s_hess=_covariant(first, ds, gamma)[..., 0],
        cartan=fj.h[..., 0],
        cartan_cov=_covariant(first, fj.h, gamma)[..., 0],
        berwald=fj.e[..., 0],
        berwald_cov=_covariant(first, fj.e, gamma)[..., 0],
        e=float(e[0]),
        e_grad=_covariant(first, e, gamma)[..., 0],
    )


@dataclass
class FibreSnapshot:
    """Values-only fibre data (no derivatives): induced metric, mean Berwald
    pullback and Berwald scalar."""

    g: np.ndarray
    berwald: np.ndarray
    e: float


def fibre_snapshot(model: MetricModel, chart: FibreChart, u) -> FibreSnapshot:
    """Cheap value-level evaluation used by the isotropy scan."""
    return fibre_jets(model, chart, u, {"g": 0, "e": 0}).snapshot()


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
    first = fj.space(1)
    g_inv = jets.neumann_inverse(first, fj.g)
    e = jets.jet_einsum(first, "ab,ab->", g_inv, fj.e)
    return BerwaldFields(
        g=fj.g[..., 0],
        g_inv=g_inv[..., 0],
        berwald=fj.e[..., 0],
        e=float(e[0]),
        e_grad=_partials(first, e)[..., 0],
    )


def s_third_covariant(model: MetricModel, chart: FibreChart, u):
    """Third covariant derivative W_abc of the restricted S-curvature
    (derivative slots appended last), plus the gradient and raised curvature.

    Used to check the commutator of covariant derivatives against the
    curvature contraction on scalars.
    """
    fj = fibre_jets(model, chart, u, {"g": 2, "s": 3})
    gamma = _christoffel_jets(fj.space(2), fj.g)[1]
    ds = _covariant(fj.space(3), fj.s, gamma)
    w = _covariant(fj.space(1), _covariant(fj.space(2), ds, gamma), gamma)
    r_up, r_low = _curvature(fj.g, gamma)
    return w[..., 0], ds[..., 0], r_up, r_low


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
