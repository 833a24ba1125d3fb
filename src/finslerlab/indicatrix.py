"""Intrinsic Riemannian geometry of the unit-sphere fibres S_xM = {F(x, .) = 1}.

Each fibre is covered by two stereographic charts of the parameter sphere;
chart coordinates u embed through the radial graph

    y(u) = theta(u) / F(x, theta(u)),

so F(x, y(u)) = 1 identically.  The induced metric is the pullback of the
fundamental tensor, the fibre connection is its Levi-Civita connection, and
curvature and covariant derivatives are computed in chart coordinates.

One object per fibre point: :func:`fibre_jets` expands F once at the
embedded flag point (one :class:`~finslerlab.core.TensorJets`, read through
the core extractors) and composes it with y(u) into the chart jets of the
induced metric g, the Cartan pullback H, the mean Berwald pullback E and
the restricted S-curvature, each computed when first read at the chart
order the caller asked for.  The same :class:`FibreJets` owns the chart
calculus, each piece written once: the inverse metric, the Levi-Civita
symbols, the curvature, the Berwald scalar e = tr_g E and the covariant
derivative of any chart tensor.  Flag-point tensors and chart fields share
one form, a float array of jet coefficients ``(*slots, size)``; a chart
field is over ``jet_space(n - 1, order)``.  The distinct entries of a
flag-point tensor are restricted to the x-free space by one gather and
composed with y(u) by :func:`~finslerlab.jets.jet_compose`; products are
:func:`~finslerlab.jets.jet_einsum` contractions, derivatives
:func:`~finslerlab.jets.jet_partials` gathers along the last axis.  The
fields of one chart order share one monomial basis of y(u) - y(u0), and
the two charts of a fibre share one gradient of ln sigma.  Every
u-derivative is exact to roundoff.  Every check of
:mod:`finslerlab.checks` reads the fibre through this one object.

Sign and index conventions are frozen by the Euclidean calibration: for
F = |y| in dimension 3 the induced metric at the chart centre is 4 times
the identity and the lowered curvature component R_1212 equals +16, which
normalises the sectional curvature of the round fibre to +1.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Mapping

import numpy as np

from . import jets
from .core import (
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
    "parameter_direction",
    "direction_chart",
    "fibre_jets",
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
        norm = math.hypot(*self.x)  # does not overflow
        if norm >= self.model.x_max_norm:
            raise ValueError(
                f"|x| = {norm:.4f} outside the metric's domain "
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


# -- embedding ---------------------------------------------------------------


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
    """The fibre at one point: chart jets of g, H, E and S, each over the
    :meth:`space` of its chart order (see :func:`fibre_jets`), and the chart
    calculus of the induced metric built from them."""

    def __init__(self, model: MetricModel, chart: FibreChart, y_u: np.ndarray, chart_order):
        self.model = model
        self.chart = chart
        self.chart_order = chart_order
        self.y_u = y_u
        space = jets.jet_space(len(y_u) - 1, max(chart_order.values()) + 1)  # that of y_u
        self.dy = np.moveaxis(jets.jet_partials(space, y_u), -2, 0)  # dy^i/du^a at [a, i]
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

    def _on_chart(self, extractor: Callable, field: str, x_degree: int = 1) -> np.ndarray:
        """A totally symmetric tensor at the flag point, over the expansion
        space with this x-degree limit: its distinct entries, restricted to
        the x-free space by one gather, are composed with y(u) and pulled
        back to the chart at the field's chart order."""
        order = self.chart_order[field]
        space, tj = self.space(order), self.tj
        t = extractor(tj, order)
        _, distinct, inverse = _symmetric_layout(t.shape[:-1])
        flag = tj.x_free(order)
        src = tj.space(order, x_degree).restriction(flag)
        rows = t.reshape(-1, t.shape[-1])[np.ix_(distinct, src)]
        composed = jets.jet_compose(flag, rows, self._basis(order))[inverse]
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
        return self._on_chart(berwald_jets, "e", x_degree=0)

    @cached_property
    def s(self) -> np.ndarray:
        """Restricted S-curvature: the volume-free part composed with y(u),
        minus y(u) . grad ln sigma."""
        order = self.chart_order["s"]
        s = -(self.chart.sigma_grad @ self.y_u[:, : self.space(order).size])
        if self.model.depends_on_x:
            flag = self.tj.x_free(order)
            s = s + jets.jet_compose(flag, s_main_jet(self.tj, order), self._basis(order))
        return s

    @cached_property
    def g_inv(self) -> np.ndarray:
        """Inverse induced metric g^ab to chart order 1."""
        first = self.space(1)
        return jets.neumann_inverse(first, self.g[..., : first.size])

    @cached_property
    def gamma(self) -> np.ndarray:
        """Levi-Civita symbols Gamma^c_ab (upper index first) to chart order
        1, from g at chart order 2."""
        dg = np.moveaxis(jets.jet_partials(self.space(2), self.g), -2, 0)  # dg[c, a, b] = d_c g_ab
        # [d, a, b] = d_a g_db + d_b g_da - d_d g_ab
        bracket = dg.transpose(1, 0, 2, 3) + dg.transpose(1, 2, 0, 3) - dg
        return jets.jet_einsum(self.space(1), "cd,dab->cab", self.g_inv, bracket) * 0.5

    @cached_property
    def berwald_scalar(self) -> np.ndarray:
        """The Berwald scalar e = tr_g E = g^ab E_ab to chart order 1."""
        return jets.jet_einsum(self.space(1), "ab,ab->", self.g_inv, self.e)

    @cached_property
    def curvature(self) -> tuple[np.ndarray, np.ndarray]:
        """Curvature R^e_bcd = d_c Gamma^e_db - d_d Gamma^e_cb + Gamma^e_cf
        Gamma^f_db - Gamma^e_df Gamma^f_cb and its lowered form
        R_abcd = g_ae R^e_bcd, as floats."""
        gam = self.gamma[..., 0]
        # d_d Gamma^c_ab at [c, a, b, d]
        dgam = jets.jet_partials(self.space(1), self.gamma)[..., 0]
        r_up = (
            np.einsum("edbc->ebcd", dgam)
            - np.einsum("ecbd->ebcd", dgam)
            + np.einsum("ecf,fdb->ebcd", gam, gam)
            - np.einsum("edf,fcb->ebcd", gam, gam)
        )
        return r_up, np.einsum("ae,ebcd->abcd", self.g[..., 0], r_up)

    def covariant(self, t: np.ndarray, order: int) -> np.ndarray:
        """Covariant derivative of a chart tensor over the space of this chart
        order, one order lower: nabla_d T_a.. = d_d T_a.. - sum over slots
        Gamma^e_{d a} T_..e.., with the derivative index appended last.  A
        scalar reads no Christoffel symbols."""
        out = jets.jet_partials(self.space(order), t)
        low = self.space(order - 1)
        slots = "abcdefgh"[: t.ndim - 1]
        for a in slots:  # y is the summed index e, z the derivative index d
            term = f"{slots.replace(a, 'y')},yz{a}->{slots}z"
            gamma = self.gamma[..., : low.size]
            out = out - jets.jet_einsum(low, term, t[..., : low.size], gamma)
        return out


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


# -- symmetric tensors; ``space`` is that of the chart field ------------------------


@lru_cache(maxsize=None)
def _symmetric_layout(shape: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], list, np.ndarray]:
    """For a totally symmetric tensor of this shape: the multi-index of
    every entry with its indices sorted; the flat index of one entry per
    sorted multi-index; and, for every entry, the position of its sorted
    multi-index among those."""
    sorted_index = tuple(np.sort(np.indices(shape), axis=0))
    keys = np.ravel_multi_index(sorted_index, shape)
    distinct, inverse = np.unique(keys, return_inverse=True)
    return sorted_index, distinct.tolist(), inverse.reshape(shape)


def _pullback(space: jets.JetSpace, t: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """T_ab.. = T_ij.. dy^i/du^a dy^j/du^b .. for a totally symmetric T,
    contracted one slot at a time; made exactly symmetric by reading every
    entry at its sorted multi-index."""
    for _ in range(t.ndim - 1):
        t = jets.jet_einsum(space, "i...,ai->...a", t, dy)
    return t[_symmetric_layout(t.shape[:-1])[0]]


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
