"""The object-array chart pipeline: the reference the array pipeline of
:mod:`finslerlab.indicatrix` is compared against.

Every chart field here is a numpy object array of :class:`~finslerlab.jets.Jet`,
multiplied and contracted entry by entry and inverted by Gauss-Jordan
elimination (:func:`jet_matrix_inverse`); the composition with the chart
embedding forms its monomials one product at a time and composes one jet
at a time.  It shares the flag-point expansion, its extractors and the
:class:`~finslerlab.jets.Jet` arithmetic with the program, and none of the
array code of the chart layer: the coefficient arrays the extractors
return are wrapped back into jets (:func:`_as_jets`) at the boundary.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from finslerlab import jets
from finslerlab.core import (
    MetricModel,
    NonPositiveMetricError,
    TensorJets,
    _check_pd,
    berwald_jets,
    cartan_jets,
    g_jets,
    s_main_jet,
)
from finslerlab.expr import evaluate
from finslerlab.indicatrix import FibreChart, _validate_chart_coord, parameter_direction
from finslerlab.jets import Jet, JetDomainError, MonomialBasis, jet_partials, jet_space


def jet_values(array) -> np.ndarray:
    """The order-0 coefficients of an array of jets, as a float array."""
    return np.vectorize(lambda jet: jet.value, otypes=[float])(array)


def _as_jets(space, t: np.ndarray) -> np.ndarray:
    """An array of jet coefficients ``(*slots, size)`` over ``space`` as an
    object array of jets."""
    out = np.empty(t.shape[:-1], dtype=object)
    for index in np.ndindex(out.shape):
        out[index] = Jet(space, t[index])
    return out


def _coeffs(array) -> tuple[jets.JetSpace, np.ndarray]:
    """The one space of an array of jets, and their coefficients as a float
    array ``(*slots, size)``."""
    array = np.asarray(array, dtype=object)
    space = array.flat[0].space
    return space, np.array([jet.coeffs for jet in array.flat]).reshape(array.shape + (space.size,))


def jet_truncated(array, order: int) -> np.ndarray:
    """An array of jets with every entry truncated to ``order``: a prefix of
    its coefficients, the layout being prefix-closed."""
    space, t = _coeffs(array)
    low = jet_space(space.n_vars, order)
    return _as_jets(low, t[..., : low.size])


def jet_matrix_inverse(matrix) -> list[list[Jet]]:
    """Invert a small square matrix of jets from one space by Gauss-Jordan
    elimination.

    Pivots are chosen by the magnitude of the order-0 coefficients; the
    matrix is invertible in the jet ring iff its order-0 part is invertible.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    space = a[0][0].space
    inv = [[space.constant(1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col].value))
        if abs(a[pivot_row][col].value) < 1e-14:
            raise JetDomainError("matrix_inverse", a[pivot_row][col].value)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        scale = a[col][col].reciprocal()
        a[col] = [entry * scale for entry in a[col]]
        inv[col] = [entry * scale for entry in inv[col]]
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col]
            if not np.any(factor.coeffs):
                continue
            a[r] = [ar - factor * ac for ar, ac in zip(a[r], a[col])]
            inv[r] = [ir - factor * ic for ir, ic in zip(inv[r], inv[col])]
    return inv


def _compose(self: Jet, basis: MonomialBasis) -> Jet:
    """Substitute nilpotent jets for the variables of this expansion.

    ``basis`` is the :func:`_monomial_basis` of the deltas, the offsets of
    the variables from the expansion point, built for this jet's x-degree
    limit; every composition with the same deltas can share it.  The
    result lives in the jet space of the deltas.
    """
    here = self.space
    rows = basis.rows_space
    if rows.n_vars != here.n_vars:
        raise ValueError("one delta jet is required per variable")
    if rows is not jet_space(here.n_vars, rows.order, here.x_vars, here.x_degree):
        raise ValueError("the monomial basis is built for another x-degree limit")
    limit = self.space.grade_offsets[min(basis.space.order, self.order) + 1]
    # the terms are summed in layout order, row after row
    out = (self.coeffs[:limit, None] * basis.rows[:limit]).sum(axis=0)
    return Jet(basis.space, out)


def _monomial_basis(deltas: Sequence[Jet], x_vars: int = 0, x_degree: int = 1) -> MonomialBasis:
    """Every monomial of the deltas up to their order, each one product of a
    lower monomial and the delta of its first variable; the monomials are
    those of the jets with this x-degree limit (see :func:`jet_space`)."""
    if not deltas:
        raise ValueError("one delta jet is required per variable")
    uspace = deltas[0].space
    for d in deltas:
        if d.space is not uspace:
            raise ValueError("delta jets must share one jet space")
        if d.coeffs[0] != 0.0:
            raise ValueError("delta jets must have zero order-0 coefficient")
    src = jet_space(len(deltas), uspace.order, x_vars, x_degree)
    first = np.argmax(src._alphas != 0, axis=1)
    sub = src._positions(src._keys - src._radix[first])
    zero = [not np.any(d.coeffs) for d in deltas]
    rows = np.zeros((src.size, uspace.size))
    rows[0, 0] = 1.0
    live = np.zeros(src.size, dtype=bool)  # rows that are not identically zero
    live[0] = True
    for k in range(1, src.size):
        i, s = first[k], sub[k]
        if zero[i] or not live[s]:
            continue
        live[k] = True
        rows[k] = deltas[i].coeffs if s == 0 else uspace.multiply(rows[s], deltas[i].coeffs)
    return MonomialBasis(uspace, src, rows)


def _y_ujets(chart: FibreChart, u0: np.ndarray, order: int) -> np.ndarray:
    """The embedding y(u) = theta(u) / F(x, theta(u)) as jets over the chart
    variables."""
    space = jets.jet_space(len(u0), order)
    us = [space.variable(a + 1, float(value)) for a, value in enumerate(u0)]
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
        self.dy = _partials(y_u).T
        self.deltas = list(jet_truncated(y_u, top) - self.y0)
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
        """Monomials of the offsets of the expansion variables along the chart,
        shared by every field composed at this chart order.  x stays at the
        base point (zero offset), so the monomials are those of the x-free
        jets of the expansion."""
        basis = self._bases.get(order)
        if basis is None:
            deltas = list(jet_truncated(self.deltas, order))
            if self.tj.with_x:
                deltas = [deltas[0].space.constant(0.0)] * len(deltas) + deltas
            basis = self._bases[order] = _monomial_basis(deltas, self.tj.x_vars, 0)
        return basis

    def _on_chart(self, extractor: Callable, field: str, x_degree: int = 1) -> np.ndarray:
        """A totally symmetric tensor at the flag point, over the expansion
        space with this x-degree limit, composed with y(u) and pulled back to
        the chart at the field's chart order."""
        order = self.chart_order[field]
        basis = self._basis(order)
        x_free = self.tj.x_free(order)
        kept = self.tj.space(order, x_degree).restriction(x_free)
        flag = _as_jets(x_free, extractor(self.tj, order)[..., kept])
        composed = _symmetric(lambda jet: _compose(jet, basis), flag)
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
            return np.full((m, m), jets.jet_space(m, self.chart_order["e"]).constant(0.0))
        return self._on_chart(berwald_jets, "e", x_degree=0)

    @cached_property
    def s(self) -> Jet:
        """Restricted S-curvature: the volume-free part composed with y(u),
        minus y(u) . grad ln sigma."""
        order = self.chart_order["s"]
        space = jets.jet_space(len(self.dy), order)
        s = space.constant(0.0)
        if self.model.depends_on_x:
            s_main = Jet(self.tj.x_free(order), s_main_jet(self.tj, order))
            s = _compose(s_main, self._basis(order))
        for i, grad_i in enumerate(self.chart.sigma_grad):
            if grad_i != 0.0:
                s = s - grad_i * Jet(space, self.y_u[i].coeffs[: space.size])
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
    space, coeffs = _coeffs(t)
    return _as_jets(jet_space(space.n_vars, space.order - 1), jet_partials(space, coeffs))


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


@dataclass
class SuiteFields:
    """What the four residuals of the identity suite read at one fibre point.

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


def restrict_fields(model: MetricModel, chart: FibreChart, u) -> SuiteFields:
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
    return SuiteFields(
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
class BerwaldFields:
    """What the isotropy audit reads at one fibre point: the induced metric
    and its inverse, the mean Berwald pullback, the Berwald scalar
    e = tr_g E and its chart gradient."""

    g: np.ndarray
    g_inv: np.ndarray
    berwald: np.ndarray
    e: float
    e_grad: np.ndarray


@dataclass
class RicciFields:
    """What the commutator check reads at one fibre point: the third
    covariant derivative W_abc of the restricted S-curvature (derivative
    slots appended last), its gradient and the curvature, raised and
    lowered."""

    w: np.ndarray
    s_grad: np.ndarray
    riemann_up: np.ndarray
    riemann: np.ndarray


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


def s_third_covariant(model: MetricModel, chart: FibreChart, u) -> RicciFields:
    """W = nabla^3 S, grad S and the curvature from a pipeline that carries
    g to chart order 2 and S to chart order 3."""
    fj = fibre_jets(model, chart, u, {"g": 2, "s": 3})
    gamma = _christoffel_jets(fj.g)[1]
    ds = _covariant(fj.s, gamma)
    w = _covariant(_covariant(ds, gamma), gamma)
    r_up, r_low = _curvature(fj.g, gamma)
    return RicciFields(w=jet_values(w), s_grad=jet_values(ds), riemann_up=r_up, riemann=r_low)
