"""Coordinate-level curvature quantities of a Finsler metric.

Everything here is a pure function of a :class:`MetricModel` and a flag
point (x, y): the fundamental tensor g_ij = (1/2)[F^2]_{y^i y^j}, the Cartan
tensor A_ijk = (F/4)[F^2]_{y^i y^j y^k}, the geodesic spray coefficients

    G^i = (1/4) g^{il} ( [F^2]_{x^k y^l} y^k - [F^2]_{x^l} ),

the nonlinear connection N^i_j = dG^i/dy^j, the mean Berwald curvature in
the normalisation

    E_ij = d^3 G^m / dy^i dy^j dy^m      (no factor 1/2),

the distortion tau = ln(sqrt(det g) / sigma) for a pluggable volume
coefficient sigma(x), and the S-curvature as the derivative of tau along
the spray, with the divergence form S = dG^m/dy^m - y^m d(ln sigma)/dx^m
kept as an independent cross-check.

One assembly per batch of flag points: :class:`TensorJets` walks F once
per point, expanding F and F^2 in truncated Taylor jets around it, and
stacks the coefficients of the batch on a leading axis; everything after
the walks runs once per batch.  Each tensor has exactly one extractor that
reads it off an expansion at a requested jet order -- :func:`g_jets`,
:func:`cartan_jets`, :func:`spray_jets` (with N and E as its
y-derivatives, :func:`nonlinear_jets` and :func:`berwald_jets`) and
:func:`s_main_jet`, the volume-free part of S.  Every tensor is one float
array ``(points, *slots, size)`` of jet coefficients: derivatives of F^2
are gathers (:func:`~finslerlab.jets.jet_partials`), products are
:func:`~finslerlab.jets.jet_einsum` contractions, and the one matrix
inverse, g^{-1} for the spray, is :func:`~finslerlab.jets.neumann_inverse`;
these kernels take only arrays with the batch axis.  S needs no
determinant: by Jacobi's formula d ln sqrt(det g) = (1/2) tr(g^{-1} dg)
with the same g^{-1}.  g, g^{-1} and G are assembled once per expansion,
at the highest order it carries, and every reader takes a prefix; a
lower-order jet is the truncation of a higher-order one, so one deep
expansion serves every order below it.
:func:`coordinate_tensors` reads every tensor at a flag point off an
expansion of a batch of one, and the fibre pipeline in
:mod:`finslerlab.indicatrix` reads the same extractors over its batches;
there is no second entry point per tensor.

x enters to first order.  No tensor here needs more than one x-derivative
of F (G takes [F^2]_x and [F^2]_{xy}; N, E and S differentiate G and
ln det g along y once more, and S along x once), so an expansion over
(x, y) carries only the coefficients of joint x-degree at most 1: 714
instead of 3003 at (2n, p) = (8, 6).  Every coefficient it keeps equals
the full expansion's bit for bit.  A derivative along x leaves no x-linear
coefficient, so the spray, N, E and the volume-free S live in the x-free
space of the expansion, and the factors multiplied with them (g^{-1}, y,
d tau_g / dy) are restricted to it explicitly.

All derivatives are exact up to roundoff.  Models are immutable after
construction and every operation is a pure function, so evaluation is safe
to parallelise over points.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Mapping

import numpy as np

from . import InputFault, jets, volume
from .expr import EvalDomainError, ExprError, Node, Var, evaluate, iter_nodes, parse

__all__ = [
    "EIGENVALUE_FLOOR",
    "MetricModel",
    "FlagPoint",
    "VolumeSpec",
    "CoordinateTensors",
    "TensorJets",
    "MetricDefinitionError",
    "NonPositiveDefiniteError",
    "NonPositiveMetricError",
    "UnsupportedDimensionError",
    "VolumeFormError",
    "SamplingError",
    "s_curvature_alt",
    "coordinate_tensors",
    "expansion_order",
    "g_jets",
    "cartan_jets",
    "spray_jets",
    "nonlinear_jets",
    "berwald_jets",
    "s_main_jet",
    "sigma_value",
    "dln_sigma",
    "sigma_and_dln",
]

EIGENVALUE_FLOOR = 1e-10

# the seeded trials on which a model checks that F is positive and 1-homogeneous,
# and the relative deviation from F(x, a*y) = a*F(x, y) a trial may show
VALIDATION_TRIALS = 64
VALIDATION_SEED = 987654321
HOMOGENEITY_TOL = 1e-8
# the trials of the models without a y_guard, per (dim, x_radius)
_TRIALS: dict[tuple[int, float], tuple] = {}

VOLUME_KINDS = ("lebesgue", "busemann_hausdorff", "riemannian_auto", "custom")


class MetricDefinitionError(InputFault):
    """The expression does not define a Finsler metric (homogeneity, positivity)."""


class NonPositiveDefiniteError(InputFault):
    """The fundamental tensor failed the positive-definiteness floor."""

    def __init__(self, min_eigenvalue: float, where: str = "fundamental tensor"):
        super().__init__(
            f"{where} is not positive definite (smallest eigenvalue {min_eigenvalue:.3e})"
        )
        self.min_eigenvalue = min_eigenvalue


class NonPositiveMetricError(InputFault):
    """F evaluated to a non-positive value at a point where it must be positive."""


class UnsupportedDimensionError(InputFault):
    """The dimension of an x-dependent F exceeds half the jet variable cap."""


class VolumeFormError(InputFault):
    """The volume form is inconsistent with the model or non-positive."""


class SamplingError(InputFault):
    """A rejection sampler drew no admissible direction within its attempt cap."""

    def __init__(self, model: "MetricModel"):
        guard = getattr(model.y_guard, "__qualname__", repr(model.y_guard))
        super().__init__(
            f"no admissible direction in {model.sample_attempts} draws for metric "
            f"{model.metric_id!r}: its y_guard {guard} rejected every one"
        )


@dataclass(frozen=True)
class VolumeSpec:
    """Volume coefficient choice: sigma(x) in dV = sigma(x) dx^1 ... dx^n."""

    kind: str
    sigma_ast: Node | None = None

    def __post_init__(self):
        if self.kind not in VOLUME_KINDS:
            raise VolumeFormError(f"unknown volume form kind {self.kind!r}")
        if self.kind == "custom" and self.sigma_ast is None:
            raise VolumeFormError("custom volume form requires a sigma expression")


def _normalize_volume(spec, dim: int, params) -> VolumeSpec:
    if isinstance(spec, VolumeSpec):
        return spec
    if isinstance(spec, str):
        alias = {"bh": "busemann_hausdorff", "auto": "riemannian_auto"}
        kind = alias.get(spec, spec)
        if kind.startswith("expr:"):
            try:
                ast = parse(kind[len("expr:"):], dim, params)
            except ExprError as err:
                raise VolumeFormError(str(err)) from None
            return VolumeSpec("custom", ast)
        return VolumeSpec(kind)
    raise VolumeFormError(f"cannot interpret volume form {spec!r}")


class MetricModel:
    """A Finsler structure: dimension, norm expression, volume form.

    The norm F is an expression over x1..xn, y1..yn and named parameters.
    Construction checks it on one seeded set of 64 trials (x, y, a), drawn
    through :meth:`sample_x` and :meth:`sample_y` with a scale a in
    [0.1, 10]: at each trial F must be defined, positively 1-homogeneous
    (F(x, a y) = a F(x, y) to 1e-8 relative) and positive, and the first
    failing trial is named.  An F that depends on x is expanded over x and
    y, so its dimension is at most half the jet variable cap, else
    :class:`UnsupportedDimensionError`.  Positive definiteness of the
    fundamental tensor is checked lazily wherever g is assembled.

    ``a_asts`` carries the matrix entries of a Riemannian ground metric and
    is required by the ``riemannian_auto`` volume form, where
    sigma = sqrt(det a(x)).

    The direction samplers stop with :class:`SamplingError` after
    ``sample_attempts`` draws when ``y_guard`` admits none of them.
    """

    sample_attempts = 10_000

    def __init__(
        self,
        dim: int,
        f,
        *,
        params: Mapping[str, float] | None = None,
        volume="lebesgue",
        metric_id: str = "custom",
        a_asts=None,
        x_radius: float = 1.0,
        x_max_norm: float = math.inf,
        y_guard=None,
    ):
        dim = int(dim)
        if dim < 2:
            raise MetricDefinitionError("dimension must be at least 2")
        self.dim = dim
        self.params = dict(params or {})
        self.f_ast = parse(f, dim, self.params) if isinstance(f, str) else f
        self.volume = _normalize_volume(volume, dim, self.params)
        self.metric_id = metric_id
        self.a_asts = a_asts
        self.x_radius = float(x_radius)
        self.x_max_norm = float(x_max_norm)
        self.y_guard = y_guard
        self.depends_on_x = any(
            isinstance(node, Var) and node.kind == "x" for node in iter_nodes(self.f_ast)
        )
        if self.volume.kind == "riemannian_auto" and a_asts is None:
            raise VolumeFormError(
                "riemannian_auto volume requires the ground-metric entries"
            )
        if self.volume.kind == "custom":
            if any(
                isinstance(node, Var) and node.kind == "y"
                for node in iter_nodes(self.volume.sigma_ast)
            ):
                raise VolumeFormError("the volume coefficient may only depend on x")
        self._validate()
        if self.depends_on_x and dim > jets.MAX_VARS // 2:  # its jets run over x and y
            raise UnsupportedDimensionError(
                f"dimension must be at most {jets.MAX_VARS // 2} for an x-dependent F, got {dim}"
            )

    def _trials(self) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
        """The seeded validation trials: the (x, y) draws, the scales a and
        the stacked xs and ys.  Without a ``y_guard`` they depend only on
        (dim, x_radius), so they are drawn once per process and kept
        read-only; a guarded model draws its own."""
        key = (self.dim, self.x_radius)
        trials = None if self.y_guard is not None else _TRIALS.get(key)
        if trials is None:
            rng = np.random.default_rng(VALIDATION_SEED)
            draws = tuple((self.sample_x(rng), self.sample_y(rng)) for _ in range(VALIDATION_TRIALS))
            scales = np.exp(rng.uniform(math.log(0.1), math.log(10.0), VALIDATION_TRIALS))
            trials = (draws, scales, *np.transpose(draws, (1, 2, 0)))
            if self.y_guard is None:
                for array in (*(v for pair in draws for v in pair), *trials[1:]):
                    array.flags.writeable = False
                _TRIALS[key] = trials
        return trials

    def _validate(self):
        """Scan the trials in order; the first that is undefined, not
        1-homogeneous or not positive raises.  F is evaluated once at y and
        once at a*y over the stacked trials."""
        trials = VALIDATION_TRIALS
        draws, scales, xs, ys = self._trials()
        try:
            stacked = [self.f(xs, ys), self.f(xs, scales * ys)]
            values = zip(*(np.broadcast_to(v, trials).tolist() for v in stacked))
        except EvalDomainError:
            values = [None] * trials  # evaluate one trial at a time: the first fault raises
        for (x, y), a, pair in zip(draws, scales.tolist(), values):
            try:
                f, f_scaled = (float(self.f(x, y)), float(self.f(x, a * y))) if pair is None else pair
            except EvalDomainError as err:
                err.args = (f"{err} at x={x}, y={y}",)  # name the trial, keep the class
                raise
            # infinite where a*F(x, y) = 0; a NaN never exceeds the tolerance
            deviation = abs(f_scaled - a * f) / abs(a * f) if a * f != 0.0 else math.inf
            if deviation > HOMOGENEITY_TOL:
                raise MetricDefinitionError(
                    f"F is not positively 1-homogeneous in y: relative deviation "
                    f"{deviation:.3e} of F(x, a*y) from a*F(x, y) at x={x}, y={y}, a={a!r}"
                )
            if not f > 0.0:
                raise MetricDefinitionError(
                    f"F must be positive on y != 0; got {f!r} at x={x}, y={y}"
                )

    # -- sampling helpers (deterministic given the caller's generator) ------

    def sample_x(self, rng) -> np.ndarray:
        direction = rng.standard_normal(self.dim)
        norm = np.linalg.norm(direction)
        while norm < 1e-12:
            direction = rng.standard_normal(self.dim)
            norm = np.linalg.norm(direction)
        radius = self.x_radius * rng.uniform(0.0, 1.0) ** (1.0 / self.dim)
        return direction / norm * radius

    def sample_y(self, rng) -> np.ndarray:
        for _ in range(self.sample_attempts):
            y = rng.standard_normal(self.dim)
            if np.linalg.norm(y) < 1e-3:
                continue
            if self.y_guard is not None and not self.y_guard(y):
                continue
            return y
        raise SamplingError(self)

    def f(self, x, y):
        """Evaluate F(x, y); generic over floats, arrays and jets."""
        return evaluate(self.f_ast, list(x), list(y), self.params)


@dataclass(frozen=True, eq=False)
class FlagPoint:
    """A point (x, y) with y != 0 where the coordinate tensors are evaluated."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("x and y must be vectors of equal length")
        # the squared norm, in Python floats: 0.0 when it underflows, and an
        # overflow gives inf without a numpy warning
        if sum(v * v for v in self.y.tolist()) == 0.0:
            raise ValueError("y must be nonzero")


@dataclass
class CoordinateTensors:
    """All coordinate tensors at one flag point."""

    f: float
    g: np.ndarray
    cartan: np.ndarray
    spray: np.ndarray
    nonlinear: np.ndarray
    mean_berwald: np.ndarray
    tau: float
    s: float


# -- the expansion and its extractors -------------------------------------------


class TensorJets:
    """Taylor data of F and F^2 around a batch of flag points: the one
    expansion every coordinate tensor is read from.

    F is walked once per point, at ``xs[k]``, ``ys[k]``; everything after
    the walks runs once per batch, on a leading axis with one row per point.
    When F depends on x the jets run over the 2n variables (x1..xn, y1..yn)
    in which x enters to first order (joint x-degree at most 1, see
    :func:`~finslerlab.jets.jet_space`), since no tensor needs more than one
    x-derivative of F; otherwise the x coordinates enter as constants and
    the jets run over y only, which keeps x-independent metrics usable up to
    the variable cap.  :func:`expansion_order` gives the order that serves a
    set of tensors.  Every tensor is one float array ``(points, *slots,
    size)`` of coefficients over :meth:`space`.  A field that has taken its
    x-derivative (the spray, and N, E and the volume-free S read from it)
    lives in the x-free space of the same variables (:meth:`x_free`); its
    other factors are restricted to it explicitly.  An expansion of order p
    carries g, g^{-1} and the spray to order p - 2; each is assembled once,
    at that order, when first read.
    """

    def __init__(self, model: MetricModel, xs, ys, order: int):
        n = model.dim
        self.n = n
        self.depends_on_x = model.depends_on_x
        self.order = order
        self.y = np.asarray(ys, dtype=float).reshape(-1, n)
        # the x variables, limited to x-degree 1, come first
        self.x_vars = self.y_offset = n if self.depends_on_x else 0
        self.n_vars = n + self.x_vars
        self.f_space = space = self.space(order)
        xs = np.asarray(xs, dtype=float).reshape(-1, n)
        self.f, self.f2 = np.empty((2, len(xs), space.size))
        for k, (x, y) in enumerate(zip(xs.tolist(), self.y.tolist())):
            xj = [space.variable(i + 1, v) for i, v in enumerate(x)] if self.x_vars else x
            yj = [space.variable(self.y_offset + i + 1, v) for i, v in enumerate(y)]
            f_jet = evaluate(model.f_ast, xj, yj, model.params)
            if not f_jet.value > 0.0:
                raise NonPositiveMetricError(
                    f"F(x, y) = {f_jet.value!r} must be positive at x={xs[k]}, y={self.y[k]}"
                )
            self.f[k], self.f2[k] = f_jet.coeffs, (f_jet * f_jet).coeffs

    def take(self, rows) -> "TensorJets":
        """The expansion at these rows of the batch, with the assemblies
        made so far; every array attribute has one row per point."""
        out = copy.copy(self)
        out.__dict__.update((k, v[rows]) for k, v in vars(self).items() if isinstance(v, np.ndarray))
        return out

    def space(self, order: int, x_degree: int = 1) -> jets.JetSpace:
        """The jet space of this order over the expansion variables, with x
        entering to ``x_degree`` (the same space for every limit when F does
        not depend on x)."""
        return jets.jet_space(self.n_vars, order, self.x_vars, x_degree)

    def x_free(self, order: int) -> jets.JetSpace:
        """The space of the fields that have taken an x-derivative."""
        return self.space(order, 0)

    def y_jets(self, order: int) -> np.ndarray:
        """The coordinates y^i as x-free jets of the given order, one row
        each, per point."""
        space = self.x_free(order)
        out = np.zeros(self.y.shape + (space.size,))
        out[..., 0] = self.y
        if order:  # the unit multi-index of y^i is that of d/dy^i
            out[:, range(self.n), [space.index_of[unit] for unit in self.gammas(0, 1)]] = 1.0
        return out

    def gammas(self, x_slots: int, y_slots: int) -> tuple[tuple[int, ...], ...]:
        """The multi-index of d_{x^i}.. d_{y^a}.. for every index tuple,
        x-slots first, in C order."""
        if x_slots and not self.depends_on_x:
            raise ValueError("x derivatives need jets over the x variables")
        return _gammas(self.n_vars, self.y_offset, self.n, x_slots, y_slots)

    def d_f2(self, x_slots: int, y_slots: int) -> np.ndarray:
        """d_{x^i}.. d_{y^a}.. F^2 for every index tuple, x-slots first:
        shape ``(points,) + (n,) * (x_slots + y_slots) + (size,)``, x-free
        after a derivative along x."""
        d = jets.jet_partials(self.f_space, self.f2, self.gammas(x_slots, y_slots))
        return d.reshape(d.shape[:1] + (self.n,) * (x_slots + y_slots) + d.shape[-1:])

    @cached_property
    def g(self) -> np.ndarray:
        """g_ij to order p - 2; raises unless g is positive definite."""
        g = 0.5 * self.d_f2(0, 2)
        _check_pd(g[..., 0], "fundamental tensor")
        return g

    @cached_property
    def g_inv(self) -> np.ndarray:
        """g^{ij} to order p - 2, x-free: the one matrix inverse of an expansion."""
        space = self.x_free(self.order - 2)
        return jets.neumann_inverse(space, self.g[..., self.space(space.order).restriction(space)])

    @cached_property
    def spray(self) -> np.ndarray:
        """G^i = (1/4) g^{il} ([F^2]_{x^k y^l} y^k - [F^2]_{x^l}) to order p - 2,
        x-free."""
        space = self.x_free(self.order - 2)
        y_d = jets.jet_einsum(space, "kl,k->l", self.d_f2(1, 1), self.y_jets(space.order))
        b = y_d - self.d_f2(1, 0)[..., : space.size]
        return 0.25 * jets.jet_einsum(space, "il,l->i", self.g_inv, b)


# The expansion order each tensor needs beyond its own jet order: g from
# [F^2]_yy, the Cartan tensor "h" from F [F^2]_yyy, E = d^3 G/dy^3 with G
# built from [F^2]_xy, and the volume-free S from the y- and x-derivatives of
# ln det g.
_DEPTH = {"g": 2, "h": 3, "e": 5, "s": 3}


def expansion_order(model: MetricModel, jet_orders: Mapping[str, int]) -> int:
    """The order of the one expansion of F that carries each tensor named
    in ``jet_orders`` (keys of :data:`_DEPTH`) at its jet order.  E and the
    volume-free S are exact zeros for an F without x and need none of it."""
    return max(
        (order + _DEPTH[name] for name, order in jet_orders.items()
         if model.depends_on_x or name in ("g", "h")),
        default=0,
    )


@lru_cache(maxsize=None)
def _gammas(n_vars: int, y_offset: int, n: int, x_slots: int, y_slots: int) -> tuple:
    out = []
    for index in product(range(n), repeat=x_slots + y_slots):
        gamma = [0] * n_vars
        for slot, i in enumerate(index):
            gamma[i if slot < x_slots else y_offset + i] += 1
        out.append(tuple(gamma))
    return tuple(out)


def _check_pd(gmat: np.ndarray, where: str) -> None:
    """Raise for the first matrix of a batch (or the one matrix) whose
    smallest eigenvalue is below the floor."""
    lowest = np.linalg.eigvalsh(gmat)[..., 0]  # the eigenvalues ascend
    if lowest.min() < EIGENVALUE_FLOOR:
        lowest = lowest.ravel()
        raise NonPositiveDefiniteError(float(lowest[np.argmax(lowest < EIGENVALUE_FLOOR)]), where)


def g_jets(tj: TensorJets, order: int) -> np.ndarray:
    """g_ij = (1/2) [F^2]_{y^i y^j} over ``tj.space(order)`` (order at most p - 2)."""
    return tj.g[..., : tj.space(order).size]


def cartan_jets(tj: TensorJets, order: int) -> np.ndarray:
    """A_ijk = (F/4) [F^2]_{y^i y^j y^k} over ``tj.space(order)`` (order at most p - 3)."""
    space = tj.space(order)
    quarter_f = 0.25 * tj.f[..., : space.size]
    return jets.jet_einsum(space, ",ijk->ijk", quarter_f, tj.d_f2(0, 3)[..., : space.size])


def spray_jets(tj: TensorJets, order: int) -> np.ndarray:
    """The spray G^i over ``tj.x_free(order)`` (order at most p - 2); zero
    when F does not depend on x."""
    size = tj.x_free(order).size
    if not tj.depends_on_x:
        return np.zeros((len(tj.y), tj.n, size))
    return tj.spray[..., :size]


def nonlinear_jets(tj: TensorJets, order: int) -> np.ndarray:
    """N^i_j = dG^i/dy^j over ``tj.x_free(order)`` (order at most p - 3)."""
    return jets.jet_partials(tj.x_free(order + 1), spray_jets(tj, order + 1), tj.gammas(0, 1))


def berwald_jets(tj: TensorJets, order: int) -> np.ndarray:
    """E_ij = d^3 G^p / dy^i dy^j dy^p over ``tj.x_free(order)`` (order at most p - 5)."""
    n, p = tj.n, np.arange(tj.n)
    d = jets.jet_partials(tj.x_free(order + 3), spray_jets(tj, order + 3), tj.gammas(0, 3))
    d = d.reshape(d.shape[:1] + (n,) * 4 + d.shape[-1:])
    return d[:, p, :, :, p].sum(axis=0)  # [point, p, i, j, p], summed over p


def s_main_jet(tj: TensorJets, order: int) -> np.ndarray:
    """The volume-free part of the S-curvature, the spray derivative of
    tau_g = ln sqrt(det g): y^i d_{x^i} tau_g - 2 G^i d_{y^i} tau_g, over
    ``tj.x_free(order)`` (order at most p - 3).  S is its value minus
    y . grad ln sigma.

    By Jacobi's formula d tau_g = (1/2) tr(g^{-1} dg), so it needs no
    determinant.  It equals y^i d_{x^i} tau_g - y^i N^j_i d_{y^j} tau_g, the
    derivative along the spray, because N^j_i y^i = 2 G^j (G is
    2-homogeneous in y).
    """
    space = tj.x_free(order)
    if not tj.depends_on_x:
        return np.zeros((len(tj.y), space.size))
    g_inv, g_space = tj.g_inv[..., : space.size], tj.space(tj.order - 2)
    dg_x = jets.jet_partials(g_space, tj.g, tj.gammas(1, 0))[..., : space.size]
    dg_y = jets.jet_partials(g_space, tj.g, tj.gammas(0, 1))
    dg_y = dg_y[..., tj.space(g_space.order - 1).restriction(space)]
    d_x = 0.5 * jets.jet_einsum(space, "ab,abi->i", g_inv, dg_x)
    d_y = 0.5 * jets.jet_einsum(space, "ab,abi->i", g_inv, dg_y)
    along_x = jets.jet_einsum(space, "i,i->", tj.y_jets(order), d_x)
    return along_x - 2.0 * jets.jet_einsum(space, "i,i->", spray_jets(tj, order), d_y)


# -- volume coefficient --------------------------------------------------------


def _sigma_matrix(model: MetricModel, x, order: int) -> tuple[np.ndarray, float, float]:
    """sigma = (det m)^power for a matrix m of expressions in x: the ground
    metric a(x) with power 1/2 (riemannian_auto), or the 1 x 1 matrix
    (sigma(x)) with power 1 (custom).  Returns m as jets of the given order
    over x, the power and det m at x.  Jets that overflow are refused, as
    sigma(x) or its gradient overflowing there."""
    n = model.dim
    space = jets.jet_space(n, order)
    xs = [space.variable(i + 1, float(x[i])) for i in range(n)]
    if model.volume.kind == "custom":
        asts, power, what = [[model.volume.sigma_ast]], 1.0, "sigma(x)"
    else:
        asts, power, what = model.a_asts, 0.5, "det a(x)"
    ys, zero = [0.0] * n, space.constant(0.0)  # zero + a float entry is a jet
    try:
        m = np.array([[(zero + evaluate(a, xs, ys, model.params)).coeffs for a in row] for row in asts])
    except EvalDomainError as err:
        if not err.overflows:
            raise
        m = np.array(math.inf)  # refused below
    if not np.all(np.isfinite(m)):  # also a NaN left by an overflow
        raise VolumeFormError(f"sigma(x) or its gradient overflows at x = {np.asarray(x, float).tolist()}")
    det = float(np.linalg.det(m[..., 0]))
    if not det > 0.0:
        raise VolumeFormError(f"{what} = {det!r} must be positive")
    return m, power, det


def sigma_value(model: MetricModel, x) -> float:
    """Value of the volume coefficient sigma(x)."""
    kind = model.volume.kind
    if kind == "lebesgue":
        return 1.0
    if kind == "busemann_hausdorff":
        return volume.bh_volume_coefficient(model, x)
    _, power, det = _sigma_matrix(model, x, 0)
    return det ** power


def dln_sigma(model: MetricModel, x) -> np.ndarray:
    """Gradient of ln(sigma) at x; zero with no quadrature for the BH
    coefficient of an F without x, a constant."""
    if model.volume.kind == "busemann_hausdorff" and not model.depends_on_x:
        return np.zeros(model.dim)
    return sigma_and_dln(model, x)[1]


def sigma_and_dln(model: MetricModel, x) -> tuple[float, np.ndarray]:
    """sigma(x) and the gradient of ln sigma at x, from one BH coefficient or
    one matrix m of order 1; for sigma = (det m)^power the gradient is
    power * tr(m^{-1} dm) (Jacobi's formula)."""
    kind = model.volume.kind
    if kind == "lebesgue":
        return 1.0, np.zeros(model.dim)
    if kind == "busemann_hausdorff":
        return volume.bh_sigma_and_log_gradient(model, x)
    m, power, det = _sigma_matrix(model, x, 1)
    return det ** power, power * np.einsum("ij,jik->k", np.linalg.inv(m[..., 0]), m[..., 1:])


# -- public coordinate operations ----------------------------------------------


def s_curvature_alt(model: MetricModel, point: FlagPoint) -> float:
    """Divergence form S = dG^m/dy^m - y^m d(ln sigma)/dx^m (cross-check route)."""
    div = 0.0
    if model.depends_on_x:
        tj = TensorJets(model, point.x[None], point.y[None], 3)
        div = float(np.trace(nonlinear_jets(tj, 0)[0, ..., 0]))
    return float(div - point.y @ dln_sigma(model, point.x))


def coordinate_tensors(model: MetricModel, point: FlagPoint) -> CoordinateTensors:
    """Every coordinate tensor at the flag point, read off one expansion (a
    batch of one) that serves each of them at jet order 0."""
    order = expansion_order(model, dict.fromkeys(_DEPTH, 0))
    tj = TensorJets(model, point.x[None], point.y[None], order)
    g = g_jets(tj, 0)[0, ..., 0]
    cartan, spray = cartan_jets(tj, 0)[0, ..., 0], spray_jets(tj, 0)[0, ..., 0]
    nonlinear, berwald = nonlinear_jets(tj, 0)[0, ..., 0], berwald_jets(tj, 0)[0, ..., 0]
    sigma, grad = sigma_and_dln(model, point.x)
    return CoordinateTensors(
        f=float(tj.f[0, 0]),
        g=g,
        cartan=cartan,
        spray=spray,
        nonlinear=nonlinear,
        mean_berwald=berwald,
        tau=0.5 * math.log(np.linalg.det(g)) - math.log(sigma),
        s=float(s_main_jet(tj, 0)[0, 0]) - float(point.y @ grad),
    )
