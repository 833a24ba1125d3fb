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

One expansion per flag point: :class:`TensorJets` expands F and F^2 in
truncated Taylor jets around the point, and each tensor has exactly one
extractor that reads it off an expansion at a requested jet order --
:func:`g_jets`, :func:`cartan_jets`, :func:`spray_jets` (with N and E as its
y-derivatives, :func:`nonlinear_jets` and :func:`berwald_jets`) and
:func:`s_main_jet`, the volume-free part of S.  g and G are assembled once
per expansion, at the highest order it carries, and truncated for every
reader; a lower-order jet is the truncation of a higher-order one, so one
deep expansion serves every order below it.  :func:`coordinate_tensors`
builds a single expansion; each single-tensor function builds one of the
lowest order it needs.  The fibre pipeline in :mod:`finslerlab.indicatrix`
reads the same extractors.

All derivatives are exact up to roundoff.  Models are immutable after
construction and every operation is a pure function, so evaluation is safe
to parallelise over points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, permutations
from typing import Mapping

import numpy as np

from . import jets, volume
from .expr import (
    EvalDomainError,
    Node,
    Var,
    check_positive_homogeneity,
    evaluate,
    iter_nodes,
    parse,
)
from .jets import (
    Jet,
    extract_derivative,
    jet_matrix_det,
    jet_matrix_inverse,
    jet_truncated,
    jet_values,
)

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
    "fundamental_tensor",
    "cartan_tensor",
    "spray_coefficients",
    "nonlinear_connection",
    "mean_berwald",
    "distortion",
    "s_curvature",
    "s_curvature_alt",
    "coordinate_tensors",
    "g_jets",
    "cartan_jets",
    "spray_jets",
    "nonlinear_jets",
    "berwald_jets",
    "s_main_jet",
    "sigma_value",
    "dln_sigma",
]

EIGENVALUE_FLOOR = 1e-10

VOLUME_KINDS = ("lebesgue", "busemann_hausdorff", "riemannian_auto", "custom")


class MetricDefinitionError(ValueError):
    """The expression does not define a Finsler metric (homogeneity, positivity)."""


class NonPositiveDefiniteError(ArithmeticError):
    """The fundamental tensor failed the positive-definiteness floor."""

    def __init__(self, min_eigenvalue: float, where: str = "fundamental tensor"):
        super().__init__(
            f"{where} is not positive definite (smallest eigenvalue {min_eigenvalue:.3e})"
        )
        self.min_eigenvalue = min_eigenvalue


class NonPositiveMetricError(ArithmeticError):
    """F evaluated to a non-positive value at a point where it must be positive."""


class UnsupportedDimensionError(ValueError):
    """The requested computation would exceed the jet engine variable cap."""


class VolumeFormError(ValueError):
    """The volume form is inconsistent with the model or non-positive."""


class SamplingError(ValueError):
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
            ast = parse(kind[len("expr:"):], dim, params)
            return VolumeSpec("custom", ast)
        return VolumeSpec(kind)
    raise VolumeFormError(f"cannot interpret volume form {spec!r}")


class MetricModel:
    """A Finsler structure: dimension, norm expression, volume form.

    The norm F is an expression over x1..xn, y1..yn and named parameters; it
    must be positive and positively 1-homogeneous in y on the sampled cone
    (validated at construction, tolerance 1e-8).  Positive definiteness of
    the fundamental tensor is checked lazily wherever g is assembled.

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
        validate: bool = True,
        validation_trials: int = 64,
        validation_seed: int = 987654321,
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
        if validate:
            self._validate(validation_trials, validation_seed)

    def _validate(self, trials: int, seed: int):
        report = check_positive_homogeneity(
            self.f_ast, self.dim, trials, seed, self.params, x_radius=self.x_radius
        )
        if report.max_rel_deviation > 1e-8:
            raise MetricDefinitionError(
                "F is not positively 1-homogeneous in y: max relative deviation "
                f"{report.max_rel_deviation:.3e} at {report.worst}"
            )
        rng = np.random.default_rng(seed)
        draws = [(self.sample_x(rng), self.sample_y(rng)) for _ in range(trials)]
        try:
            values = np.broadcast_to(self.f(*np.transpose(draws, (1, 2, 0))), trials)
        except EvalDomainError:
            values = [None] * trials  # evaluate one trial at a time: the first fault raises
        for (x, y), value in zip(draws, values):
            value = self.f(x, y) if value is None else float(value)
            if not value > 0.0:
                raise MetricDefinitionError(
                    f"F must be positive on y != 0; got {value!r} at x={x}, y={y}"
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
        if np.linalg.norm(self.y) == 0.0:
            raise ValueError("y must be nonzero")


@dataclass
class CoordinateTensors:
    """All coordinate tensors at one flag point."""

    f: float
    g: np.ndarray
    g_inv: np.ndarray
    cartan: np.ndarray
    spray: np.ndarray
    nonlinear: np.ndarray
    mean_berwald: np.ndarray
    tau: float
    s: float


# -- the expansion and its extractors -------------------------------------------


class TensorJets:
    """Taylor data of F and F^2 around a flag point: the one expansion every
    coordinate tensor is read from.

    ``with_x`` selects jets over the 2n variables (x1..xn, y1..yn); without
    it the x coordinates enter as constants and the jets run over y only,
    which keeps x-independent metrics usable up to the variable cap.  An
    expansion of order p carries g and the spray to order p - 2; each is
    assembled once, at that order, when first read.
    """

    def __init__(self, model: MetricModel, x, y, order: int, with_x: bool):
        n = model.dim
        self.n = n
        self.with_x = with_x
        self.depends_on_x = model.depends_on_x
        self.order = order
        self.y = np.asarray(y, dtype=float)
        self.n_vars = 2 * n if with_x else n
        if self.n_vars > jets.MAX_VARS:
            raise UnsupportedDimensionError(
                f"dim {n} needs jets over {self.n_vars} variables; the engine caps at "
                f"{jets.MAX_VARS} (x-dependent metrics are supported up to dim "
                f"{jets.MAX_VARS // 2})"
            )
        self.y_offset = n if with_x else 0
        if with_x:
            xs = [jets.seed_variable(i + 1, float(x[i]), self.n_vars, order) for i in range(n)]
        else:
            xs = [float(v) for v in x]
        ys = [self.y_jet(i, order) for i in range(n)]
        self.f_jet = evaluate(model.f_ast, xs, ys, model.params)
        if not self.f_jet.value > 0.0:
            raise NonPositiveMetricError(
                f"F(x, y) = {self.f_jet.value!r} must be positive at x={x}, y={y}"
            )
        self.f2_jet = self.f_jet * self.f_jet

    def y_jet(self, i: int, order: int) -> Jet:
        """The coordinate y^i (0-based) as a jet of the given order."""
        return jets.seed_variable(self.y_offset + i + 1, float(self.y[i]), self.n_vars, order)

    def gamma(self, x_part=(), y_part=()) -> tuple[int, ...]:
        g = [0] * self.n_vars
        for i in x_part:
            if not self.with_x:
                raise ValueError("x derivatives need jets over the x variables")
            g[i] += 1
        for i in y_part:
            g[self.y_offset + i] += 1
        return tuple(g)

    def d_f2(self, x_part=(), y_part=(), order: int | None = None) -> Jet:
        out = self.f2_jet.derivative(self.gamma(x_part, y_part))
        return out if order is None else out.truncated(order)

    @cached_property
    def g(self) -> np.ndarray:
        """g_ij to order p - 2; raises unless g is positive definite."""
        n = self.n
        g = np.empty((n, n), dtype=object)
        for i, j in combinations_with_replacement(range(n), 2):
            g[i, j] = g[j, i] = self.d_f2(y_part=(i, j)) * 0.5
        _check_pd(jet_values(g), "fundamental tensor")
        return g

    @cached_property
    def spray(self) -> np.ndarray:
        """G^i = (1/4) g^{il} ([F^2]_{x^k y^l} y^k - [F^2]_{x^l}) to order p - 2."""
        n, order = self.n, self.order - 2
        g_inv = np.array(jet_matrix_inverse(self.g.tolist()), dtype=object)
        b = np.empty(n, dtype=object)
        for l in range(n):
            term = -self.d_f2(x_part=(l,), order=order)
            for k in range(n):
                term = term + self.d_f2(x_part=(k,), y_part=(l,)) * self.y_jet(k, order)
            b[l] = term
        return np.dot(g_inv, b) * 0.25


def _check_pd(gmat: np.ndarray, where: str) -> None:
    eigenvalues = np.linalg.eigvalsh(gmat)
    if eigenvalues.min() < EIGENVALUE_FLOOR:
        raise NonPositiveDefiniteError(float(eigenvalues.min()), where)


def g_jets(tj: TensorJets, order: int) -> np.ndarray:
    """g_ij = (1/2) [F^2]_{y^i y^j} as jets of the given order (at most p - 2)."""
    return jet_truncated(tj.g, order)


def cartan_jets(tj: TensorJets, order: int) -> np.ndarray:
    """A_ijk = (F/4) [F^2]_{y^i y^j y^k} as jets of the given order (at most p - 3)."""
    n = tj.n
    quarter_f = 0.25 * tj.f_jet.truncated(order)
    out = np.empty((n, n, n), dtype=object)
    for ijk in combinations_with_replacement(range(n), 3):
        entry = quarter_f * tj.d_f2(y_part=ijk, order=order)
        for index in permutations(ijk):
            out[index] = entry
    return out


def spray_jets(tj: TensorJets, order: int) -> np.ndarray:
    """The spray G^i as jets of the given order (at most p - 2); zero when F
    does not depend on x."""
    if not tj.depends_on_x:
        return np.full(tj.n, jets.constant(0.0, tj.n_vars, order), dtype=object)
    return jet_truncated(tj.spray, order)


def nonlinear_jets(tj: TensorJets, order: int) -> np.ndarray:
    """N^i_j = dG^i/dy^j as jets of the given order (at most p - 3)."""
    spray = spray_jets(tj, order + 1)
    return np.array(
        [[spray[i].derivative(tj.gamma(y_part=(j,))) for j in range(tj.n)] for i in range(tj.n)],
        dtype=object,
    )


def berwald_jets(tj: TensorJets, order: int) -> np.ndarray:
    """E_ij = d^3 G^p / dy^i dy^j dy^p as jets of the given order (at most p - 5)."""
    n = tj.n
    spray = spray_jets(tj, order + 3)
    out = np.empty((n, n), dtype=object)
    for i, j in combinations_with_replacement(range(n), 2):
        out[i, j] = out[j, i] = sum(
            spray[p].derivative(tj.gamma(y_part=(i, j, p))) for p in range(n)
        )
    return out


def s_main_jet(tj: TensorJets, order: int) -> Jet:
    """The volume-free part of the S-curvature, the spray derivative of
    ln sqrt(det g): y^i d_{x^i} tau_g - 2 G^i d_{y^i} tau_g, as a jet of the
    given order (at most p - 3).  S is its value minus y . grad ln sigma.

    It equals y^i d_{x^i} tau_g - y^i N^j_i d_{y^j} tau_g, the derivative
    along the spray, because N^j_i y^i = 2 G^j (G is 2-homogeneous in y).
    """
    if not tj.depends_on_x:
        return jets.constant(0.0, tj.n_vars, order)
    tau_g = jet_matrix_det(g_jets(tj, order + 1).tolist()).ln() * 0.5
    spray = spray_jets(tj, order)
    acc = jets.constant(0.0, tj.n_vars, order)
    for i in range(tj.n):
        acc = acc + tj.y_jet(i, order) * tau_g.derivative(tj.gamma(x_part=(i,)))
        acc = acc - 2.0 * spray[i] * tau_g.derivative(tj.gamma(y_part=(i,)))
    return acc


# -- volume coefficient --------------------------------------------------------


def _sigma_jet(model: MetricModel, x, order: int) -> Jet:
    """sigma(x) as a jet over x, for the custom and riemannian_auto forms."""
    n = model.dim
    xs = [jets.seed_variable(i + 1, float(x[i]), n, order) for i in range(n)]

    def over_x(ast) -> Jet:
        value = evaluate(ast, xs, [0.0] * n, model.params)
        return value if isinstance(value, Jet) else jets.constant(float(value), n, order)

    if model.volume.kind == "custom":
        sigma = over_x(model.volume.sigma_ast)
        if not sigma.value > 0.0:
            raise VolumeFormError(f"sigma(x) = {sigma.value!r} must be positive")
        return sigma
    det = jet_matrix_det([[over_x(entry) for entry in row] for row in model.a_asts])
    if not det.value > 0.0:
        raise VolumeFormError(f"det a(x) = {det.value!r} must be positive")
    return det.sqrt()


def sigma_value(model: MetricModel, x) -> float:
    """Value of the volume coefficient sigma(x)."""
    kind = model.volume.kind
    if kind == "lebesgue":
        return 1.0
    if kind == "busemann_hausdorff":
        return volume.bh_volume_coefficient(model, x)
    return _sigma_jet(model, x, 0).value


def dln_sigma(model: MetricModel, x) -> np.ndarray:
    """Gradient of ln(sigma) at x."""
    kind = model.volume.kind
    if kind == "lebesgue":
        return np.zeros(model.dim)
    if kind == "busemann_hausdorff":
        return volume.bh_log_gradient(model, x)
    log_sigma = _sigma_jet(model, x, 1).ln()
    return np.array([extract_derivative(log_sigma, unit) for unit in np.eye(model.dim, dtype=int)])


# -- public coordinate operations ----------------------------------------------


def metric_value(model: MetricModel, point: FlagPoint) -> float:
    value = model.f(point.x, point.y)
    if not value > 0.0:
        raise NonPositiveMetricError(f"F = {value!r} at x={point.x}, y={point.y}")
    return float(value)


def fundamental_tensor(model: MetricModel, point: FlagPoint) -> np.ndarray:
    """g_ij = (1/2) [F^2]_{y^i y^j}; raises if not positive definite."""
    tj = TensorJets(model, point.x, point.y, 2, with_x=False)
    return jet_values(g_jets(tj, 0))


def cartan_tensor(model: MetricModel, point: FlagPoint) -> np.ndarray:
    """A_ijk = (F/4) [F^2]_{y^i y^j y^k}, totally symmetric with A_ijk y^k = 0."""
    tj = TensorJets(model, point.x, point.y, 3, with_x=False)
    return jet_values(cartan_jets(tj, 0))


def spray_coefficients(model: MetricModel, point: FlagPoint) -> np.ndarray:
    """Geodesic spray coefficients G^i; zero for x-independent metrics."""
    with_x = model.depends_on_x
    tj = TensorJets(model, point.x, point.y, 2 if with_x else 0, with_x)
    return jet_values(spray_jets(tj, 0))


def nonlinear_connection(model: MetricModel, point: FlagPoint) -> np.ndarray:
    """N^i_j = dG^i/dy^j."""
    if not model.depends_on_x:
        return np.zeros((model.dim, model.dim))
    tj = TensorJets(model, point.x, point.y, 3, with_x=True)
    return jet_values(nonlinear_jets(tj, 0))


def mean_berwald(model: MetricModel, point: FlagPoint) -> np.ndarray:
    """E_ij = d^3 G^m / dy^i dy^j dy^m (symmetric, E_ij y^j = 0)."""
    if not model.depends_on_x:
        return np.zeros((model.dim, model.dim))
    tj = TensorJets(model, point.x, point.y, 5, with_x=True)
    return jet_values(berwald_jets(tj, 0))


def _distortion(model: MetricModel, x, g: np.ndarray) -> float:
    return 0.5 * math.log(np.linalg.det(g)) - math.log(sigma_value(model, x))


def distortion(model: MetricModel, point: FlagPoint) -> float:
    """tau = ln( sqrt(det g) / sigma(x) )."""
    return _distortion(model, point.x, fundamental_tensor(model, point))


def _s_value(model: MetricModel, tj: TensorJets, point: FlagPoint) -> float:
    return s_main_jet(tj, 0).value - float(point.y @ dln_sigma(model, point.x))


def s_curvature(model: MetricModel, point: FlagPoint) -> float:
    """S = derivative of the distortion along the spray:
    S = y^i dtau/dx^i - 2 G^i dtau/dy^i; raises where g is not positive definite."""
    with_x = model.depends_on_x
    tj = TensorJets(model, point.x, point.y, 3 if with_x else 2, with_x)
    g_jets(tj, 0)  # the positive-definiteness check
    return _s_value(model, tj, point)


def s_curvature_alt(model: MetricModel, point: FlagPoint) -> float:
    """Divergence form S = dG^m/dy^m - y^m d(ln sigma)/dx^m (cross-check route)."""
    div = 0.0
    if model.depends_on_x:
        tj = TensorJets(model, point.x, point.y, 3, with_x=True)
        div = float(np.trace(jet_values(nonlinear_jets(tj, 0))))
    return float(div - point.y @ dln_sigma(model, point.x))


def coordinate_tensors(model: MetricModel, point: FlagPoint) -> CoordinateTensors:
    """Every coordinate tensor at the flag point, read off one expansion: of
    order 5 over (x, y) when F depends on x (E takes three y-derivatives of
    G), of order 3 over y otherwise (the Cartan tensor)."""
    with_x = model.depends_on_x
    tj = TensorJets(model, point.x, point.y, 5 if with_x else 3, with_x)
    g = jet_values(g_jets(tj, 0))
    return CoordinateTensors(
        f=tj.f_jet.value,
        g=g,
        g_inv=np.linalg.inv(g),
        cartan=jet_values(cartan_jets(tj, 0)),
        spray=jet_values(spray_jets(tj, 0)),
        nonlinear=jet_values(nonlinear_jets(tj, 0)),
        mean_berwald=jet_values(berwald_jets(tj, 0)),
        tau=_distortion(model, point.x, g),
        s=_s_value(model, tj, point),
    )
