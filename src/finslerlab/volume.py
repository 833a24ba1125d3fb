"""Volume coefficients and the spherical quadrature behind them.

The Busemann-Hausdorff coefficient compares the Euclidean unit-ball volume
with the volume of the sublevel set {y : F(x, y) < 1}, computed in polar
form as (1/n) * integral of F(x, theta)^(-n) over the unit sphere.  The
sphere rules are a 2048-point trapezoid on the circle, a Gauss-Legendre by
trapezoid product on S^2, and Gauss-Jacobi products in higher dimension;
every evaluation runs the rule twice (base and refined) and reports the
difference as its error bound, gated relative to the coefficient above 1.
The gradient of ln sigma_BH comes with the coefficient it divides by: it
differentiates the refined integral under the sign, with d_x F from a
complex step through the expression evaluator.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import InputFault
from .expr import evaluate

__all__ = [
    "QuadratureError",
    "unit_ball_volume",
    "sphere_quadrature",
    "unit_set_volume",
    "bh_volume_coefficient",
    "bh_sigma_and_log_gradient",
]

CIRCLE_POINTS = 2048
SUB_CIRCLE_POINTS = 64
POLAR_POINTS = 24
QUAD_TOL = 1e-7
_COMPLEX_STEP = 1e-20  # Im F(x + ih) = h dF/dx + O(h^3): no subtraction, no cancellation


class QuadratureError(InputFault):
    """Quadrature refinement did not settle below the tolerance."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate {estimate:.12g}, bound {error_bound:.3g})")
        self.estimate = estimate
        self.error_bound = error_bound


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@lru_cache(maxsize=None)
def sphere_quadrature(
    n: int, level: int = 0, _nested: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (m, n) and weights (m,) integrating smooth functions over S^(n-1).

    Weights sum to the sphere area; ``level`` doubles the resolution once per
    increment for the refinement comparison.  The circle factor inside
    product rules uses a smaller count than the standalone circle rule.
    """
    if n < 2:
        raise ValueError("sphere_quadrature requires n >= 2")
    if n == 2:
        m = (SUB_CIRCLE_POINTS if _nested else CIRCLE_POINTS) * 2 ** level
        angles = 2.0 * math.pi * np.arange(m) / m
        points = np.column_stack([np.cos(angles), np.sin(angles)])
        weights = np.full(m, 2.0 * math.pi / m)
        return points, weights
    from scipy.special import roots_jacobi

    sub_points, sub_weights = sphere_quadrature(n - 1, level, _nested=True)
    # cos(polar angle) with weight (1 - t^2)^((n-3)/2) from the area element
    a = (n - 3) / 2.0
    t, wt = roots_jacobi(POLAR_POINTS * 2 ** level, a, a)
    sin_t = np.sqrt(1.0 - t ** 2)
    points = np.empty((len(t) * len(sub_points), n))
    weights = np.empty(len(t) * len(sub_points))
    for i, (ti, si, wi) in enumerate(zip(t, sin_t, wt)):
        block = slice(i * len(sub_points), (i + 1) * len(sub_points))
        points[block, : n - 1] = si * sub_points
        points[block, n - 1] = ti
        weights[block] = wi * sub_weights
    return points, weights


def _norm_on_sphere(model, x, points: np.ndarray) -> np.ndarray:
    """F(x, .) at the nodes; complex where x is (a complex step)."""
    xs = np.asarray(x).tolist()
    ys = [points[:, i] for i in range(points.shape[1])]
    return np.asarray(evaluate(model.f_ast, xs, ys, model.params))


def unit_set_volume(model, x, level: int = 0) -> float:
    """Volume of {y : F(x, y) < 1} by the polar-form sphere integral."""
    n = model.dim
    points, weights = sphere_quadrature(n, level)
    values = _norm_on_sphere(model, x, points)
    if np.any(values <= 0.0):
        raise QuadratureError(
            "F is not positive on the unit sphere", float(values.min()), math.inf
        )
    return float(np.sum(weights * values ** (-n)) / n)


def bh_volume_coefficient(model, x) -> float:
    """Busemann-Hausdorff coefficient vol(B^n) / vol{F(x, .) < 1}.

    Runs the base rule and one refinement; raises :class:`QuadratureError`
    when the two disagree beyond the tolerance, relative above 1.
    """
    n = model.dim
    ball = unit_ball_volume(n)
    coarse = ball / unit_set_volume(model, x, level=0)
    fine = ball / unit_set_volume(model, x, level=1)
    error = abs(fine - coarse)
    if error > QUAD_TOL * max(1.0, fine):
        raise QuadratureError("sphere quadrature did not converge", fine, error)
    return fine


def bh_sigma_and_log_gradient(model, x) -> tuple[float, np.ndarray]:
    """The Busemann-Hausdorff coefficient at x and the gradient of its log,
    exact to roundoff: on the rule of the reported coefficient, d_i ln sigma =
    n * (integral of F^(-n-1) d_i F) / (integral of F^(-n)), with the complex
    step d_i F = Im F(x + ih e_i) / h."""
    n = model.dim
    sigma = bh_volume_coefficient(model, x)  # also the convergence gate
    scale = sigma / (unit_ball_volume(n) * _COMPLEX_STEP)  # sigma / vol(B^n) = n / integral of F^-n
    points, weights = sphere_quadrature(n, 1)
    rows = np.asarray(x) + 1j * _COMPLEX_STEP * np.eye(n)  # row i is x + ih e_i
    values = (_norm_on_sphere(model, row, points) for row in rows)
    return sigma, scale * np.array([np.sum(weights * f.real ** (-n - 1) * f.imag) for f in values])
