"""Volume coefficients and the spherical quadrature behind them.

The Busemann-Hausdorff coefficient compares the Euclidean unit-ball volume
with the volume of the sublevel set {y : F(x, y) < 1}, computed in polar
form as (1/n) * integral of F(x, theta)^(-n) over the unit sphere.  The
sphere rules (a circle trapezoid, a Gauss-Legendre by trapezoid product on
S^2, Gauss-Jacobi products above, their nodes and weights computed here in
numpy) double level by level until two agree to ``BH_AGREE`` or level 1 is
reached; that pair's difference is gated relative to the coefficient above
1, and a rule above ``MAX_RULE_NODES`` is refused.  F is evaluated one
polar block of a rule at a time; only its inner factor is kept.  The
gradient of ln sigma_BH differentiates the accepted level's integral under
the sign, with d_x F from a complex step through the evaluator; for an F
without x it is zero, and ``core.dln_sigma`` returns it with no quadrature.
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
    "sphere_blocks",
    "unit_set_volume",
    "bh_volume_coefficient",
    "bh_sigma_and_log_gradient",
]

CIRCLE_POINTS = 2048
SUB_CIRCLE_POINTS = 64
POLAR_POINTS = 24
QUAD_TOL = 1e-7
MAX_RULE_NODES = 2 ** 23  # 8,388,608 nodes; n = 8 needs 95,551,488 at level -1
BH_AGREE = 1e-13  # two ladder levels this close, relative above 1, settle the coefficient
BH_LEVELS = (-2, -1, 0, 1)  # 576, 4,608, 36,864 and 294,912 nodes at n = 4
_COMPLEX_STEP = 1e-20  # Im F(x + ih) = h dF/dx + O(h^3): no subtraction, no cancellation


class QuadratureError(InputFault):
    """Quadrature refinement did not settle below the tolerance."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate {estimate:.12g}, bound {error_bound:.3g})")
        self.estimate = estimate
        self.error_bound = error_bound


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _gauss_jacobi(m: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (increasing) and weights of the m-point Gauss rule for the weight
    (1 - t^2)^a on [-1, 1] (Golub & Welsch, Math. Comp. 23, 1969), with the
    Gegenbauer polynomials of lam = a + 1/2, Legendre at a = 0, normalised to
    p_k(1) = 1: the eigenvalues of their Jacobi matrix, one Newton step on p_m,
    and weights 1 / (p_{m-1} p_m') scaled to the integral of the weight."""
    lam = a + 0.5
    k = np.arange(1.0, m)
    # the off-diagonal in a form that is k / sqrt(4k^2 - 1) to the bit at lam = 1/2
    off = k * np.sqrt((k + 2.0 * lam - 1.0) / (4.0 * k * (k + lam) * (k + lam - 1.0)))
    t = np.linalg.eigvalsh(np.diag(off, -1))

    def p_prev_and_p_m(t):  # the three-term recurrence in d_j = p_j - p_{j-1}, exact at t = 1
        p, d = t, t - 1.0
        for j in range(1, m):
            d = (2.0 * (j + lam) / (j + 2.0 * lam)) * (t - 1.0) * p + (j / (j + 2.0 * lam)) * d
            p = p + d
        return p - d, p

    p_prev, p_m = p_prev_and_p_m(t)
    dp = (-m * t * p_m + m * p_prev) / (1.0 - t ** 2)
    t = t - p_m / dp
    p_prev = p_prev_and_p_m(t)[0]
    # p_{m-1} and p_m' span many decades: scale each to its geometric middle
    for values in (p_prev, dp):
        logs = np.log(np.abs(values))
        values /= np.exp((logs.max() + logs.min()) / 2.0)
    w = 1.0 / (p_prev * dp)
    t, w = (t - t[::-1]) / 2.0, (w + w[::-1]) / 2.0
    mass = math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)
    return t, w * (mass / w.sum())


def _circle(count: int) -> tuple[np.ndarray, np.ndarray]:
    angles = 2.0 * math.pi * np.arange(count) / count
    return np.column_stack([np.cos(angles), np.sin(angles)]), np.full(count, 2.0 * math.pi / count)


@lru_cache(maxsize=None)
def _inner_rule(n: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The whole rule on S^(n-1) inside a product rule, with the smaller circle."""
    if n == 2:
        return _circle(int(SUB_CIRCLE_POINTS * 2.0 ** level))
    points, weights = zip(*sphere_blocks(n, level)[1])
    return np.concatenate(points), np.concatenate(weights)


def sphere_blocks(n: int, level: int = 0):
    """The node count of a rule integrating smooth functions over S^(n-1), and
    an iterator of its blocks of nodes (m, n) and weights (m,), one per polar
    node of the outer factor (the circle at n = 2); the weights sum to the
    area.  ``level`` doubles the resolution per increment.  A rule above
    ``MAX_RULE_NODES`` nodes is refused here, before any block is built."""
    if n < 2:
        raise ValueError("sphere rules require n >= 2")
    circle = int((SUB_CIRCLE_POINTS if n > 2 else CIRCLE_POINTS) * 2.0 ** level)
    polar = int(POLAR_POINTS * 2.0 ** level)
    nodes = circle * polar ** (n - 2)
    if nodes > MAX_RULE_NODES:
        raise InputFault(
            f"the BH sphere rule at n = {n}, level {level} has {nodes:,} nodes, "
            f"above the cap of {MAX_RULE_NODES:,}"
        )
    if n == 2:
        return nodes, iter([_circle(circle)])
    sub_points, sub_weights = _inner_rule(n - 1, level)
    # cos(polar angle) with weight (1 - t^2)^((n-3)/2) from the area element
    t, wt = _gauss_jacobi(polar, (n - 3) / 2.0)
    return nodes, (
        (np.column_stack([si * sub_points, np.full(len(sub_weights), ti)]), wi * sub_weights)
        for ti, si, wi in zip(t, np.sqrt(1.0 - t ** 2), wt)
    )


def _rule_sums(model, xs, level: int, term) -> list[float]:
    """For each base point of ``xs`` (complex for a complex step), the sum over
    the sphere rule of term(weights, F(x, nodes)): F, which must be positive, is
    evaluated one block at a time, and each point's terms are summed once."""
    nodes, blocks = sphere_blocks(model.dim, level)
    terms, low, stop = np.empty((len(xs), nodes)), math.inf, 0
    for points, weights in blocks:
        start, stop = stop, stop + len(weights)
        for row, x in zip(terms, xs):
            values = np.asarray(evaluate(model.f_ast, np.asarray(x).tolist(), list(points.T), model.params))
            low = np.minimum(low, values.real.min())  # a NaN stays
            if low > 0.0:  # else refused below
                row[start:stop] = term(weights, values)
    if not low > 0.0:  # also a NaN
        raise QuadratureError("F is not positive on the unit sphere", float(low), math.inf)
    return [float(np.sum(row)) for row in terms]


def unit_set_volume(model, x, level: int = 0) -> float:
    """Volume of {y : F(x, y) < 1} by the polar-form sphere integral."""
    n = model.dim
    return _rule_sums(model, [x], level, lambda weights, f: weights * f ** (-n))[0] / n


def _accepted(model, x) -> tuple[int, float]:
    """The finer level of the first pair of ``BH_LEVELS`` whose coefficients
    agree, else the last level, and its coefficient, that pair gated by
    ``QUAD_TOL``."""
    ball = unit_ball_volume(model.dim)
    fine = ball / unit_set_volume(model, x, level=BH_LEVELS[0])
    for level in BH_LEVELS[1:]:
        coarse, fine = fine, ball / unit_set_volume(model, x, level=level)
        if abs(fine - coarse) <= BH_AGREE * max(1.0, fine):
            break
    error = abs(fine - coarse)
    if not error <= QUAD_TOL * max(1.0, fine):  # also a NaN
        raise QuadratureError("sphere quadrature did not converge", fine, error)
    return level, fine


def bh_volume_coefficient(model, x) -> float:
    """Busemann-Hausdorff coefficient vol(B^n) / vol{F(x, .) < 1}."""
    return _accepted(model, x)[1]


def bh_sigma_and_log_gradient(model, x) -> tuple[float, np.ndarray]:
    """The Busemann-Hausdorff coefficient at x and the gradient of its log,
    exact to roundoff: on the rule of the accepted level, d_i ln sigma =
    n * (integral of F^(-n-1) d_i F) / (integral of F^(-n)), with the complex
    step d_i F = Im F(x + ih e_i) / h; zero when F does not depend on x."""
    n = model.dim
    level, sigma = _accepted(model, x)  # also the convergence gate
    if not model.depends_on_x:
        return sigma, np.zeros(n)
    scale = sigma / (unit_ball_volume(n) * _COMPLEX_STEP)  # sigma / vol(B^n) = n / integral of F^-n
    rows = np.asarray(x) + 1j * _COMPLEX_STEP * np.eye(n)  # row i is x + ih e_i
    sums = _rule_sums(model, rows, level, lambda weights, f: weights * f.real ** (-n - 1) * f.imag)
    return sigma, scale * np.array(sums)
