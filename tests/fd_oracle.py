"""Richardson-extrapolated central differences: the test suite's oracle for
derivatives, independent of the jet arithmetic it checks."""

from typing import Callable, Sequence

import numpy as np


def finite_difference_oracle(
    f: Callable[[np.ndarray], float],
    point: Sequence[float],
    alpha: Sequence[int],
    step: float,
) -> float:
    """Central-difference estimate of d^alpha f at ``point``.

    Mixed derivatives are built by recursive first-order central differences;
    one Richardson extrapolation level removes the leading h^2 error term.
    """
    alpha = [int(a) for a in alpha]
    if sum(alpha) > 4:
        raise ValueError("the finite-difference oracle supports |alpha| <= 4")
    if step <= 0:
        raise ValueError("step must be positive")
    base = [float(v) for v in point]

    def estimate(h: float) -> float:
        def rec(p: list[float], a: list[int]) -> float:
            for i, ai in enumerate(a):
                if ai:
                    break
            else:
                return float(f(np.asarray(p)))
            a2 = a.copy()
            a2[i] -= 1
            pp = p.copy()
            pm = p.copy()
            pp[i] += h
            pm[i] -= h
            return (rec(pp, a2) - rec(pm, a2)) / (2.0 * h)

        return rec(base, alpha)

    coarse = estimate(step)
    fine = estimate(step / 2.0)
    return (4.0 * fine - coarse) / 3.0
