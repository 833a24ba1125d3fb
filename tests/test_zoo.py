import math

import numpy as np
import pytest

from finslerlab.core import coordinate_tensors
from finslerlab.expr import evaluate
from finslerlab.jets import jet_partials, jet_space
from finslerlab.zoo import RandersConditionViolated, build, entries, funk_norm, zoo_ids

from conftest import random_flag


def test_zoo_listing():
    ids = zoo_ids()
    assert ids == [
        "euclidean",
        "funk_ball",
        "minkowski_quartic",
        "randers",
        "riemannian",
    ]
    assert len(entries()) == 5


def test_unknown_id():
    with pytest.raises(KeyError, match="unknown metric id"):
        build("kropina", 3)


def test_funk_at_origin_is_euclidean(funk3, rng):
    y = rng.standard_normal(3)
    assert funk3.f(np.zeros(3), y) == pytest.approx(np.linalg.norm(y), rel=1e-12)


def test_funk_closed_form_value(funk3):
    x = np.array([0.5, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    expected = 1.0 / math.sqrt(0.75)
    assert funk3.f(x, y) == pytest.approx(expected, rel=1e-12)
    assert funk_norm(x, y) == pytest.approx(expected, rel=1e-12)


def test_funk_defining_condition(funk3, rng):
    for _ in range(20):
        p = random_flag(funk3, rng)
        f_value = funk3.f(p.x, p.y)
        assert np.linalg.norm(p.x + p.y / f_value) == pytest.approx(1.0, abs=1e-12)


def test_funk_pde(funk3, rng):
    """F_{x^k} = F F_{y^k} at random points, both sides from jets."""
    n = 3
    for _ in range(100):
        x = funk3.sample_x(rng)
        y = funk3.sample_y(rng)
        space = jet_space(2 * n, 1)
        xj = [space.variable(i + 1, x[i]) for i in range(n)]
        yj = [space.variable(n + i + 1, y[i]) for i in range(n)]
        f = evaluate(funk3.f_ast, xj, yj, funk3.params)
        grad = jet_partials(space, f.coeffs)[:, 0]  # d_{x^k} F, then d_{y^k} F
        for k in range(n):
            lhs = grad[k]
            rhs = f.value * grad[n + k]
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_randers_condition_violated():
    with pytest.raises(RandersConditionViolated) as info:
        build("randers", 3, {"b0": [1.2, 0.0, 0.0], "eps": 0.0})
    assert info.value.norm >= 1.2
    assert "np.float64" not in str(info.value)


def test_randers_condition_violated_by_eps():
    with pytest.raises(RandersConditionViolated):
        build("randers", 3, {"eps": 1.2})


def test_randers_default_instance(randers3):
    # b(x) = eps (x2, -x1, 0): x-dependent and non-closed
    assert randers3.params["eps"] == pytest.approx(0.2)
    x = np.array([0.5, 0.3, 0.0])
    y = np.array([1.0, 0.0, 0.0])
    expected = 1.0 + 0.2 * x[1]
    assert randers3.f(x, y) == pytest.approx(expected, rel=1e-12)


def test_x_independent_entries_have_zero_spray(euclid3, quartic3, rng):
    for model in (euclid3, quartic3):
        assert not model.depends_on_x
        p = random_flag(model, rng)
        np.testing.assert_allclose(coordinate_tensors(model, p).spray, 0.0, atol=1e-14)


def test_riemannian_expression_entries(rng):
    model = build("riemannian", 2, {"a11": "exp(x1)", "a22": "1 + x2^2"})
    x = np.array([0.3, -0.4])
    y = np.array([1.0, 2.0])
    expected = math.sqrt(math.exp(0.3) * 1.0 + (1 + 0.16) * 4.0)
    assert model.f(x, y) == pytest.approx(expected, rel=1e-12)


def test_riemannian_invalid_diag():
    with pytest.raises(ValueError, match="positive"):
        build("riemannian", 2, {"a_diag": [1.0, -4.0]})
    with pytest.raises(ValueError, match="entries"):
        build("riemannian", 3, {"a_diag": [1.0, 4.0]})


def test_funk_domain_guard(funk3):
    from finslerlab.indicatrix import FibreChart

    with pytest.raises(ValueError, match="domain"):
        FibreChart(funk3, np.array([1.1, 0.0, 0.0]), "north")
