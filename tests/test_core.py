import math

import numpy as np
import pytest

from finslerlab.core import (
    FlagPoint,
    MetricDefinitionError,
    MetricModel,
    NonPositiveDefiniteError,
    cartan_tensor,
    coordinate_tensors,
    distortion,
    dln_sigma,
    fundamental_tensor,
    mean_berwald,
    metric_value,
    nonlinear_connection,
    s_curvature,
    s_curvature_alt,
    sigma_value,
    spray_coefficients,
)
from finslerlab.expr import EvalDomainError
from finslerlab.jets import finite_difference_oracle
from finslerlab.zoo import build, funk_norm

from conftest import random_flag


def test_fundamental_tensor_euclidean(euclid3, rng):
    p = random_flag(euclid3, rng)
    np.testing.assert_allclose(fundamental_tensor(euclid3, p), np.eye(3), atol=1e-14)


def test_fundamental_tensor_riemannian_constant(riem2, rng):
    p = random_flag(riem2, rng)
    np.testing.assert_allclose(
        fundamental_tensor(riem2, p), np.diag([1.0, 4.0]), atol=1e-13
    )


def test_fundamental_tensor_quartic_structure_and_fd(quartic3):
    p = FlagPoint(np.zeros(3), np.array([1.0, 1.0, 1.0]))
    g = fundamental_tensor(quartic3, p)
    assert g[0, 0] == pytest.approx(g[1, 1])
    assert g[1, 1] == pytest.approx(g[2, 2])
    assert g[0, 1] == pytest.approx(g[0, 2])
    assert g[0, 1] < 0

    def half_f2(yvec):
        return 0.5 * quartic3.f(p.x, yvec) ** 2

    for i in range(3):
        for j in range(i, 3):
            alpha = np.zeros(3, dtype=int)
            alpha[i] += 1
            alpha[j] += 1
            est = finite_difference_oracle(half_f2, p.y, tuple(alpha), 1e-3)
            assert abs(est - g[i, j]) <= 1e-6 * max(1.0, abs(g[i, j]))


def test_fundamental_tensor_degenerate_raises(quartic3):
    p = FlagPoint(np.zeros(3), np.array([1.0, 1e-6, 1e-6]))
    with pytest.raises(NonPositiveDefiniteError) as info:
        fundamental_tensor(quartic3, p)
    assert info.value.min_eigenvalue < 1e-10


def test_cartan_tensor_riemannian_vanishes(riem3, rng):
    p = random_flag(riem3, rng)
    np.testing.assert_allclose(cartan_tensor(riem3, p), 0.0, atol=1e-12)


def test_cartan_tensor_quartic_symmetry_and_euler(quartic3):
    p = FlagPoint(np.zeros(3), np.array([1.0, 1.0, 1.0]))
    a = cartan_tensor(quartic3, p)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        np.testing.assert_allclose(a, np.transpose(a, perm), atol=1e-14)
    contraction = np.einsum("ijk,k->ij", a, p.y)
    assert np.max(np.abs(contraction)) <= 1e-10 * max(1.0, np.max(np.abs(a)))


def test_cartan_tensor_randers_matches_fd(randers3, rng):
    p = random_flag(randers3, rng)
    a = cartan_tensor(randers3, p)
    f_value = metric_value(randers3, p)

    def f2(yvec):
        return randers3.f(p.x, yvec) ** 2

    for alpha_idx in ((0, 0, 1), (0, 1, 2), (1, 2, 2)):
        alpha = np.zeros(3, dtype=int)
        for i in alpha_idx:
            alpha[i] += 1
        est = 0.25 * f_value * finite_difference_oracle(f2, p.y, tuple(alpha), 5e-3)
        exact = a[alpha_idx]
        assert abs(est - exact) <= 1e-5 * max(1.0, abs(exact))


def test_spray_minkowski_vanishes(quartic3, rng):
    p = random_flag(quartic3, rng)
    np.testing.assert_allclose(spray_coefficients(quartic3, p), 0.0, atol=1e-14)
    np.testing.assert_allclose(nonlinear_connection(quartic3, p), 0.0, atol=1e-14)


def test_spray_funk_projective(funk3, rng):
    for _ in range(5):
        p = random_flag(funk3, rng)
        f_value = metric_value(funk3, p)
        spray = spray_coefficients(funk3, p)
        np.testing.assert_allclose(spray, 0.5 * f_value * p.y, atol=1e-8 * f_value)


def test_spray_homogeneity(randers3, rng):
    p = random_flag(randers3, rng)
    g1 = spray_coefficients(randers3, p)
    g2 = spray_coefficients(randers3, FlagPoint(p.x, 2.0 * p.y))
    np.testing.assert_allclose(g2, 4.0 * g1, rtol=1e-10, atol=1e-12)


def test_mean_berwald_minkowski_zero(quartic3, rng):
    p = random_flag(quartic3, rng)
    np.testing.assert_allclose(mean_berwald(quartic3, p), 0.0, atol=1e-10)


def test_mean_berwald_matches_fd_of_spray(randers3, rng):
    p = random_flag(randers3, rng)
    e_hat = mean_berwald(randers3, p)
    n = 3
    for i, j in ((0, 0), (0, 1), (1, 2)):
        estimate = 0.0
        for m in range(n):
            alpha = np.zeros(n, dtype=int)
            alpha[i] += 1
            alpha[j] += 1
            alpha[m] += 1

            def spray_component(yvec, m=m):
                return float(spray_coefficients(randers3, FlagPoint(p.x, yvec))[m])

            estimate += finite_difference_oracle(spray_component, p.y, tuple(alpha), 5e-3)
        assert abs(estimate - e_hat[i, j]) <= 1e-4 * max(1.0, abs(e_hat[i, j]))


def test_mean_berwald_symmetry_and_euler(randers3, funk3, rng):
    for model in (randers3, funk3):
        p = random_flag(model, rng)
        e_hat = mean_berwald(model, p)
        np.testing.assert_allclose(e_hat, e_hat.T, atol=1e-12)
        contraction = e_hat @ p.y
        assert np.max(np.abs(contraction)) <= 1e-9 * max(1.0, np.max(np.abs(e_hat)))


def test_distortion_cases(euclid3, riem2, quartic3, rng):
    p = random_flag(euclid3, rng)
    assert distortion(euclid3, p) == pytest.approx(0.0, abs=1e-13)
    p2 = random_flag(riem2, rng)
    assert distortion(riem2, p2) == pytest.approx(0.0, abs=1e-12)
    p3 = random_flag(quartic3, rng)
    tau1 = distortion(quartic3, p3)
    tau2 = distortion(quartic3, FlagPoint(p3.x, 2.0 * p3.y))
    assert tau2 == pytest.approx(tau1, abs=1e-10)


def test_s_curvature_riemannian_auto_vanishes(rng):
    model = build("riemannian", 2, {"a11": "exp(x1)", "a22": "1"})
    for _ in range(5):
        p = random_flag(model, rng)
        assert abs(s_curvature(model, p)) <= 1e-6
        assert abs(s_curvature_alt(model, p)) <= 1e-6


def test_s_curvature_funk_values(funk3):
    p = FlagPoint(np.zeros(3), np.array([0.0, 0.0, 2.0]))
    assert s_curvature(funk3, p) == pytest.approx(4.0, abs=1e-6)
    p2 = FlagPoint(np.array([0.5, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    f_expect = 1.0 / math.sqrt(0.75)
    assert metric_value(funk3, p2) == pytest.approx(f_expect, rel=1e-12)
    assert s_curvature(funk3, p2) == pytest.approx(2.0 * f_expect, abs=1e-5)


def test_s_curvature_routes_agree(zoo_models, rng):
    for model in zoo_models:
        for _ in range(20):
            p = random_flag(model, rng)
            s1 = s_curvature(model, p)
            s2 = s_curvature_alt(model, p)
            assert abs(s1 - s2) <= 1e-7 * max(1.0, abs(s1))


def test_s_curvature_homogeneity(randers3, rng):
    p = random_flag(randers3, rng)
    s1 = s_curvature(randers3, p)
    s2 = s_curvature(randers3, FlagPoint(p.x, 2.0 * p.y))
    assert s2 == pytest.approx(2.0 * s1, rel=1e-8, abs=1e-10)


def test_euler_identities(zoo_models, rng):
    for model in zoo_models:
        p = random_flag(model, rng)
        g = fundamental_tensor(model, p)
        f_value = metric_value(model, p)
        assert p.y @ g @ p.y == pytest.approx(f_value ** 2, rel=1e-8)
        a = cartan_tensor(model, p)
        contraction = np.einsum("ijk,k->ij", a, p.y)
        assert np.max(np.abs(contraction)) <= 1e-8 * max(1.0, np.max(np.abs(a)))


def test_bh_sigma_euclidean(euclid3, rng):
    from finslerlab.volume import bh_volume_coefficient

    assert bh_volume_coefficient(euclid3, rng.uniform(-1, 1, 3)) == pytest.approx(
        1.0, abs=1e-8
    )


def test_bh_sigma_riemannian_matches_det(riem2, riem3, rng):
    from finslerlab.volume import bh_volume_coefficient

    assert bh_volume_coefficient(riem2, rng.uniform(-1, 1, 2)) == pytest.approx(
        2.0, abs=1e-6
    )
    assert bh_volume_coefficient(riem3, rng.uniform(-1, 1, 3)) == pytest.approx(
        2.0, abs=1e-6
    )


def test_bh_sigma_funk_is_one(funk3):
    from finslerlab.volume import bh_volume_coefficient

    for x in ([0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.3, 0.4, 0.6], [0.9, 0.0, 0.0]):
        assert bh_volume_coefficient(funk3, np.array(x)) == pytest.approx(1.0, abs=1e-6)


def test_bh_quadrature_error_path(funk3, monkeypatch):
    from finslerlab import volume

    monkeypatch.setattr(volume, "QUAD_TOL", -1.0)
    with pytest.raises(volume.QuadratureError) as info:
        volume.bh_volume_coefficient(funk3, np.array([0.2, 0.1, 0.0]))
    assert info.value.estimate == pytest.approx(1.0, abs=1e-6)


def test_s_curvature_with_bh_volume(rng):
    model = build("funk_ball", 3, volume="bh")
    p = FlagPoint(np.array([0.4, 0.1, -0.2]), np.array([0.3, 1.0, 0.2]))
    f_value = metric_value(model, p)
    s1 = s_curvature(model, p)
    s2 = s_curvature_alt(model, p)
    assert s1 == pytest.approx(2.0 * f_value, abs=1e-5)
    assert abs(s1 - s2) <= 1e-5 * max(1.0, abs(s1))


def test_custom_sigma_gradient(rng):
    model = build("euclidean", 3, volume="expr:exp(x1 + 2*x2)")
    x = rng.uniform(-0.5, 0.5, 3)
    assert sigma_value(model, x) == pytest.approx(math.exp(x[0] + 2 * x[1]), rel=1e-12)
    np.testing.assert_allclose(dln_sigma(model, x), [1.0, 2.0, 0.0], atol=1e-12)


def test_non_homogeneous_rejected():
    with pytest.raises(MetricDefinitionError, match="homogeneous"):
        MetricModel(2, "y1 + y2^2")


def test_non_positive_rejected():
    # 1-homogeneous but changes sign on the cone
    with pytest.raises(MetricDefinitionError, match="positive"):
        MetricModel(2, "y1 + 0*y2", validation_trials=64)


def test_validation_reports_the_first_failing_trial():
    # F < 0 at every trial, undefined (x2 > 0.93) only at a later positivity trial
    with pytest.raises(MetricDefinitionError, match="positive"):
        MetricModel(2, "-sqrt(y1^2 + y2^2) / sqrt(0.93 - x2)")
    with pytest.raises(EvalDomainError, match="sqrt"):
        MetricModel(2, "sqrt(y1^2 + y2^2) / sqrt(0.93 - x2)")


def test_coordinate_tensors_bundle(funk3):
    p = FlagPoint(np.zeros(3), np.array([0.0, 0.0, 2.0]))
    bundle = coordinate_tensors(funk3, p)
    assert bundle.f == pytest.approx(2.0)
    assert bundle.s == pytest.approx(4.0, abs=1e-6)
    np.testing.assert_allclose(bundle.g_inv @ bundle.g, np.eye(3), atol=1e-12)


def test_unsupported_dimension_for_x_dependent():
    from finslerlab.core import UnsupportedDimensionError

    model = build("funk_ball", 5)  # construction is fine
    p = FlagPoint(np.zeros(5), np.ones(5))
    with pytest.raises(UnsupportedDimensionError):
        spray_coefficients(model, p)


def test_minkowski_high_dimension_still_works():
    model = build("minkowski_quartic", 6)
    y = np.array([1.0, 1.1, 0.9, 1.2, 0.8, 1.05])
    p = FlagPoint(np.zeros(6), y)
    g = fundamental_tensor(model, p)
    assert g.shape == (6, 6)
    np.testing.assert_allclose(spray_coefficients(model, p), 0.0, atol=1e-14)


@pytest.mark.parametrize("family", ["randers", "minkowski_quartic"])
def test_coordinate_tensors_one_expansion_per_point(family, core_counts, rng):
    model = build(family, 3)
    for _ in range(3):
        coordinate_tensors(model, random_flag(model, rng))
    x_dependent = model.depends_on_x
    assert core_counts == {"expansions": 3, "g": 3, "spray": 3 if x_dependent else 0}
