import math
from functools import partial

import numpy as np
import pytest

from finslerlab.core import (
    FlagPoint,
    MetricDefinitionError,
    MetricModel,
    NonPositiveDefiniteError,
    coordinate_tensors,
    dln_sigma,
    s_curvature_alt,
    sigma_and_dln,
    sigma_value,
)
from finslerlab.expr import EvalDomainError
from finslerlab.zoo import RandersConditionViolated, build, funk_norm, zoo_ids

from conftest import random_flag
from fd_oracle import finite_difference_oracle


def test_fundamental_tensor_euclidean(euclid3, rng):
    p = random_flag(euclid3, rng)
    np.testing.assert_allclose(coordinate_tensors(euclid3, p).g, np.eye(3), atol=1e-14)


def test_fundamental_tensor_riemannian_constant(riem2, rng):
    p = random_flag(riem2, rng)
    np.testing.assert_allclose(
        coordinate_tensors(riem2, p).g, np.diag([1.0, 4.0]), atol=1e-13
    )


def test_fundamental_tensor_quartic_structure_and_fd(quartic3):
    p = FlagPoint(np.zeros(3), np.array([1.0, 1.0, 1.0]))
    g = coordinate_tensors(quartic3, p).g
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
        coordinate_tensors(quartic3, p)
    assert info.value.min_eigenvalue < 1e-10


def test_cartan_tensor_riemannian_vanishes(riem3, rng):
    p = random_flag(riem3, rng)
    np.testing.assert_allclose(coordinate_tensors(riem3, p).cartan, 0.0, atol=1e-12)


def test_cartan_tensor_quartic_symmetry_and_euler(quartic3):
    p = FlagPoint(np.zeros(3), np.array([1.0, 1.0, 1.0]))
    a = coordinate_tensors(quartic3, p).cartan
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        np.testing.assert_allclose(a, np.transpose(a, perm), atol=1e-14)
    contraction = np.einsum("ijk,k->ij", a, p.y)
    assert np.max(np.abs(contraction)) <= 1e-10 * max(1.0, np.max(np.abs(a)))


def test_cartan_tensor_randers_matches_fd(randers3, rng):
    p = random_flag(randers3, rng)
    tensors = coordinate_tensors(randers3, p)
    a, f_value = tensors.cartan, tensors.f

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
    tensors = coordinate_tensors(quartic3, p)
    np.testing.assert_allclose(tensors.spray, 0.0, atol=1e-14)
    np.testing.assert_allclose(tensors.nonlinear, 0.0, atol=1e-14)


def test_spray_funk_projective(funk3, rng):
    for _ in range(5):
        p = random_flag(funk3, rng)
        tensors = coordinate_tensors(funk3, p)
        np.testing.assert_allclose(tensors.spray, 0.5 * tensors.f * p.y, atol=1e-8 * tensors.f)


def test_spray_homogeneity(randers3, rng):
    p = random_flag(randers3, rng)
    g1 = coordinate_tensors(randers3, p).spray
    g2 = coordinate_tensors(randers3, FlagPoint(p.x, 2.0 * p.y)).spray
    np.testing.assert_allclose(g2, 4.0 * g1, rtol=1e-10, atol=1e-12)


def test_mean_berwald_minkowski_zero(quartic3, rng):
    p = random_flag(quartic3, rng)
    np.testing.assert_allclose(coordinate_tensors(quartic3, p).mean_berwald, 0.0, atol=1e-10)


def test_mean_berwald_matches_fd_of_spray(randers3, rng):
    p = random_flag(randers3, rng)
    e_hat = coordinate_tensors(randers3, p).mean_berwald
    n = 3
    for i, j in ((0, 0), (0, 1), (1, 2)):
        estimate = 0.0
        for m in range(n):
            alpha = np.zeros(n, dtype=int)
            alpha[i] += 1
            alpha[j] += 1
            alpha[m] += 1

            def spray_component(yvec, m=m):
                return float(coordinate_tensors(randers3, FlagPoint(p.x, yvec)).spray[m])

            estimate += finite_difference_oracle(spray_component, p.y, tuple(alpha), 5e-3)
        assert abs(estimate - e_hat[i, j]) <= 1e-4 * max(1.0, abs(e_hat[i, j]))


def test_mean_berwald_symmetry_and_euler(randers3, funk3, rng):
    for model in (randers3, funk3):
        p = random_flag(model, rng)
        e_hat = coordinate_tensors(model, p).mean_berwald
        np.testing.assert_allclose(e_hat, e_hat.T, atol=1e-12)
        contraction = e_hat @ p.y
        assert np.max(np.abs(contraction)) <= 1e-9 * max(1.0, np.max(np.abs(e_hat)))


def test_distortion_cases(euclid3, riem2, quartic3, rng):
    p = random_flag(euclid3, rng)
    assert coordinate_tensors(euclid3, p).tau == pytest.approx(0.0, abs=1e-13)
    p2 = random_flag(riem2, rng)
    assert coordinate_tensors(riem2, p2).tau == pytest.approx(0.0, abs=1e-12)
    p3 = random_flag(quartic3, rng)
    tau1 = coordinate_tensors(quartic3, p3).tau
    tau2 = coordinate_tensors(quartic3, FlagPoint(p3.x, 2.0 * p3.y)).tau
    assert tau2 == pytest.approx(tau1, abs=1e-10)


def test_s_curvature_riemannian_auto_vanishes(rng):
    model = build("riemannian", 2, {"a11": "exp(x1)", "a22": "1"})
    for _ in range(5):
        p = random_flag(model, rng)
        assert abs(coordinate_tensors(model, p).s) <= 1e-6
        assert abs(s_curvature_alt(model, p)) <= 1e-6


def test_s_curvature_funk_values(funk3):
    p = FlagPoint(np.zeros(3), np.array([0.0, 0.0, 2.0]))
    assert coordinate_tensors(funk3, p).s == pytest.approx(4.0, abs=1e-6)
    p2 = FlagPoint(np.array([0.5, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    f_expect = 1.0 / math.sqrt(0.75)
    tensors = coordinate_tensors(funk3, p2)
    assert tensors.f == pytest.approx(f_expect, rel=1e-12)
    assert tensors.s == pytest.approx(2.0 * f_expect, abs=1e-5)


def test_s_curvature_routes_agree(zoo_models, rng):
    for model in zoo_models:
        for _ in range(20):
            p = random_flag(model, rng)
            s1 = coordinate_tensors(model, p).s
            s2 = s_curvature_alt(model, p)
            assert abs(s1 - s2) <= 1e-7 * max(1.0, abs(s1))


def test_s_curvature_homogeneity(randers3, rng):
    p = random_flag(randers3, rng)
    s1 = coordinate_tensors(randers3, p).s
    s2 = coordinate_tensors(randers3, FlagPoint(p.x, 2.0 * p.y)).s
    assert s2 == pytest.approx(2.0 * s1, rel=1e-8, abs=1e-10)


def test_euler_identities(zoo_models, rng):
    for model in zoo_models:
        p = random_flag(model, rng)
        tensors = coordinate_tensors(model, p)
        assert p.y @ tensors.g @ p.y == pytest.approx(tensors.f ** 2, rel=1e-8)
        a = tensors.cartan
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
    tensors = coordinate_tensors(model, p)
    s1 = tensors.s
    s2 = s_curvature_alt(model, p)
    assert s1 == pytest.approx(2.0 * tensors.f, abs=1e-5)
    assert abs(s1 - s2) <= 1e-5 * max(1.0, abs(s1))


def test_custom_sigma_gradient(rng):
    model = build("euclidean", 3, volume="expr:exp(x1 + 2*x2)")
    x = rng.uniform(-0.5, 0.5, 3)
    assert sigma_value(model, x) == pytest.approx(math.exp(x[0] + 2 * x[1]), rel=1e-12)
    np.testing.assert_allclose(dln_sigma(model, x), [1.0, 2.0, 0.0], atol=1e-12)


@pytest.mark.parametrize(
    "metric,dim,params,volume",
    [
        ("euclidean", 3, {}, "lebesgue"),
        ("euclidean", 3, {}, "bh"),
        ("funk_ball", 3, {}, "bh"),
        ("funk_ball", 4, {}, "bh"),
        ("riemannian", 3, {"a11": "exp(x1)", "a22": "1 + x2^2", "a12": "0.3*x3"}, "auto"),
        ("euclidean", 3, {}, "expr:exp(x1 + 2*x2)"),
    ],
)
def test_sigma_value_of_every_volume_kind(rng, metric, dim, params, volume):
    """Lebesgue gives 1.0; the BH coefficient is 1 for the Euclidean norm and
    for the Funk metric, whose unit set at x is a translated unit ball; a
    volume from a ground metric or an expression gives the value of
    sigma_and_dln."""
    model = build(metric, dim, params, volume)
    for _ in range(3):
        x = model.sample_x(rng)
        if model.volume.kind == "lebesgue":
            assert sigma_value(model, x) == 1.0
        elif model.volume.kind == "busemann_hausdorff":
            assert abs(sigma_value(model, x) - 1.0) <= 1e-12
        else:
            assert sigma_value(model, x) == sigma_and_dln(model, x)[0]


def test_riemannian_auto_sigma_and_gradient_in_closed_form(rng):
    """sigma = sqrt(det a) and d ln sigma = (1/2) tr(a^-1 da) against the
    closed forms for det a = e^x1 (1 + x2^2) - 0.09 x3^2."""
    params = {"a11": "exp(x1)", "a22": "1 + x2^2", "a33": "1", "a12": "0.3*x3"}
    model = build("riemannian", 3, params)
    for _ in range(3):
        x = rng.uniform(-0.8, 0.8, 3)
        e = math.exp(x[0])
        det = e * (1 + x[1] ** 2) - 0.09 * x[2] ** 2
        assert abs(sigma_value(model, x) - math.sqrt(det)) <= 1e-12
        expected = np.array([0.5 * e * (1 + x[1] ** 2), e * x[1], -0.09 * x[2]]) / det
        np.testing.assert_allclose(dln_sigma(model, x), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "metric,dim,params",
    [
        ("riemannian", 3, {"a11": "exp(x1)"}),
        ("randers", 2, None),
        ("randers", 3, None),
        ("randers", 4, None),
        ("funk_ball", 3, None),
        ("funk_ball", 4, None),
    ],
)
def test_bh_log_gradient_matches_closed_forms(metric, dim, params, rng):
    """d ln sigma_BH against the closed forms: sigma_BH = sqrt(det a) = e^(x1/2)
    for the Riemannian metric, (1 - |b|^2)^((n+1)/2) with |b|^2 = 0.04 (x1^2 +
    x2^2) for zoo randers, and 1 for funk_ball."""
    model = build(metric, dim, params, volume="bh")
    for _ in range(2):
        x = model.sample_x(rng)
        expected = np.zeros(dim)
        if metric == "riemannian":
            expected[0] = 0.5
        elif metric == "randers":
            expected[:2] = -(dim + 1) * 0.04 * x[:2] / (1.0 - 0.04 * (x[0] ** 2 + x[1] ** 2))
        np.testing.assert_allclose(dln_sigma(model, x), expected, rtol=0, atol=1e-13)


_SMALL_A = {"a11": "1 + 0.1*x1^2", "a22": "1 + 0.05*x2", "a12": "0.02*x1"}


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("metric", zoo_ids())
def test_bh_ladder_agrees_with_the_level_1_rule(metric, dim, rng, monkeypatch):
    """The accepted level's sigma and gradient against the level-1 rule's, run
    by a ladder that never accepts early: two coarse levels that agree
    falsely would show here."""
    from finslerlab import volume

    params = _SMALL_A if metric == "riemannian" else None
    model, reference = (build(metric, dim, params, volume="bh") for _ in range(2))
    for _ in range(2):
        x = model.sample_x(rng)
        sigma, grad = volume.bh_sigma_and_log_gradient(model, x)
        with monkeypatch.context() as patch:
            patch.setattr(volume, "BH_AGREE", -1.0)
            sigma_1, grad_1 = volume.bh_sigma_and_log_gradient(reference, x)
        assert abs(sigma - sigma_1) <= 1e-13 * abs(sigma_1)
        np.testing.assert_allclose(grad, grad_1, rtol=0, atol=1e-13)


def test_bh_ladder_without_early_agreement_is_the_level_1_rule(rng):
    from finslerlab import volume

    model = build("minkowski_quartic", 4, volume="bh")
    x = model.sample_x(rng)
    expected = volume.unit_ball_volume(4) / volume.unit_set_volume(model, x, level=1)
    assert volume.bh_volume_coefficient(model, x) == expected


def test_bh_log_gradient_without_x_is_exactly_zero(rng):
    from finslerlab import volume

    for model in (build("minkowski_quartic", 3, volume="bh"), build("euclidean", 4, volume="bh")):
        grad = volume.bh_sigma_and_log_gradient(model, model.sample_x(rng))[1]
        assert np.array_equal(grad, np.zeros(model.dim))


def test_non_homogeneous_rejected():
    with pytest.raises(MetricDefinitionError, match="homogeneous"):
        MetricModel(2, "y1 + y2^2")


def test_non_positive_rejected():
    # 1-homogeneous but changes sign on the cone
    with pytest.raises(MetricDefinitionError, match="positive"):
        MetricModel(2, "y1 + 0*y2")


def test_validation_reports_the_first_failing_trial():
    # F < 0 at every trial, undefined (x2 > 0.93) only at a later positivity trial
    with pytest.raises(MetricDefinitionError, match="positive"):
        MetricModel(2, "-sqrt(y1^2 + y2^2) / sqrt(0.93 - x2)")
    with pytest.raises(EvalDomainError, match="sqrt"):
        MetricModel(2, "sqrt(y1^2 + y2^2) / sqrt(0.93 - x2)")


def _construction_outcome(make_model):
    """The type and message of the error construction raises, or None."""
    try:
        make_model()
    except ValueError as err:
        return type(err), str(err)
    return None


def test_validation_on_the_stacked_trials_equals_one_trial_at_a_time(monkeypatch):
    texts = [
        "y1 + y2^2",
        "(y1^4 + y2^4)^0.25 + 0.1*y1*exp(x1)",
        "y1^3 / (y1^2 + y2^2)",
        "-sqrt(y1^2 + y2^2) / sqrt(0.93 - x2)",
        # non-positive at the second trial, non-homogeneous from the third on
        "y1 + x1^40*(y1^2 + y2^2)",
    ]
    cases = [partial(build, metric_id, 3) for metric_id in zoo_ids()]
    cases += [partial(MetricModel, 2, text) for text in texts]
    stacked = [_construction_outcome(case) for case in cases]
    f = MetricModel.f

    def one_trial_at_a_time(self, x, y):
        if np.ndim(x) == 2:  # the stacked trials
            raise EvalDomainError(self.f_ast, "stacked", 0.0)
        return f(self, x, y)

    monkeypatch.setattr(MetricModel, "f", one_trial_at_a_time)
    assert [_construction_outcome(case) for case in cases] == stacked
    assert stacked[: len(zoo_ids())] == [None] * len(zoo_ids())
    messages = [outcome and outcome[1] for outcome in stacked[len(zoo_ids()) :]]
    assert messages[0].startswith("F is not positively 1-homogeneous in y")
    assert messages[1] is None
    assert all(message.startswith("F must be positive") for message in messages[2:])
    # the non-positive second trial, not a later non-homogeneous one
    assert "got -0.8381646533466902 at x=[-0.06727435  0.31168377]" in messages[4]


def test_coordinate_tensors_bundle(funk3):
    p = FlagPoint(np.zeros(3), np.array([0.0, 0.0, 2.0]))
    bundle = coordinate_tensors(funk3, p)
    assert bundle.f == pytest.approx(2.0)
    assert bundle.s == pytest.approx(4.0, abs=1e-6)


def test_unsupported_dimension_for_x_dependent():
    from finslerlab.core import UnsupportedDimensionError

    message = "^dimension must be at most 4 for an x-dependent F, got 5$"
    with pytest.raises(UnsupportedDimensionError, match=message):
        build("funk_ball", 5)
    with pytest.raises(UnsupportedDimensionError, match=message):
        MetricModel(5, "sqrt(y1^2+y2^2+y3^2+y4^2+y5^2)*exp(x1)")
    assert not build("minkowski_quartic", 8).depends_on_x  # an x-free F keeps the full cap


def test_minkowski_high_dimension_still_works():
    model = build("minkowski_quartic", 6)
    y = np.array([1.0, 1.1, 0.9, 1.2, 0.8, 1.05])
    p = FlagPoint(np.zeros(6), y)
    tensors = coordinate_tensors(model, p)
    assert tensors.g.shape == (6, 6)
    np.testing.assert_allclose(tensors.spray, 0.0, atol=1e-14)


@pytest.mark.parametrize(
    "family,jet_orders,order",
    [
        ("randers", {"g": 0, "h": 0, "e": 0, "s": 0}, 5),
        ("minkowski_quartic", {"g": 0, "h": 0, "e": 0, "s": 0}, 3),
        ("randers", {"g": 2, "s": 3}, 6),
        ("minkowski_quartic", {"g": 2, "s": 3}, 4),
        # E and S of an F without x are zeros that need no expansion
        ("minkowski_quartic", {"e": 1, "s": 2}, 0),
    ],
)
def test_expansion_order_serves_every_tensor_read(family, jet_orders, order):
    from finslerlab.core import expansion_order

    assert expansion_order(build(family, 3), jet_orders) == order


@pytest.mark.parametrize("family", ["randers", "minkowski_quartic"])
def test_coordinate_tensors_one_expansion_per_point(family, core_counts, rng):
    model = build(family, 3)
    for _ in range(3):
        coordinate_tensors(model, random_flag(model, rng))
    x_dependent = model.depends_on_x
    assert core_counts == {"expansions": 3, "g": 3, "spray": 3 if x_dependent else 0}


# -- x enters to first order: the program against a full-space expansion ------


def _full_space_reference(model, x, y, order):
    """The expansion the program builds, redone over the full (2n, order)
    space: seeds from ``jet_space(2n, order)`` through ``expr.evaluate`` and
    no x-degree limit anywhere (``x_vars`` = 0 makes every x-free space the
    full space), so the same extractors run on it unchanged."""
    import copy

    from finslerlab.core import TensorJets
    from finslerlab.expr import evaluate
    from finslerlab.jets import jet_space

    n = model.dim
    space = jet_space(2 * n, order)
    ref = copy.copy(TensorJets(model, [x], [y], order))
    ref.x_vars, ref.f_space = 0, space
    xs = [space.variable(i + 1, x[i]) for i in range(n)]
    ys = [space.variable(n + i + 1, y[i]) for i in range(n)]
    f_jet = evaluate(model.f_ast, xs, ys, model.params)
    ref.f, ref.f2 = f_jet.coeffs[None], (f_jet * f_jet).coeffs[None]  # a batch of one
    return ref


def _assert_restriction(got, want, signature):
    """Every jet of ``got``, an array of coefficients over the space of
    ``signature`` = (n, order, x-degree limit of the n x variables), carries
    the coefficients of ``want``, over the full (2n, order) space, at its
    own multi-indices, bit for bit."""
    from finslerlab.jets import jet_space

    n, order, x_degree = signature
    space, full = jet_space(2 * n, order, n, x_degree), jet_space(2 * n, order)
    assert got.shape[-1] == space.size and want.shape[-1] == full.size
    kept = [full.index_of[alpha] for alpha in space.multi_indices]
    assert got.tobytes() == want[..., kept].tobytes()


@pytest.mark.parametrize("family,dim", [("randers", 3), ("funk_ball", 4)])
def test_x_linear_expansion_matches_the_full_space_bit_for_bit(family, dim):
    from finslerlab.core import (
        TensorJets,
        berwald_jets,
        cartan_jets,
        g_jets,
        nonlinear_jets,
        s_main_jet,
        spray_jets,
    )

    model = build(family, dim)
    rng = np.random.default_rng(dim)
    order = 6
    for _ in range(2):
        x, y = model.sample_x(rng) * 0.8, model.sample_y(rng)
        tj = TensorJets(model, [x], [y], order)
        ref = _full_space_reference(model, x, y, order)
        _assert_restriction(tj.f, ref.f, (dim, order, 1))
        assert tj.f_space.size < ref.f_space.size
        for p in (0, order - 3):
            _assert_restriction(g_jets(tj, p + 1), g_jets(ref, p + 1), (dim, p + 1, 1))
            _assert_restriction(cartan_jets(tj, p), cartan_jets(ref, p), (dim, p, 1))
            _assert_restriction(spray_jets(tj, p + 1), spray_jets(ref, p + 1), (dim, p + 1, 0))
            _assert_restriction(nonlinear_jets(tj, p), nonlinear_jets(ref, p), (dim, p, 0))
            _assert_restriction(s_main_jet(tj, p), s_main_jet(ref, p), (dim, p, 0))
        for p in (0, order - 5):
            _assert_restriction(berwald_jets(tj, p), berwald_jets(ref, p), (dim, p, 0))


def test_validation_trials_are_drawn_once_per_dim_and_radius_bit_for_bit():
    """Models without a y_guard share one read-only trial set per (dim,
    x_radius), equal byte for byte to a fresh sequential draw; a guarded
    model draws its own."""
    from finslerlab import core

    model = build("funk_ball", 3)
    draws, scales, xs, ys = model._trials()
    assert build("randers", 3)._trials()[0] is draws  # x_radius 0.8 for both
    rng = np.random.default_rng(core.VALIDATION_SEED)
    fresh = [(model.sample_x(rng), model.sample_y(rng)) for _ in range(core.VALIDATION_TRIALS)]
    fresh_scales = np.exp(rng.uniform(math.log(0.1), math.log(10.0), core.VALIDATION_TRIALS))
    assert np.array(draws).tobytes() == np.array(fresh).tobytes()
    assert scales.tobytes() == fresh_scales.tobytes()
    fresh_xs, fresh_ys = np.transpose(fresh, (1, 2, 0))
    assert (xs.tobytes(), ys.tobytes()) == (fresh_xs.tobytes(), fresh_ys.tobytes())
    assert not any(array.flags.writeable for array in (draws[0][0], draws[-1][1], scales, xs, ys))
    quartic = build("minkowski_quartic", 3)
    assert quartic.y_guard is not None
    assert quartic._trials()[0] is not quartic._trials()[0]


def test_randers_domain_points_are_one_draw_of_the_sequential_points():
    """The 128 points on which a Randers build checks ||b(x)|| < 1 are the
    bytes of 128 draws of one point, and the first violation is named."""
    rng = np.random.default_rng(20240817)
    sequential = np.array([rng.uniform(-1.0, 1.0, size=3) for _ in range(128)])
    at_once = np.random.default_rng(20240817).uniform(-1.0, 1.0, size=(128, 3))
    assert at_once.tobytes() == sequential.tobytes()
    first = next(x for x in sequential if math.hypot(2.0 * x[1], 2.0 * x[0]) >= 1.0)
    with pytest.raises(RandersConditionViolated) as info:
        build("randers", 3, {"eps": 2.0})
    assert info.value.x == first.tolist()
