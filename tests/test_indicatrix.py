import numpy as np
import pytest

from finslerlab.core import FlagPoint, fundamental_tensor, metric_value, s_curvature
from finslerlab.indicatrix import (
    FibreChart,
    IndicatrixPoint,
    _christoffel_jets,
    _covariant,
    berwald_fields,
    chart_embed,
    chart_transition,
    direction_chart,
    fibre_jets,
    fibre_snapshot,
    parameter_direction,
    restrict_fields,
    sample_fibre_points,
    transition_jacobian,
)

from fd_oracle import finite_difference_oracle


def north_chart(model, x):
    return FibreChart(model, np.asarray(x, dtype=float), "north")


def test_chart_embed_euclidean_center(euclid3):
    chart = north_chart(euclid3, [0.0, 0.0, 0.0])
    flag = chart_embed(chart, np.zeros(2))
    np.testing.assert_allclose(flag.y, [0.0, 0.0, 1.0], atol=1e-15)


def test_chart_embed_euclidean_unit_norm(euclid3):
    chart = north_chart(euclid3, [0.0, 0.0, 0.0])
    flag = chart_embed(chart, np.array([1.0, 0.0]))
    assert np.linalg.norm(flag.y) == pytest.approx(1.0, abs=1e-12)


def test_chart_embed_funk_translated_sphere(funk3, rng):
    chart = north_chart(funk3, [0.5, 0.0, 0.0])
    for _ in range(10):
        u = rng.uniform(-1.2, 1.2, 2)
        flag = chart_embed(chart, u)
        assert metric_value(funk3, flag) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(flag.x + flag.y) == pytest.approx(1.0, abs=1e-10)


def test_embedding_unit_level_and_rank(zoo_models, rng):
    for model in zoo_models:
        x = model.sample_x(rng)
        for point in sample_fibre_points(model, x, 5, rng):
            flag = chart_embed(point.chart, point.u)
            assert metric_value(model, flag) == pytest.approx(1.0, abs=1e-10)
            jacobian = np.empty((model.dim, model.dim - 1))
            for i in range(model.dim):
                def comp(uvec, i=i):
                    return chart_embed(point.chart, uvec).y[i]
                for a in range(model.dim - 1):
                    alpha = tuple(1 if b == a else 0 for b in range(model.dim - 1))
                    jacobian[i, a] = finite_difference_oracle(comp, point.u, alpha, 1e-4)
            smallest = np.linalg.svd(jacobian, compute_uv=False).min()
            assert smallest > 1e-8


def test_induced_metric_euclidean_round_factor(euclid3):
    chart = north_chart(euclid3, [0.0, 0.0, 0.0])
    np.testing.assert_allclose(
        restrict_fields(euclid3, chart, np.zeros(2)).g, 4.0 * np.eye(2), atol=1e-12
    )
    np.testing.assert_allclose(
        restrict_fields(euclid3, chart, np.array([1.0, 0.0])).g, np.eye(2), atol=1e-12
    )


def test_induced_metric_matches_fd_pullback(randers3, rng):
    chart = north_chart(randers3, [0.3, 0.2, -0.1])
    u = np.array([0.4, -0.6])
    g_dot = restrict_fields(randers3, chart, u).g
    flag = chart_embed(chart, u)
    g = fundamental_tensor(randers3, flag)
    jacobian = np.empty((3, 2))
    for i in range(3):
        def comp(uvec, i=i):
            return chart_embed(chart, uvec).y[i]
        for a in range(2):
            alpha = tuple(1 if b == a else 0 for b in range(2))
            jacobian[i, a] = finite_difference_oracle(comp, u, alpha, 1e-4)
    np.testing.assert_allclose(jacobian.T @ g @ jacobian, g_dot, atol=1e-6)


def test_christoffels_euclidean_center(euclid3):
    chart = north_chart(euclid3, [0.0, 0.0, 0.0])
    np.testing.assert_allclose(restrict_fields(euclid3, chart, np.zeros(2)).gamma, 0.0, atol=1e-12)


def test_riemann_euclidean_calibration(euclid3):
    chart = north_chart(euclid3, [0.0, 0.0, 0.0])
    r = restrict_fields(euclid3, chart, np.zeros(2)).riemann
    assert r[0, 1, 0, 1] == pytest.approx(16.0, rel=1e-10)


def test_riemann_algebraic_symmetries(randers3, rng):
    chart = north_chart(randers3, [0.3, 0.2, -0.1])
    for _ in range(3):
        u = rng.uniform(-1.0, 1.0, 2)
        r = restrict_fields(randers3, chart, u).riemann
        scale = max(1.0, np.max(np.abs(r)))
        assert np.max(np.abs(r + np.transpose(r, (1, 0, 2, 3)))) <= 1e-6 * scale
        assert np.max(np.abs(r + np.transpose(r, (0, 1, 3, 2)))) <= 1e-6 * scale
        assert np.max(np.abs(r - np.transpose(r, (2, 3, 0, 1)))) <= 1e-6 * scale
        bianchi = r + np.transpose(r, (0, 2, 3, 1)) + np.transpose(r, (0, 3, 1, 2))
        assert np.max(np.abs(bianchi)) <= 1e-6 * scale


def test_euclidean_sectional_curvature(euclid3, rng):
    chart = north_chart(euclid3, [0.0, 0.0, 0.0])
    for _ in range(50):
        u = rng.uniform(-1.5, 1.5, 2)
        rf = restrict_fields(euclid3, chart, u)
        g, r = rf.g, rf.riemann
        sectional = r[0, 1, 0, 1] / (g[0, 0] * g[1, 1] - g[0, 1] ** 2)
        assert sectional == pytest.approx(1.0, abs=1e-7)


def test_restricted_fields_funk(funk3):
    for x in ([0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.3, 0.4, 0.6]):
        chart = north_chart(funk3, x)
        rf = restrict_fields(funk3, chart, np.array([0.3, -0.2]))
        assert rf.s == pytest.approx(2.0, abs=1e-6)
        np.testing.assert_allclose(rf.s_grad, 0.0, atol=1e-6)
        assert rf.e == pytest.approx(4.0, abs=1e-5)
        np.testing.assert_allclose(rf.berwald, 2.0 * rf.g, atol=1e-5)


def test_restricted_fields_riemannian_zeros(riem3, rng):
    chart = north_chart(riem3, [0.2, -0.3, 0.1])
    rf = restrict_fields(riem3, chart, rng.uniform(-1, 1, 2))
    np.testing.assert_allclose(rf.cartan, 0.0, atol=1e-10)
    np.testing.assert_allclose(rf.berwald, 0.0, atol=1e-10)
    assert rf.e == pytest.approx(0.0, abs=1e-10)


def test_snapshot_matches_bundle(randers3, rng):
    chart = north_chart(randers3, [0.3, 0.2, -0.1])
    u = rng.uniform(-1, 1, 2)
    rf = restrict_fields(randers3, chart, u)
    snap = fibre_snapshot(randers3, chart, u)
    np.testing.assert_allclose(snap.g, rf.g, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(snap.berwald, rf.berwald, rtol=1e-10, atol=1e-12)
    assert snap.e == pytest.approx(rf.e, rel=1e-10, abs=1e-12)


def test_covariant_derivative_constant_scalar(randers3):
    chart = north_chart(randers3, [0.3, 0.2, -0.1])
    fj = fibre_jets(randers3, chart, np.array([0.4, 0.1]), {"g": 1})
    gamma = _christoffel_jets(fj.space(1), fj.g)[1]
    scalar = fj.space(1).constant(3.0).coeffs
    np.testing.assert_allclose(_covariant(fj.space(1), scalar, gamma), 0.0, atol=1e-10)


def test_metric_compatibility(randers3, rng):
    chart = north_chart(randers3, [0.3, 0.2, -0.1])
    fj = fibre_jets(randers3, chart, rng.uniform(-1, 1, 2), {"g": 1})
    nabla_g = _covariant(fj.space(1), fj.g, _christoffel_jets(fj.space(1), fj.g)[1])
    assert np.max(np.abs(nabla_g)) <= 1e-7


def test_cartan_derivative_total_symmetry(randers3, quartic3, rng):
    for model in (randers3, quartic3):
        x = model.sample_x(rng)
        for point in sample_fibre_points(model, x, 3, rng):
            rf = restrict_fields(model, point.chart, point.u)
            scale = max(1.0, np.max(np.abs(rf.cartan_cov)))
            for perm in ((0, 1, 3, 2), (0, 3, 2, 1), (3, 1, 2, 0)):
                deviation = rf.cartan_cov - np.transpose(rf.cartan_cov, perm)
                assert np.max(np.abs(deviation)) <= 1e-5 * scale


def test_chart_consistency(randers3):
    x = np.array([0.3, 0.2, -0.1])
    chart_n = FibreChart(randers3, x, "north")
    u_n = np.array([0.8, 0.5])
    other_id, u_s = chart_transition("north", u_n)
    chart_s = FibreChart(randers3, x, other_id)
    rf_n = restrict_fields(randers3, chart_n, u_n)
    rf_s = restrict_fields(randers3, chart_s, u_s)
    # scalars agree across charts
    assert rf_n.s == pytest.approx(rf_s.s, abs=1e-8)
    assert rf_n.e == pytest.approx(rf_s.e, abs=1e-8)
    # tensors agree after the Jacobian transformation
    jac = transition_jacobian(u_n)
    np.testing.assert_allclose(jac.T @ rf_s.g @ jac, rf_n.g, atol=1e-6)
    h_trans = np.einsum("pa,qb,rc,pqr->abc", jac, jac, jac, rf_s.cartan)
    np.testing.assert_allclose(h_trans, rf_n.cartan, atol=1e-6)
    e_trans = np.einsum("pa,qb,pq->ab", jac, jac, rf_s.berwald)
    np.testing.assert_allclose(e_trans, rf_n.berwald, atol=1e-6)
    # covariant derivatives are tensors as well
    h_cov_trans = np.einsum("pa,qb,rc,sd,pqrs->abcd", jac, jac, jac, jac, rf_s.cartan_cov)
    np.testing.assert_allclose(h_cov_trans, rf_n.cartan_cov, atol=1e-6)


def test_parameter_direction_round_trip(rng):
    for _ in range(20):
        v = rng.standard_normal(3)
        theta = v / np.linalg.norm(v)
        if np.linalg.norm(theta[:-1]) < 1e-6:
            continue
        chart_id, u = direction_chart(theta)
        assert np.linalg.norm(u) <= 1.0 + 1e-12
        np.testing.assert_allclose(parameter_direction(chart_id, u), theta, atol=1e-12)


def test_scalar_hessian_symmetry(randers3, rng):
    chart = north_chart(randers3, [0.3, 0.2, -0.1])
    u = rng.uniform(-1, 1, 2)
    rf = restrict_fields(randers3, chart, u)
    np.testing.assert_allclose(rf.s_hess, rf.s_hess.T, atol=1e-7)


def test_fibre_covariant_derivative_matches_fd(randers3):
    """Jet-path covariant derivative of the mean Berwald pullback against a
    Richardson central-difference fallback in the chart coordinate."""
    chart = north_chart(randers3, [0.3, 0.2, -0.1])
    u = np.array([0.35, -0.25])
    rf = restrict_fields(randers3, chart, u)

    def berwald_component(uvec, a, b):
        snap = fibre_snapshot(randers3, chart, uvec)
        return snap.berwald[a, b]

    m = 2
    partial = np.empty((m, m, m))
    for a in range(m):
        for b in range(m):
            for c in range(m):
                alpha = tuple(1 if k == c else 0 for k in range(m))
                partial[a, b, c] = finite_difference_oracle(
                    lambda uv, a=a, b=b: berwald_component(uv, a, b), u, alpha, 1e-3
                )
    gamma = rf.gamma
    cov_fd = np.empty((m, m, m))
    for a in range(m):
        for b in range(m):
            for c in range(m):
                value = partial[a, b, c]
                for e in range(m):
                    value -= gamma[e, c, a] * rf.berwald[e, b]
                    value -= gamma[e, c, b] * rf.berwald[a, e]
                cov_fd[a, b, c] = value
    np.testing.assert_allclose(cov_fd, rf.berwald_cov, atol=1e-5)


def test_chart_validity_enforced(euclid3):
    chart = north_chart(euclid3, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="validity"):
        IndicatrixPoint(chart, np.array([5.0, 0.0]))
    with pytest.raises(ValueError, match="validity"):
        restrict_fields(euclid3, chart, np.array([4.5, 0.0]))


def test_chart_embed_rejects_nonpositive_ray():
    from finslerlab.core import MetricModel, NonPositiveMetricError

    # 1-homogeneous but sign-changing; bypass validation to probe the guard
    model = MetricModel(2, "y1", validate=False)
    chart = FibreChart(model, np.zeros(2), "north")
    with pytest.raises(NonPositiveMetricError):
        chart_embed(chart, np.array([-1.0]))


def test_christoffels_torsion_free(randers3, rng):
    chart = north_chart(randers3, [0.3, 0.2, -0.1])
    gamma = restrict_fields(randers3, chart, rng.uniform(-1, 1, 2)).gamma
    np.testing.assert_allclose(gamma, np.transpose(gamma, (0, 2, 1)), atol=1e-14)


def test_sampling_is_deterministic(randers3):
    x = np.array([0.1, 0.2, 0.3])
    pts1 = sample_fibre_points(randers3, x, 10, np.random.default_rng(5))
    pts2 = sample_fibre_points(randers3, x, 10, np.random.default_rng(5))
    for p1, p2 in zip(pts1, pts2):
        assert p1.chart.chart_id == p2.chart.chart_id
        np.testing.assert_array_equal(p1.u, p2.u)


def test_restrict_fields_one_expansion_per_point(randers3, quartic3, core_counts):
    u = np.array([0.4, -0.3])
    restrict_fields(randers3, north_chart(randers3, [0.3, 0.2, -0.1]), u)
    assert core_counts == {"expansions": 1, "g": 1, "spray": 1}
    restrict_fields(quartic3, north_chart(quartic3, [0.0, 0.0, 0.0]), u)
    assert core_counts == {"expansions": 2, "g": 2, "spray": 1}


@pytest.mark.parametrize(
    "family, dim, volume",
    [
        ("randers", 3, None),
        ("funk_ball", 4, "bh"),
        ("minkowski_quartic", 3, None),
        ("riemannian", 3, "auto"),
    ],
)
def test_berwald_fields_equal_restrict_fields_bit_for_bit(family, dim, volume):
    from finslerlab.zoo import build

    model = build(family, dim, volume=volume)
    rng = np.random.default_rng(31)
    x = model.sample_x(rng)
    for point in sample_fibre_points(model, x, 3, rng):
        rf = restrict_fields(model, point.chart, point.u)
        bf = berwald_fields(model, point.chart, point.u)
        for name in ("g", "g_inv", "berwald", "e", "e_grad"):
            np.testing.assert_array_equal(getattr(bf, name), getattr(rf, name), err_msg=name)


_ALL_VIEWS = ("restrict_fields", "s_third_covariant", "berwald_fields", "fibre_snapshot")
_RIEMANNIAN = {"a11": "exp(x1)", "a22": "1 + x2^2", "a33": "2 + x1*x3", "a12": "0.3*x3"}


@pytest.mark.parametrize(
    "family, dim, params, volume, views",
    [
        ("randers", 3, None, None, _ALL_VIEWS),
        ("funk_ball", 3, None, None, _ALL_VIEWS),
        ("funk_ball", 4, None, "bh", ("berwald_fields", "fibre_snapshot")),
        ("minkowski_quartic", 3, None, None, _ALL_VIEWS),
        ("riemannian", 3, _RIEMANNIAN, "auto", _ALL_VIEWS),
        ("euclidean", 2, None, None, _ALL_VIEWS),
    ],
    ids=["randers3", "funk3", "funk4-bh", "quartic3", "riemannian3-auto", "euclidean2"],
)
def test_chart_fields_match_the_object_array_oracle(family, dim, params, volume, views):
    """Every field of every view against the object-array pipeline, to 1e-13
    relative to max(1, |value|): the array code sums in another order."""
    from finslerlab import indicatrix
    from finslerlab.zoo import build

    import chart_oracle

    model = build(family, dim, params, volume)
    rng = np.random.default_rng(dim)
    for point in sample_fibre_points(model, model.sample_x(rng), 3, rng):
        for view in views:
            got = getattr(indicatrix, view)(model, point.chart, point.u)
            want = getattr(chart_oracle, view)(model, point.chart, point.u)
            if isinstance(got, tuple):
                fields = [(f"{view}[{i}]", a, b) for i, (a, b) in enumerate(zip(got, want))]
            else:
                fields = [(f"{view}.{f}", getattr(got, f), getattr(want, f)) for f in vars(got)]
            for name, a, b in fields:
                b = np.asarray(b, dtype=float)
                assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b))), name


def test_volume_gradient_once_per_base_point_and_only_for_s(monkeypatch):
    from finslerlab import indicatrix
    from finslerlab.checks import weak_isotropy_check
    from finslerlab.zoo import build

    model = build("funk_ball", 3, volume="bh")
    calls = []
    gradient = indicatrix.dln_sigma
    monkeypatch.setattr(
        indicatrix, "dln_sigma", lambda model, x: calls.append(1) or gradient(model, x)
    )
    x = np.array([0.2, -0.1, 0.3])
    points = sample_fibre_points(model, x, 4, np.random.default_rng(2))
    for point in points:
        fibre_snapshot(model, point.chart, point.u)
    weak_isotropy_check(model, x, points=points)
    assert calls == []
    assert {point.chart.chart_id for point in points} == {"north", "south"}
    for point in points:
        restrict_fields(model, point.chart, point.u)
    assert len(calls) == 1


def test_samplers_stop_when_the_guard_rejects_every_direction(monkeypatch):
    from finslerlab.core import MetricModel, SamplingError

    monkeypatch.setattr(MetricModel, "sample_attempts", 25)

    def never(y):
        return False

    norm = "sqrt(y1^2 + y2^2 + y3^2)"
    with pytest.raises(SamplingError, match="y_guard .*never rejected every one"):
        MetricModel(3, norm, y_guard=never)
    model = MetricModel(3, norm, y_guard=never, validate=False)
    rng = np.random.default_rng(0)
    with pytest.raises(SamplingError, match="no admissible direction in 25 draws"):
        model.sample_y(rng)
    # exactly the capped number of draws was taken
    fresh = np.random.default_rng(0)
    fresh.standard_normal((25, 3))
    assert rng.standard_normal() == fresh.standard_normal()
    with pytest.raises(SamplingError, match="never"):
        sample_fibre_points(model, np.zeros(3), 2, rng)
