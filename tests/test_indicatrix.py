import numpy as np
import pytest

from finslerlab.checks import SUITE_CHART_ORDER
from finslerlab.core import coordinate_tensors
from finslerlab.indicatrix import (
    FibreChart,
    IndicatrixPoint,
    direction_chart,
    fibre_jets,
    parameter_direction,
    sample_fibre_points,
)

from conftest import chart_embed
from fd_oracle import finite_difference_oracle


def north_chart(model, x):
    return FibreChart(model, np.asarray(x, dtype=float), "north")


def suite_jets(model, chart, u):
    """The fibre pipeline the identity suite builds at one point."""
    return fibre_jets(model, chart, u, SUITE_CHART_ORDER)


def suite_fields(model, chart, u) -> dict:
    """What the four residuals of the identity suite read, from the pipeline
    it builds, as floats: g, its inverse, the Christoffel symbols, the
    curvature, S with its gradient and Hessian, H, E, the Berwald scalar e
    and the covariant derivatives of H, E and e."""
    fj = suite_jets(model, chart, u)
    r_up, r_low = fj.curvature
    ds = fj.covariant(fj.s, 2)
    e = fj.berwald_scalar
    return {
        "g": fj.g[..., 0],
        "g_inv": fj.g_inv[..., 0],
        "gamma": fj.gamma[..., 0],
        "riemann": r_low,
        "riemann_up": r_up,
        "s": float(fj.s[0]),
        "s_grad": ds[..., 0],
        "s_hess": fj.covariant(ds, 1)[..., 0],
        "cartan": fj.h[..., 0],
        "cartan_cov": fj.covariant(fj.h, 1)[..., 0],
        "berwald": fj.e[..., 0],
        "berwald_cov": fj.covariant(fj.e, 1)[..., 0],
        "e": float(e[0]),
        "e_grad": fj.covariant(e, 1)[..., 0],
    }


def audit_fields(model, chart, u) -> dict:
    """What the isotropy audit reads, from the pipeline it builds: g, its
    inverse, E, the Berwald scalar e and its chart gradient."""
    fj = fibre_jets(model, chart, u, {"g": 1, "e": 1})
    e = fj.berwald_scalar
    return {
        "g": fj.g[..., 0],
        "g_inv": fj.g_inv[..., 0],
        "berwald": fj.e[..., 0],
        "e": float(e[0]),
        "e_grad": fj.covariant(e, 1)[..., 0],
    }


def ricci_fields(model, chart, u) -> dict:
    """What ``check_ricci`` reads, from the pipeline it builds: the third
    covariant derivative W of S, grad S and the curvature."""
    fj = fibre_jets(model, chart, u, {"g": 2, "s": 3})
    s_grad = fj.covariant(fj.s, 3)
    r_up, r_low = fj.curvature
    return {
        "w": fj.covariant(fj.covariant(s_grad, 2), 1)[..., 0],
        "s_grad": s_grad[..., 0],
        "riemann_up": r_up,
        "riemann": r_low,
    }


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
        assert funk3.f(flag.x, flag.y) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(flag.x + flag.y) == pytest.approx(1.0, abs=1e-10)


def test_embedding_unit_level_and_rank(zoo_models, rng):
    for model in zoo_models:
        x = model.sample_x(rng)
        for point in sample_fibre_points(model, x, 5, rng):
            flag = chart_embed(point.chart, point.u)
            assert model.f(flag.x, flag.y) == pytest.approx(1.0, abs=1e-10)
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
        suite_jets(euclid3, chart, np.zeros(2)).g[..., 0], 4.0 * np.eye(2), atol=1e-12
    )
    np.testing.assert_allclose(
        suite_jets(euclid3, chart, np.array([1.0, 0.0])).g[..., 0], np.eye(2), atol=1e-12
    )


def test_induced_metric_matches_fd_pullback(randers3, rng):
    chart = north_chart(randers3, [0.3, 0.2, -0.1])
    u = np.array([0.4, -0.6])
    g_dot = suite_jets(randers3, chart, u).g[..., 0]
    flag = chart_embed(chart, u)
    g = coordinate_tensors(randers3, flag).g
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
    np.testing.assert_allclose(suite_jets(euclid3, chart, np.zeros(2)).gamma[..., 0], 0.0, atol=1e-12)


def test_riemann_euclidean_calibration(euclid3):
    chart = north_chart(euclid3, [0.0, 0.0, 0.0])
    r = suite_jets(euclid3, chart, np.zeros(2)).curvature[1]
    assert r[0, 1, 0, 1] == pytest.approx(16.0, rel=1e-10)


def test_riemann_algebraic_symmetries(randers3, rng):
    chart = north_chart(randers3, [0.3, 0.2, -0.1])
    for _ in range(3):
        u = rng.uniform(-1.0, 1.0, 2)
        r = suite_jets(randers3, chart, u).curvature[1]
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
        fj = suite_jets(euclid3, chart, u)
        g, r = fj.g[..., 0], fj.curvature[1]
        sectional = r[0, 1, 0, 1] / (g[0, 0] * g[1, 1] - g[0, 1] ** 2)
        assert sectional == pytest.approx(1.0, abs=1e-7)


def test_restricted_fields_funk(funk3):
    for x in ([0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.3, 0.4, 0.6]):
        chart = north_chart(funk3, x)
        rf = suite_fields(funk3, chart, np.array([0.3, -0.2]))
        assert rf["s"] == pytest.approx(2.0, abs=1e-6)
        np.testing.assert_allclose(rf["s_grad"], 0.0, atol=1e-6)
        assert rf["e"] == pytest.approx(4.0, abs=1e-5)
        np.testing.assert_allclose(rf["berwald"], 2.0 * rf["g"], atol=1e-5)


def test_restricted_fields_riemannian_zeros(riem3, rng):
    chart = north_chart(riem3, [0.2, -0.3, 0.1])
    fj = suite_jets(riem3, chart, rng.uniform(-1, 1, 2))
    np.testing.assert_allclose(fj.h[..., 0], 0.0, atol=1e-10)
    np.testing.assert_allclose(fj.e[..., 0], 0.0, atol=1e-10)
    assert fj.berwald_scalar[0] == pytest.approx(0.0, abs=1e-10)


def test_covariant_derivative_constant_scalar(randers3):
    chart = north_chart(randers3, [0.3, 0.2, -0.1])
    fj = fibre_jets(randers3, chart, np.array([0.4, 0.1]), {"g": 1})
    scalar = fj.space(1).constant(3.0).coeffs
    np.testing.assert_allclose(fj.covariant(scalar, 1), 0.0, atol=1e-10)


def test_metric_compatibility(randers3, rng):
    chart = north_chart(randers3, [0.3, 0.2, -0.1])
    fj = fibre_jets(randers3, chart, rng.uniform(-1, 1, 2), {"g": 2})
    nabla_g = fj.covariant(fj.g, 2)  # with fj.gamma, to chart order 1
    assert np.max(np.abs(nabla_g)) <= 1e-7


def test_cartan_derivative_total_symmetry(randers3, quartic3, rng):
    for model in (randers3, quartic3):
        x = model.sample_x(rng)
        for point in sample_fibre_points(model, x, 3, rng):
            fj = suite_jets(model, point.chart, point.u)
            cartan_cov = fj.covariant(fj.h, 1)[..., 0]
            scale = max(1.0, np.max(np.abs(cartan_cov)))
            for perm in ((0, 1, 3, 2), (0, 3, 2, 1), (3, 1, 2, 0)):
                deviation = cartan_cov - np.transpose(cartan_cov, perm)
                assert np.max(np.abs(deviation)) <= 1e-5 * scale


def test_chart_consistency(randers3):
    x = np.array([0.3, 0.2, -0.1])
    chart_n = FibreChart(randers3, x, "north")
    u_n = np.array([0.8, 0.5])
    s = u_n @ u_n
    u_s = u_n / s  # the same fibre point in the south chart
    chart_s = FibreChart(randers3, x, "south")
    rf_n = suite_fields(randers3, chart_n, u_n)
    rf_s = suite_fields(randers3, chart_s, u_s)
    # scalars agree across charts
    assert rf_n["s"] == pytest.approx(rf_s["s"], abs=1e-8)
    assert rf_n["e"] == pytest.approx(rf_s["e"], abs=1e-8)
    # tensors agree after the Jacobian d(u / |u|^2) / du of the transition
    jac = (np.eye(2) * s - 2.0 * np.outer(u_n, u_n)) / s ** 2
    np.testing.assert_allclose(jac.T @ rf_s["g"] @ jac, rf_n["g"], atol=1e-6)
    h_trans = np.einsum("pa,qb,rc,pqr->abc", jac, jac, jac, rf_s["cartan"])
    np.testing.assert_allclose(h_trans, rf_n["cartan"], atol=1e-6)
    e_trans = np.einsum("pa,qb,pq->ab", jac, jac, rf_s["berwald"])
    np.testing.assert_allclose(e_trans, rf_n["berwald"], atol=1e-6)
    # covariant derivatives are tensors as well
    h_cov_trans = np.einsum("pa,qb,rc,sd,pqrs->abcd", jac, jac, jac, jac, rf_s["cartan_cov"])
    np.testing.assert_allclose(h_cov_trans, rf_n["cartan_cov"], atol=1e-6)


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
    s_hess = suite_fields(randers3, chart, u)["s_hess"]
    np.testing.assert_allclose(s_hess, s_hess.T, atol=1e-7)


def test_fibre_covariant_derivative_matches_fd(randers3):
    """Jet-path covariant derivative of the mean Berwald pullback against a
    Richardson central-difference fallback in the chart coordinate."""
    chart = north_chart(randers3, [0.3, 0.2, -0.1])
    u = np.array([0.35, -0.25])
    rf = suite_fields(randers3, chart, u)

    def berwald_component(uvec, a, b):
        return fibre_jets(randers3, chart, uvec, {"e": 0}).e[a, b, 0]

    m = 2
    partial = np.empty((m, m, m))
    for a in range(m):
        for b in range(m):
            for c in range(m):
                alpha = tuple(1 if k == c else 0 for k in range(m))
                partial[a, b, c] = finite_difference_oracle(
                    lambda uv, a=a, b=b: berwald_component(uv, a, b), u, alpha, 1e-3
                )
    gamma, berwald = rf["gamma"], rf["berwald"]
    cov_fd = np.empty((m, m, m))
    for a in range(m):
        for b in range(m):
            for c in range(m):
                value = partial[a, b, c]
                for e in range(m):
                    value -= gamma[e, c, a] * berwald[e, b]
                    value -= gamma[e, c, b] * berwald[a, e]
                cov_fd[a, b, c] = value
    np.testing.assert_allclose(cov_fd, rf["berwald_cov"], atol=1e-5)


def test_chart_validity_enforced(euclid3):
    chart = north_chart(euclid3, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="validity"):
        IndicatrixPoint(chart, np.array([5.0, 0.0]))
    with pytest.raises(ValueError, match="validity"):
        suite_jets(euclid3, chart, np.array([4.5, 0.0]))


def test_chart_embed_rejects_nonpositive_ray():
    from finslerlab.core import MetricModel, NonPositiveMetricError

    # 1-homogeneous but sign-changing; bypass validation to probe the guard
    model = MetricModel(2, "y1", validate=False)
    chart = FibreChart(model, np.zeros(2), "north")
    with pytest.raises(NonPositiveMetricError):
        fibre_jets(model, chart, np.array([-1.0]), {"g": 1})


def test_christoffels_torsion_free(randers3, rng):
    chart = north_chart(randers3, [0.3, 0.2, -0.1])
    gamma = suite_jets(randers3, chart, rng.uniform(-1, 1, 2)).gamma[..., 0]
    np.testing.assert_allclose(gamma, np.transpose(gamma, (0, 2, 1)), atol=1e-14)


def test_sampling_is_deterministic(randers3):
    x = np.array([0.1, 0.2, 0.3])
    pts1 = sample_fibre_points(randers3, x, 10, np.random.default_rng(5))
    pts2 = sample_fibre_points(randers3, x, 10, np.random.default_rng(5))
    for p1, p2 in zip(pts1, pts2):
        assert p1.chart.chart_id == p2.chart.chart_id
        np.testing.assert_array_equal(p1.u, p2.u)


def test_restrict_fields_one_expansion_per_point(randers3, quartic3, core_counts):
    """One point of the identity suite, with every field its residuals read,
    expands F once."""
    u = np.array([0.4, -0.3])
    suite_fields(randers3, north_chart(randers3, [0.3, 0.2, -0.1]), u)
    assert core_counts == {"expansions": 1, "g": 1, "spray": 1}
    suite_fields(quartic3, north_chart(quartic3, [0.0, 0.0, 0.0]), u)
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
        rf = suite_fields(model, point.chart, point.u)
        for name, value in audit_fields(model, point.chart, point.u).items():
            np.testing.assert_array_equal(value, rf[name], err_msg=name)


def test_restrict_fields_composes_each_distinct_flag_entry_once(randers3, monkeypatch):
    """At a point of the identity suite, a totally symmetric flag-point tensor
    is composed with y(u) once per sorted multi-index: at n = 3 that is 6
    entries each for g and E, 10 for the Cartan tensor and 1 for the
    volume-free S."""
    from finslerlab import jets

    composed = []
    compose = jets.jet_compose

    def counted(space, rows, basis):
        composed.append(rows[..., 0].size)
        return compose(space, rows, basis)

    monkeypatch.setattr(jets, "jet_compose", counted)
    suite_fields(randers3, north_chart(randers3, [0.3, 0.2, -0.1]), np.array([0.4, 0.1]))
    assert sum(composed) == 6 + 6 + 10 + 1


# each reference function of the oracle, and the program's fields it checks
_PIPELINES = {
    "restrict_fields": suite_fields,
    "s_third_covariant": ricci_fields,
    "berwald_fields": audit_fields,
}
_ALL_VIEWS = tuple(_PIPELINES)
_RIEMANNIAN = {"a11": "exp(x1)", "a22": "1 + x2^2", "a33": "2 + x1*x3", "a12": "0.3*x3"}


@pytest.mark.parametrize(
    "family, dim, params, volume, views",
    [
        ("randers", 3, None, None, _ALL_VIEWS),
        ("funk_ball", 3, None, None, _ALL_VIEWS),
        ("funk_ball", 4, None, "bh", ("berwald_fields",)),
        ("minkowski_quartic", 3, None, None, _ALL_VIEWS),
        ("riemannian", 3, _RIEMANNIAN, "auto", _ALL_VIEWS),
        ("euclidean", 2, None, None, _ALL_VIEWS),
    ],
    ids=["randers3", "funk3", "funk4-bh", "quartic3", "riemannian3-auto", "euclidean2"],
)
def test_chart_fields_match_the_object_array_oracle(family, dim, params, volume, views):
    """Every field that the identity suite, ``check_ricci`` and the audit
    read against the object-array pipeline, to 1e-13 relative to
    max(1, |value|): the array code sums in another order."""
    from finslerlab.zoo import build

    import chart_oracle

    model = build(family, dim, params, volume)
    rng = np.random.default_rng(dim)
    for point in sample_fibre_points(model, model.sample_x(rng), 3, rng):
        for view in views:
            got = _PIPELINES[view](model, point.chart, point.u)
            want = vars(getattr(chart_oracle, view)(model, point.chart, point.u))
            assert got.keys() == want.keys(), view
            for name, a in got.items():
                b = np.asarray(want[name], dtype=float)
                ok = np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b)))
                assert ok, f"{view}.{name}"


def test_volume_gradient_once_per_base_point_and_only_for_s(monkeypatch):
    from finslerlab import indicatrix
    from finslerlab.checks import schur_audit
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
        audit_fields(model, point.chart, point.u)
    # the same points, and the weak-isotropy test, in the audit
    audit = schur_audit(model, x, fibre_samples=4, rng=np.random.default_rng(2))
    assert audit.weak is not None
    assert calls == []
    assert {point.chart.chart_id for point in points} == {"north", "south"}
    for point in points:
        suite_fields(model, point.chart, point.u)
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
