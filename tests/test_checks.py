import numpy as np
import pytest

from finslerlab.checks import (
    DEFAULT_TOLERANCES,
    SUITE_CHART_ORDER,
    PointFault,
    cartan_symmetry_residual,
    check_ricci,
    codazzi_residual,
    gauss_residual,
    isotropy_residual,
    pde_residual,
    run_identity_suite,
    sample_base_points,
    schur_audit,
    sweep,
)
from finslerlab.core import MetricModel, NonPositiveDefiniteError, coordinate_tensors
from finslerlab.indicatrix import (
    FibreChart,
    IndicatrixPoint,
    fibre_jets,
    sample_fibre_points,
)
from finslerlab.zoo import build

from conftest import chart_embed


def fibre_point(model, x, u):
    return IndicatrixPoint(FibreChart(model, np.asarray(x, dtype=float), "north"), u)


def suite_jets(model, point):
    """The fibre pipeline the identity suite builds at one point."""
    return fibre_jets(model, point.chart, point.u, SUITE_CHART_ORDER)


def audit_jets(model, point):
    """The fibre pipeline the isotropy audit builds at one point."""
    return fibre_jets(model, point.chart, point.u, {"g": 1, "e": 1})


def test_pde_residual_riemannian(riem3):
    point = fibre_point(riem3, [0.2, -0.3, 0.1], np.array([0.4, 0.2]))
    fj = suite_jets(riem3, point)
    assert np.max(np.abs(pde_residual(fj)[0])) <= 1e-9


def test_pde_residual_funk_is_the_normalisation_calibration(funk3):
    point = fibre_point(funk3, [0.5, 0.0, 0.0], np.array([0.3, -0.2]))
    fj = suite_jets(funk3, point)
    assert np.max(np.abs(pde_residual(fj)[0])) <= 1e-5


def test_pde_residual_quartic_with_volume():
    model = MetricModel(
        3,
        "(y1^4 + y2^4 + y3^4)^0.25",
        volume="expr:exp(x1 + 0.5*x2)",
        metric_id="quartic-volume",
    )
    point = fibre_point(model, [0.1, -0.2, 0.3], np.array([0.35, 0.55]))
    fj = suite_jets(model, point)
    assert np.max(np.abs(pde_residual(fj)[0])) <= 1e-9


def test_identity_residuals_randers(randers3, rng):
    x = randers3.sample_x(rng)
    for point in sample_fibre_points(randers3, x, 5, rng):
        fj = suite_jets(randers3, point)
        assert np.max(np.abs(pde_residual(fj)[0])) <= 1e-5
        assert np.max(np.abs(codazzi_residual(fj)[0])) <= 1e-4
        assert np.max(np.abs(cartan_symmetry_residual(fj)[0])) <= 1e-5
        assert np.max(np.abs(gauss_residual(fj)[0])) <= 1e-5
        assert np.max(np.abs(check_ricci(randers3, point))) <= 1e-5


def test_check_ricci_expands_once(randers3, core_counts):
    check_ricci(randers3, fibre_point(randers3, [0.3, 0.2, -0.1], np.array([0.4, -0.3])))
    assert core_counts == {"expansions": 1, "g": 1, "spray": 1}


def test_gauss_euclidean_reduces_to_round_sphere(euclid3):
    point = fibre_point(euclid3, [0.0, 0.0, 0.0], np.array([0.3, 0.8]))
    fj = suite_jets(euclid3, point)
    assert np.max(np.abs(gauss_residual(fj)[0])) <= 1e-7


def test_isotropy_residual_funk(funk3):
    point = fibre_point(funk3, [0.3, 0.1, 0.0], np.array([0.5, -0.4]))
    assert isotropy_residual(audit_jets(funk3, point))[0] <= 1e-6


def test_isotropy_residual_riemannian(riem3):
    point = fibre_point(riem3, [0.2, -0.3, 0.1], np.array([0.4, 0.2]))
    assert isotropy_residual(audit_jets(riem3, point))[0] <= 1e-12


def test_isotropy_residual_randers_flags_non_isotropy(randers3, rng):
    # generic-position: the default instance is not isotropic; assert the
    # scan does not spuriously report isotropy
    worst = 0.0
    for _ in range(3):
        x = randers3.sample_x(rng)
        for point in sample_fibre_points(randers3, x, 10, rng):
            worst = max(worst, isotropy_residual(audit_jets(randers3, point))[0])
    assert worst > 1e-2


def test_run_identity_suite_passes_and_is_deterministic(randers3):
    reports1 = run_identity_suite(randers3, 2, 10, seed=11)
    reports2 = run_identity_suite(randers3, 2, 10, seed=11)
    assert len(reports1) == 4
    for r1, r2 in zip(reports1, reports2):
        assert r1.passed
        assert r1.max_residual <= r1.tolerance
        assert len(r1.points) == 20
        assert r1.to_bytes() == r2.to_bytes()


def test_run_identity_suite_tolerance_override(randers3):
    reports = run_identity_suite(randers3, 1, 3, seed=11, tolerances={"eq-2.1": 1e-30})
    by_tag = {r.tag: r for r in reports}
    assert not by_tag["eq-2.1"].passed
    assert by_tag["eq-1.12"].passed


def test_schur_audit_funk(funk3):
    audit = schur_audit(funk3, np.array([0.3, 0.1, 0.0]), fibre_samples=40, seed=2)
    assert audit.verdict == "isotropic-and-constant"
    assert audit.asserted
    assert audit.e_min == pytest.approx(4.0, abs=1e-5)
    assert audit.e_max == pytest.approx(4.0, abs=1e-5)


def test_schur_audit_euclidean(euclid3):
    audit = schur_audit(euclid3, np.zeros(3), fibre_samples=20, seed=2)
    assert audit.verdict == "isotropic-and-constant"
    assert audit.e_min == pytest.approx(0.0, abs=1e-10)


def test_schur_audit_randers_non_isotropic(randers3):
    audit = schur_audit(randers3, np.array([0.3, 0.2, -0.1]), fibre_samples=20, seed=2)
    assert audit.verdict == "non-isotropic"
    assert audit.weak is None


def test_schur_audit_dim2_never_asserts(rng):
    randers2 = build("randers", 2)
    for seed in range(3):
        x = randers2.sample_x(rng)
        audit = schur_audit(randers2, x, fibre_samples=15, seed=seed)
        assert not audit.asserted
        assert audit.verdict != "VIOLATION"
        # a 1-dimensional fibre is trivially isotropic
        assert audit.max_isotropy_residual <= 1e-12


def test_schur_audit_reads_no_volume_gradient_and_expands_once_per_point(
    monkeypatch, core_counts
):
    from finslerlab import indicatrix

    model = build("funk_ball", 4, volume="bh")
    calls = []
    monkeypatch.setattr(indicatrix, "dln_sigma", lambda model, x: calls.append(1))
    audit = schur_audit(model, np.array([0.2, -0.1, 0.3, 0.1]), fibre_samples=3, seed=2)
    assert audit.verdict == "isotropic-and-constant"
    assert audit.weak.samples == 3  # the weak-isotropy test shares the expansions
    assert calls == []
    assert core_counts["expansions"] == 3


def test_non_isotropic_audit_takes_no_hessians_after_the_first_anisotropic_point(monkeypatch):
    from finslerlab import checks

    # with this bound the fifth of the six points is the only anisotropic one
    model, x, tol = build("randers", 3), np.array([0.3, 0.2, -0.1]), 5e-3
    points = sample_fibre_points(model, x, 6, np.random.default_rng(3))
    residuals = [isotropy_residual(audit_jets(model, p))[0] for p in points]
    assert [r <= tol for r in residuals] == [True, True, True, True, False, True]
    calls = []
    hessians = checks._y_hessians
    # one batched call: count its points
    monkeypatch.setattr(checks, "_y_hessians", lambda tj: calls.extend(tj.y.tolist()) or hessians(tj))
    audit = schur_audit(model, x, fibre_samples=6, tol=tol, rng=np.random.default_rng(3))
    assert audit.verdict == "non-isotropic" and audit.weak is None
    assert len(calls) == 4


def test_a_fault_in_a_later_residual_leaves_no_row_of_its_point(randers3, monkeypatch):
    from finslerlab import checks

    # the second point of the sweep, a middle row of its batch of three
    rng = np.random.default_rng(0)
    second = sample_fibre_points(randers3, sample_base_points(randers3, 1, rng)[0], 2, rng)[1]

    def gauss_failing_at_the_second_point(fj):
        if any(point.u.tolist() == second.u.tolist() for point in fj.points):
            raise NonPositiveDefiniteError(-1.0)
        return gauss_residual(fj)

    suite = [
        (key, name, gauss_failing_at_the_second_point if key == "gauss" else residual_fn)
        for key, name, residual_fn in checks._SUITE
    ]
    assert [key for key, _, _ in suite].index("gauss") > 0  # a residual ran before it
    monkeypatch.setattr(checks, "_SUITE", suite)
    for report in run_identity_suite(randers3, 1, 3, seed=0):
        assert report.error.startswith("NonPositiveDefiniteError at base 0, fibre 1, ")
        assert [row["fibre"] for row in report.points] == [0]


def test_sweep_visits_the_points_the_samplers_replay(randers3):
    """perfbench's check workload replays the sweep's points this way."""

    def work(fj, fibres):
        return [{"earlier points": len(earlier) + k} for earlier, count in fibres for k in range(count)]

    rng = np.random.default_rng(5)
    swept = list(sweep(randers3, sample_base_points(randers3, 2, rng), 3, rng, {"g": 1}, work, None))
    rng = np.random.default_rng(5)
    replay = [
        (base, fibre, point)
        for base, x in enumerate(sample_base_points(randers3, 2, rng))
        for fibre, point in enumerate(sample_fibre_points(randers3, x, 3, rng))
    ]
    assert [item[:2] for item in swept] == [item[:2] for item in replay]
    for (_, fibre, point, quantities), (_, _, want) in zip(swept, replay):
        assert point.chart.chart_id == want.chart.chart_id
        assert point.u.tolist() == want.u.tolist()
        assert point.chart.x.tolist() == want.chart.x.tolist()
        assert quantities["earlier points"] == fibre  # the earlier points of its fibre


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_quantity_that_is_not_finite_is_a_point_fault(randers3, value):
    def work(fj, fibres):
        return [
            {"eq-2.1 residual": 0.0, "eq-2.1 scale": value} if len(earlier) + k else {"e": 1.0}
            for earlier, count in fibres
            for k in range(count)
        ]

    rng = np.random.default_rng(0)
    points = sweep(randers3, sample_base_points(randers3, 1, rng), 2, rng, {"g": 1}, work, "probe")
    assert next(points)[:2] == (0, 0)
    with pytest.raises(PointFault, match=r"^NonFiniteError at base 0, fibre 1, chart ") as info:
        next(points)
    assert str(info.value).endswith(f", stage probe: the eq-2.1 scale is {value!r}, not a finite number")


def test_domain_fault_names_the_fibre_point_and_stage():
    model = MetricModel(3, "sqrt(y1^2+y2^2+y3^2) + 0.9*y1^3/(y1^2+y2^2+y3^2)")
    x = np.zeros(3)
    first = sample_fibre_points(model, x, 5, np.random.default_rng(4))[0]
    where = f"at base 0, fibre 0, chart {first.chart.chart_id}, u={first.u.tolist()}, stage schur: "
    with pytest.raises(PointFault) as info:
        schur_audit(model, x, fibre_samples=5, seed=4)
    assert str(info.value).startswith(f"NonPositiveDefiniteError {where}")
    assert isinstance(info.value.__cause__, NonPositiveDefiniteError)


def test_weak_isotropy_checks_convexity_at_every_point():
    model = MetricModel(3, "sqrt(y1^2+y2^2+y3^2) + 0.9*y1^3/(y1^2+y2^2+y3^2)")
    x = np.zeros(3)
    points = sample_fibre_points(model, x, 40, np.random.default_rng(1))
    bad = []
    for index, point in enumerate(points):
        try:
            coordinate_tensors(model, chart_embed(point.chart, point.u))
        except NonPositiveDefiniteError:
            bad.append(index)
    assert len(bad) == 9 and bad[0] > 0  # the first point is convex
    # the one-pass audit, which also takes the weak-isotropy Hessians, visits
    # the same points and stops at the first non-convex one
    point = points[bad[0]]
    where = f"at base 0, fibre {bad[0]}, chart {point.chart.chart_id}, u={point.u.tolist()}"
    with pytest.raises(PointFault) as info:
        schur_audit(model, x, fibre_samples=40, rng=np.random.default_rng(1))
    message = f"NonPositiveDefiniteError {where}, stage schur: fundamental tensor is not positive"
    assert str(info.value).startswith(message)


def test_weak_isotropy_funk(funk3):
    x = np.array([0.3, 0.1, 0.0])
    record = schur_audit(funk3, x, fibre_samples=10, seed=4).weak
    assert record.c == pytest.approx(2.0, abs=1e-6)
    assert record.max_hessian_residual <= 1e-5
    assert record.samples == 10
    # c is e at the first audited point over n - 1
    first = sample_fibre_points(funk3, x, 1, np.random.default_rng(4))[0]
    assert record.c == float(audit_jets(funk3, first).berwald_scalar[0, 0]) / 2


def test_weak_isotropy_minkowski(quartic3):
    record = schur_audit(quartic3, np.zeros(3), fibre_samples=6, seed=4).weak
    assert record.c == pytest.approx(0.0, abs=1e-12)
    assert record.max_hessian_residual <= 1e-12


def test_weak_isotropy_riemannian_custom_volume():
    model = build("riemannian", 3, {"a_diag": [1.0, 4.0, 1.0]}, volume="expr:exp(x1 + x2)")
    record = schur_audit(model, np.array([0.2, -0.1, 0.3]), fibre_samples=6, seed=4).weak
    # S is already linear in y, so the Hessian residual vanishes
    assert record.c == pytest.approx(0.0, abs=1e-10)
    assert record.max_hessian_residual <= 1e-6


def test_default_tolerances_cover_all_tags():
    assert set(DEFAULT_TOLERANCES) == {
        "eq-2.1",
        "eq-2.2",
        "eq-1.11",
        "eq-1.12",
        "eq-2.5",
        "thm-1",
    }
