import numpy as np
import pytest

from finslerlab.checks import (
    DEFAULT_TOLERANCES,
    FibrePointError,
    check_cartan_symmetry,
    check_codazzi,
    check_gauss,
    check_pde,
    check_ricci,
    isotropy_residual,
    run_identity_suite,
    schur_audit,
    weak_isotropy_check,
)
from finslerlab.core import MetricModel
from finslerlab.indicatrix import FibreChart, IndicatrixPoint, sample_fibre_points
from finslerlab.zoo import build


def fibre_point(model, x, u):
    return IndicatrixPoint(FibreChart(model, np.asarray(x, dtype=float), "north"), u)


def test_pde_residual_riemannian(riem3):
    point = fibre_point(riem3, [0.2, -0.3, 0.1], np.array([0.4, 0.2]))
    assert np.max(np.abs(check_pde(riem3, point))) <= 1e-9


def test_pde_residual_funk_is_the_normalisation_calibration(funk3):
    point = fibre_point(funk3, [0.5, 0.0, 0.0], np.array([0.3, -0.2]))
    assert np.max(np.abs(check_pde(funk3, point))) <= 1e-5


def test_pde_residual_quartic_with_volume():
    model = MetricModel(
        3,
        "(y1^4 + y2^4 + y3^4)^0.25",
        volume="expr:exp(x1 + 0.5*x2)",
        metric_id="quartic-volume",
    )
    point = fibre_point(model, [0.1, -0.2, 0.3], np.array([0.35, 0.55]))
    assert np.max(np.abs(check_pde(model, point))) <= 1e-9


def test_identity_residuals_randers(randers3, rng):
    x = randers3.sample_x(rng)
    for point in sample_fibre_points(randers3, x, 5, rng):
        assert np.max(np.abs(check_pde(randers3, point))) <= 1e-5
        assert np.max(np.abs(check_codazzi(randers3, point))) <= 1e-4
        assert np.max(np.abs(check_cartan_symmetry(randers3, point))) <= 1e-5
        assert np.max(np.abs(check_gauss(randers3, point))) <= 1e-5
        assert np.max(np.abs(check_ricci(randers3, point))) <= 1e-5


def test_gauss_euclidean_reduces_to_round_sphere(euclid3):
    point = fibre_point(euclid3, [0.0, 0.0, 0.0], np.array([0.3, 0.8]))
    assert np.max(np.abs(check_gauss(euclid3, point))) <= 1e-7


def test_isotropy_residual_funk(funk3):
    point = fibre_point(funk3, [0.3, 0.1, 0.0], np.array([0.5, -0.4]))
    assert isotropy_residual(funk3, point) <= 1e-6


def test_isotropy_residual_riemannian(riem3):
    point = fibre_point(riem3, [0.2, -0.3, 0.1], np.array([0.4, 0.2]))
    assert isotropy_residual(riem3, point) <= 1e-12


def test_isotropy_residual_randers_flags_non_isotropy(randers3, rng):
    # generic-position: the default instance is not isotropic; assert the
    # scan does not spuriously report isotropy
    worst = 0.0
    for _ in range(3):
        x = randers3.sample_x(rng)
        for point in sample_fibre_points(randers3, x, 10, rng):
            worst = max(worst, isotropy_residual(randers3, point))
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
    assert calls == []
    assert core_counts["expansions"] == 3


def test_domain_fault_names_the_fibre_point_and_stage():
    model = MetricModel(3, "sqrt(y1^2+y2^2+y3^2) + 0.9*y1^3/(y1^2+y2^2+y3^2)")
    x = np.zeros(3)
    with pytest.raises(FibrePointError, match=r"^NonPositiveDefiniteError at fibre 0, chart ") as info:
        schur_audit(model, x, fibre_samples=5, seed=4)
    assert ", stage schur: " in str(info.value)
    assert info.value.located(2).startswith("NonPositiveDefiniteError at base 2, fibre 0, chart ")
    with pytest.raises(FibrePointError, match=", stage weak-isotropy: "):
        weak_isotropy_check(model, x, fibre_samples=5, seed=4)


def test_weak_isotropy_funk(funk3):
    record = weak_isotropy_check(funk3, np.array([0.3, 0.1, 0.0]), fibre_samples=10, seed=4)
    assert record.c == pytest.approx(2.0, abs=1e-6)
    assert record.max_hessian_residual <= 1e-5


def test_weak_isotropy_minkowski(quartic3):
    record = weak_isotropy_check(quartic3, np.zeros(3), fibre_samples=6, seed=4)
    assert record.c == pytest.approx(0.0, abs=1e-12)
    assert record.max_hessian_residual <= 1e-12


def test_weak_isotropy_riemannian_custom_volume():
    model = build("riemannian", 3, {"a_diag": [1.0, 4.0, 1.0]}, volume="expr:exp(x1 + x2)")
    record = weak_isotropy_check(model, np.array([0.2, -0.1, 0.3]), fibre_samples=6, seed=4)
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
