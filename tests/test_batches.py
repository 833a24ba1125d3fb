"""The batched sweep against batches of one.

``checks.sweep`` evaluates its points in batches of up to
``checks.BATCH_POINTS`` across fibres.  With the cap set to 1 every point
runs alone, which is the reference here: every row of a batched sweep must
equal the row of its point run alone, to a float64 bound fixed below, and a
fault must name the same point, with the same text, after the same rows.
"""

import json
from functools import partial

import numpy as np
import pytest

from finslerlab import checks
from finslerlab.checks import SUITE_CHART_ORDER, PointFault, sweep
from finslerlab.cli import main
from finslerlab.core import NonPositiveDefiniteError
from finslerlab.indicatrix import sample_fibre_points
from finslerlab.zoo import build

# a batched np.einsum may sum in another order than the call on one point;
# every quantity of a row is within this of the reference, relative above 1
ROUNDOFF = 1e-14

# 2 base points x 3 fibre points in batches of 4: the first batch holds all
# of fibre 0 and the first point of fibre 1, so a base-point boundary lies
# inside it and fibre 1 crosses into the second batch
CAP, BASES, SAMPLES = 4, 2, 3

_ZOO = ("euclidean", "riemannian", "minkowski_quartic", "randers", "funk_ball")
_FAMILIES = [(family, dim, None) for family in _ZOO for dim in (2, 3, 4)]
_FAMILIES += [("funk_ball", 3, "bh"), ("funk_ball", 4, "bh")]
_IDS = [f"{family}{dim}{'-' + volume if volume else ''}" for family, dim, volume in _FAMILIES]


def _swept(monkeypatch, cap, model, work, chart_order, seed, bases=BASES, samples=SAMPLES):
    """The sweep's items with batches of at most ``cap`` points, and the
    size of each batch it evaluated."""
    sizes = []
    quantities = checks._quantities

    def counted(model, batch, *args):
        sizes.append(len(batch))
        return quantities(model, batch, *args)

    with monkeypatch.context() as patch:
        patch.setattr(checks, "BATCH_POINTS", cap)
        patch.setattr(checks, "_quantities", counted)
        rng = np.random.default_rng(seed)
        points = checks.sample_base_points(model, bases, rng)
        items = list(sweep(model, points, samples, rng, chart_order, work, None))
    return items, sizes


def _assert_rows_match(batched, alone):
    assert [item[:2] for item in batched] == [item[:2] for item in alone]
    for (base, fibre, point, got), (_, _, ref_point, want) in zip(batched, alone):
        assert point.u.tolist() == ref_point.u.tolist()
        assert got.keys() == want.keys(), (base, fibre)
        for name, value in got.items():
            bound = ROUNDOFF * max(1.0, abs(want[name]))
            assert abs(value - want[name]) <= bound, (base, fibre, name, value, want[name])


@pytest.mark.parametrize("family,dim,volume", _FAMILIES, ids=_IDS)
def test_suite_and_audit_rows_equal_the_points_run_alone(monkeypatch, family, dim, volume):
    model = build(family, dim, volume=volume)
    audit = partial(checks._audit_batch, checks.DEFAULT_TOLERANCES["thm-1"])
    for work, order in ((checks._suite_batch, SUITE_CHART_ORDER), (audit, checks._AUDIT_ORDER)):
        batched, sizes = _swept(monkeypatch, CAP, model, work, order, seed=dim)
        alone, single = _swept(monkeypatch, 1, model, work, order, seed=dim)
        assert sizes == [4, 2] and single == [1] * 6  # no batch was replayed
        _assert_rows_match(batched, alone)


def test_default_cap_spans_batches_and_matches_batches_of_one(monkeypatch):
    """At the module's own cap: 3 fibres of 7 points are one batch of 16 that
    ends inside the third fibre, then a batch of 5."""
    model, work = build("randers", 3), checks._suite_batch
    batched, sizes = _swept(monkeypatch, checks.BATCH_POINTS, model, work, SUITE_CHART_ORDER, 7, 3, 7)
    alone, _ = _swept(monkeypatch, 1, model, work, SUITE_CHART_ORDER, 7, 3, 7)
    assert checks.BATCH_POINTS == 16 and sizes == [16, 5]
    _assert_rows_match(batched, alone)


def test_an_isotropic_run_across_a_batch_boundary_keeps_its_hessian_points_and_c(monkeypatch):
    # funk_ball is isotropic everywhere: fibre 1 starts in the first batch
    # and its run goes on in the second, so every point takes a Hessian and
    # c is e at the fibre's first point
    model, tol = build("funk_ball", 3), checks.DEFAULT_TOLERANCES["thm-1"]
    work = partial(checks._audit_batch, tol)
    batched, sizes = _swept(monkeypatch, CAP, model, work, checks._AUDIT_ORDER, seed=2)
    alone, _ = _swept(monkeypatch, 1, model, work, checks._AUDIT_ORDER, seed=2)
    assert sizes == [4, 2]
    _assert_rows_match(batched, alone)
    for base in range(BASES):
        rows = [q for b, _, _, q in batched if b == base]
        assert all("Hessian residual" in q for q in rows)
        assert {q["c"] for q in rows} == {rows[0]["e"] / 2}


def test_a_broken_run_across_a_batch_boundary_takes_hessians_at_its_leading_points(monkeypatch):
    # with this bound the fifth of six points is the only anisotropic one;
    # in batches of 3 the leading run of four isotropic points crosses the
    # boundary, and the sixth point, isotropic again, takes no Hessian
    model, x, tol = build("randers", 3), np.array([0.3, 0.2, -0.1]), 5e-3
    work = partial(checks._audit_batch, tol)
    calls = []
    hessians = checks._y_hessians
    monkeypatch.setattr(checks, "_y_hessians", lambda tj: calls.append(len(tj.y)) or hessians(tj))
    rows = {}
    for cap in (3, 1):
        monkeypatch.setattr(checks, "BATCH_POINTS", cap)
        rng = np.random.default_rng(3)
        rows[cap] = [q for *_, q in sweep(model, [x], 6, rng, checks._AUDIT_ORDER, work, None)]
    assert calls == [3, 1] + [1] * 4  # one call per batch, at the run's points
    assert [q["isotropy residual"] <= tol for q in rows[3]] == [True, True, True, True, False, True]
    assert ["Hessian residual" in q for q in rows[3]] == [True] * 4 + [False] * 2
    assert {q["c"] for q in rows[3][:4]} == {rows[3][0]["e"] / 2}
    for got, want in zip(rows[3], rows[1]):
        assert got == want


def _fault_run(monkeypatch, cap, model, bases, samples, seed=0):
    """The rows of the suite's sweep before its fault, and the fault's text."""
    monkeypatch.setattr(checks, "BATCH_POINTS", cap)
    rng = np.random.default_rng(seed)
    rows, points = [], checks.sample_base_points(model, bases, rng)
    with pytest.raises(PointFault) as info:
        for base, fibre, _, _ in sweep(model, points, samples, rng, SUITE_CHART_ORDER, checks._suite_batch, None):
            rows.append((base, fibre))
    return rows, str(info.value)


def test_a_fault_in_a_middle_row_names_its_point_and_keeps_the_earlier_rows(randers3, monkeypatch):
    # 2 fibres of 10 points: the fault is at point 17 of the sweep, the
    # second row of the second batch of 16
    rng = np.random.default_rng(0)
    bases = checks.sample_base_points(randers3, 2, rng)
    points = [p for x in bases for p in sample_fibre_points(randers3, x, 10, rng)]
    target = points[17].u.tolist()
    gauss = checks.gauss_residual

    def failing_at_the_target(fj):
        if any(point.u.tolist() == target for point in fj.points):
            raise NonPositiveDefiniteError(-1.0)
        return gauss(fj)

    suite = [(key, name, failing_at_the_target if key == "gauss" else fn) for key, name, fn in checks._SUITE]
    monkeypatch.setattr(checks, "_SUITE", suite)
    where = f"base 1, fibre 7, chart {points[17].chart.chart_id}, u={target}"
    rows, message = _fault_run(monkeypatch, checks.BATCH_POINTS, randers3, 2, 10)
    assert rows == [(0, fibre) for fibre in range(10)] + [(1, fibre) for fibre in range(7)]
    assert message.startswith(f"NonPositiveDefiniteError at {where}: fundamental tensor is not positive")
    assert _fault_run(monkeypatch, 1, randers3, 2, 10) == (rows, message)


def test_a_draw_that_fails_mid_batch_is_raised_after_the_earlier_points(monkeypatch):
    # the guard admits the first five fibre directions and no other: the
    # sixth draw, base 1 and fibre 1 of 2 x 4 points, gives up inside the
    # first batch of 8 points
    def run(cap):
        model = build("euclidean", 3)
        admitted = []

        def guard(y):
            admitted.append(1)
            return len(admitted) <= 5

        model.y_guard, model.sample_attempts = guard, 20
        return _fault_run(monkeypatch, cap, model, 2, 4)

    rows, message = run(checks.BATCH_POINTS)
    assert rows == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]
    assert message.startswith("SamplingError at base 1, fibre 1: no admissible direction in 20 draws")
    assert run(1) == (rows, message)


def test_volume_fault_at_a_later_base_point_keeps_the_rows_before_it(tmp_path, capsys):
    # 3 x 2 points are one batch; sigma = x1 is not positive at base 1, so
    # the batch is replayed and the two points of base 0 are kept
    out = tmp_path / "check.json"
    argv = ["--metric", "euclidean", "--dim", "2", "--volume", "expr:x1", "--samples", "2", "--base-points", "3"]
    assert main(["check", *argv, "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: VolumeFormError at base 1, fibre 0, chart south, u=[-0.16438633541771416]")
    for block in json.loads(out.read_text())["checks"]:
        assert [(row["base"], row["fibre"]) for row in block["points"]] == [(0, 0), (0, 1)]
