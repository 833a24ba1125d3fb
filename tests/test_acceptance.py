"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and matches the defaults shipped in
the package.
"""

import math

import numpy as np
import pytest

from finslerlab.checks import SUITE_CHART_ORDER, run_identity_suite, schur_audit
from finslerlab.cli import main as cli_main
from finslerlab.core import (
    FlagPoint,
    TensorJets,
    coordinate_tensors,
    dln_sigma,
    s_curvature_alt,
    s_main_jet,
    spray_jets,
)
from finslerlab.expr import evaluate
from finslerlab.indicatrix import FibreChart, fibre_jets, sample_fibre_points
from finslerlab.jets import jet_partials, jet_space
from finslerlab.volume import bh_volume_coefficient
from finslerlab.zoo import build

from conftest import random_flag
from fd_oracle import finite_difference_oracle


def _report(name: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_funk_quantitative_suite(funk3):
    """Funk n=3: S = 2F, sigma_BH = 1, e = 4, isotropic, weakly isotropic."""
    rng = np.random.default_rng(1)
    worst_s = worst_sigma = worst_e = worst_spread = worst_iso = worst_weak = 0.0
    for _ in range(100):
        x = funk3.sample_x(rng)
        y = funk3.sample_y(rng)
        tensors = coordinate_tensors(funk3, FlagPoint(x, y))
        worst_s = max(worst_s, abs(tensors.s - 2.0 * tensors.f) / tensors.f)
        worst_sigma = max(worst_sigma, abs(bh_volume_coefficient(funk3, x) - 1.0))
        audit = schur_audit(funk3, x, fibre_samples=40, rng=rng)
        worst_e = max(worst_e, abs(audit.e_min - 4.0), abs(audit.e_max - 4.0))
        worst_spread = max(worst_spread, audit.e_spread)
        worst_iso = max(worst_iso, audit.max_isotropy_residual)
        # no weak-isotropy record unless the verdict is isotropic-and-constant
        weak = audit.weak.max_hessian_residual if audit.weak else math.inf
        worst_weak = max(worst_weak, weak)
    ok = (
        worst_s <= 1e-5
        and worst_sigma <= 1e-6
        and worst_e <= 1e-5
        and worst_spread <= 1e-5
        and worst_iso <= 1e-5
        and worst_weak <= 1e-5
    )
    _report(
        "criterion 1 (Funk suite)",
        ok,
        f"|S-2F|/F={worst_s:.2e}, |sigma_BH-1|={worst_sigma:.2e}, |e-4|={worst_e:.2e}, "
        f"spread={worst_spread:.2e}, isotropy={worst_iso:.2e}, weak={worst_weak:.2e}",
    )


def test_criterion_2_randers_identity_suite(randers3):
    """Default Randers instance, 5 base x 50 fibre points, seed 42."""
    reports = {r.tag: r for r in run_identity_suite(randers3, 5, 50, seed=42)}
    bounds = {"eq-2.1": 1e-5, "eq-1.11": 1e-5, "eq-1.12": 1e-5, "eq-2.2": 1e-4}
    ok = all(reports[tag].max_residual <= bound for tag, bound in bounds.items())
    detail = ", ".join(f"{tag}={reports[tag].max_residual:.2e}" for tag in sorted(bounds))
    _report("criterion 2 (Randers identities)", ok, detail)


def test_criterion_3_degeneration_suite(riem2, riem3, quartic3):
    rng = np.random.default_rng(3)
    worst = {"cartan": 0.0, "berwald": 0.0, "s": 0.0, "sigma": 0.0}
    for model in (riem2, riem3):
        for _ in range(10):
            tensors = coordinate_tensors(model, random_flag(model, rng))
            worst["cartan"] = max(worst["cartan"], np.max(np.abs(tensors.cartan)))
            worst["berwald"] = max(worst["berwald"], np.max(np.abs(tensors.mean_berwald)))
            worst["s"] = max(worst["s"], abs(tensors.s))
        x = model.sample_x(rng)
        worst["sigma"] = max(worst["sigma"], abs(bh_volume_coefficient(model, x) - 2.0))
    worst_mink = 0.0
    for _ in range(10):
        tensors = coordinate_tensors(quartic3, random_flag(quartic3, rng))
        worst_mink = max(
            worst_mink,
            np.max(np.abs(tensors.spray)),
            np.max(np.abs(tensors.mean_berwald)),
            abs(tensors.s),
        )
    worst_gauss = 0.0
    min_cartan = math.inf
    from finslerlab.checks import gauss_residual

    for pt in sample_fibre_points(quartic3, np.zeros(3), 10, rng):
        fj = fibre_jets(quartic3, pt.chart, pt.u, SUITE_CHART_ORDER)
        tensor, scale = gauss_residual(fj)
        worst_gauss = max(worst_gauss, np.max(np.abs(tensor)) / scale)
        min_cartan = min(min_cartan, np.max(np.abs(fj.h[..., 0])))
    ok = (
        worst["cartan"] <= 1e-10
        and worst["berwald"] <= 1e-10
        and worst["s"] <= 1e-6
        and worst["sigma"] <= 1e-6
        and worst_mink <= 1e-10
        and worst_gauss <= 1e-5
        and min_cartan > 1e-3  # the quartic fibre Cartan pullback is genuinely nonzero
    )
    _report(
        "criterion 3 (degeneration suite)",
        ok,
        f"riem cartan={worst['cartan']:.1e}, berwald={worst['berwald']:.1e}, "
        f"S={worst['s']:.1e}, |sigma-2|={worst['sigma']:.1e}; "
        f"quartic zeros={worst_mink:.1e}, gauss={worst_gauss:.1e}, min|H|={min_cartan:.2f}",
    )


def test_criterion_4_euclidean_calibration(euclid3):
    rng = np.random.default_rng(4)
    chart = FibreChart(euclid3, np.zeros(3), "north")
    worst_sectional = worst_gauss = 0.0
    for _ in range(50):
        u = rng.uniform(-1.5, 1.5, 2)
        fj = fibre_jets(euclid3, chart, u, SUITE_CHART_ORDER)
        g, r = fj.g[..., 0], fj.curvature[1]
        sectional = r[0, 1, 0, 1] / (g[0, 0] * g[1, 1] - g[0, 1] ** 2)
        worst_sectional = max(worst_sectional, abs(sectional - 1.0))
        constant_curvature = np.einsum("ac,bd->abcd", g, g) - np.einsum(
            "ad,bc->abcd", g, g
        )
        worst_gauss = max(worst_gauss, np.max(np.abs(r - constant_curvature)))
    ok = worst_sectional <= 1e-7 and worst_gauss <= 1e-7
    _report(
        "criterion 4 (Euclidean calibration)",
        ok,
        f"|K-1|={worst_sectional:.2e}, constant-curvature residual={worst_gauss:.2e}",
    )


def test_criterion_5_schur_audit_sweep():
    models = []
    for dim in (2, 3):
        models.extend(
            [
                build("euclidean", dim),
                build("riemannian", dim, {"a_diag": [1.0, 4.0][:dim] + [1.0] * (dim - 2)}),
                build("minkowski_quartic", dim),
                build("randers", dim),
                build("funk_ball", dim),
            ]
        )
    violations = 0
    asserted_in_dim2 = 0
    funk_euclid_ok = True
    for model in models:
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = model.sample_x(rng)
            audit = schur_audit(model, x, fibre_samples=10, seed=seed, rng=rng)
            if audit.verdict == "VIOLATION":
                violations += 1
            if model.dim == 2 and audit.asserted:
                asserted_in_dim2 += 1
            if model.dim == 3 and model.metric_id in ("euclidean", "funk_ball"):
                if audit.verdict != "isotropic-and-constant":
                    funk_euclid_ok = False
    ok = violations == 0 and asserted_in_dim2 == 0 and funk_euclid_ok
    _report(
        "criterion 5 (isotropy audit sweep)",
        ok,
        f"violations={violations}, dim-2 assertions={asserted_in_dim2}, "
        f"funk/euclid constant={funk_euclid_ok} over 10 metrics x 10 seeds",
    )


def test_criterion_6_cross_validation(zoo_models):
    rng = np.random.default_rng(6)
    worst_f2 = worst_g = worst_s = worst_routes = 0.0
    for model in zoo_models:
        n = model.dim
        for trial in range(100):
            x = model.sample_x(rng)
            y = model.sample_y(rng)
            y = y / np.linalg.norm(y) * float(rng.uniform(0.8, 2.0))
            point = FlagPoint(x, y)

            # derivatives of F^2 at every order 1..4, one random multi-index each
            space = jet_space(2 * n, 4)
            xj = [space.variable(i + 1, x[i]) for i in range(n)]
            yj = [space.variable(n + i + 1, y[i]) for i in range(n)]
            f_jet = evaluate(model.f_ast, xj, yj, model.params)
            f2_jet = f_jet * f_jet

            def f2_plain(p):
                return float(model.f(p[:n], p[n:]) ** 2)

            joint = np.concatenate([x, y])
            for order in (1, 2, 3, 4):
                alpha = np.zeros(2 * n, dtype=int)
                lo = 0 if model.depends_on_x else n
                for _ in range(order):
                    alpha[rng.integers(lo, 2 * n)] += 1
                exact = jet_partials(space, f2_jet.coeffs, [tuple(alpha)])[0, 0]
                step = 1e-3 if order <= 2 else 6e-3
                estimate = finite_difference_oracle(f2_plain, joint, tuple(alpha), step)
                worst_f2 = max(worst_f2, abs(estimate - exact) / max(1.0, abs(exact)))

            # derivatives of G and S, one order per point (cycled); S carries
            # a higher evaluation noise floor, so its optimal step is larger
            order = trial % 4 + 1
            alpha = np.zeros(n, dtype=int)
            for _ in range(order):
                alpha[rng.integers(0, n)] += 1
            step = 1e-3 if order <= 2 else 5e-3
            step_s = 2e-3 if order <= 2 else 1.2e-2
            if model.depends_on_x:
                component = int(rng.integers(0, n))
                gamma = (0,) * n + tuple(int(a) for a in alpha)  # along y
                tj = TensorJets(model, x, y, 2 + order, with_x=True)
                spray = spray_jets(tj, order)[component]
                exact_g = jet_partials(tj.x_free(order), spray, [gamma])[0, 0]

                # the stencils evaluate G and S thousands of times, so each
                # reads the expansion of the lowest order that carries it
                def g_plain(yvec, component=component):
                    tj = TensorJets(model, x, yvec, 2, with_x=True)
                    return float(spray_jets(tj, 0)[component, 0])

                estimate_g = finite_difference_oracle(g_plain, y, tuple(alpha), step)
                worst_g = max(worst_g, abs(estimate_g - exact_g) / max(1.0, abs(exact_g)))

                tj_s = TensorJets(model, x, y, 3 + order, with_x=True)
                s_jet = s_main_jet(tj_s, order)
                exact_s = jet_partials(tj_s.x_free(order), s_jet, [gamma])[0, 0]

                def s_plain(yvec):
                    tj = TensorJets(model, x, yvec, 3, with_x=True)
                    return float(s_main_jet(tj, 0)[0]) - float(yvec @ dln_sigma(model, x))

                estimate_s = finite_difference_oracle(s_plain, y, tuple(alpha), step_s)
                worst_s = max(worst_s, abs(estimate_s - exact_s) / max(1.0, abs(exact_s)))

            # the two S-curvature routes
            s1 = coordinate_tensors(model, point).s
            s2 = s_curvature_alt(model, point)
            worst_routes = max(worst_routes, abs(s1 - s2) / max(1.0, abs(s1)))

    # the BH-volume variant of the route comparison
    worst_bh = 0.0
    funk_bh = build("funk_ball", 3, volume="bh")
    rng_bh = np.random.default_rng(60)
    for _ in range(5):
        p = random_flag(funk_bh, rng_bh)
        s1 = coordinate_tensors(funk_bh, p).s
        s2 = s_curvature_alt(funk_bh, p)
        worst_bh = max(worst_bh, abs(s1 - s2) / max(1.0, abs(s1)))

    ok = (
        worst_f2 <= 1e-4
        and worst_g <= 1e-4
        and worst_s <= 1e-4
        and worst_routes <= 1e-7
        and worst_bh <= 1e-5
    )
    _report(
        "criterion 6 (jet/FD cross-validation)",
        ok,
        f"F2={worst_f2:.2e}, G={worst_g:.2e}, S={worst_s:.2e}, "
        f"routes={worst_routes:.2e}, routes(BH)={worst_bh:.2e}",
    )


def test_criterion_7_determinism(tmp_path):
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    args = ["check", "--metric", "randers", "--dim", "3", "--seed", "42", "--samples", "50"]
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    _report(
        "criterion 7 (byte-identical reports)",
        identical,
        f"{out1.stat().st_size} bytes each, identical={identical}",
    )
