import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import finslerlab
from finslerlab import InputFault, volume

A_VALUES = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)  # (n - 3) / 2 for n = 3..8
M_VALUES = (3, 6, 12, 24, 48)  # 48 is the polar count at level 1


def _mass(a):
    """Integral of (1 - t^2)^a over [-1, 1]."""
    return math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)


@pytest.mark.parametrize("m", M_VALUES)
@pytest.mark.parametrize("a", A_VALUES)
def test_gauss_jacobi_nodes_are_symmetric_in_the_open_interval_and_weights_sum_to_the_mass(a, m):
    t, w = volume._gauss_jacobi(m, a)
    assert t.shape == w.shape == (m,)
    assert np.all(np.diff(t) > 0.0) and -1.0 < t[0] and t[-1] < 1.0
    assert np.array_equal(t, -t[::-1])
    assert np.all(w > 0.0)
    assert abs(w.sum() - _mass(a)) <= 1e-14 * _mass(a)


@pytest.mark.parametrize("m", M_VALUES)
@pytest.mark.parametrize("a", A_VALUES)
def test_gauss_jacobi_integrates_the_even_moments_of_degree_up_to_2m_minus_2(a, m):
    t, w = volume._gauss_jacobi(m, a)
    for k in range(m):
        exact = math.gamma(k + 0.5) * math.gamma(a + 1.0) / math.gamma(k + a + 1.5)
        assert abs(np.sum(w * t ** (2 * k)) - exact) <= 1e-12 * exact, k


@pytest.mark.parametrize("m", M_VALUES)
def test_gauss_jacobi_at_a_half_is_the_chebyshev_u_rule(m):
    """The weight sqrt(1 - t^2) has nodes cos(j pi / (m + 1)) and weights
    pi / (m + 1) sin^2(j pi / (m + 1)) in closed form."""
    t, w = volume._gauss_jacobi(m, 0.5)
    angles = np.arange(m, 0, -1) * math.pi / (m + 1)
    np.testing.assert_allclose(t, np.cos(angles), rtol=0, atol=1e-15)
    np.testing.assert_allclose(w, math.pi / (m + 1) * np.sin(angles) ** 2, rtol=1e-12, atol=0)


@pytest.mark.parametrize("m", M_VALUES)
@pytest.mark.parametrize("a", A_VALUES)
def test_gauss_jacobi_matches_scipy(a, m):
    special = pytest.importorskip("scipy.special")
    t, w = volume._gauss_jacobi(m, a)
    t_ref, w_ref = special.roots_jacobi(m, a, a)
    np.testing.assert_allclose(t, t_ref, rtol=0, atol=1e-15)
    np.testing.assert_allclose(w, w_ref, rtol=2e-12, atol=0)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sphere_rules_under_the_cap_integrate_the_low_moments(n):
    area = n * volume.unit_ball_volume(n)
    second, fourth = area / n, 3.0 * area / (n * (n + 2))
    for level in volume.BH_LEVELS:
        nodes = int(volume.SUB_CIRCLE_POINTS * 2.0 ** level) * int(volume.POLAR_POINTS * 2.0 ** level) ** (n - 2)
        if nodes > volume.MAX_RULE_NODES:
            with pytest.raises(InputFault, match=f"{nodes:,} nodes"):
                volume.sphere_quadrature(n, level)
            continue
        points, weights = volume.sphere_quadrature(n, level)
        assert points.shape == (nodes, n)
        assert abs(weights.sum() - area) <= 1e-13 * area
        for i in range(n):
            assert abs(weights @ points[:, i] ** 2 - second) <= 1e-13 * second, (level, i)
            assert abs(weights @ points[:, i] ** 4 - fourth) <= 1e-13 * fourth, (level, i)


def test_a_sphere_rule_above_the_cap_is_refused_before_it_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(InputFault) as info:
            volume.sphere_quadrature(8, -1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == (
        "the BH sphere rule at n = 8, level -1 has 95,551,488 nodes, above the cap of 8,388,608"
    )
    assert peak < 2 ** 20


def test_a_nan_coefficient_never_passes_the_bh_gate(funk3, monkeypatch):
    """NaN compares False with every bound, so the gate must require the
    error to be within it, not reject an error above it."""
    unit_set_volume = volume.unit_set_volume

    def nan_at_level_1(model, x, level=0):
        return math.nan if level == 1 else unit_set_volume(model, x, level)

    monkeypatch.setattr(volume, "unit_set_volume", nan_at_level_1)
    monkeypatch.setattr(volume, "BH_AGREE", -1.0)  # climb to level 1
    with pytest.raises(volume.QuadratureError, match="did not converge"):
        volume.bh_volume_coefficient(funk3, np.array([0.2, 0.1, 0.0]))


def test_a_nan_value_of_f_on_the_sphere_is_refused(funk3, monkeypatch):
    norm_on_sphere = volume._norm_on_sphere

    def one_nan(model, x, points):
        values = norm_on_sphere(model, x, points)
        values[0] = math.nan
        return values

    monkeypatch.setattr(volume, "_norm_on_sphere", one_nan)
    with pytest.raises(volume.QuadratureError, match="not positive"):
        volume.unit_set_volume(funk3, np.array([0.2, 0.1, 0.0]))


def test_the_bh_path_imports_no_scipy():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from finslerlab.volume import bh_sigma_and_log_gradient\n"
        "from finslerlab.zoo import build\n"
        "for n in (3, 4):\n"
        "    bh_sigma_and_log_gradient(build('funk_ball', n, volume='bh'), np.full(n, 0.1))\n"
        "print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(finslerlab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
