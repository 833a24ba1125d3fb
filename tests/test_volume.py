import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import finslerlab
from finslerlab import InputFault, volume, zoo
from finslerlab.core import UnsupportedDimensionError

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
                volume.sphere_blocks(n, level)
            continue
        count, blocks = volume.sphere_blocks(n, level)
        points, weights = (np.concatenate(parts) for parts in zip(*blocks))
        assert points.shape == (nodes, n) and count == nodes
        assert abs(weights.sum() - area) <= 1e-13 * area
        for i in range(n):
            assert abs(weights @ points[:, i] ** 2 - second) <= 1e-13 * second, (level, i)
            assert abs(weights @ points[:, i] ** 4 - fourth) <= 1e-13 * fourth, (level, i)


def test_a_sphere_rule_above_the_cap_is_refused_before_it_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(InputFault) as info:  # at the call, before any block is drawn
            volume.sphere_blocks(8, -1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == (
        "the BH sphere rule at n = 8, level -1 has 95,551,488 nodes, above the cap of 8,388,608"
    )
    assert peak < 2 ** 20


def _whole_rule(n, level, nested=False):
    """The sphere rule as one node array and one weight array, built as the
    product rule was before F was evaluated one block at a time."""
    if n == 2:
        count = int((volume.SUB_CIRCLE_POINTS if nested else volume.CIRCLE_POINTS) * 2.0 ** level)
        angles = 2.0 * math.pi * np.arange(count) / count
        return np.column_stack([np.cos(angles), np.sin(angles)]), np.full(count, 2.0 * math.pi / count)
    sub_points, sub_weights = _whole_rule(n - 1, level, nested=True)
    t, wt = volume._gauss_jacobi(int(volume.POLAR_POINTS * 2.0 ** level), (n - 3) / 2.0)
    points = np.empty((len(t) * len(sub_points), n))
    weights = np.empty(len(t) * len(sub_points))
    for i, (ti, si, wi) in enumerate(zip(t, np.sqrt(1.0 - t ** 2), wt)):
        block = slice(i * len(sub_points), (i + 1) * len(sub_points))
        points[block, : n - 1] = si * sub_points
        points[block, n - 1] = ti
        weights[block] = wi * sub_weights
    return points, weights


def _f_on_sphere(model, x, points):
    return np.asarray(volume.evaluate(model.f_ast, np.asarray(x).tolist(), list(points.T), model.params))


def _bh_models(n):
    """Every zoo family at dimension n with the BH volume, and a base point in
    its domain; an x-dependent F above the dimension cap is left out."""
    for family in zoo.zoo_ids():
        try:
            yield zoo.build(family, n, volume="bh"), np.linspace(-0.2, 0.3, n)
        except UnsupportedDimensionError:
            pass


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_streamed_rule_gives_the_whole_rule_sums_bit_for_bit(n):
    """unit_set_volume at every level under the cap, sigma_BH and the
    gradient of ln sigma_BH equal the sums over the whole rule, to the bit."""
    models = list(_bh_models(n))
    for level in (-3,) + volume.BH_LEVELS:
        try:
            volume.sphere_blocks(n, level)
        except InputFault:
            continue
        points, weights = _whole_rule(n, level)
        for model, x in models:
            values = _f_on_sphere(model, x, points)
            expected = np.sum(weights * values ** (-n)) / n
            assert volume.unit_set_volume(model, x, level) == expected, (model.metric_id, level)
        del points, weights
    for model, x in models:
        try:
            sigma, gradient = volume.bh_sigma_and_log_gradient(model, x)
        except InputFault:  # the ladder climbs to a rule above the cap
            continue
        level = volume._accepted(model, x)[0]
        points, weights = _whole_rule(n, level)
        values = _f_on_sphere(model, x, points)
        assert sigma == volume.unit_ball_volume(n) / (np.sum(weights * values ** (-n)) / n)
        if not model.depends_on_x:
            assert np.array_equal(gradient, np.zeros(n))
            continue
        h = volume._COMPLEX_STEP
        sums = []
        for row in x + 1j * h * np.eye(n):
            f = _f_on_sphere(model, row, points)
            sums.append(np.sum(weights * f.real ** (-n - 1) * f.imag))
        expected = sigma / (volume.unit_ball_volume(n) * h) * np.array(sums)
        assert np.array_equal(gradient, expected), model.metric_id


def test_the_streamed_volume_never_holds_the_whole_rule():
    """At n = 6, level -1, the whole rule's node array alone is 663,552 x 6
    doubles (31.9 MB); the streamed volume holds only blocks of 55,296 nodes
    and the 5.3 MB vector of weighted terms."""
    model = zoo.build("euclidean", 6, volume="bh")
    volume._inner_rule.cache_clear()  # its build counts too
    tracemalloc.start()
    try:
        assert volume.unit_set_volume(model, np.zeros(6), level=-1) > 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


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
    evaluate = volume.evaluate

    def one_nan(*args):
        values = np.array(evaluate(*args))
        values[0] = math.nan
        return values

    monkeypatch.setattr(volume, "evaluate", one_nan)
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
