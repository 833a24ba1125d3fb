import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab.jets import (
    Jet,
    JetDomainError,
    constant,
    extract_derivative,
    finite_difference_oracle,
    jet_matrix_det,
    jet_matrix_inverse,
    jet_space,
    seed_variable,
)


def test_seed_and_square():
    j = seed_variable(1, 3.0, 1, 2)
    np.testing.assert_allclose((j * j).coeffs, [9.0, 6.0, 1.0])


def test_seed_layout():
    j = seed_variable(2, 0.0, 2, 1)
    space = jet_space(2, 1)
    assert j.coeffs[space.index_of[(0, 0)]] == 0.0
    assert j.coeffs[space.index_of[(0, 1)]] == 1.0
    assert j.coeffs[space.index_of[(1, 0)]] == 0.0


def test_seed_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        seed_variable(3, 1.0, 2, 2)


def test_sqrt_series():
    j = seed_variable(1, 4.0, 1, 3).sqrt()
    np.testing.assert_allclose(j.coeffs, [2.0, 0.25, -1.0 / 64.0, 1.0 / 512.0], rtol=1e-15)


def test_mixed_product_derivative():
    a = seed_variable(1, 2.0, 2, 2)
    b = seed_variable(2, 5.0, 2, 2)
    assert extract_derivative(a * b, (1, 1)) == pytest.approx(1.0)


def test_ln_domain_error():
    j = constant(-1.0, 1, 2)
    with pytest.raises(JetDomainError) as info:
        j.ln()
    assert info.value.fn == "ln"


def test_division_by_zero_jet():
    j = seed_variable(1, 0.0, 1, 2)
    with pytest.raises(JetDomainError):
        constant(1.0, 1, 2) / j


def test_extract_cubic():
    t = seed_variable(1, 2.0, 1, 3)
    cubic = t * t * t
    assert extract_derivative(cubic, (3,)) == pytest.approx(6.0)


def test_extract_exp_mixed():
    x = seed_variable(1, 0.0, 2, 2)
    y = seed_variable(2, 0.0, 2, 2)
    assert extract_derivative((x + y).exp(), (1, 1)) == pytest.approx(1.0)


def test_extract_order_overflow():
    j = seed_variable(1, 1.0, 1, 2)
    with pytest.raises(ValueError, match="exceeds jet order"):
        extract_derivative(j, (3,))


def test_space_mismatch_rejected():
    a = seed_variable(1, 1.0, 1, 2)
    b = seed_variable(1, 1.0, 1, 3)
    with pytest.raises(ValueError, match="matching variable count and order"):
        a + b


def test_integer_pow_allows_negative_base():
    j = seed_variable(1, -2.0, 1, 2)
    np.testing.assert_allclose((j ** 2).coeffs, [4.0, -4.0, 1.0])
    with pytest.raises(JetDomainError):
        j ** 0.5


def test_derivative_shift():
    # f = t^4 at t = 2: f'' as a jet of order 2
    t = seed_variable(1, 2.0, 1, 4)
    f = t ** 4
    second = f.derivative((2,))
    assert second.order == 2
    assert second.value == pytest.approx(12.0 * 4.0)  # 12 t^2 at t=2
    assert extract_derivative(second, (1,)) == pytest.approx(24.0 * 2.0)


def test_compose_univariate_against_direct():
    # f(y) = y^3 expanded at y0=2, evaluated on y = y0 + (u^2) as a chart jet
    y = seed_variable(1, 2.0, 1, 3)
    f = y * y * y
    u = seed_variable(1, 0.5, 1, 3)
    delta = u * u - 0.25  # nilpotent: (u0+h)^2 - u0^2
    composed = f.compose([delta])
    direct = (u * u + 2.0 - 0.25) ** 3
    np.testing.assert_allclose(composed.coeffs, direct.coeffs, rtol=1e-13)


def test_truncated_prefix():
    j = seed_variable(1, 1.5, 2, 3) * seed_variable(2, -0.5, 2, 3)
    t = j.truncated(2)
    np.testing.assert_allclose(t.coeffs, j.coeffs[: jet_space(2, 2).size])


_coeff_lists = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=10, max_size=10
)


def _jet_from(coeffs):
    return Jet(jet_space(2, 3), np.asarray(coeffs))


@settings(max_examples=80, deadline=None)
@given(_coeff_lists, _coeff_lists, _coeff_lists)
def test_ring_distributivity(a, b, c):
    ja, jb, jc = _jet_from(a), _jet_from(b), _jet_from(c)
    lhs = (ja + jb) * jc
    rhs = ja * jc + jb * jc
    scale = max(1.0, np.max(np.abs(lhs.coeffs)))
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12 * scale)


@settings(max_examples=80, deadline=None)
@given(_coeff_lists)
def test_exp_ln_and_sqrt_square_round_trip(coeffs):
    j = _jet_from(coeffs)
    j = j + (2.0 + abs(j.value))  # positive order-0 part
    scale = max(1.0, np.max(np.abs(j.coeffs)))
    np.testing.assert_allclose(j.ln().exp().coeffs, j.coeffs, atol=1e-11 * scale)
    s = j.sqrt()
    np.testing.assert_allclose((s * s).coeffs, j.coeffs, atol=1e-11 * scale)


def test_fd_oracle_quartic_second_derivative():
    f = lambda p: p[0] ** 4
    est = finite_difference_oracle(f, [1.0], (2,), 1e-3)
    assert est == pytest.approx(12.0, abs=1e-6)


def test_fd_oracle_mixed():
    f = lambda p: p[0] ** 2 * p[1]
    est = finite_difference_oracle(f, [1.0, 1.0], (1, 1), 1e-3)
    assert est == pytest.approx(2.0, abs=1e-6)


def test_fd_oracle_order_cap():
    with pytest.raises(ValueError, match="<= 4"):
        finite_difference_oracle(lambda p: p[0], [1.0], (5,), 1e-3)


def test_jet_matrix_inverse_and_det():
    x = seed_variable(1, 0.3, 2, 2)
    y = seed_variable(2, -0.2, 2, 2)
    m = [[2.0 + x * x, x * y], [x * y, 1.0 + y * y]]
    inv = jet_matrix_inverse(m)
    for i in range(2):
        for j in range(2):
            acc = constant(0.0, 2, 2)
            for k in range(2):
                acc = acc + m[i][k] * inv[k][j]
            expect = 1.0 if i == j else 0.0
            np.testing.assert_allclose(acc.coeffs[0], expect, atol=1e-13)
            np.testing.assert_allclose(acc.coeffs[1:], 0.0, atol=1e-13)
    det = jet_matrix_det(m)
    direct = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    np.testing.assert_allclose(det.coeffs, direct.coeffs, rtol=1e-13, atol=1e-15)


def test_jets_match_fd_oracle_on_zoo_f2(zoo_models, rng):
    """Jet derivatives of F^2 against the finite-difference oracle, |alpha| <= 4."""
    from finslerlab.expr import evaluate
    from finslerlab.jets import seed_variable as seed

    for model in zoo_models:
        n = model.dim
        for trial in range(10):
            x = model.sample_x(rng)
            y = model.sample_y(rng)
            y = y / np.linalg.norm(y) * 2.0
            xj = [seed(i + 1, x[i], 2 * n, 4) for i in range(n)]
            yj = [seed(n + i + 1, y[i], 2 * n, 4) for i in range(n)]
            f = evaluate(model.f_ast, xj, yj, model.params)
            f2 = f * f

            def f2_plain(p):
                return float(model.f(p[:n], p[n:]) ** 2)

            point = np.concatenate([x, y])
            for order in (1, 2, 3, 4):
                alpha = np.zeros(2 * n, dtype=int)
                for _ in range(order):
                    alpha[rng.integers(n, 2 * n)] += 1  # y-block derivatives
                exact = extract_derivative(f2, tuple(alpha))
                step = 1e-3 if order <= 2 else 5e-3
                est = finite_difference_oracle(f2_plain, point, tuple(alpha), step)
                assert abs(est - exact) <= 1e-4 * max(1.0, abs(exact))


# -- gather tables against the per-call loops they replaced ---------------------


def _gammas(n_vars, order):
    from itertools import combinations_with_replacement

    for total in range(order + 1):
        for slots in combinations_with_replacement(range(n_vars), total):
            yield tuple(slots.count(k) for k in range(n_vars))


def _reference_derivative(jet, gamma):
    """d^gamma by the multi-index loop: out[beta] = coeffs[beta + gamma] times
    the product of (beta_k + 1) .. (beta_k + gamma_k)."""
    space = jet_space(jet.n_vars, jet.order - sum(gamma))
    out = np.empty(space.size)
    for t, beta in enumerate(space.multi_indices):
        alpha = tuple(b + g for b, g in zip(beta, gamma))
        factor = 1.0
        for b, g in zip(beta, gamma):
            for step in range(1, g + 1):
                factor *= b + step
        out[t] = jet.coeffs[jet.space.index_of[alpha]] * factor
    return out


def _reference_mul_table(space):
    ii, jj, kk = [], [], []
    for i, a in enumerate(space.multi_indices):
        for j in range(space.grade_offsets[space.order - sum(a) + 1]):
            b = space.multi_indices[j]
            ii.append(i)
            jj.append(j)
            kk.append(space.index_of[tuple(p + q for p, q in zip(a, b))])
    return ii, jj, kk


_TABLE_SPACES = [(1, 8), (2, 4), (3, 3), (4, 6), (6, 6), (8, 6)]


@pytest.mark.parametrize("n_vars,order", _TABLE_SPACES)
def test_derivative_table_is_bit_identical_to_the_loop(n_vars, order):
    rng = np.random.default_rng(n_vars * 10 + order)
    space = jet_space(n_vars, order)
    jet = Jet(space, rng.standard_normal(space.size) * 10.0 ** rng.integers(-3, 4, space.size))
    gammas = list(_gammas(n_vars, order))
    if n_vars >= 6:  # a seeded sample of the 924 or 3003 multi-indices
        gammas = [gammas[k] for k in rng.choice(len(gammas), 60, replace=False)]
    for gamma in gammas:
        out = jet.derivative(gamma)
        assert out.space is jet_space(n_vars, order - sum(gamma))
        np.testing.assert_array_equal(out.coeffs, _reference_derivative(jet, gamma))


def test_derivative_rejects_bad_gamma():
    jet = seed_variable(1, 1.0, 2, 2)
    with pytest.raises(ValueError, match="one entry per variable"):
        jet.derivative((1,))
    with pytest.raises(ValueError, match="exceeds jet order"):
        jet.derivative((2, 1))


@pytest.mark.parametrize("n_vars,order", _TABLE_SPACES)
def test_product_table_equals_the_loop_in_order(n_vars, order):
    ii, jj, kk = jet_space(n_vars, order)._mul()
    ref = _reference_mul_table(jet_space(n_vars, order))
    for got, want in zip((ii, jj, kk), ref):
        np.testing.assert_array_equal(got, want)


def _reference_compose(jet, deltas):
    """Composition by one memoised product chain per monomial."""
    uspace = deltas[0].space
    is_zero = [not np.any(d.coeffs) for d in deltas]
    out = np.zeros(uspace.size)
    out[0] = jet.coeffs[0]
    memo = {}

    def monomial(alpha):
        if alpha not in memo:
            i = next(k for k, a in enumerate(alpha) if a)
            sub = tuple(a - 1 if k == i else a for k, a in enumerate(alpha))
            if is_zero[i]:
                memo[alpha] = None
            elif not any(sub):
                memo[alpha] = deltas[i].coeffs
            else:
                base = monomial(sub)
                memo[alpha] = None if base is None else uspace.multiply(base, deltas[i].coeffs)
        return memo[alpha]

    limit = jet.space.grade_offsets[min(uspace.order, jet.order) + 1]
    for idx in range(1, limit):
        mono = monomial(jet.space.multi_indices[idx])
        if mono is not None:
            out += jet.coeffs[idx] * mono
    return out


@pytest.mark.parametrize(
    "n_vars,n_chart,chart_order,order,zero_slots",
    [
        (1, 1, 3, 3, 0),  # univariate
        (1, 1, 4, 2, 0),  # expansion order below the chart order
        (3, 2, 2, 6, 0),
        (6, 2, 3, 6, 3),  # the x slots of a fibre composition are zero
        (8, 3, 2, 6, 4),
        (2, 2, 2, 4, 2),  # every delta zero
    ],
)
def test_compose_basis_matches_the_monomial_route(n_vars, n_chart, chart_order, order, zero_slots):
    from finslerlab.jets import monomial_basis

    rng = np.random.default_rng(n_vars + 10 * n_chart + 100 * chart_order)
    us = [seed_variable(a + 1, rng.uniform(-0.5, 0.5), n_chart, chart_order) for a in range(n_chart)]
    deltas = []
    for i in range(n_vars):
        if i < zero_slots:
            deltas.append(constant(0.0, n_chart, chart_order))
            continue
        d = (rng.uniform(-1, 1) * us[i % n_chart] + us[(i + 1) % n_chart] * us[i % n_chart]).exp()
        deltas.append(d - d.value)
    space = jet_space(n_vars, order)
    basis = monomial_basis(deltas)
    for trial in range(3):
        jet = Jet(space, rng.standard_normal(space.size))
        want = _reference_compose(jet, deltas)
        scale = max(1.0, np.max(np.abs(want)))
        for got in (jet.compose(deltas), jet.compose(basis)):
            assert got.space is deltas[0].space
            np.testing.assert_allclose(got.coeffs, want, rtol=0, atol=1e-13 * scale)


def test_compose_validates_deltas():
    jet = seed_variable(1, 1.0, 2, 2)
    u = seed_variable(1, 0.5, 1, 2)
    with pytest.raises(ValueError, match="one delta jet is required per variable"):
        jet.compose([u - 0.5])
    with pytest.raises(ValueError, match="zero order-0 coefficient"):
        jet.compose([u, u - 0.5])
    with pytest.raises(ValueError, match="share one jet space"):
        jet.compose([u - 0.5, seed_variable(1, 0.5, 1, 3) - 0.5])
