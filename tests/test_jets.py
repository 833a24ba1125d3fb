import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab.jets import (
    Jet,
    JetDomainError,
    extract_derivative,
    jet_compose,
    jet_einsum,
    jet_matrix_det,
    jet_matrix_inverse,
    jet_space,
    monomial_basis,
    neumann_inverse,
)

from fd_oracle import finite_difference_oracle


def test_seed_and_square():
    j = jet_space(1, 2).variable(1, 3.0)
    np.testing.assert_allclose((j * j).coeffs, [9.0, 6.0, 1.0])


def test_seed_layout():
    j = jet_space(2, 1).variable(2, 0.0)
    space = jet_space(2, 1)
    assert j.coeffs[space.index_of[(0, 0)]] == 0.0
    assert j.coeffs[space.index_of[(0, 1)]] == 1.0
    assert j.coeffs[space.index_of[(1, 0)]] == 0.0


def test_seed_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        jet_space(2, 2).variable(3, 1.0)


def test_sqrt_series():
    j = jet_space(1, 3).variable(1, 4.0).sqrt()
    np.testing.assert_allclose(j.coeffs, [2.0, 0.25, -1.0 / 64.0, 1.0 / 512.0], rtol=1e-15)


def test_mixed_product_derivative():
    a = jet_space(2, 2).variable(1, 2.0)
    b = jet_space(2, 2).variable(2, 5.0)
    assert extract_derivative(a * b, (1, 1)) == pytest.approx(1.0)


def test_ln_domain_error():
    j = jet_space(1, 2).constant(-1.0)
    with pytest.raises(JetDomainError) as info:
        j.ln()
    assert info.value.fn == "ln"


def test_division_by_zero_jet():
    j = jet_space(1, 2).variable(1, 0.0)
    with pytest.raises(JetDomainError):
        jet_space(1, 2).constant(1.0) / j


def test_extract_cubic():
    t = jet_space(1, 3).variable(1, 2.0)
    cubic = t * t * t
    assert extract_derivative(cubic, (3,)) == pytest.approx(6.0)


def test_extract_exp_mixed():
    x = jet_space(2, 2).variable(1, 0.0)
    y = jet_space(2, 2).variable(2, 0.0)
    assert extract_derivative((x + y).exp(), (1, 1)) == pytest.approx(1.0)


def test_extract_order_overflow():
    j = jet_space(1, 2).variable(1, 1.0)
    with pytest.raises(ValueError, match="exceeds jet order"):
        extract_derivative(j, (3,))


def test_space_mismatch_rejected():
    a = jet_space(1, 2).variable(1, 1.0)
    b = jet_space(1, 3).variable(1, 1.0)
    with pytest.raises(ValueError, match="matching variable count and order"):
        a + b


def test_integer_pow_allows_negative_base():
    j = jet_space(1, 2).variable(1, -2.0)
    np.testing.assert_allclose((j ** 2).coeffs, [4.0, -4.0, 1.0])
    with pytest.raises(JetDomainError):
        j ** 0.5


def test_derivative_shift():
    # f = t^4 at t = 2: f'' as a jet of order 2
    t = jet_space(1, 4).variable(1, 2.0)
    f = t ** 4
    second = f.derivative((2,))
    assert second.order == 2
    assert second.value == pytest.approx(12.0 * 4.0)  # 12 t^2 at t=2
    assert extract_derivative(second, (1,)) == pytest.approx(24.0 * 2.0)


def _basis_of(deltas, *limit):
    """The monomial basis of a list of delta jets."""
    return monomial_basis(deltas[0].space, [d.coeffs for d in deltas], *limit)


def test_compose_univariate_against_direct():
    # f(y) = y^3 expanded at y0=2, evaluated on y = y0 + (u^2) as a chart jet
    y = jet_space(1, 3).variable(1, 2.0)
    f = y * y * y
    u = jet_space(1, 3).variable(1, 0.5)
    delta = u * u - 0.25  # nilpotent: (u0+h)^2 - u0^2
    composed = jet_compose([f], _basis_of([delta]))[0]
    direct = (u * u + 2.0 - 0.25) ** 3
    np.testing.assert_allclose(composed, direct.coeffs, rtol=1e-13)


def test_truncated_prefix():
    j = jet_space(2, 3).variable(1, 1.5) * jet_space(2, 3).variable(2, -0.5)
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
    x = jet_space(2, 2).variable(1, 0.3)
    y = jet_space(2, 2).variable(2, -0.2)
    m = [[2.0 + x * x, x * y], [x * y, 1.0 + y * y]]
    inv = jet_matrix_inverse(m)
    for i in range(2):
        for j in range(2):
            acc = jet_space(2, 2).constant(0.0)
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

    for model in zoo_models:
        n = model.dim
        for trial in range(10):
            x = model.sample_x(rng)
            y = model.sample_y(rng)
            y = y / np.linalg.norm(y) * 2.0
            space = jet_space(2 * n, 4)
            xj = [space.variable(i + 1, x[i]) for i in range(n)]
            yj = [space.variable(n + i + 1, y[i]) for i in range(n)]
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


def _reference_derivative(jet, gamma, space=None):
    """d^gamma by the multi-index loop: out[beta] = coeffs[beta + gamma] times
    the product of (beta_k + 1) .. (beta_k + gamma_k), for every beta of the
    result space (by default the full space of the lower order)."""
    space = space or jet_space(jet.n_vars, jet.order - sum(gamma))
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
            k = space.index_of.get(tuple(p + q for p, q in zip(a, b)))
            if k is None:  # beyond the x-degree limit
                continue
            ii.append(i)
            jj.append(j)
            kk.append(k)
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
    jet = jet_space(2, 2).variable(1, 1.0)
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
    rng = np.random.default_rng(n_vars + 10 * n_chart + 100 * chart_order)
    chart = jet_space(n_chart, chart_order)
    us = [chart.variable(a + 1, rng.uniform(-0.5, 0.5)) for a in range(n_chart)]
    deltas = []
    for i in range(n_vars):
        if i < zero_slots:
            deltas.append(chart.constant(0.0))
            continue
        d = (rng.uniform(-1, 1) * us[i % n_chart] + us[(i + 1) % n_chart] * us[i % n_chart]).exp()
        deltas.append(d - d.value)
    space = jet_space(n_vars, order)
    basis = _basis_of(deltas)
    assert basis.space is chart
    trials = [Jet(space, rng.standard_normal(space.size)) for _ in range(3)]
    for jet, got in zip(trials, jet_compose(trials, basis)):
        want = _reference_compose(jet, deltas)
        scale = max(1.0, np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)


def test_compose_validates_deltas():
    jet = jet_space(2, 2).variable(1, 1.0)
    u = jet_space(1, 2).variable(1, 0.5)
    with pytest.raises(ValueError, match="one delta jet is required per variable"):
        jet_compose([jet], _basis_of([u - 0.5]))
    with pytest.raises(ValueError, match="zero order-0 coefficient"):
        _basis_of([u, u - 0.5])
    with pytest.raises(ValueError, match="share one jet space"):
        monomial_basis(u.space, np.zeros((2, jet_space(1, 3).size)))
    with pytest.raises(ValueError, match="share one jet space"):
        jet_compose([jet, jet_space(2, 3).variable(1, 1.0)], _basis_of([u - 0.5, u - 0.5]))


# -- x-linear spaces: the first x_vars variables enter to joint degree 1 -------


_X_LINEAR_SPACES = [(6, 6, 3), (8, 6, 4)]


def _kept(full, space):
    """Positions in the full space of the multi-indices of ``space``."""
    return np.array([full.index_of[alpha] for alpha in space.multi_indices])


def _random_jet(space, rng):
    return Jet(space, rng.standard_normal(space.size) * 10.0 ** rng.integers(-3, 4, space.size))


@pytest.mark.parametrize("n_vars,order,x_vars", _X_LINEAR_SPACES)
def test_x_linear_space_keeps_the_full_layout_and_product_terms_in_order(n_vars, order, x_vars):
    full, space = jet_space(n_vars, order), jet_space(n_vars, order, x_vars)
    kept = _kept(full, space)
    assert np.all(np.diff(kept) > 0)  # the graded-lex order is kept
    assert all(sum(alpha[:x_vars]) <= 1 for alpha in space.multi_indices)
    assert sum(sum(alpha[:x_vars]) <= 1 for alpha in full.multi_indices) == space.size
    # the product table is the full table filtered to the kept results, in order
    fi, fj, fk = full._mul()
    keep = np.isin(fk, kept)
    ii, jj, kk = space._mul()
    for got, want in zip((ii, jj, kk), (fi, fj, fk)):
        np.testing.assert_array_equal(kept[got], want[keep])


@pytest.mark.parametrize("n_vars,order,x_vars", _X_LINEAR_SPACES)
def test_x_linear_tables_equal_the_loops(n_vars, order, x_vars):
    rng = np.random.default_rng(13 * n_vars + order)
    space = jet_space(n_vars, order, x_vars)
    for got, want in zip(space._mul(), _reference_mul_table(space)):
        np.testing.assert_array_equal(got, want)
    jet = _random_jet(space, rng)
    gammas = [g for g in _gammas(n_vars, order) if sum(g[:x_vars]) <= 1]
    for k in rng.choice(len(gammas), 60, replace=False):
        out = jet.derivative(gammas[k])
        np.testing.assert_array_equal(out.coeffs, _reference_derivative(jet, gammas[k], out.space))


@pytest.mark.parametrize("n_vars,order,x_vars", _X_LINEAR_SPACES)
def test_x_linear_products_are_the_restricted_full_products_bit_for_bit(n_vars, order, x_vars):
    rng = np.random.default_rng(7 * n_vars + order)
    full, space = jet_space(n_vars, order), jet_space(n_vars, order, x_vars)
    kept = _kept(full, space)
    for _ in range(3):
        a, b = _random_jet(full, rng), _random_jet(full, rng)
        ra, rb = Jet(space, a.coeffs[kept]), Jet(space, b.coeffs[kept])
        assert (ra * rb).coeffs.tobytes() == (a * b).coeffs[kept].tobytes()
        c = a + (2.0 + abs(a.value))  # positive order-0 part for the unary functions
        rc = Jet(space, c.coeffs[kept])
        for op in (Jet.reciprocal, Jet.sqrt, Jet.ln, lambda jet: jet ** 3):
            assert op(rc).coeffs.tobytes() == op(c).coeffs[kept].tobytes()


@pytest.mark.parametrize("n_vars,order,x_vars", _X_LINEAR_SPACES)
def test_x_linear_derivatives_are_the_restricted_full_derivatives(n_vars, order, x_vars):
    rng = np.random.default_rng(11 * n_vars + order)
    full, space = jet_space(n_vars, order), jet_space(n_vars, order, x_vars)
    jet = _random_jet(full, rng)
    restricted = Jet(space, jet.coeffs[_kept(full, space)])
    gammas = [g for g in _gammas(n_vars, order) if sum(g[:x_vars]) <= 1]
    for k in rng.choice(len(gammas), 60, replace=False):
        gamma = gammas[k]
        out, want = restricted.derivative(gamma), jet.derivative(gamma)
        along_x = sum(gamma[:x_vars])
        assert out.space is jet_space(n_vars, order - sum(gamma), x_vars, 1 - along_x)
        assert out.coeffs.tobytes() == want.coeffs[_kept(want.space, out.space)].tobytes()


def test_an_x_derivative_has_no_x_linear_coefficient():
    space = jet_space(8, 6, 4)
    jet = Jet(space, np.random.default_rng(3).standard_normal(space.size))
    d_x = jet.derivative((0, 1, 0, 0, 1, 0, 0, 0))
    assert d_x.space is jet_space(8, 4, 4, 0)
    assert all(not any(alpha[:4]) for alpha in d_x.space.multi_indices)
    assert d_x.space.size == jet_space(4, 4).size
    with pytest.raises(ValueError, match="x-degree 1 of gamma exceeds the limit 0"):
        d_x.derivative((1, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="x-degree 2 of gamma exceeds the limit 1"):
        jet.derivative((1, 1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="exceeds the x-degree limit"):
        extract_derivative(d_x, (1, 0, 0, 0, 0, 0, 0, 0))


def test_mixing_an_x_free_jet_with_an_x_linear_jet_raises():
    space = jet_space(6, 4, 3)
    jet = Jet(space, np.random.default_rng(5).standard_normal(space.size))
    d_x = jet.derivative((1, 0, 0, 0, 0, 0))  # x-free, order 3
    x_linear = jet.truncated(3)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="matching variable count and order"):
            op(d_x, x_linear)
        with pytest.raises(ValueError, match="matching variable count and order"):
            op(x_linear, d_x)
    # an explicit truncation makes them mix
    x_free = x_linear.truncated(3, x_degree=0)
    assert x_free.space is d_x.space
    assert x_free.coeffs.tobytes() == x_linear.coeffs[_kept(x_linear.space, d_x.space)].tobytes()
    assert (d_x * x_free).space is d_x.space
    with pytest.raises(ValueError, match="can only restrict"):
        x_free.truncated(3, x_degree=1)


def test_jet_space_is_one_object_per_signature():
    assert jet_space(6, 6) is jet_space(6, 6, 0) is jet_space(6, 6, 0, 1)
    assert jet_space(6, 6) is jet_space(6, 6, x_vars=0, x_degree=0)
    assert jet_space(8, 6, 4) is jet_space(8, 6, 4, 1) is jet_space(8, 6, x_vars=4, x_degree=1)
    assert jet_space(8, 6, 4, 0) is not jet_space(8, 6, 4)
    assert jet_space(8, 6, 4) is not jet_space(8, 6)
    # the derivative tables hand back the cached spaces, too
    assert jet_space(6, 3).variable(1, 0.5).derivative((0, 1, 0, 0, 0, 0)).space is jet_space(6, 2)


def test_order_zero_spaces_ignore_the_x_degree_limit():
    # at order 0 every limit keeps only the constant: one space, one table
    assert jet_space(8, 0, 4, 0) is jet_space(8, 0, 4, 1) is jet_space(8, 0, 4)
    assert jet_space(6, 0, 3, 0) is jet_space(6, 0, 3, 1)
    assert jet_space(6, 1, 3, 0) is not jet_space(6, 1, 3, 1)
    assert jet_space(8, 1, 4, 0).size < jet_space(8, 1, 4, 1).size


def test_x_free_truncation_of_a_y_derivative_drops_the_x_linear_coefficients():
    space = jet_space(6, 4, 3)
    jet = Jet(space, np.random.default_rng(4).standard_normal(space.size))
    d_y = jet.derivative((0, 0, 0, 0, 1, 0))
    assert d_y.space is jet_space(6, 3, 3, 1)
    for order in (2, 0):
        x_free = d_y.truncated(order, x_degree=0)
        assert x_free.space is jet_space(6, order, 3, 0)
        assert all(not any(alpha[:3]) for alpha in x_free.space.multi_indices)
        assert x_free.space.size == jet_space(3, order).size
        kept = _kept(d_y.space, x_free.space)
        assert x_free.coeffs.tobytes() == d_y.coeffs[kept].tobytes()


def test_compose_needs_a_basis_of_the_same_x_degree_limit():
    us = [jet_space(2, 2).variable(a + 1, 0.3 * a) for a in range(2)]
    zero = jet_space(2, 2).constant(0.0)
    deltas = [zero, zero, us[0] - us[0].value, (us[0] * us[1]).exp() - 1.0]
    jet = Jet(jet_space(4, 3, 2), np.random.default_rng(9).standard_normal(jet_space(4, 3, 2).size))
    x_free = jet.truncated(3, x_degree=0)
    basis = _basis_of(deltas, 2, 0)
    with pytest.raises(ValueError, match="another x-degree limit"):
        jet_compose([jet], basis)
    # x stays put (zero deltas), so the x-linear part contributes nothing
    full = jet_compose([jet], _basis_of(deltas, 2, 1))
    np.testing.assert_allclose(jet_compose([x_free], basis), full, rtol=0, atol=1e-13)


# -- chart fields: arrays of jet coefficients, (*slots, size) over one space ----

_chart_spaces = st.tuples(st.integers(1, 3), st.integers(0, 4))
_slot_shapes = st.lists(st.integers(1, 3), max_size=2).map(tuple)
_seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(_chart_spaces, _slot_shapes, _seeds)
def test_jet_einsum_products_are_entrywise_multiply_bit_for_bit(key, shape, seed):
    space = jet_space(*key)
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2,) + shape + (space.size,))
    got = jet_einsum(space, "...,...->...", a, b)
    for index in np.ndindex(shape):
        want = Jet(space, a[index]) * Jet(space, b[index])
        assert got[index].tobytes() == want.coeffs.tobytes()


def _sum_of_products(space, pairs):
    """Sum of jet products, one ``Jet *`` per pair of coefficient rows."""
    total = space.constant(0.0)
    for x, y in pairs:
        total = total + Jet(space, x) * Jet(space, y)
    return total.coeffs


@settings(max_examples=60, deadline=None)
@given(_chart_spaces, st.tuples(*[st.integers(1, 3)] * 3), _seeds)
def test_jet_einsum_contractions_are_sums_of_jet_products(key, shape, seed):
    """A matrix product of jets and the full contraction of two matrices, each
    coefficient within 1e-15 of the sum of the magnitudes of its terms."""
    space = jet_space(*key)
    rng = np.random.default_rng(seed)
    p, q, r = shape
    a, c = rng.standard_normal((2, p, q, space.size))
    b = rng.standard_normal((q, r, space.size))
    got = jet_einsum(space, "ab,bc->ac", a, b)
    bound = 1e-15 * jet_einsum(space, "ab,bc->ac", abs(a), abs(b))
    for i, k in np.ndindex(p, r):
        want = _sum_of_products(space, [(a[i, j], b[j, k]) for j in range(q)])
        assert np.all(np.abs(got[i, k] - want) <= bound[i, k])
    got = jet_einsum(space, "ab,ab->", a, c)
    want = _sum_of_products(space, [(a[ij], c[ij]) for ij in np.ndindex(p, q)])
    assert np.all(np.abs(got - want) <= 1e-15 * jet_einsum(space, "ab,ab->", abs(a), abs(c)))


@settings(max_examples=60, deadline=None)
@given(_chart_spaces, st.integers(1, 3), _seeds)
def test_neumann_inverse_times_the_matrix_is_the_identity(key, m, seed):
    """Both products with the inverse are the identity to roundoff: every
    coefficient within 1e-13 of the sum of the magnitudes of its terms."""
    space = jet_space(*key)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m, space.size))
    a[..., 0] = 2.0 * np.eye(m) + 0.5 * rng.standard_normal((m, m))
    inverse = neumann_inverse(space, a)
    identity = np.zeros_like(a)
    identity[..., 0] = np.eye(m)
    for x, y in ((a, inverse), (inverse, a)):
        product = jet_einsum(space, "ab,bc->ac", x, y)
        bound = 1e-13 * jet_einsum(space, "ab,bc->ac", abs(x), abs(y))
        assert np.all(np.abs(product - identity) <= bound)
