import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslerlab.jets import (
    Jet,
    JetDomainError,
    jet_compose,
    jet_einsum,
    jet_partials,
    jet_space,
    monomial_basis,
    neumann_inverse,
)

from chart_oracle import jet_matrix_inverse
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
    ab = a * b
    assert jet_partials(ab.space, ab.coeffs, [(1, 1)])[0, 0] == pytest.approx(1.0)


def test_ln_domain_error():
    j = jet_space(1, 2).constant(-1.0)
    with pytest.raises(JetDomainError) as info:
        j.ln()
    assert info.value.fn == "ln"


def test_division_by_zero_jet():
    j = jet_space(1, 2).variable(1, 0.0)
    with pytest.raises(JetDomainError):
        jet_space(1, 2).constant(1.0) / j


def test_a_float_product_that_overflows_is_a_domain_error_without_a_warning():
    """1e300 times a jet whose value is 1e10 overflows: the overflow rule of
    exp and pow, not an inf coefficient."""
    j = jet_space(1, 2).variable(1, 1e10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(JetDomainError) as info:
            1e300 * j
    assert (info.value.fn, info.value.value, info.value.overflows) == ("mul", 1e10, True)
    assert (j * 1e298).value == 1e308


def test_extract_cubic():
    t = jet_space(1, 3).variable(1, 2.0)
    cubic = t * t * t
    assert jet_partials(cubic.space, cubic.coeffs, [(3,)])[0, 0] == pytest.approx(6.0)


def test_extract_exp_mixed():
    x = jet_space(2, 2).variable(1, 0.0)
    y = jet_space(2, 2).variable(2, 0.0)
    e = (x + y).exp()
    assert jet_partials(e.space, e.coeffs, [(1, 1)])[0, 0] == pytest.approx(1.0)


def test_extract_order_overflow():
    j = jet_space(1, 2).variable(1, 1.0)
    with pytest.raises(ValueError, match="exceeds jet order"):
        jet_partials(j.space, j.coeffs, [(3,)])


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
    assert f.space.derivative_table((2,))[0] is jet_space(1, 2)
    second = jet_partials(f.space, f.coeffs, [(2,)])[0]
    assert second[0] == pytest.approx(12.0 * 4.0)  # 12 t^2 at t=2
    assert jet_partials(jet_space(1, 2), second, [(1,)])[0, 0] == pytest.approx(24.0 * 2.0)


def _basis_of(deltas, *limit):
    """The monomial basis of a list of delta jets, a batch of one point."""
    return monomial_basis(deltas[0].space, [[d.coeffs for d in deltas]], *limit)


def test_compose_univariate_against_direct():
    # f(y) = y^3 expanded at y0=2, evaluated on y = y0 + (u^2) as a chart jet
    y = jet_space(1, 3).variable(1, 2.0)
    f = y * y * y
    u = jet_space(1, 3).variable(1, 0.5)
    delta = u * u - 0.25  # nilpotent: (u0+h)^2 - u0^2
    composed = jet_compose(f.space, f.coeffs[None], _basis_of([delta]))[0]
    direct = (u * u + 2.0 - 0.25) ** 3
    np.testing.assert_allclose(composed, direct.coeffs, rtol=1e-13)


def test_truncated_prefix():
    space, low = jet_space(2, 3), jet_space(2, 2)
    a, b = space.variable(1, 1.5).exp(), space.variable(2, 0.5).sqrt()
    j = a * b
    np.testing.assert_array_equal(j.coeffs[space.restriction(low)], j.coeffs[: low.size])
    # the prefix of a product is the product of the prefixes
    ta, tb = Jet(low, a.coeffs[: low.size]), Jet(low, b.coeffs[: low.size])
    assert (ta * tb).coeffs.tobytes() == j.coeffs[: low.size].tobytes()


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


def test_jet_matrix_inverse():
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
                exact = jet_partials(space, f2.coeffs, [tuple(alpha)])[0, 0]
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
        assert space.derivative_table(gamma)[0] is jet_space(n_vars, order - sum(gamma))
        out = jet_partials(space, jet.coeffs, [gamma])[0]
        np.testing.assert_array_equal(out, _reference_derivative(jet, gamma))


def test_derivative_rejects_bad_gamma():
    jet = jet_space(2, 2).variable(1, 1.0)
    with pytest.raises(ValueError, match="one entry per variable"):
        jet_partials(jet.space, jet.coeffs, [(1,)])
    with pytest.raises(ValueError, match="exceeds jet order"):
        jet_partials(jet.space, jet.coeffs, [(2, 1)])
    with pytest.raises(ValueError, match="share one result space"):
        jet_partials(jet.space, jet.coeffs, [(1, 0), (1, 1)])


@pytest.mark.parametrize("n_vars,order", _TABLE_SPACES)
def test_product_table_equals_the_loop_in_order(n_vars, order):
    ii, jj, kk = jet_space(n_vars, order)._mul()
    ref = _reference_mul_table(jet_space(n_vars, order))
    for got, want in zip((ii, jj, kk), ref):
        np.testing.assert_array_equal(got, want)


# -- graded products --------------------------------------------------------------

_GRADED_SPACES = [(1, 8), (2, 4), (3, 3), (6, 6), (8, 6), (6, 6, 3, 1), (8, 6, 4, 1), (8, 6, 4, 2)]


def _graded_coeffs(space, grade, rng):
    """Finite coefficients of every sign and many magnitudes, some of them
    exact (signed) zeros, and zero above the grade."""
    coeffs = rng.standard_normal(space.size) * 10.0 ** rng.integers(-6, 7, space.size)
    coeffs[rng.random(space.size) < 0.2] = 0.0
    coeffs[rng.random(space.size) < 0.1] = -0.0
    coeffs[space.grade_offsets[grade + 1]:] = 0.0
    return coeffs


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_GRADED_SPACES),
    st.integers(0, 8),
    st.integers(0, 8),
    st.integers(0, 2**32 - 1),
)
def test_graded_product_is_bit_identical_to_the_full_table(signature, ga, gb, seed):
    space = jet_space(*signature)
    ga, gb = min(ga, space.order), min(gb, space.order)
    rng = np.random.default_rng(seed)
    a, b = _graded_coeffs(space, ga, rng), _graded_coeffs(space, gb, rng)
    graded = space.multiply(a, b, ga, gb)
    assert graded.tobytes() == space.multiply(a, b).tobytes()
    assert not np.any(graded[space.grade_offsets[min(space.order, ga + gb) + 1]:])


@pytest.mark.parametrize("signature", _GRADED_SPACES)
def test_graded_tables_are_the_full_table_terms_in_order(signature):
    space = jet_space(*signature)
    full = space._mul()
    degree = np.repeat(np.arange(space.order + 1), np.diff(space.grade_offsets))
    for ga in range(space.order + 1):
        for gb in range(space.order + 1):
            keep = (degree[full[0]] <= ga) & (degree[full[1]] <= gb)
            for got, want in zip(space._graded_mul(ga, gb), full):
                np.testing.assert_array_equal(got, want[keep])
    assert all(got is want for got, want in zip(space._graded_mul(space.order, space.order), full))


def _tree(leaves):
    unary = st.tuples(st.sampled_from(["-({})", "sqrt({})", "exp({})", "ln({})"]), leaves)
    power = st.tuples(leaves, st.integers(-3, 5))
    binary = st.tuples(leaves, st.sampled_from("+-*/"), leaves)
    return (
        unary.map(lambda t: t[0].format(t[1]))
        | power.map(lambda t: f"({t[0]})^({t[1]})")
        | binary.map(lambda t: f"({t[0]} {t[1]} {t[2]})")
    )


_TREES = st.recursive(
    st.sampled_from(["x1", "x2", "y1", "y2"]) | st.floats(-3, 3).map("({!r})".format),
    _tree,
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(_TREES, st.sampled_from([(4, 4), (4, 5, 2, 1), (4, 3, 2, 2)]))
@example("(x1 * ((2.795724624045467e-286))^(-2))", (4, 4))  # a float power that overflows
@example("(x1 * ((3.0) / (1e-310)))", (4, 4))  # a float quotient that overflows
def test_grade_bounds_the_nonzero_coefficients(text, signature):
    """Random expression trees over x1, x2, y1, y2 and constants, evaluated on
    jets: the grade bounds the nonzero coefficients, and every product gives
    the same bytes as with the grade of every variable at the order."""
    from finslerlab.expr import EvalDomainError, ParseError, evaluate, parse

    space = jet_space(*signature)
    graded = [space.variable(i + 1, v) for i, v in enumerate((0.7, -0.4, 1.3, 0.2))]
    full = [Jet(space, x.coeffs) for x in graded]  # grade defaults to the order
    try:
        tree = parse(text, 2)
        with np.errstate(all="ignore"):
            jet, ref = (evaluate(tree, xy[:2], xy[2:]) for xy in (graded, full))
    except (ParseError, EvalDomainError):  # a literal zero divisor, a domain error
        return
    if not isinstance(jet, Jet):
        return
    assert 0 <= jet.grade <= space.order
    assert not np.any(jet.coeffs[space.grade_offsets[jet.grade + 1]:])
    if np.all(np.isfinite(ref.coeffs)):
        # skipped terms have a zero factor, so finite results agree bit for bit
        assert jet.coeffs.tobytes() == ref.coeffs.tobytes()


def test_zeroth_power_is_the_constant_one():
    y = jet_space(2, 3).variable(2, 0.5).exp()
    one = y ** 0
    assert one.grade == 0
    assert one.coeffs.tobytes() == jet_space(2, 3).constant(1.0).coeffs.tobytes()


@pytest.fixture
def product_count(monkeypatch):
    """Counts the calls of JetSpace.multiply."""
    from finslerlab.jets import JetSpace

    calls = [0]
    multiply = JetSpace.multiply

    def counted(self, *args):
        calls[0] += 1
        return multiply(self, *args)

    monkeypatch.setattr(JetSpace, "multiply", counted)
    return calls


@pytest.mark.parametrize("exponent,products", [(2, 1), (3, 2), (4, 2), (5, 3), (8, 3)])
def test_integer_power_products(product_count, exponent, products):
    y = jet_space(2, 6).variable(2, 1.5)
    power = y ** exponent
    assert product_count[0] == products
    assert power.grade == min(6, exponent)
    slope = jet_partials(y.space, power.coeffs, [(0, 1)])[0, 0]
    assert slope == pytest.approx(exponent * 1.5 ** (exponent - 1), rel=1e-14)


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
    for jet, got in zip(trials, jet_compose(space, np.array([[t.coeffs for t in trials]]), basis)[0]):
        want = _reference_compose(jet, deltas)
        scale = max(1.0, np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)


def test_compose_validates_deltas():
    jet = jet_space(2, 2).variable(1, 1.0)
    u = jet_space(1, 2).variable(1, 0.5)
    with pytest.raises(ValueError, match="one delta jet is required per variable"):
        jet_compose(jet.space, jet.coeffs[None], _basis_of([u - 0.5]))
    with pytest.raises(ValueError, match="zero order-0 coefficient"):
        _basis_of([u, u - 0.5])
    with pytest.raises(ValueError, match="share one jet space"):
        monomial_basis(u.space, np.zeros((1, 2, jet_space(1, 3).size)))
    with pytest.raises(ValueError, match="must hold the 6 coefficients of"):
        jet_compose(jet.space, jet_space(2, 3).variable(1, 1.0).coeffs[None], _basis_of([u - 0.5] * 2))


def test_compose_rows_and_basis_share_the_batch_axis():
    """Rows of three points against a basis of one or of two points are
    refused naming the batch axis, as jet_einsum refuses its operands."""
    space, u = jet_space(1, 3), jet_space(1, 2).variable(1, 0.5)
    rows = np.zeros((3, space.size))
    for points in (1, 2):
        basis = monomial_basis(u.space, np.tile((u - 0.5).coeffs, (points, 1, 1)))
        with pytest.raises(ValueError, match=f"batch axis: 3 and {points} points"):
            jet_compose(space, rows, basis)


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
        out = jet_partials(space, jet.coeffs, [gammas[k]])[0]
        want = _reference_derivative(jet, gammas[k], space.derivative_table(gammas[k])[0])
        np.testing.assert_array_equal(out, want)


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
        ops = (
            Jet.reciprocal, Jet.sqrt, Jet.ln, lambda jet: jet ** 3, lambda jet: jet ** 1.5,
            lambda jet: (jet - jet.value).exp(), lambda jet: Jet(jet.space, b.coeffs[_kept(full, jet.space)]) / jet,
        )
        for op in ops:
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
        out = jet_partials(space, restricted.coeffs, [gamma])[0]
        want = jet_partials(full, jet.coeffs, [gamma])[0]
        along_x = sum(gamma[:x_vars])
        out_space = space.derivative_table(gamma)[0]
        assert out_space is jet_space(n_vars, order - sum(gamma), x_vars, 1 - along_x)
        assert out.tobytes() == want[_kept(full.derivative_table(gamma)[0], out_space)].tobytes()


def test_an_x_derivative_has_no_x_linear_coefficient():
    space = jet_space(8, 6, 4)
    coeffs = np.random.default_rng(3).standard_normal(space.size)
    gamma = (0, 1, 0, 0, 1, 0, 0, 0)
    d_space = space.derivative_table(gamma)[0]
    d_x = jet_partials(space, coeffs, [gamma])[0]
    assert d_space is jet_space(8, 4, 4, 0)
    assert all(not any(alpha[:4]) for alpha in d_space.multi_indices)
    assert d_x.size == d_space.size == jet_space(4, 4).size
    with pytest.raises(ValueError, match="x-degree 1 of gamma exceeds the limit 0"):
        jet_partials(d_space, d_x, [(1, 0, 0, 0, 0, 0, 0, 0)])
    with pytest.raises(ValueError, match="x-degree 2 of gamma exceeds the limit 1"):
        jet_partials(space, coeffs, [(1, 1, 0, 0, 0, 0, 0, 0)])


def test_mixing_an_x_free_jet_with_an_x_linear_jet_raises():
    space = jet_space(6, 4, 3)
    coeffs = np.random.default_rng(5).standard_normal(space.size)
    gamma = (1, 0, 0, 0, 0, 0)
    d_space = space.derivative_table(gamma)[0]  # x-free, order 3
    d_x = Jet(d_space, jet_partials(space, coeffs, [gamma])[0])
    x_linear = Jet(jet_space(6, 3, 3), coeffs[: jet_space(6, 3, 3).size])
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="matching variable count and order"):
            op(d_x, x_linear)
        with pytest.raises(ValueError, match="matching variable count and order"):
            op(x_linear, d_x)
    # an explicit truncation makes them mix
    x_free = Jet(d_x.space, x_linear.coeffs[x_linear.space.restriction(d_x.space)])
    assert x_free.coeffs.tobytes() == x_linear.coeffs[_kept(x_linear.space, d_x.space)].tobytes()
    assert (d_x * x_free).space is d_x.space
    with pytest.raises(ValueError, match="can only restrict"):
        x_free.space.restriction(x_linear.space)


def test_jet_space_is_one_object_per_signature():
    assert jet_space(6, 6) is jet_space(6, 6, 0) is jet_space(6, 6, 0, 1)
    assert jet_space(6, 6) is jet_space(6, 6, x_vars=0, x_degree=0)
    assert jet_space(8, 6, 4) is jet_space(8, 6, 4, 1) is jet_space(8, 6, x_vars=4, x_degree=1)
    assert jet_space(8, 6, 4, 0) is not jet_space(8, 6, 4)
    assert jet_space(8, 6, 4) is not jet_space(8, 6)
    # the derivative tables hand back the cached spaces, too
    assert jet_space(6, 3).derivative_table((0, 1, 0, 0, 0, 0))[0] is jet_space(6, 2)


def test_order_zero_spaces_ignore_the_x_degree_limit():
    # at order 0 every limit keeps only the constant: one space, one table
    assert jet_space(8, 0, 4, 0) is jet_space(8, 0, 4, 1) is jet_space(8, 0, 4)
    assert jet_space(6, 0, 3, 0) is jet_space(6, 0, 3, 1)
    assert jet_space(6, 1, 3, 0) is not jet_space(6, 1, 3, 1)
    assert jet_space(8, 1, 4, 0).size < jet_space(8, 1, 4, 1).size


def test_x_free_truncation_of_a_y_derivative_drops_the_x_linear_coefficients():
    space = jet_space(6, 4, 3)
    coeffs = np.random.default_rng(4).standard_normal(space.size)
    gamma = (0, 0, 0, 0, 1, 0)
    d_space = space.derivative_table(gamma)[0]
    d_y = jet_partials(space, coeffs, [gamma])[0]
    assert d_space is jet_space(6, 3, 3, 1)
    for order in (2, 0):
        x_free_space = jet_space(6, order, 3, 0)
        x_free = d_y[d_space.restriction(x_free_space)]
        assert all(not any(alpha[:3]) for alpha in x_free_space.multi_indices)
        assert x_free.size == jet_space(3, order).size
        assert x_free.tobytes() == d_y[_kept(d_space, x_free_space)].tobytes()


def test_compose_needs_a_basis_of_the_same_x_degree_limit():
    us = [jet_space(2, 2).variable(a + 1, 0.3 * a) for a in range(2)]
    zero = jet_space(2, 2).constant(0.0)
    deltas = [zero, zero, us[0] - us[0].value, (us[0] * us[1]).exp() - 1.0]
    jet = Jet(jet_space(4, 3, 2), np.random.default_rng(9).standard_normal(jet_space(4, 3, 2).size))
    x_free_space = jet_space(4, 3, 2, 0)
    x_free = jet.coeffs[jet.space.restriction(x_free_space)]
    basis = _basis_of(deltas, 2, 0)
    with pytest.raises(ValueError, match="another x-degree limit"):
        jet_compose(jet.space, jet.coeffs[None], basis)
    # x stays put (zero deltas), so the x-linear part contributes nothing
    full = jet_compose(jet.space, jet.coeffs[None], _basis_of(deltas, 2, 1))
    got = jet_compose(x_free_space, x_free[None], basis)
    np.testing.assert_allclose(got, full, rtol=0, atol=1e-13)


# -- chart fields: arrays of jet coefficients, (points, *slots, size) over one space --

_chart_spaces = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(0, 4)),
    # the x-free and x-linear spaces of the flag-point layer
    st.sampled_from([(6, 4, 3, 0), (8, 4, 4, 0), (6, 3, 3, 1)]),
)
_slot_shapes = st.lists(st.integers(1, 3), max_size=2).map(tuple)
_points = st.integers(1, 3)
_seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(_chart_spaces, _points, _slot_shapes, _seeds)
def test_jet_einsum_products_are_entrywise_multiply_bit_for_bit(key, points, slots, seed):
    space = jet_space(*key)
    rng = np.random.default_rng(seed)
    shape = (points,) + slots
    a, b = rng.standard_normal((2,) + shape + (space.size,))
    entry = "ab"[: len(slots)]
    got = jet_einsum(space, f"{entry},{entry}->{entry}", a, b)
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
@given(_chart_spaces, _points, st.tuples(*[st.integers(1, 3)] * 3), _seeds)
def test_jet_einsum_contractions_are_sums_of_jet_products(key, points, shape, seed):
    """A matrix product of jets and the full contraction of two matrices, at
    each point, each coefficient within 1e-15 of the sum of the magnitudes
    of its terms."""
    space = jet_space(*key)
    rng = np.random.default_rng(seed)
    p, q, r = shape
    a, c = rng.standard_normal((2, points, p, q, space.size))
    b = rng.standard_normal((points, q, r, space.size))
    got = jet_einsum(space, "ab,bc->ac", a, b)
    bound = 1e-15 * jet_einsum(space, "ab,bc->ac", abs(a), abs(b))
    for n, i, k in np.ndindex(points, p, r):
        want = _sum_of_products(space, [(a[n, i, j], b[n, j, k]) for j in range(q)])
        assert np.all(np.abs(got[n, i, k] - want) <= bound[n, i, k])
    got = jet_einsum(space, "ab,ab->", a, c)
    bound = 1e-15 * jet_einsum(space, "ab,ab->", abs(a), abs(c))
    for n in range(points):
        want = _sum_of_products(space, [(a[n][ij], c[n][ij]) for ij in np.ndindex(p, q)])
        assert np.all(np.abs(got[n] - want) <= bound[n])


@settings(max_examples=60, deadline=None)
@given(_chart_spaces, _points, st.integers(1, 3), _seeds)
def test_neumann_inverse_times_the_matrix_is_the_identity(key, points, m, seed):
    """Both products with the inverse are the identity to roundoff: every
    coefficient within 1e-13 of the sum of the magnitudes of its terms."""
    space = jet_space(*key)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((points, m, m, space.size))
    a[..., 0] = 2.0 * np.eye(m) + 0.5 * rng.standard_normal((points, m, m))
    inverse = neumann_inverse(space, a)
    identity = np.zeros_like(a)
    identity[..., 0] = np.eye(m)
    for x, y in ((a, inverse), (inverse, a)):
        product = jet_einsum(space, "ab,bc->ac", x, y)
        bound = 1e-13 * jet_einsum(space, "ab,bc->ac", abs(x), abs(y))
        assert np.all(np.abs(product - identity) <= bound)


# -- kernel plans: built once per signature, bit-identical to the plan-free bodies --


def _reference_einsum(space, subscripts, a, b):
    """:func:`jet_einsum` with its spec, output shape and bins derived anew."""
    ii, jj, kk = space._mul()
    left, right, out = subscripts.replace("->", ",").split(",")
    terms = np.einsum(f"{left}Z,{right}Z->{out}Z", a[..., ii], b[..., jj])
    rows = math.prod(terms.shape[:-1])
    slots = (np.arange(rows)[:, None] * space.size + kk).ravel()
    summed = np.bincount(slots, weights=terms.ravel(), minlength=rows * space.size)
    return summed.reshape(terms.shape[:-1] + (space.size,))


def _reference_partials(space, t, gammas):
    """:func:`jet_partials` with its derivative tables stacked anew."""
    tables = [space.derivative_table(gamma) for gamma in gammas]
    src, factor = (np.array([table[k] for table in tables]) for k in (1, 2))
    return t[..., src] * factor


def _horner_inverse(space, a):
    """The Neumann series by Horner's rule, x <- a0^-1 + (-a0^-1 N) x, one
    contraction of the whole product table per order."""
    out = np.zeros_like(a)
    out[..., 0] = np.linalg.inv(a[..., 0])
    lead = out.copy()
    step = -np.einsum("ab,bcz->acz", lead[..., 0], a)
    step[..., 0] = 0.0
    for _ in range(space.order):
        out = lead + _reference_einsum(space, "ab,bc->ac", step, out)
    return out


@pytest.mark.parametrize(
    "subscripts,shapes",
    [
        ("ab,bc->ac", [((2, 3), (3, 4)), ((3, 1), (1, 2))]),
        ("ijk,ai->jka", [((3, 2, 2), (4, 3)), ((2, 1, 3), (2, 2))]),
        ("ab,ab->ab", [((2, 1), (1, 3)), ((2, 2), (2, 2))]),
        (",ijk->ijk", [((), (2, 2, 2)), ((), (1, 3, 2))]),
        (",->", [((), ())]),
    ],
)
def test_jet_einsum_plans_are_keyed_by_the_operand_shapes(subscripts, shapes):
    """One subscripts string on two pairs of slot shapes, called in turn on
    three points: each row of the call equals its point as a batch of one,
    which equals the reference on that point, bit for bit."""
    space = jet_space(2, 3)
    rng = np.random.default_rng(3)
    operands = [tuple(rng.standard_normal((3,) + shape + (space.size,)) for shape in pair) for pair in shapes]
    for a, b in operands + operands:
        got = jet_einsum(space, subscripts, a, b)
        for k in range(len(a)):
            alone = jet_einsum(space, subscripts, a[k : k + 1], b[k : k + 1])
            assert got[k].tobytes() == alone[0].tobytes()
            assert alone[0].tobytes() == _reference_einsum(space, subscripts, a[k], b[k]).tobytes()


def test_jet_einsum_operands_carry_one_batch_axis():
    """An operand without the batch axis, or with a slot axis too many, and
    two batch lengths that differ are refused, naming the batch axis."""
    space = jet_space(2, 3)
    a, b = np.zeros((2, 2, 2, space.size)), np.zeros((2, 2, space.size))
    with pytest.raises(ValueError, match="batch axis"):
        jet_einsum(space, "ab,bc->ac", a[0], a[0])  # one matrix: no batch axis
    with pytest.raises(ValueError, match="batch axis"):
        jet_einsum(space, "ab,bc->ac", a, b)  # b has one slot axis
    with pytest.raises(ValueError, match="batch axis: 2 and 1 points"):
        jet_einsum(space, "ab,bc->ac", a, a[:1])


def test_jet_partials_plans_are_keyed_by_the_gammas():
    """Gammas as a list, a tuple or None (the first partials) give the same
    bytes, and other gammas of the same count their own."""
    space = jet_space(3, 3)
    t = np.random.default_rng(4).standard_normal((2, space.size))
    firsts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    seconds = [(2, 0, 0), (0, 1, 1), (1, 0, 1)]
    for gammas in (None, firsts, tuple(firsts), seconds, tuple(seconds), None, firsts):
        want = _reference_partials(space, t, firsts if gammas is None else gammas)
        assert jet_partials(space, t, gammas).tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(_chart_spaces, _points, st.integers(1, 4), st.booleans(), _seeds)
def test_neumann_inverse_equals_the_horner_loop_bit_for_bit(key, points, m, diagonal, seed):
    """Signed zeros included: the inverse of a diagonal a0 with negative
    entries has -0.0 off its diagonal, and N has zero coefficients.  Each
    point of the batch is compared with the loop on that point alone."""
    space = jet_space(*key)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((points, m, m, space.size))
    a[rng.random(a.shape) < 0.3] = 0.0
    for k in range(points):
        if diagonal:
            a[k, ..., 0] = np.diag(rng.choice([-2.0, -0.5, 1.5], m))
        else:
            a[k, ..., 0] = 2.0 * np.eye(m) + 0.5 * rng.standard_normal((m, m))
    inverse = neumann_inverse(space, a)
    for k in range(points):
        assert inverse[k].tobytes() == _horner_inverse(space, a[k]).tobytes()


@pytest.fixture
def term_count(monkeypatch):
    """Counts the terms np.bincount sums, over all its calls."""
    calls = [0]
    bincount = np.bincount

    def counted(x, weights=None, minlength=0):
        calls[0] += len(x)
        return bincount(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(np, "bincount", counted)
    return calls


@pytest.mark.parametrize("key,m,horner,terms", [((6, 4, 3, 0), 3, 840, 175), ((8, 4, 4, 0), 4, 1980, 425)])
def test_terms_per_neumann_inverse(term_count, key, m, horner, terms):
    """Product-table terms per matrix entry for the g^-1 of an order-6
    flag-point expansion at n = 3 and 4: Horner's rule contracts the whole
    table at each of its order steps, neumann_inverse each term that lands
    at a degree >= 1 with a left factor of degree >= 1 once."""
    space = jet_space(*key)
    a = np.random.default_rng(5).standard_normal((m, m, space.size))
    a[..., 0] = 2.0 * np.eye(m)
    _horner_inverse(space, a)
    assert term_count[0] == horner * m * m
    term_count[0] = 0
    neumann_inverse(space, a[None])
    assert term_count[0] == terms * m * m


# -- the elementary functions: degree-by-degree recurrences against Horner --


def _horner(jet, series):
    """Horner evaluation of sum_k series[k] * h^k, h the nilpotent part of
    the jet: the composition the elementary functions are checked against."""
    h = jet.coeffs.copy()
    h[0] = 0.0
    out = np.zeros(jet.space.size)
    out[0] = series[-1]
    grade = 0
    for k in range(len(series) - 2, -1, -1):
        out = jet.space.multiply(out, h, grade, jet.grade)
        grade = min(jet.space.order, grade + jet.grade)
        out[0] += series[k]
    return Jet(jet.space, out, grade)


def _horner_power(jet, r, head):
    series = [head]
    for k in range(1, jet.order + 1):
        series.append(series[-1] * (r - (k - 1)) / (k * jet.value))
    return _horner(jet, series)


def _horner_reciprocal(jet):
    series = [1.0 / jet.value]
    for _ in range(jet.order):
        series.append(-series[-1] / jet.value)
    return _horner(jet, series)


def _horner_exp(jet):
    series = [math.exp(jet.value)]
    for k in range(1, jet.order + 1):
        series.append(series[-1] / k)
    return _horner(jet, series)


def _horner_ln(jet):
    series, sign = [math.log(jet.value)], 1.0
    for k in range(1, jet.order + 1):
        series.append(sign / (k * jet.value**k))
        sign = -sign
    return _horner(jet, series)


_HORNER_FUNCTIONS = {
    "reciprocal": (Jet.reciprocal, _horner_reciprocal),
    "quotient": (lambda a, b: b / a, lambda a, b: b * _horner_reciprocal(a)),
    "sqrt": (Jet.sqrt, lambda a: _horner_power(a, 0.5, math.sqrt(a.value))),
    "pow": (lambda a: a ** -1.7, lambda a: _horner_power(a, -1.7, a.value ** -1.7)),
    "exp": (Jet.exp, _horner_exp),
    "ln": (Jet.ln, _horner_ln),
}


@pytest.mark.parametrize("key", [(1, 3), (3, 5), (6, 6, 3), (8, 6, 4)])
@pytest.mark.parametrize("name", sorted(_HORNER_FUNCTIONS))
def test_jet_functions_match_horner_to_roundoff(key, name):
    """Each function, on random jets of every grade from 1 to the order, is
    the Horner composition to 1e-13 times the largest coefficient."""
    space = jet_space(*key)
    rng = np.random.default_rng(sum(key))
    function, reference = _HORNER_FUNCTIONS[name]
    for grade in sorted({1, 2, space.order}):
        for _ in range(2):
            coeffs = rng.standard_normal((2, space.size))
            coeffs[:, space.grade_offsets[min(grade, space.order) + 1] :] = 0.0
            coeffs[0, 0] = rng.uniform(0.5, 2.0)  # in the domain of every function
            operands = [Jet(space, row, grade) for row in coeffs]
            args = operands if name == "quotient" else operands[:1]
            got, want = function(*args), reference(*args)
            assert got.grade == want.grade
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-13 * np.max(np.abs(want.coeffs))


@pytest.mark.parametrize(
    "metric,dim,horner,terms",
    [
        ("funk_ball", 4, 97478, 19371),
        ("funk_ball", 3, 28139, 5842),
        ("randers", 3, 7296, 1736),
        ("minkowski_quartic", 3, 17207, 4166),
    ],
)
def test_terms_per_f_walk(monkeypatch, term_count, metric, dim, horner, terms):
    """Product-table terms of one order-6 walk of F over (x, y) with x to
    first order, as at a flag point: Horner's rule multiplies the whole
    argument into its partial sum once per order, the recurrences sum each
    term that lands at a degree d with a left factor of degree 1..grade
    once.  Both walks give F to roundoff."""
    from finslerlab import jets
    from finslerlab.expr import evaluate
    from finslerlab.zoo import build

    model = build(metric, dim)
    space = jet_space(2 * dim, 6, dim, 1)
    xs = [space.variable(i + 1, 0.1 * (i + 1)) for i in range(dim)]
    ys = [space.variable(dim + i + 1, 1.0 - 0.2 * i) for i in range(dim)]
    term_count[0] = 0
    walked = evaluate(model.f_ast, xs, ys, model.params)
    assert term_count[0] == terms
    with monkeypatch.context() as horner_walk:
        horner_walk.setattr(Jet, "reciprocal", _horner_reciprocal)
        horner_walk.setattr(Jet, "_power", _horner_power)
        horner_walk.setattr(Jet, "exp", _horner_exp)
        horner_walk.setattr(Jet, "ln", _horner_ln)
        horner_walk.setattr(jets, "_quotient", lambda u, v: u * v.reciprocal())
        term_count[0] = 0
        reference = evaluate(model.f_ast, xs, ys, model.params)
        assert term_count[0] == horner
    scale = np.max(np.abs(reference.coeffs))
    assert np.max(np.abs(walked.coeffs - reference.coeffs)) <= 1e-13 * scale
