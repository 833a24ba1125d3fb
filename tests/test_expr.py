import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab.expr import (
    Binary,
    Call,
    EvalDomainError,
    Neg,
    Num,
    Param,
    ParseError,
    Pow,
    Var,
    check_positive_homogeneity,
    evaluate,
    parse,
    serialize,
)
from finslerlab.jets import jet_space


def test_parse_sqrt_sum():
    ast = parse("sqrt(y1^2 + y2^2)", 2)
    assert ast == Call("sqrt", Binary("+", Pow(Var("y", 1), 2.0), Pow(Var("y", 2), 2.0)))


def test_parse_fractional_power():
    ast = parse("(y1^4 + y2^4 + y3^4)^0.25", 3)
    assert isinstance(ast, Pow)
    assert ast.exponent == 0.25


def test_parse_unbalanced_reports_offset():
    text = "sqrt(y1^2 +"
    with pytest.raises(ParseError) as info:
        parse(text, 2)
    assert info.value.offset == len(text)
    assert "operand" in str(info.value)


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("y1 + alpha", 2)
    # declared parameters are accepted
    ast = parse("alpha * y1", 2, {"alpha"})
    assert ast == Binary("*", Param("alpha"), Var("y", 1))


def test_parse_variable_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse("y3", 2)
    with pytest.raises(ParseError, match="out of range"):
        parse("x0", 2)


def test_parse_division_by_literal_zero():
    with pytest.raises(ParseError, match="division by literal zero"):
        parse("y1 / 0", 2)


def test_precedence_structure():
    assert parse("y1 + y2 * x1", 2) == Binary(
        "+", Var("y", 1), Binary("*", Var("y", 2), Var("x", 1))
    )
    # unary minus binds tighter than multiplication, looser than powers
    assert parse("-y1^2", 2) == Neg(Pow(Var("y", 1), 2.0))
    assert parse("-y1*y2", 2) == Binary("*", Neg(Var("y", 1)), Var("y", 2))
    # left associativity of subtraction
    assert parse("y1 - y2 - x1", 2) == Binary(
        "-", Binary("-", Var("y", 1), Var("y", 2)), Var("x", 1)
    )
    # exponent chains fold right-associatively
    assert parse("y1^2^3", 2) == Pow(Var("y", 1), 8.0)
    assert parse("y1^-2", 2) == Pow(Var("y", 1), -2.0)
    assert parse("y1^(-2)", 2) == Pow(Var("y", 1), -2.0)


_leaves = st.one_of(
    st.builds(Num, st.floats(min_value=0.001, max_value=100.0, allow_nan=False)),
    st.builds(Var, st.sampled_from(["x", "y"]), st.integers(1, 2)),
    st.builds(Param, st.sampled_from(["alpha", "beta"])),
)


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(lambda op, l, r: Binary(op, l, r), st.sampled_from("+-*/"), children, children),
        st.builds(lambda b, e: Pow(b, e), children, st.sampled_from([2.0, 0.5, -1.0, 3.0])),
        st.builds(Call, st.sampled_from(["sqrt", "exp", "ln"]), children),
    )


@settings(max_examples=120, deadline=None)
@given(st.recursive(_leaves, _extend, max_leaves=12))
def test_serialize_parse_round_trip(ast):
    params = {"alpha", "beta"}
    assert parse(serialize(ast), 2, params) == ast
    assert parse(serialize(ast, full_parens=True), 2, params) == ast


def test_evaluate_examples():
    ast = parse("sqrt(y1^2 + y2^2)", 2)
    assert evaluate(ast, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)
    quartic = parse("(y1^4 + y2^4 + y3^4)^0.25", 3)
    assert evaluate(quartic, [0.0] * 3, [1.0, 0.0, 0.0]) == pytest.approx(1.0)


def test_evaluate_domain_error_reports_node():
    ast = parse("ln(y1)", 2)
    with pytest.raises(EvalDomainError) as info:
        evaluate(ast, [0.0, 0.0], [-1.0, 1.0])
    assert info.value.fn == "ln"
    assert "ln(y1)" in str(info.value)


@pytest.mark.parametrize(
    "text, x1, fn, subexpression",
    [
        ("sqrt(y1^2 + y2^2)*exp(x1)", 800.0, "exp", "exp(x1)"),
        ("sqrt(y1^2 + y2^2)*(1 + x1^2)^1.5", 1e103, "pow[1.5]", "(1.0 + x1^2.0)^1.5"),
        # 1 / x1^2 overflows in the second Taylor coefficient of ln
        ("sqrt(y1^2 + y2^2)*ln(x1*1e-200)", 0.7, "ln", "ln(x1 * 1e-200)"),
        ("sqrt(y1^2 + y2^2)*x1/-(0.0)", 0.7, "div", "sqrt(y1^2.0 + y2^2.0) * x1 / -0.0"),
    ],
    ids=["exp", "pow", "ln", "div-by-negative-zero"],
)
def test_jet_function_outside_its_range_is_a_domain_error(text, x1, fn, subexpression):
    ast = parse(text, 2)
    space = jet_space(4, 2)
    x = [space.variable(1, x1), space.variable(2, 0.0)]
    y = [space.variable(3, 1.0), space.variable(4, 0.0)]
    with pytest.raises(EvalDomainError) as info:
        evaluate(ast, x, y)
    assert info.value.fn == fn
    assert repr(subexpression) in str(info.value)


def test_evaluate_unbound_parameter():
    ast = parse("alpha * y1", 2, {"alpha"})
    with pytest.raises(ValueError, match="unbound parameter"):
        evaluate(ast, [0.0, 0.0], [1.0, 1.0])


def test_homogeneity_euclidean_passes():
    ast = parse("sqrt(y1^2 + y2^2)", 2)
    report = check_positive_homogeneity(ast, 2, trials=50, seed=1)
    assert report.max_rel_deviation <= 1e-12


def test_homogeneity_quartic_passes():
    ast = parse("(y1^4 + y2^4)^0.25", 2)
    report = check_positive_homogeneity(ast, 2, trials=50, seed=1)
    assert report.max_rel_deviation <= 1e-12


def test_homogeneity_flags_non_homogeneous():
    ast = parse("y1 + y2^2", 2)
    report = check_positive_homogeneity(ast, 2, trials=50, seed=1)
    assert report.max_rel_deviation > 1e-2
    assert not report.passed
    assert report.worst is not None


def _homogeneity_loop(node, dim, trials, seed, params=None, x_radius=1.0):
    """Reference: the homogeneity audit with one scalar evaluation per trial."""
    rng = np.random.default_rng(seed)
    worst_dev, worst = 0.0, None
    for _ in range(trials):
        direction = rng.standard_normal(dim)
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            continue
        radius = x_radius * rng.uniform(0.0, 1.0) ** (1.0 / dim)
        x = direction / norm * radius
        y = rng.standard_normal(dim)
        while np.linalg.norm(y) < 1e-3:
            y = rng.standard_normal(dim)
        lam = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        f_base = evaluate(node, list(x), list(y), params)
        f_scaled = evaluate(node, list(x), list(lam * y), params)
        denom = abs(lam * f_base)
        dev = float(abs(f_scaled - lam * f_base) / denom) if denom > 0 else math.inf
        if dev > worst_dev:
            worst_dev = dev
            worst = {"x": x.tolist(), "y": y.tolist(), "lambda": lam, "deviation": dev}
    return worst_dev, worst


def test_homogeneity_matches_the_per_trial_loop_exactly(zoo_models):
    cases = [(m.f_ast, m.dim, m.params, m.x_radius) for m in zoo_models]
    for text in ("y1 + y2^2", "(y1^4 + y2^4)^0.25 + 0.1*y1*exp(x1)", "y1^3 / (y1^2 + y2^2)"):
        cases.append((parse(text, 2), 2, None, 1.0))
    for node, dim, params, x_radius in cases:
        for trials, seed in ((1, 3), (64, 987654321)):
            report = check_positive_homogeneity(node, dim, trials, seed, params, x_radius)
            expected = _homogeneity_loop(node, dim, trials, seed, params, x_radius)
            assert (report.max_rel_deviation, report.worst) == expected


def test_plain_evaluation_matches_jet_order_zero(zoo_models, rng):
    for model in zoo_models:
        for _ in range(100):
            x = model.sample_x(rng)
            y = model.sample_y(rng)
            plain = model.f(x, y)
            n = model.dim
            space = jet_space(2 * n, 2)
            xj = [space.variable(i + 1, x[i]) for i in range(n)]
            yj = [space.variable(n + i + 1, y[i]) for i in range(n)]
            jet = evaluate(model.f_ast, xj, yj, model.params)
            assert abs(jet.value - plain) <= 1e-13 * max(1.0, abs(plain))
