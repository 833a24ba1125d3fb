import gc
import warnings
import weakref

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
    assert parse("y1^(-2)^3", 2) == Pow(Var("y", 1), -8.0)
    # a chain or literal that underflows to zero is still a finite real
    assert parse("y1^2^-1075", 2) == Pow(Var("y", 1), 0.0)
    assert parse("y1*1e-400", 2) == Binary("*", Var("y", 1), Num(0.0))


@pytest.mark.parametrize(
    "text, offset, message",
    [
        ("sqrt(y1^2+y2^2)^10^400", 16, "exponent chain does not fold to a finite real"),  # overflows
        ("sqrt(y1^2+y2^2)^(-0)^(-1)", 16, "exponent chain does not fold to a finite real"),  # 1 / -0
        ("sqrt(y1^2+y2^2)^(-8)^0.5", 16, "exponent chain does not fold to a finite real"),  # complex
        ("y1^2^10^400", 5, "exponent chain does not fold to a finite real"),  # the inner fold
        ("sqrt(y1^2+y2^2)^1e400", 16, "numeric literal 1e400 overflows"),
        ("sqrt(y1^2+y2^2)*1e400", 16, "numeric literal 1e400 overflows"),
        ("exp(x1)^1e400", 8, "numeric literal 1e400 overflows"),
        ("1e400", 0, "numeric literal 1e400 overflows"),
    ],
)
def test_a_literal_or_exponent_that_is_not_a_finite_real_is_a_parse_error(text, offset, message):
    with pytest.raises(ParseError) as info:
        parse(text, 2)
    assert info.value.offset == offset
    assert str(info.value) == f"{message} at offset {offset}"


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
        ("sqrt(y1^2 + y2^2)*ln(x1 - 1)", 0.7, "ln", "ln(x1 - 1.0)"),
        ("sqrt(y1^2 + y2^2)*x1/-(0.0)", 0.7, "div", "sqrt(y1^2.0 + y2^2.0) * x1 / -0.0"),
        ("1e300*exp(x1)*sqrt(y1^2 + y2^2)", 700.0, "mul", "1e+300 * exp(x1)"),
    ],
    ids=["exp", "pow", "ln", "div-by-negative-zero", "mul"],
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


def test_ln_of_a_tiny_argument_has_its_true_coefficients():
    """ln(x1 * 1e-200) = ln(x1) + const: its x1-coefficients are 1/x1 and
    -1/(2 x1^2), whatever the size of the argument's value."""
    space = jet_space(1, 2)
    jet = evaluate(parse("ln(x1*1e-200)", 1), [space.variable(1, 0.7)], [0.0])
    np.testing.assert_allclose(jet.coeffs[1:], [1 / 0.7, -1 / (2 * 0.7**2)], rtol=1e-14)


def test_evaluate_keeps_no_reference_to_its_inputs():
    """The walk is no closure in a cycle, so an input array is freed as soon
    as evaluate returns, without the cyclic collector."""
    y1 = np.linspace(1.0, 2.0, 5)
    alive = weakref.ref(y1)
    gc.disable()
    try:
        evaluate(parse("sqrt(y1^2 + y2^2)*exp(x1)", 2), [0.5, 0.0], [y1, y1[::-1]])
        del y1
        assert alive() is None
    finally:
        gc.enable()


def test_evaluate_unbound_parameter():
    ast = parse("alpha * y1", 2, {"alpha"})
    with pytest.raises(ValueError, match="unbound parameter"):
        evaluate(ast, [0.0, 0.0], [1.0, 1.0])


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


_STEP = 1e-20
# sqrt, exp, ln, a non-integer power and a quotient, each with x in it
_MIXED = "sqrt(y1^2 + y2^2 + y3^2)*exp(0.3*x1*x2) + ln(2 + x3)*(1 + x1^2)^1.5*y1^2/((2 + x2)*sqrt(y1^2 + y2^2))"


def test_complex_step_matches_float_and_jet_derivative(zoo_models, rng):
    """A complex x entry x_i + ih keeps its dtype through the float path: the
    real part is the float value, and Im / h is the x_i-derivative that an
    order-1 jet in x reads."""
    cases = [(m.f_ast, m.params, m.sample_x(rng), m.sample_y(rng)) for m in zoo_models]
    cases.append((parse(_MIXED, 3), {}, rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3)))
    space = jet_space(3, 1)
    for ast, params, x, y in cases:
        plain = evaluate(ast, x, y, params)
        # zero + a float F (one that does not read x) is a jet too
        jet = space.constant(0.0) + evaluate(ast, [space.variable(i + 1, x[i]) for i in range(3)], y, params)
        for i in range(3):
            shifted = list(x.astype(complex))
            shifted[i] += 1j * _STEP
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = evaluate(ast, shifted, y, params)
            derivative = jet.coeffs[space.index_of[tuple(int(k == i) for k in range(3))]]
            assert abs(value.real - plain) <= 1e-15 * abs(plain)
            assert abs(value.imag / _STEP - derivative) <= 1e-13


def test_complex_argument_outside_the_domain_is_the_float_fault():
    ast = parse("sqrt(x1 - 1)*y1", 1)
    with pytest.raises(EvalDomainError) as on_float:
        evaluate(ast, [0.5], [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalDomainError) as on_complex:
            evaluate(ast, [0.5 + 1j * _STEP], [1.0])
    assert str(on_complex.value) == str(on_float.value)
