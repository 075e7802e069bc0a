"""Expression language: parsing, evaluation, symbolic derivative, printing."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracvar import expr
from fracvar.errors import (
    DisallowedVariable,
    DomainFault,
    ExprSyntaxError,
    UnboundVariable,
    UnknownIdentifier,
)


def ev(src, **env):
    return expr.evaluate(expr.parse(src), env)


class TestParsing:
    def test_precedence_power_binds_tighter_than_unary_minus(self):
        assert ev("-2^2") == -4.0

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_mul_before_add(self):
        assert ev("1 + 2*3") == 7.0

    def test_unary_minus_chain(self):
        assert ev("--3") == 3.0

    def test_pi_constant(self):
        assert ev("sin(pi/2)") == pytest.approx(1.0, abs=1e-15)

    def test_function_calls_nest(self):
        assert ev("exp(ln(2))") == pytest.approx(2.0, rel=1e-15)

    def test_whitespace_ignored(self):
        assert ev("  1   +2 ") == 3.0

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            expr.parse("1 + * 2")
        assert err.value.offset == 4

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            expr.parse("sin(t")

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifier):
            expr.parse("tan(t)")

    def test_disallowed_variable(self):
        with pytest.raises(DisallowedVariable):
            expr.parse("u + 1", allowed_vars={"t"})

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            expr.parse("1 + 2 )")


class TestEvaluation:
    def test_vectorized_over_arrays(self):
        node = expr.parse("t^2 + 1")
        out = expr.evaluate(node, {"t": np.array([0.0, 1.0, 2.0])})
        assert np.allclose(out, [1.0, 2.0, 5.0])

    def test_ln_of_nonpositive_faults(self):
        with pytest.raises(DomainFault):
            ev("ln(t)", t=0.0)

    def test_sqrt_of_negative_faults(self):
        with pytest.raises(DomainFault):
            ev("sqrt(t)", t=-1.0)

    def test_division_by_zero_faults(self):
        with pytest.raises(DomainFault):
            ev("1/t", t=0.0)

    def test_fractional_power_of_negative_faults(self):
        with pytest.raises(DomainFault):
            ev("t^0.5", t=-2.0)

    def test_infinite_exponent_of_negative_base_faults(self):
        # 1e400 parses to inf, which is no integer
        with pytest.raises(DomainFault):
            ev("(-2)^(1e400)")
        with pytest.raises(DomainFault):
            ev("t^(1e400)", t=np.array([-2.0, 0.5]))

    def test_infinite_exponent_of_small_base_is_zero(self):
        assert ev("0.5^(1e400)") == 0.0
        assert np.array_equal(ev("t^(1e400)", t=np.array([0.25, 0.5])), [0.0, 0.0])

    @pytest.mark.parametrize("src, offset", [("1e400", 0), ("-1e400", 1), ("abs(1e400)", 4)])
    @pytest.mark.parametrize("t", [0.5, np.array([0.5, 1.0])])
    def test_infinite_literal_faults_at_its_offset(self, src, offset, t):
        # no checked operation follows the literal, so parsing faults at it
        with pytest.raises(DomainFault) as err:
            ev(src, t=t)
        assert err.value.offset == offset

    def test_array_fault_detected(self):
        node = expr.parse("ln(t)")
        with pytest.raises(DomainFault):
            expr.evaluate(node, {"t": np.array([1.0, 0.5, -3.0])})

    def test_abs(self):
        assert ev("abs(-3)") == 3.0

    def test_sin_of_infinity_faults(self):
        # math.sin raises ValueError on an infinity; the fault matches numpy's nan
        for t in (math.inf, np.array([0.0, -math.inf])):
            with pytest.raises(DomainFault) as err:
                ev("1 + sin(t)", t=t)
            assert str(err.value) == "expression evaluated to a non-finite value (node at offset 4)"

    def test_integer_array_exponent_of_negative_base(self):
        # integrality is tested elementwise, as for a float exponent
        out = ev("t^u", t=np.array([-2.0]), u=np.array([2.0]))
        assert np.array_equal(out, [4.0])
        out = ev("t^u", t=np.array([-2.0, 4.0]), u=np.array([3.0, 0.5]))
        assert np.array_equal(out, [-8.0, 2.0])
        with pytest.raises(DomainFault):
            ev("t^u", t=np.array([-2.0, 4.0]), u=np.array([0.5, 3.0]))


_NON_FINITE = "expression evaluated to a non-finite value"

# (source, t making it fault, message on a float, message on an array, offset)
_FAULTS = [
    ("1 + ln(t)", 0.0, "ln of a nonpositive value", None, 4),
    ("sqrt(t - 1)", 0.5, "sqrt of a negative value", None, 0),
    ("2 / (t - 1)", 1.0, "division by zero", None, 2),
    ("(t - 3)^0.5", 1.0, "negative base with fractional exponent", None, 7),
    ("(t - 1)^(-2)", 1.0, "zero base with negative exponent", None, 7),
    ("1 + exp(t)", 800.0, "overflow in exp", _NON_FINITE, 4),
    ("t * 1e300 * t", 1e5, _NON_FINITE, None, 10),
]


@pytest.mark.parametrize("src,t,float_message,array_message,offset", _FAULTS)
@pytest.mark.parametrize("array", [False, True], ids=["float", "array"])
def test_fault_message_and_offset(src, t, float_message, array_message, offset, array):
    message = (array_message or float_message) if array else float_message
    binding = np.array([2.0, t]) if array else t
    with pytest.raises(DomainFault) as err:
        ev(src, t=binding)
    assert err.value.offset == offset
    assert str(err.value) == f"{message} (node at offset {offset})"


# derivative oracles: central differences on the evaluated parse tree,
# checked at 64 points per expression
_DIFFERENTIABLE = [
    ("t^3 - 2*t", (-2.0, 2.0)),
    ("sin(3*t)*cos(t)", (-2.0, 2.0)),
    ("exp(-t^2)", (-2.0, 2.0)),
    ("ln(t + 3)", (-2.0, 2.0)),
    ("sqrt(t + 3)", (-2.0, 2.0)),
    ("1/(1 + t^2)", (-2.0, 2.0)),
    ("t^t", (0.1, 2.0)),
    ("2^t", (-2.0, 2.0)),
]


@pytest.mark.parametrize("src,interval", _DIFFERENTIABLE)
def test_derivative_matches_finite_differences(src, interval):
    node = expr.parse(src)
    dnode = expr.derivative(node, "t")
    lo, hi = interval
    h = 1e-6
    for t in np.linspace(lo + 10 * h, hi - 10 * h, 64):
        fd = (expr.evaluate(node, {"t": t + h})
              - expr.evaluate(node, {"t": t - h})) / (2 * h)
        sym = expr.evaluate(dnode, {"t": t})
        assert sym == pytest.approx(fd, rel=1e-6, abs=1e-8), (src, t)


def test_derivative_of_constant_is_zero():
    assert expr.derivative(expr.parse("pi * 4"), "t") == expr.Const(0.0)


def test_derivative_wrt_other_variable():
    node = expr.parse("t * u")
    du = expr.derivative(node, "u")
    assert expr.evaluate(du, {"t": 3.0, "u": 100.0}) == 3.0


def test_derivative_of_abs_is_the_sign_and_faults_at_the_kink():
    dnode = expr.derivative(expr.parse("abs(t - 0.5)"), "t")
    assert expr.to_source(dnode) == "(t - 0.5) / abs(t - 0.5)"
    assert expr.evaluate(dnode, {"t": 0.2}) == -1.0
    assert expr.evaluate(dnode, {"t": 0.9}) == 1.0
    assert np.array_equal(expr.evaluate(dnode, {"t": np.array([0.2, 0.9])}), [-1.0, 1.0])
    for t in (0.5, np.array([0.2, 0.5])):
        with pytest.raises(DomainFault) as err:
            expr.evaluate(dnode, {"t": t})
        assert str(err.value) == "division by zero"


def _trees(constants):
    return st.recursive(
        st.one_of(constants.map(expr.Const), st.sampled_from(["t", "u", "alpha"]).map(expr.Var)),
        lambda children: st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]), children, children)
            .map(lambda trio: expr.Binary(trio[0], trio[1], trio[2])),
            st.tuples(st.sampled_from(["neg", "sin", "cos", "exp", "ln", "sqrt", "abs"]),
                      children)
            .map(lambda pair: expr.Unary(pair[0], pair[1])),
        ),
        max_leaves=12,
    )


_small_constants = st.floats(min_value=0.1, max_value=9.0).map(lambda v: round(v, 3))
_expr_strategy = _trees(_small_constants)


@given(_expr_strategy)
@settings(max_examples=200, deadline=None)
def test_print_parse_round_trip(node):
    """to_source output reparses to a tree with identical structure."""
    text = expr.to_source(node)
    again = expr.parse(text)
    assert expr.to_source(again) == text


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=50, deadline=None)
def test_round_trip_preserves_value(t, u):
    node = expr.parse("(t + 2*u)^2 - sin(t*u)")
    again = expr.parse(expr.to_source(node))
    assert expr.evaluate(again, {"t": t, "u": u}) == pytest.approx(
        expr.evaluate(node, {"t": t, "u": u}), rel=1e-12, abs=1e-12)


_binding = st.one_of(st.integers(-3, 3).map(float), st.floats(min_value=-3.0, max_value=3.0))


@given(_expr_strategy, st.lists(_binding, min_size=3, max_size=3))
@example(expr.Binary("^", expr.Var("t"), expr.Var("u")), [-2.0, 2.0, 0.0])
@settings(max_examples=200, deadline=None)
def test_float_and_array_bindings_agree(node, values):
    """One-element arrays fault at the same node as floats, or give the same value."""
    node = expr.parse(expr.to_source(node))  # parsed nodes carry offsets
    env = dict(zip(("t", "u", "alpha"), values))
    outcomes = []
    for binding in (env, {name: np.array([v]) for name, v in env.items()}):
        try:
            outcomes.append(("value", np.ravel(expr.evaluate(node, binding))[0]))
        except DomainFault as exc:
            outcomes.append(("fault", exc.offset))
    (kind, got), (array_kind, array_got) = outcomes
    assert kind == array_kind
    if kind == "fault":
        assert got == array_got
    else:  # math and numpy may round differently
        assert array_got == pytest.approx(got, rel=1e-9, abs=1e-12)


def test_round_trip_expression_with_all_functions():
    src = "abs(sin(t)) + sqrt(exp(t)) - ln(t + 4)/cos(t)"
    node = expr.parse(src)
    printed = expr.to_source(node)
    t = 0.37
    assert expr.evaluate(expr.parse(printed), {"t": t}) == pytest.approx(
        expr.evaluate(node, {"t": t}), rel=1e-14)
    # integer-exponent powers of negatives stay legal after printing
    assert ev("(-2)^2") == 4.0


# constants near the overflow threshold make every finiteness test fire
_wide_constants = st.one_of(_small_constants, st.floats(min_value=1e299, max_value=1e301),
                            st.sampled_from([0.0, 1e308]))
_compile_binding = st.one_of(st.sampled_from([0.0, -0.0]), st.integers(-3, 3).map(float),
                             st.floats(min_value=-3.0, max_value=3.0))


def _outcome(fn, values):
    try:
        return "value", float(fn(*values)).hex()
    except DomainFault as exc:
        return "fault", str(exc), exc.offset


@given(_trees(_wide_constants).map(expr.to_source),
       st.lists(_compile_binding, min_size=3, max_size=3))
@example("1/(u*1e308*10)", [0.0, 1.0, 0.0])
@example("(-0.5)^1e400", [0.0, 0.0, 0.0])
# plain float code returns 0 or 1 for each of these, where the walk faults at
# the product: the overflow is absorbed by an operand of exp, / or ^, reached
# through -, ln or abs
@example("exp(-(u*1e308*10))", [0.0, 1.0, 0.0])
@example("1/ln(u*1e308*10)", [0.0, 1.0, 0.0])
@example("2^(-(u*1e308*10))", [0.0, 1.0, 0.0])
@example("abs(u*1e308*10)^0", [0.0, 1.0, 0.0])
@example("(u*1e308*10)^0", [0.0, 1.0, 0.0])
# folded at compile time: a negated Const is bound negated (-0 keeps its
# sign), and a Const exponent drops the domain tests it settles
@example("-0*u", [0.0, 1.0, 0.0])
@example("-2.5*u - (-1e400)*t", [0.0, 1.0, 0.0])
@example("(-2)^3 + u^3", [0.0, -3.0, 0.0])
@example("u^-2", [0.0, 0.0, 0.0])
@example("u^-0.5", [0.0, -2.0, 0.0])
@example("u^1e400", [0.0, -0.5, 0.0])
@example("u^1e400", [0.0, 0.0, 0.0])
@example("u^-1e400", [0.0, 0.0, 0.0])
@example("u^-1e400", [0.0, 0.5, 0.0])
@settings(max_examples=300, deadline=None)
def test_compiled_and_walked_results_agree(src, values):
    """The same bits (so -0.0 counts), or the same fault at the same offset."""
    node = expr.parse(src)
    names = ("t", "u", "alpha")
    walked = _outcome(lambda *args: expr.evaluate(node, dict(zip(names, args))), values)
    assert _outcome(expr.to_function(node, names), values) == walked


@pytest.mark.parametrize("src, unchecked, offset", [
    ("1/(u*1e308*10)", lambda u: 1 / (u * 1e308 * 10), 10),
    ("(-0.5)^1e400", lambda u: math.pow(-0.5, math.inf), 6),
])
def test_compiled_function_keeps_the_domain_tests(src, unchecked, offset):
    assert unchecked(1.0) == 0.0  # plain math code finds nothing wrong
    fn = expr.to_function(expr.parse(src), ("t", "u"))
    with pytest.raises(DomainFault) as err:
        fn(0.0, 1.0)
    assert err.value.offset == offset


def test_compiled_constants_are_bound_by_name():
    # none of these is a safe source literal
    for value in (-0.0, math.inf, math.pi):
        assert expr.to_function(expr.Const(value), ())().hex() == value.hex()


def test_compiled_function_needs_every_variable_named():
    with pytest.raises(UnboundVariable):
        expr.to_function(expr.parse("t + u"), ("t",))
