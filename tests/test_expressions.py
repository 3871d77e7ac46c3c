from __future__ import annotations

import math

import numpy as np
import pytest

from sifgps.errors import (
    DomainError,
    ExpressionSyntaxError,
    MissingDerivative,
    MissingValueExpression,
    UndeclaredName,
    UnknownIntrinsic,
)
from sifgps.expressions import (
    ElementTypeDecl,
    GroupTypeDecl,
    apply_intrinsic,
    eval_element,
    eval_group_function,
    eval_node,
    node_from_json,
    node_to_json,
    parse_expression,
    parse_nonlinear_section,
    trivial_group,
)
from sifgps.reader import Phase, read_sif


def element_part(body: str, declarations):
    """Parse an INDIVIDUALS body (plus optional GLOBALS) as an elements part."""
    text = f"NAME T\nENDATA\nELEMENTS T\n{body}ENDATA\n"
    program = read_sif(text)
    sections = {s.kind: s.records for s in program.in_phase(Phase.ELEMENTS)}
    return parse_nonlinear_section("element", sections, declarations)


def group_part(body: str, declarations):
    text = f"NAME T\nENDATA\nGROUPS T\n{body}ENDATA\n"
    program = read_sif(text)
    sections = {s.kind: s.records for s in program.in_phase(Phase.GROUPS)}
    return parse_nonlinear_section("group", sections, declarations)


SQ_DECL = {"SQ": ElementTypeDecl(("V1",), (), ())}
L2_DECL = {"L2": GroupTypeDecl("GVAR", ())}

SQ_BODY = (
    "INDIVIDUALS\n"
    " T  SQ\n"
    " F                      V1 * V1\n"
    " G  V1                  V1 + V1\n"
    " H  V1        V1        2.0\n"
)

L2_BODY = (
    "INDIVIDUALS\n"
    " T  L2\n"
    " F                      GVAR * GVAR\n"
    " G                      GVAR + GVAR\n"
    " H                      2.0\n"
)


# --- expression grammar ------------------------------------------------------------


def ev(text, **env):
    return eval_node(parse_expression(text), env)


def test_precedence_and_associativity():
    assert ev("2 + 3 * 4") == 14.0
    assert ev("1 / 2 / 2") == 0.25
    assert ev("2 ** 3 ** 2") == 512.0       # right associative
    assert ev("-2 ** 2") == -4.0            # power binds above unary minus
    assert ev("2 ** -2") == 0.25
    assert ev("-(1 + 2) * 3") == -9.0


def test_fortran_double_literals():
    assert ev("1.5D0") == 1.5
    assert ev("2.5D-1") == 0.25
    assert ev(".5E1") == 5.0


def test_integer_power_is_repeated_multiplication():
    assert ev("X ** 3", X=-2.0) == -8.0
    assert ev("X ** 0", X=-5.0) == 1.0
    x = 1.7
    assert ev("X ** 2", X=x) == x * x


def test_power_domain_errors():
    with pytest.raises(DomainError):
        ev("X ** 0.5", X=-1.0)
    with pytest.raises(DomainError):
        ev("X ** -1", X=0.0)


def test_intrinsic_values():
    assert ev("ABS(-3.0)") == 3.0
    assert ev("SQRT(9.0)") == 3.0
    assert ev("EXP(0.0)") == 1.0
    assert ev("LOG(1.0)") == 0.0
    assert ev("LOG10(100.0)") == 2.0
    assert ev("SIN(0.0)") == 0.0
    assert ev("COS(0.0)") == 1.0
    assert ev("TAN(0.0)") == 0.0
    assert ev("ASIN(1.0)") == math.pi / 2
    assert ev("ACOS(1.0)") == 0.0
    assert ev("ATAN(1.0)") == math.pi / 4
    assert ev("SINH(0.0)") == 0.0
    assert ev("COSH(0.0)") == 1.0
    assert ev("TANH(0.0)") == 0.0
    assert ev("MAX(1.0, 2.0, -4.0)") == 2.0
    assert ev("MIN(1.0, 2.0, -4.0)") == -4.0
    assert ev("SIGN(3.0, -2.0)") == -3.0    # |a| with the sign of b
    assert ev("MOD(7.0, 3.0)") == 1.0
    assert ev("MOD(-7.0, 3.0)") == -1.0     # truncated, not floored


def test_intrinsic_aliases():
    assert ev("ARCTAN(1.0)") == ev("ATAN(1.0)")
    assert ev("HYPSIN(0.3)") == ev("SINH(0.3)")
    assert ev("DSQRT(4.0)") == 2.0
    assert ev("ALOG(1.0)") == 0.0
    assert ev("DMAX1(1.0, 5.0)") == 5.0
    assert ev("DBLE(3.5)") == 3.5


def test_intrinsic_domain_errors():
    for text in ("SQRT(-1.0)", "LOG(0.0)", "LOG10(-2.0)", "ASIN(2.0)",
                 "ACOS(-2.0)", "MOD(1.0, 0.0)", "1.0 / X"):
        with pytest.raises(DomainError):
            ev(text, X=0.0)


# One row per intrinsic: arguments and the value Fortran's intrinsic gives,
# which for the transcendentals is the C library's, as math returns it.
INTRINSIC_ROWS = {
    "ABS": ((-3.0,), 3.0),
    "SQRT": ((2.25,), 1.5),
    "EXP": ((0.5,), math.exp(0.5)),
    "LOG": ((0.5,), math.log(0.5)),
    "LOG10": ((1000.0,), 3.0),
    "SIN": ((0.5,), math.sin(0.5)),
    "COS": ((0.5,), math.cos(0.5)),
    "TAN": ((0.5,), math.tan(0.5)),
    "ASIN": ((0.5,), math.asin(0.5)),
    "ACOS": ((0.5,), math.acos(0.5)),
    "ATAN": ((0.5,), math.atan(0.5)),
    "SINH": ((0.5,), math.sinh(0.5)),
    "COSH": ((0.5,), math.cosh(0.5)),
    "TANH": ((0.5,), math.tanh(0.5)),
    "MAX": ((1.0, 2.0, -4.0), 2.0),
    "MIN": ((1.0, 2.0, -4.0), -4.0),
    "SIGN": ((3.0, -2.0), -3.0),
    "MOD": ((-7.0, 3.0), -1.0),
}

# Each Fortran spelling and the intrinsic it means.
INTRINSIC_ALIASES = {
    "ARCSIN": "ASIN", "ARCCOS": "ACOS", "ARCTAN": "ATAN",
    "HYPSIN": "SINH", "HYPCOS": "COSH", "HYPTAN": "TANH",
    "DABS": "ABS", "DSQRT": "SQRT", "DEXP": "EXP", "DLOG": "LOG",
    "DLOG10": "LOG10", "DSIN": "SIN", "DCOS": "COS", "DTAN": "TAN",
    "DASIN": "ASIN", "DACOS": "ACOS", "DATAN": "ATAN",
    "DSINH": "SINH", "DCOSH": "COSH", "DTANH": "TANH",
    "DSIGN": "SIGN", "DMOD": "MOD",
    "DMAX1": "MAX", "DMIN1": "MIN", "AMAX1": "MAX", "AMIN1": "MIN",
    "ALOG": "LOG", "ALOG10": "LOG10",
    "abs": "ABS", "Sqrt": "SQRT",
}


def call_text(name, count):
    return f"{name}({', '.join(f'A{k}' for k in range(count))})"


@pytest.mark.parametrize("name", [*INTRINSIC_ROWS, *INTRINSIC_ALIASES])
def test_intrinsic_conformance(name):
    args, expected = INTRINSIC_ROWS[INTRINSIC_ALIASES.get(name, name)]
    node = parse_expression(call_text(name, len(args)))
    env = {f"A{k}": arg for k, arg in enumerate(args)}
    assert eval_node(node, env) == expected
    # over arrays: every entry as over scalars, a scalar argument broadcast
    arrays = {**env, "A0": np.array([args[0], args[0]])}
    assert eval_node(node, arrays).tolist() == [expected, expected]
    if len(args) == 1:
        assert apply_intrinsic(name, *args) == expected


# Each failure, with the exact message, and the argument that raises it.
DOMAIN_ROWS = [
    ("SQRT(X)", -1.0, "SQRT of negative value -1.0"),
    ("LOG(X)", -3.0, "LOG of non-positive value -3.0"),
    ("LOG10(X)", 0.0, "LOG10 of non-positive value 0.0"),
    ("ASIN(X)", 2.0, "ASIN of value 2.0 outside [-1, 1]"),
    ("ACOS(X)", -2.0, "ACOS of value -2.0 outside [-1, 1]"),
    ("MOD(1.0, X)", 0.0, "MOD with zero divisor"),
    ("EXP(X)", 1000.0, "overflow in EXP"),
    ("SINH(X)", 1000.0, "overflow in SINH"),
    ("COSH(X)", -1000.0, "overflow in COSH"),
    ("1.0 / X", 0.0, "division by zero"),
    ("X ** 0.5", -1.0, "-1.0 ** 0.5 with non-integer exponent"),
    ("X ** -1", 0.0, "zero raised to a negative power"),
]


@pytest.mark.parametrize("text,bad,message", DOMAIN_ROWS)
def test_domain_error_conformance(text, bad, message):
    node = parse_expression(text)
    with pytest.raises(DomainError) as info:
        eval_node(node, {"X": bad})
    assert info.value.message == message
    # over arrays the first entry outside the domain is named
    with pytest.raises(DomainError) as info:
        eval_node(node, {"X": np.array([0.5, bad, bad])})
    assert info.value.message == message


def test_math_failures_are_domain_errors():
    for text in ("SIN(X)", "COS(X)", "TAN(X)", "MOD(X, 1.0)"):
        for x in (math.inf, np.array([0.5, -math.inf])):
            with pytest.raises(DomainError):
                ev(text, X=x)


@pytest.mark.parametrize("text,message", [
    ("SIN(1.0, 2.0)", "SIN called with 2 arguments in 'SIN(1.0, 2.0)'"),
    ("MAX(1.0)", "MAX called with 1 arguments in 'MAX(1.0)'"),
    ("DMIN1(1.0)", "MIN called with 1 arguments in 'DMIN1(1.0)'"),
    ("SIGN(1.0, 2.0, 3.0)", "SIGN called with 3 arguments in 'SIGN(1.0, 2.0, 3.0)'"),
    ("MOD(1.0)", "MOD called with 1 arguments in 'MOD(1.0)'"),
])
def test_parser_arity_errors(text, message):
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression(text, line_number=4)
    assert (info.value.message, info.value.line_number) == (message, 4)


@pytest.mark.parametrize("name,args,error,message", [
    ("MAX", (1.0,), ExpressionSyntaxError, "MAX called with 1 arguments"),
    ("AMIN1", (1.0,), ExpressionSyntaxError, "MIN called with 1 arguments"),
    ("SIGN", (1.0,), ExpressionSyntaxError, "SIGN called with 1 arguments"),
    ("SIN", (1.0, 2.0), ExpressionSyntaxError, "SIN called with 2 arguments"),
    ("FOO", (1.0,), UnknownIntrinsic, "unknown intrinsic 'FOO'"),
    ("ALOG", (-1.0,), DomainError, "LOG of non-positive value -1.0"),
])
def test_apply_intrinsic_errors(name, args, error, message):
    with pytest.raises(error) as info:
        apply_intrinsic(name, *args)
    assert type(info.value) is error and info.value.message == message


@pytest.mark.parametrize("ufunc,scalar", [(np.sqrt, math.sqrt), (np.abs, abs)])
def test_array_intrinsics_round_like_math(ufunc, scalar):
    """The ufuncs that run ABS and SQRT over arrays round exactly as the math
    functions do over scalars; comparing the two evaluation paths cannot
    show this, as both read one table."""
    rng = np.random.default_rng(23)
    x = rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, 1000)
    x[:4] = (0.0, -0.0, 5e-324, math.inf)
    if ufunc is np.sqrt:
        x = np.abs(x)
    expected = np.array([scalar(value) for value in x.tolist()])
    assert np.array_equal(ufunc(x).view(np.int64), expected.view(np.int64))


def test_unknown_intrinsic_fails_at_parse():
    with pytest.raises(UnknownIntrinsic):
        parse_expression("BESSEL(1.0)")


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression("1 +", line_number=12)
    assert info.value.line_number == 12
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(1 + 2")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("SIN(1.0, 2.0)")


def test_prefix_json_round_trip():
    node = parse_expression("PW * (A + B) ** 2 - SIN(A) / 2.0")
    assert node_from_json(node_to_json(node)) == node


def test_unknown_operator_in_json_rejected():
    with pytest.raises(ExpressionSyntaxError) as info:
        node_from_json(["bin", "%", ["num", 1.0], ["num", 2.0]])
    assert info.value.message == "unknown operator '%'"


# --- parsing the nonlinear sections ---------------------------------------------------


def test_square_element_program():
    part = element_part(SQ_BODY, SQ_DECL)
    program = part.descriptors["SQ"].program
    assert program.value == ("bin", "*", ("var", "V1"), ("var", "V1"))
    assert program.first["V1"] == ("bin", "+", ("var", "V1"), ("var", "V1"))
    assert program.second[("V1", "V1")] == ("num", 2.0)


def test_square_group_program():
    part = group_part(L2_BODY, L2_DECL)
    descriptor = part.descriptors["L2"]
    assert descriptor.argument == "GVAR"
    assert eval_group_function(descriptor, 3.0, {}, {}, 2) == (9.0, 6.0, 2.0)
    assert eval_group_function(descriptor, 0.0, {}, {}, 2) == (0.0, 0.0, 2.0)


def test_trivial_group_is_identity():
    assert eval_group_function(trivial_group(), 7.0, {}, {}, 2) == (7.0, 1.0, 0.0)


def test_globals_evaluate_in_order():
    body = ("GLOBALS\n"
            " A  BASE                2.0\n"
            " A  TWICE               BASE + BASE\n")
    part = element_part(body + SQ_BODY, SQ_DECL)
    assert part.global_names == ("BASE", "TWICE")
    assert part.global_values == (2.0, 4.0)


def test_continuation_lines_merge():
    body = ("INDIVIDUALS\n"
            " T  SQ\n"
            " F                      V1 *\n"
            " F+                     V1\n"
            " G  V1                  V1 + V1\n"
            " H  V1        V1        2.0\n")
    part = element_part(body, SQ_DECL)
    value, _, _ = eval_element(part.descriptors["SQ"], np.array([3.0]), {}, {}, 0)
    assert value == 9.0


def test_undeclared_name_rejected():
    body = ("INDIVIDUALS\n"
            " T  SQ\n"
            " F                      V1 * WRONG\n")
    with pytest.raises(UndeclaredName):
        element_part(body, SQ_DECL)


def test_missing_value_expression_rejected():
    body = ("INDIVIDUALS\n"
            " T  SQ\n"
            " G  V1                  V1 + V1\n")
    with pytest.raises(MissingValueExpression):
        element_part(body, SQ_DECL)


# --- element evaluation -----------------------------------------------------------


def difsq_descriptor():
    decl = {"DIFSQ": ElementTypeDecl(("V1", "V2"), ("U1",), ())}
    body = ("INDIVIDUALS\n"
            " T  DIFSQ\n"
            " R  U1        V1        1.0       V2        -1.0\n"
            " F                      U1 * U1\n"
            " G  U1                  U1 + U1\n"
            " H  U1        U1        2.0\n")
    return element_part(body, decl).descriptors["DIFSQ"]


def test_range_matrix_chain_rule():
    value, gradient, hessian = eval_element(
        difsq_descriptor(), np.array([3.0, 1.0]), {}, {}, 2)
    assert value == 4.0
    assert gradient.tolist() == [4.0, -4.0]
    assert hessian.tolist() == [[2.0, -2.0], [-2.0, 2.0]]


def test_identity_transform_passthrough():
    descriptor = element_part(SQ_BODY, SQ_DECL).descriptors["SQ"]
    value, gradient, hessian = eval_element(descriptor, np.array([0.0]), {}, {}, 2)
    assert (value, gradient.tolist(), hessian.tolist()) == (0.0, [0.0], [[2.0]])


def test_exponential_element_at_zero():
    decl = {"XP": ElementTypeDecl(("V1",), (), ())}
    body = ("INDIVIDUALS\n"
            " T  XP\n"
            " F                      EXP( V1 )\n"
            " G  V1                  EXP( V1 )\n"
            " H  V1        V1        EXP( V1 )\n")
    descriptor = element_part(body, decl).descriptors["XP"]
    value, gradient, hessian = eval_element(descriptor, np.array([0.0]), {}, {}, 2)
    assert (value, gradient.tolist(), hessian.tolist()) == (1.0, [1.0], [[1.0]])


def test_missing_element_slots_are_zero():
    decl = {"PLANE": ElementTypeDecl(("V1", "V2"), (), ())}
    body = ("INDIVIDUALS\n"
            " T  PLANE\n"
            " F                      V1 * V1 + V2\n"
            " G  V1                  V1 + V1\n"
            " G  V2                  1.0\n"
            " H  V1        V1        2.0\n")
    descriptor = element_part(body, decl).descriptors["PLANE"]
    _, _, hessian = eval_element(descriptor, np.array([1.0, 2.0]), {}, {}, 2)
    assert hessian.tolist() == [[2.0, 0.0], [0.0, 0.0]]


def test_group_missing_derivative_is_strict():
    body = ("INDIVIDUALS\n"
            " T  L2\n"
            " F                      GVAR * GVAR\n"
            " G                      GVAR + GVAR\n")
    descriptor = group_part(body, L2_DECL).descriptors["L2"]
    assert eval_group_function(descriptor, 2.0, {}, {}, 1,
                               strict_derivatives=True)[1] == 4.0
    with pytest.raises(MissingDerivative):
        eval_group_function(descriptor, 2.0, {}, {}, 2, strict_derivatives=True)


def test_element_hessian_is_exactly_symmetric():
    decl = {"MIX": ElementTypeDecl(("V1", "V2"), (), ())}
    body = ("INDIVIDUALS\n"
            " T  MIX\n"
            " F                      V1 * V1 * V2 + EXP( V1 * V2 )\n"
            " G  V1                  2.0 * V1 * V2 + V2 * EXP( V1 * V2 )\n"
            " G  V2                  V1 * V1 + V1 * EXP( V1 * V2 )\n"
            " H  V1        V1        2.0 * V2 + V2 * V2 * EXP( V1 * V2 )\n"
            " H  V1        V2        2.0 * V1 + ( 1.0 + V1 * V2 ) * EXP( V1 * V2 )\n"
            " H  V2        V2        V1 * V1 * EXP( V1 * V2 )\n")
    descriptor = element_part(body, decl).descriptors["MIX"]
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=2)
        _, _, hessian = eval_element(descriptor, x, {}, {}, 2)
        assert (hessian == hessian.T).all()


# --- derivative coherence against finite differences --------------------------------


def fd1(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


COHERENCE_CASES = [
    ("V1 * V1", "V1 + V1", "2.0", (-2.0, 2.0)),
    ("EXP( V1 )", "EXP( V1 )", "EXP( V1 )", (-1.0, 1.0)),
    ("LOG( V1 )", "1.0 / V1", "-1.0 / V1 ** 2", (0.5, 2.0)),
    ("SQRT( V1 )", "0.5 / SQRT( V1 )", "-0.25 / V1 ** 1.5", (0.5, 2.0)),
    ("SIN( V1 )", "COS( V1 )", "-SIN( V1 )", (-1.0, 1.0)),
    ("COS( V1 )", "-SIN( V1 )", "-COS( V1 )", (-1.0, 1.0)),
    ("TAN( V1 )", "1.0 + TAN( V1 ) ** 2", "2.0 * TAN( V1 ) * ( 1.0 + TAN( V1 ) ** 2 )",
     (-0.5, 0.5)),
    ("ASIN( V1 )", "1.0 / SQRT( 1.0 - V1 ** 2 )",
     "V1 / SQRT( 1.0 - V1 ** 2 ) ** 3", (-0.5, 0.5)),
    ("ATAN( V1 )", "1.0 / ( 1.0 + V1 ** 2 )",
     "-2.0 * V1 / ( 1.0 + V1 ** 2 ) ** 2", (-1.0, 1.0)),
    ("SINH( V1 )", "COSH( V1 )", "SINH( V1 )", (-1.0, 1.0)),
    ("TANH( V1 )", "1.0 - TANH( V1 ) ** 2",
     "-2.0 * TANH( V1 ) * ( 1.0 - TANH( V1 ) ** 2 )", (-1.0, 1.0)),
    ("V1 ** 3 - 2.0 * V1", "3.0 * V1 ** 2 - 2.0", "6.0 * V1", (-2.0, 2.0)),
    ("V1 ** 1.5", "1.5 * V1 ** 0.5", "0.75 / V1 ** 0.5", (0.5, 2.0)),
]


@pytest.mark.parametrize("value,first,second,window", COHERENCE_CASES)
def test_file_derivatives_match_finite_differences(value, first, second, window):
    body = ("INDIVIDUALS\n"
            " T  SQ\n"
            f" F                      {value}\n"
            f" G  V1                  {first}\n"
            f" H  V1        V1        {second}\n")
    descriptor = element_part(body, SQ_DECL).descriptors["SQ"]
    rng = np.random.default_rng(42)
    low, high = window
    for _ in range(20):
        point = rng.uniform(low, high)

        def value_at(t):
            return eval_element(descriptor, np.array([t]), {}, {}, 0)[0]

        def slope_at(t):
            return eval_element(descriptor, np.array([t]), {}, {}, 1)[1][0]

        _, gradient, hessian = eval_element(descriptor, np.array([point]), {}, {}, 2)
        assert abs(gradient[0] - fd1(value_at, point)) <= 1e-6 * max(
            1.0, abs(gradient[0]))
        assert abs(hessian[0, 0] - fd1(slope_at, point)) <= 1e-5 * max(
            1.0, abs(hessian[0, 0]))
