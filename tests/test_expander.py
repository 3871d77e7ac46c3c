from __future__ import annotations

import random

import numpy as np
import pytest

from sifgps import DecodeOptions, decode, dump_text, read_sif, setup
from sifgps.errors import (
    DomainError,
    ExpressionSyntaxError,
    MalformedRecord,
    TypeMismatch,
    UnboundLoopVariable,
    UnboundParameter,
    UnknownDirective,
    UnknownIntrinsic,
    UnterminatedLoop,
    UnusedUserParameters,
    ZeroIncrement,
)
from sifgps.expander import (
    NameRegistry,
    ParameterEnvironment,
    eval_param_directive,
    expand_loops,
    rename_problem,
)
from sifgps.reader import SourceRecord

from conftest import decode_corpus, sif_text


def rec(indicator, name2="", name3="", value4="", name5="", value6="", line=1,
        comment=None):
    return SourceRecord(line, indicator, name2, name3, value4, name5, value6,
                        comment)


# --- name registry ---------------------------------------------------------


def test_registry_allocates_densely():
    reg = NameRegistry()
    assert reg.resolve("X1") == (0, True)
    assert reg.resolve("X1") == (0, False)
    assert reg.resolve("X2") == (1, True)
    assert reg.resolve("G1") == (2, True)
    assert reg.names == ("X1", "X2", "G1")
    assert reg.next_index == 3


# --- renaming ----------------------------------------------------------------


def test_rename_problem_table():
    assert rename_problem("C-RELOAD") == "CmRELOAD"
    assert rename_problem("10FOLDTR") == "n10FOLDTR"
    assert rename_problem("A+B/2") == "ApBd2"
    assert rename_problem("PLAIN") == "PLAIN"


def test_rename_problem_randomized():
    rng = random.Random(7)
    alphabet = "ABxy01239+-*/"
    table = {"+": "p", "-": "m", "*": "t", "/": "d"}
    for _ in range(100):
        name = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        renamed = rename_problem(name)
        expected = "".join(table.get(c, c) for c in name)
        if expected[0].isdigit():
            expected = "n" + expected
        assert renamed == expected
        assert not any(c in renamed for c in "+-*/")


# --- parameter directives -----------------------------------------------------


def test_integer_assignment():
    env = ParameterEnvironment()
    eval_param_directive(env, rec("IE", "N", value4="3"))
    assert env.integer_params == {"N": 3}


def test_real_multiply_after_conversion():
    env = ParameterEnvironment()
    eval_param_directive(env, rec("IE", "N", value4="3"))
    eval_param_directive(env, rec("RI", "RN", "N"))
    eval_param_directive(env, rec("RM", "H", "RN", "0.5"))
    assert env.real_params["H"] == 1.5


def test_integer_add_two_parameters():
    env = ParameterEnvironment()
    eval_param_directive(env, rec("IE", "N", value4="3"))
    eval_param_directive(env, rec("IE", "K", value4="4"))
    eval_param_directive(env, rec("I+", "M", "N", name5="K"))
    assert env.integer_params["M"] == 7


def test_subtract_from_and_divide_semantics():
    env = ParameterEnvironment()
    eval_param_directive(env, rec("IE", "N", value4="3"))
    eval_param_directive(env, rec("IS", "P", "N", "10"))
    assert env.integer_params["P"] == 7  # value minus parameter
    eval_param_directive(env, rec("ID", "Q", "N", "-7"))
    assert env.integer_params["Q"] == -2  # truncation toward zero
    eval_param_directive(env, rec("RE", "X", value4="4.0"))
    eval_param_directive(env, rec("RD", "Y", "X", "1.0"))
    assert env.real_params["Y"] == 0.25


def test_rf_intrinsic():
    env = ParameterEnvironment()
    eval_param_directive(env, rec("RF", "R", "SQRT", "9.0"))
    assert env.real_params["R"] == 3.0


def test_fortran_double_literal():
    env = ParameterEnvironment()
    eval_param_directive(env, rec("RE", "R", value4="1.5D-1"))
    assert env.real_params["R"] == 0.15


def test_string_parameters():
    env = ParameterEnvironment()
    eval_param_directive(env, rec("AE", "S", "'L2'"))
    eval_param_directive(env, rec("A=", "T", "S"))
    assert env.string_params == {"S": "L2", "T": "L2"}


def test_directive_errors():
    env = ParameterEnvironment()
    with pytest.raises(UnboundParameter):
        eval_param_directive(env, rec("IA", "M", "N", "1"))
    eval_param_directive(env, rec("RE", "R", value4="1.0"))
    with pytest.raises(TypeMismatch):
        eval_param_directive(env, rec("IA", "M", "R", "1"))
    with pytest.raises(UnknownDirective):
        eval_param_directive(env, rec("QQ", "M", "N", "1"))


# One row per directive code, with the value worked out by hand.  The
# environment holds N=3, K=4, M7=-7, TWO=2, Z=0, X=4.0, Y=0.25, RZ=0.0, S='L2'.
DIRECTIVE_ROWS = [
    (rec("IE", "T", value4="3"), 3),
    (rec("IA", "T", "N", "4"), 7),            # parameter plus literal
    (rec("IS", "T", "N", "10"), 7),           # literal minus parameter
    (rec("IM", "T", "N", "-4"), -12),
    (rec("ID", "T", "N", "-7"), -2),          # literal over parameter, truncated
    (rec("ID", "T", "N", "7"), 2),
    (rec("I=", "T", "N"), 3),
    (rec("I+", "T", "N", name5="K"), 7),
    (rec("I-", "T", "N", name5="K"), -1),
    (rec("I*", "T", "N", name5="K"), 12),
    (rec("I/", "T", "M7", name5="TWO"), -3),  # toward zero, not floor's -4
    (rec("I/", "T", "K", name5="N"), 1),
    (rec("i+", "T", "N", name5="K"), 7),      # codes are case-blind
    (rec("RE", "T", value4="2.5D0"), 2.5),
    (rec("RA", "T", "X", "0.5"), 4.5),
    (rec("RS", "T", "X", "1.0"), -3.0),
    (rec("RM", "T", "X", "0.5"), 2.0),
    (rec("RD", "T", "X", "1.0"), 0.25),
    (rec("R=", "T", "Y"), 0.25),
    (rec("R+", "T", "X", name5="Y"), 4.25),
    (rec("R-", "T", "X", name5="Y"), 3.75),
    (rec("R*", "T", "X", name5="Y"), 1.0),
    (rec("R/", "T", "X", name5="Y"), 16.0),
    (rec("RI", "T", "N"), 3.0),
    (rec("RF", "T", "SQRT", "9.0"), 3.0),
    (rec("RF", "T", "SQRT", name5="X"), 2.0),  # operand from field 5
    (rec("RF", "T", "DABS", "-1.5"), 1.5),
    (rec("AE", "T", "'L3'"), "L3"),
    (rec("AE", "T", value4="ABC"), "ABC"),
    (rec("A=", "T", "S"), "L2"),
]


def directive_env() -> ParameterEnvironment:
    env = ParameterEnvironment()
    for name, value in (("N", 3), ("K", 4), ("M7", -7), ("TWO", 2), ("Z", 0)):
        env.bind_int(name, value)
    for name, value in (("X", 4.0), ("Y", 0.25), ("RZ", 0.0)):
        env.bind_real(name, value)
    env.bind_string("S", "L2")
    return env


@pytest.mark.parametrize("record,expected", DIRECTIVE_ROWS,
                         ids=[f"{r.indicator}-{i}" for i, (r, _) in
                              enumerate(DIRECTIVE_ROWS)])
def test_directive_conformance(record, expected):
    env = directive_env()
    env.bind_string("T", "old")  # a rebinding drops the old type's entry
    eval_param_directive(env, record)
    tables = {"I": env.integer_params, "R": env.real_params, "A": env.string_params}
    kind = record.indicator[0].upper()
    assert tables[kind]["T"] == expected
    assert type(tables[kind]["T"]) is type(expected)
    assert [k for k, table in tables.items() if "T" in table] == [kind]


DIRECTIVE_ERROR_ROWS = [
    (rec("ID", "T", "Z", "5", line=7), MalformedRecord, "integer division by zero"),
    (rec("I/", "T", "N", name5="Z", line=7), MalformedRecord,
     "integer division by zero"),
    (rec("RD", "T", "RZ", "1.0", line=7), MalformedRecord,
     "division by zero parameter"),
    (rec("R/", "T", "X", name5="RZ", line=7), MalformedRecord,
     "division by zero parameter"),
    (rec("RI", "T", "X", line=7), TypeMismatch, "parameter 'X' is not an integer"),
    (rec("R+", "T", "N", name5="X", line=7), TypeMismatch,
     "parameter 'N' is not a real (convert with RI)"),
    (rec("IE", "T", value4="2.5", line=7), TypeMismatch,
     "expected an integer literal, got '2.5'"),
    (rec("RF", "T", "SQRT", line=7), MalformedRecord, "RF directive without an operand"),
    (rec("A=", "T", "Q", line=7), UnboundParameter, "string parameter 'Q' is not bound"),
    (rec("I=", "T", "Q", line=7), UnboundParameter, "integer parameter 'Q' is not bound"),
    (rec("IA", "", "N", "1", line=7), MalformedRecord,
     "directive without a target parameter"),
    (rec("QQ", "T", "N", "1", line=7), UnknownDirective, "unknown directive code 'QQ'"),
]


@pytest.mark.parametrize("record,error,message", DIRECTIVE_ERROR_ROWS,
                         ids=[f"{r.indicator}-{i}" for i, (r, _, _) in
                              enumerate(DIRECTIVE_ERROR_ROWS)])
def test_directive_error_conformance(record, error, message):
    with pytest.raises(error) as info:
        eval_param_directive(directive_env(), record)
    assert type(info.value) is error
    assert (info.value.message, info.value.line_number) == (message, 7)


@pytest.mark.parametrize("record,error,message", [
    (rec("RF", "T", "FOO", "1.0", line=9), UnknownIntrinsic, "unknown intrinsic 'FOO'"),
    (rec("RF", "T", "LOG", "-1.0", line=9), DomainError, "LOG of non-positive value -1.0"),
    (rec("RF", "T", "MAX", "1.0", line=9), ExpressionSyntaxError,
     "MAX called with 1 arguments"),
], ids=["unknown", "domain", "arity"])
def test_rf_errors_name_their_line(record, error, message):
    with pytest.raises(error) as info:
        eval_param_directive(directive_env(), record)
    assert (info.value.message, info.value.line_number) == (message, 9)


def test_rf_of_an_infinite_parameter_is_a_sif_error():
    text = sif_text("NAME T",
                    ("RE", "BIG", "", "1.0D+400"),
                    ("RF", "S", "SIN", "", "BIG"),
                    "VARIABLES",
                    ("", "A"),
                    "ENDATA")
    with pytest.raises(DomainError) as info:
        decode(text)
    assert info.value.line_number == 3
    assert info.value.message == "SIN of inf outside its domain"


# --- loops ---------------------------------------------------------------------


def collect(records, env=None):
    env = env or ParameterEnvironment()
    out = []
    expand_loops(records, env, out.append)
    return out


def test_simple_loop_expansion():
    records = [
        rec("DO", "I", "1", name5="3"),
        rec("X", "X(I)"),
        rec("ND"),
    ]
    assert [r.name2 for r in collect(records)] == ["X1", "X2", "X3"]


def test_empty_loop_range():
    records = [rec("DO", "I", "1", name5="0"), rec("X", "X(I)"), rec("ND")]
    assert collect(records) == []


def test_nested_loops_row_major():
    records = [
        rec("DO", "I", "1", name5="2"),
        rec("DO", "J", "1", name5="2"),
        rec("X", "A(I,J)"),
        rec("ND"),
        rec("ND"),
    ]
    assert [r.name2 for r in collect(records)] == ["A1,1", "A1,2", "A2,1", "A2,2"]


def test_loop_increment():
    records = [
        rec("DO", "I", "1", name5="5"),
        rec("DI", "I", "2"),
        rec("X", "X(I)"),
        rec("ND"),
    ]
    assert [r.name2 for r in collect(records)] == ["X1", "X3", "X5"]


def test_directives_execute_inside_loops():
    env = ParameterEnvironment()
    records = [
        rec("DO", "I", "1", name5="3"),
        rec("IA", "I+1", "I", "1"),
        rec("X", "G(I+1)"),
        rec("ND"),
    ]
    assert [r.name2 for r in collect(records, env)] == ["G2", "G3", "G4"]


def test_loop_errors():
    with pytest.raises(UnterminatedLoop):
        collect([rec("DO", "I", "1", name5="3"), rec("X", "X(I)")])
    with pytest.raises(ZeroIncrement):
        collect([rec("DO", "I", "1", name5="3"), rec("DI", "I", "0"),
                 rec("X", "X(I)"), rec("ND")])
    with pytest.raises(UnboundLoopVariable):
        collect([rec("X", "X(K)")])


# --- setup over the corpus ------------------------------------------------------


def test_rosenbrock_setup():
    problem, internals = decode_corpus("ROSENBR")
    assert (problem.n, problem.m, problem.nob) == (2, 0, 2)
    assert problem.name == "ROSENBR"
    assert problem.sif_name is None
    np.testing.assert_array_equal(problem.x0, [-1.2, 1.0])
    assert problem.pbclass == "SUR2-AN-2-0"
    assert problem.objlower == 0.0
    assert internals.grftype == ("L2", "L2")
    assert [w.tolist() for w in internals.grelw] == [[-1.0], []]


def test_user_parameters_positional():
    default_problem, _ = decode_corpus("LOOPQD")
    assert default_problem.n == 5
    smaller, small_internals = decode_corpus("LOOPQD", user_params=(4,))
    assert smaller.n == 4
    assert small_internals.gconst[0] == 0.5  # second parameter kept its default
    both, both_internals = decode_corpus("LOOPQD", user_params=(8, 0.25))
    assert both.n == 8
    assert both_internals.gconst[0] == 0.25


def test_defaults_as_user_params_match_no_params():
    base_p, base_i = decode_corpus("LOOPQD")
    same_p, same_i = decode_corpus("LOOPQD", user_params=(5, 0.5))
    assert dump_text(base_p, base_i, {}) == dump_text(same_p, same_i, {})


def test_named_user_parameters_are_checked():
    decode_corpus("LOOPQD", user_params=[("N", 4)])
    with pytest.raises(MalformedRecord):
        decode_corpus("LOOPQD", user_params=[("M", 4)])


def test_extra_user_parameters_error():
    with pytest.raises(UnusedUserParameters):
        decode_corpus("LOOPQD", user_params=(4, 0.5, 9))


def test_non_numeric_user_parameter_error():
    with pytest.raises(TypeMismatch):
        decode_corpus("LOOPQD", user_params=("abc",))
    with pytest.raises(TypeMismatch):
        decode_corpus("LOOPQD", user_params=(4.5,))  # integer slot


def test_setup_is_deterministic():
    a = decode_corpus("CONSELM")
    b = decode_corpus("CONSELM")
    assert dump_text(a[0], a[1], {}) == dump_text(b[0], b[1], {})


def test_flattened_indices_are_dense():
    problem, internals = decode_corpus("LOOPQD")
    assert problem.n == 5
    assert internals.n_groups == 4
    for row in internals.elvar:
        assert np.all(row >= 0) and np.all(row < problem.n)
    for row in internals.grelt:
        assert np.all(row >= 0) and np.all(row < len(internals.elftype))


def test_default_bounds_and_start():
    program = read_sif("NAME X\nVARIABLES\n    A\n    B\nGROUPS\n"
                       " N  OBJ       A         1.0\n"
                       "BOUNDS\n FR X         B\nENDATA\n")
    problem, _ = setup(program)
    np.testing.assert_array_equal(problem.xlower, [0.0, -np.inf])
    np.testing.assert_array_equal(problem.xupper, [np.inf, np.inf])
    np.testing.assert_array_equal(problem.x0, [0.0, 0.0])


def test_repeated_linear_entries_sum_by_default():
    text = ("NAME X\nVARIABLES\n    A\nGROUPS\n"
            " N  OBJ       A         1.0\n N  OBJ       A         2.5\nENDATA\n")
    summed_problem, summed = decode(text)
    assert summed.A.toarray().tolist() == [[3.5]]
    _, overwritten = decode(text, options=DecodeOptions(addin_a=False))
    assert overwritten.A.toarray().tolist() == [[2.5]]


def test_alternative_sets_are_inert():
    text = ("NAME X\nVARIABLES\n    A\nGROUPS\n N  OBJ       A         1.0\n"
            "CONSTANTS\n    FIRST     OBJ       1.0\n    SECOND    OBJ       9.0\n"
            "ENDATA\n")
    _, internals = decode(text)
    assert internals.gconst.tolist() == [1.0]
    assert internals.alt_sets == {"CONSTANTS": ("SECOND",)}


def test_keepcorder_preserves_file_order():
    default_p, default_i = decode_corpus("RNGLP3")
    kept_p, kept_i = decode_corpus("RNGLP3", keepcorder=True)
    assert default_p.cnames == ("CLE", "CEQ", "CGE")
    assert kept_p.cnames == ("CEQ", "CLE", "CGE")
    assert kept_p.y0.tolist() == [-1.0, 0.25, 1.0]


def test_keepcformat_reports_types_and_ranges():
    problem, _ = decode_corpus("RNGLP3", keepcformat=True)
    assert problem.clower is None and problem.cupper is None
    assert problem.ctypes == ("<=", "==", ">=")
    assert problem.cranges == (-3.0, None, 5.0)


def test_group_parameters_reach_internals():
    _, internals = decode_corpus("GRPWGT")
    assert [p.tolist() for p in internals.grpar] == [[0.5], [2.0]]
    assert internals.gfpar_names == ("GSHIFT",)
    assert internals.gfpar.tolist() == [0.25]


def test_element_parameters_and_range_matrix():
    _, internals = decode_corpus("CONSELM")
    assert internals.elftype == ("DIFSQ", "PSQ", "DIFSQ")
    assert internals.elpar[1].tolist() == [2.5]
    difsq = internals.element_types["DIFSQ"]
    assert difsq.internal == ("U1",)
    assert difsq.range_matrix.tolist() == [[1.0, -1.0]]
    assert internals.efpar_names == ("EFACT",)


def test_integer_and_binary_types_from_bounds():
    problem, _ = decode_corpus("MPSROWS")
    assert problem.xtype == "ibr"
    np.testing.assert_array_equal(problem.xlower, [0.0, 0.0, -1.0])
    np.testing.assert_array_equal(problem.xupper, [4.0, 1.0, 1.0])


def test_default_element_type():
    from conftest import sif_text

    text = sif_text(
        "NAME T",
        "VARIABLES",
        ("", "A"),
        "GROUPS",
        ("N", "OBJ"),
        "ELEMENT TYPE",
        ("EV", "SQ", "V1"),
        "ELEMENT USES",
        ("T", "'DEFAULT'", "SQ"),
        ("V", "E1", "V1", "", "A"),
        "GROUP USES",
        ("E", "OBJ", "E1"),
        "ENDATA",
        "ELEMENTS T",
        "INDIVIDUALS",
        ("T", "SQ"),
        ("F", "", "", "V1 * V1"),
        ("G", "V1", "", "V1 + V1"),
        ("H", "V1", "V1", "2.0"),
        "ENDATA",
    )
    _, internals = decode(text)
    assert internals.elftype == ("SQ",)
    assert internals.grelw[0].tolist() == [1.0]  # weight defaults to one


def test_z_form_bounds_take_parameter_values():
    from conftest import sif_text

    text = sif_text(
        "NAME T",
        ("RE", "CAP", "", "2.5"),
        "VARIABLES",
        ("", "A"),
        "GROUPS",
        ("N", "OBJ", "A", "1.0"),
        "BOUNDS",
        ("ZU", "T", "A", "", "CAP"),
        "ENDATA",
    )
    problem, _ = decode(text)
    assert problem.xupper.tolist() == [2.5]
    assert problem.xlower.tolist() == [0.0]


def test_bound_codes_and_default_bounds():
    from conftest import sif_text

    text = sif_text(
        "NAME T",
        "VARIABLES",
        ("", "A"),
        ("", "B"),
        ("", "C"),
        ("", "D"),
        "GROUPS",
        ("N", "OBJ", "A", "1.0"),
        "BOUNDS",
        ("UP", "BND", "'DEFAULT'", "10.0"),
        ("LO", "BND", "'DEFAULT'", "-1.0"),
        ("FX", "BND", "A", "3.0"),
        ("MI", "BND", "B"),
        ("PL", "BND", "C"),
        "ENDATA",
    )
    problem, _ = decode(text)
    assert problem.xlower.tolist() == [3.0, -np.inf, -1.0, -1.0]
    assert problem.xupper.tolist() == [3.0, 10.0, np.inf, 10.0]


def test_bad_range_sign_is_a_decode_error():
    from conftest import sif_text
    from sifgps.errors import RangeSignViolation

    text = sif_text(
        "NAME T",
        "VARIABLES",
        ("", "A"),
        "GROUPS",
        ("N", "OBJ", "A", "1.0"),
        ("L", "CON", "A", "1.0"),
        "RANGES",
        ("", "T", "CON", "3.0"),
        "ENDATA",
    )
    with pytest.raises(RangeSignViolation):
        decode(text)


def test_name_options():
    bare_problem, bare_internals = decode_corpus(
        "CONSELM", get_xnames=False, get_cnames=False)
    assert bare_problem.xnames is None and bare_problem.cnames is None
    assert bare_internals.enames is None and bare_internals.grnames is None
    named_problem, named_internals = decode_corpus(
        "CONSELM", get_enames=True, get_gnames=True)
    assert named_problem.xnames == ("X1", "X2", "X3")
    assert named_problem.cnames == ("CON2", "CON1")
    assert named_internals.enames == ("E1", "E2", "E3")
    assert named_internals.grnames == ("OBJ", "CON1", "CON2")
