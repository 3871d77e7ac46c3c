"""The type-batched evaluation against the per-instance walk, bit for bit.

``Evaluator`` runs each element type's and group type's program once over
arrays of instances.  Its per-instance walk (``_scalar_fill``) is the
oracle: every action must give the same bits, and every planted domain
failure the same error, with the same class, message and indices.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from scipy import sparse

from sifgps import Evaluator, decode
from sifgps.errors import DomainError, SifError
from sifgps.evaluator import ACTIONS
from sifgps.expressions import eval_node, parse_expression

from conftest import GOOD_CORPUS, corpus_text, decode_corpus, perfbench_problems, sif_text
from test_random_problems import random_problem_text


class ScalarEvaluator(Evaluator):
    """Every call through the per-instance walk."""

    _fill = Evaluator._scalar_fill


class BatchedOnly(Evaluator):
    """Every call through the batched fill; falling back is a test failure."""

    def _scalar_fill(self, x, order, plan):
        raise AssertionError("the batched fill fell back to the scalar walk")


def bits(value):
    """A value's exact bits: shapes, sparse structure and float64 words."""
    if sparse.issparse(value):
        return ("csr", value.shape, value.indptr.tolist(), value.indices.tolist(),
                value.data.view(np.int64).tolist())
    if isinstance(value, list):
        return [bits(item) for item in value]
    array = np.asarray(value, dtype=float)
    return (array.shape, array.view(np.int64).tolist())


def outcome(evaluator, name, x, y, v, subset):
    """Each output's bits, or the error's class, message and indices."""
    try:
        outputs = ACTIONS[name](evaluator, x, y, v, subset)
    except SifError as error:
        return (type(error), error.describe(), getattr(error, "element_index", None),
                getattr(error, "group_index", None))
    return {key: bits(value) for key, value in outputs.items()}


def call_arguments(problem, rng, name):
    """Seeded y, v and subset for one action; subsets are in reversed order."""
    m = problem.m
    subset = list(range(m))[::-1][:2] if "I" in ACTIONS[name].needs else None
    y = rng.normal(size=m if subset is None else len(subset)) if m else None
    v = rng.uniform(-1.0, 1.0, problem.n)
    return y, v, subset


def assert_same_bits(problem, internals, points, batched=BatchedOnly):
    fast, oracle = batched(problem, internals), ScalarEvaluator(problem, internals)
    rng = np.random.default_rng(4)
    for x in points:
        for name in ACTIONS:
            y, v, subset = call_arguments(problem, rng, name)
            assert outcome(fast, name, x, y, v, subset) == \
                outcome(oracle, name, x, y, v, subset), name


def seeded_points(problem, seed: int, count: int = 2):
    rng = np.random.default_rng(seed)
    return [problem.x0 + rng.uniform(-0.5, 0.5, problem.n) for _ in range(count)]


@pytest.mark.parametrize("name", GOOD_CORPUS)
def test_corpus_is_bitwise_equal(name):
    problem, internals = decode_corpus(name)
    assert_same_bits(problem, internals, [problem.x0, *seeded_points(problem, 1)])


def test_random_problems_are_bitwise_equal():
    rng = random.Random(2024)
    for seed in range(8):
        problem, internals = decode(random_problem_text(rng))
        assert_same_bits(problem, internals, seeded_points(problem, seed))


GENERATED = {
    "CHNCON": lambda problems: (problems.chncon(3)[0], [("N", 23)]),
    "WIDELN": lambda problems: (problems.wideln(3)[0], [("N", 120)]),
    "LOOPQD": lambda problems: (corpus_text("LOOPQD"), [("N", 30), ("RHO", 0.3)]),
}


@pytest.mark.parametrize("label", sorted(GENERATED))
def test_perfbench_generators_are_bitwise_equal(label):
    text, params = GENERATED[label](perfbench_problems())
    problem, internals = decode(text, params)
    assert_same_bits(problem, internals, seeded_points(problem, 5))


# A 2x3 range with coefficients other than +-1, an elemental parameter, a
# parametrized group type and a constant element type: the corpus and the
# generators use only +-1 range coefficients.
RANGED = sif_text(
    "NAME T",
    "VARIABLES",
    *[("", f"X{i}") for i in range(1, 7)],
    "GROUPS",
    ("N", "OBJ1", "X1", "0.5"),
    ("N", "OBJ2"),
    ("E", "CON1", "X2", "1.0"),
    ("G", "CON2", "X3", "-2.0"),
    ("G", "CON2", "'SCALE'", "4.0"),
    "CONSTANTS",
    ("", "T", "CON1", "0.25"),
    "ELEMENT TYPE",
    ("EV", "RNG", "V1", "", "V2"),
    ("EV", "RNG", "V3"),
    ("IV", "RNG", "U1", "", "U2"),
    ("EP", "RNG", "P"),
    ("EV", "ONE", "V1"),
    "ELEMENT USES",
    ("T", "E1", "RNG"),
    ("V", "E1", "V1", "", "X1"),
    ("V", "E1", "V2", "", "X2"),
    ("V", "E1", "V3", "", "X3"),
    ("P", "E1", "P", "1.5"),
    ("T", "E2", "RNG"),
    ("V", "E2", "V1", "", "X4"),
    ("V", "E2", "V2", "", "X5"),
    ("V", "E2", "V3", "", "X6"),
    ("P", "E2", "P", "-0.7"),
    ("T", "E3", "RNG"),
    ("V", "E3", "V1", "", "X6"),
    ("V", "E3", "V2", "", "X1"),
    ("V", "E3", "V3", "", "X4"),
    ("P", "E3", "P", "0.3"),
    ("T", "E4", "ONE"),
    ("V", "E4", "V1", "", "X2"),
    "GROUP TYPE",
    ("GV", "PL2", "GVAR"),
    ("GP", "PL2", "W"),
    "GROUP USES",
    ("T", "OBJ1", "PL2"),
    ("P", "OBJ1", "W", "1.3"),
    ("E", "OBJ1", "E1", "0.9", "E2", "-1.1"),
    ("E", "OBJ2", "E3", "1.0", "E4", "2.0"),
    ("E", "OBJ2", "E1", "0.4"),
    ("T", "CON1", "PL2"),
    ("P", "CON1", "W", "0.6"),
    ("E", "CON1", "E2", "1.7"),
    ("E", "CON2", "E3", "-0.8", "E1", "1.0"),
    "ENDATA",
    "ELEMENTS T",
    "INDIVIDUALS",
    ("T", "RNG"),
    ("R", "U1", "V1", "0.3", "V2", "-1.7"),
    ("R", "U2", "V2", "2.9", "V3", "0.7"),
    ("A", "S", "", "SIN( U1 )"),
    ("F", "", "", "P * U1 * U2 + S + U2 ** 3"),
    ("G", "U1", "", "P * U2 + COS( U1 )"),
    ("G", "U2", "", "P * U1 + 3.0 * U2 ** 2"),
    ("H", "U1", "U1", "- S"),
    ("H", "U1", "U2", "P"),
    ("H", "U2", "U2", "6.0 * U2"),
    ("T", "ONE"),
    ("F", "", "", "1.0"),
    "ENDATA",
    "GROUPS T",
    "INDIVIDUALS",
    ("T", "PL2"),
    ("F", "", "", "W * GVAR * GVAR"),
    ("G", "", "", "2.0 * W * GVAR"),
    ("H", "", "", "2.0 * W"),
    "ENDATA",
)


def test_range_transformed_types_are_bitwise_equal():
    problem, internals = decode(RANGED)
    assert internals.element_types["RNG"].range_matrix.shape == (2, 3)
    assert_same_bits(problem, internals, seeded_points(problem, 7, count=4))


# --- planted failures ------------------------------------------------------------

FAILING = sif_text(
    "NAME T",
    "VARIABLES",
    ("", "A"),
    ("", "B"),
    ("", "C"),
    "GROUPS",
    ("N", "OBJ1", "A", "1.0"),
    ("N", "OBJ2"),
    ("E", "CON"),
    "ELEMENT TYPE",
    ("EV", "RECIP", "V1"),
    ("EV", "LG", "V1"),
    ("EV", "EX", "V1"),
    "ELEMENT USES",
    ("T", "R1", "RECIP"),
    ("V", "R1", "V1", "", "A"),
    ("T", "R2", "RECIP"),
    ("V", "R2", "V1", "", "B"),
    ("T", "X1", "EX"),
    ("V", "X1", "V1", "", "A"),
    ("T", "L1", "LG"),
    ("V", "L1", "V1", "", "C"),
    "GROUP USES",
    ("E", "OBJ1", "R1", "1.0", "R2", "1.0"),
    ("E", "OBJ2", "X1", "0.5"),
    ("E", "CON", "L1", "1.0"),
    "ENDATA",
    "ELEMENTS T",
    "INDIVIDUALS",
    ("T", "RECIP"),
    ("F", "", "", "1.0 / V1"),
    ("G", "V1", "", "-1.0 / V1 ** 2"),
    ("H", "V1", "V1", "2.0 / V1 ** 3"),
    ("T", "LG"),
    ("F", "", "", "LOG( V1 )"),
    ("G", "V1", "", "1.0 / V1"),
    ("H", "V1", "V1", "-1.0 / V1 ** 2"),
    ("T", "EX"),
    ("F", "", "", "EXP( V1 )"),
    ("G", "V1", "", "EXP( V1 )"),
    ("H", "V1", "V1", "EXP( V1 )"),
    "ENDATA",
)

# (x, the error expected from fx or cx, and its element index)
PLANTED = {
    "zero divisor in the second RECIP": ([2.0, 0.0, 1.0], "fx", "division by zero", 1),
    "LOG of a negative value": ([2.0, 1.0, -3.0], "cx", "LOG of non-positive", 3),
    "EXP overflow": ([800.0, 1.0, 1.0], "fx", "overflow in EXP", 2),
}


@pytest.mark.parametrize("label", sorted(PLANTED))
def test_planted_failures_raise_the_scalar_walks_error(label):
    x, name, message, element = PLANTED[label]
    problem, internals = decode(FAILING)
    x = np.array(x)
    with pytest.raises(DomainError) as info:
        ACTIONS[name](Evaluator(problem, internals), x)
    assert message in info.value.message and info.value.element_index == element
    assert_same_bits(problem, internals, [x], batched=Evaluator)


def test_constraint_only_failure_spares_the_batched_objective():
    problem, internals = decode(FAILING)
    x = np.array(PLANTED["LOG of a negative value"][0])
    evaluator = BatchedOnly(problem, internals)
    for name in ("fx", "fgx", "fgHx", "fHxv"):
        ACTIONS[name](evaluator, x, v=np.ones(3))
    with pytest.raises(AssertionError, match="fell back"):
        evaluator.evaluate_constraints(x, 0)


def test_integer_powers_are_repeated_multiplication():
    # the batched fill and the scalar walk share this arithmetic, so it is
    # pinned here against an independent spelling: x ** 3 is (x * x) * x,
    # which differs from a correctly rounded pow in about a quarter of entries
    xs = np.random.default_rng(3).uniform(0.5, 2.0, 1000)
    want = np.array([x * x * x for x in xs.tolist()])
    assert np.count_nonzero(want != np.power(xs, 3.0)) > 0
    node = parse_expression("X ** 3")
    assert bits(eval_node(node, {"X": xs})) == bits(want)
    assert bits([eval_node(node, {"X": x}) for x in xs.tolist()]) == bits(list(want))
