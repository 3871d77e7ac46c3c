from __future__ import annotations

import numpy as np
import pytest

from sifgps import Evaluator, decode
from sifgps.errors import (
    BadSubset,
    DimensionMismatch,
    DomainError,
    MissingDerivative,
    MultiplierLengthMismatch,
    NoConstraints,
)

from conftest import GOOD_CORPUS, decode_corpus, sif_text


def evaluator_for(text: str) -> Evaluator:
    problem, internals = decode(text)
    return Evaluator(problem, internals)


LINEAR_OBJ = sif_text(
    "NAME T",
    "VARIABLES",
    ("", "A"),
    ("", "B"),
    "GROUPS",
    ("N", "OBJ", "A", "1.0", "B", "2.0"),
    "CONSTANTS",
    ("", "T", "OBJ", "1.0"),
    "ENDATA",
)

SQUARE_ELEMENT_OBJ = sif_text(
    "NAME T",
    "VARIABLES",
    ("", "A"),
    ("", "B"),
    "GROUPS",
    ("N", "OBJ"),
    "ELEMENT TYPE",
    ("EV", "SQ", "V1"),
    "ELEMENT USES",
    ("T", "E1", "SQ"),
    ("V", "E1", "V1", "", "A"),
    "GROUP USES",
    ("E", "OBJ", "E1", "1.0"),
    "ENDATA",
    "ELEMENTS T",
    "INDIVIDUALS",
    ("T", "SQ"),
    ("F", "", "", "V1 * V1"),
    ("G", "V1", "", "V1 + V1"),
    ("H", "V1", "V1", "2.0"),
    "ENDATA",
)

PURE_QUADRATIC = sif_text(
    "NAME T",
    "VARIABLES",
    ("", "A"),
    ("", "B"),
    "QUADRATIC",
    ("", "A", "A", "1.0"),
    ("", "B", "B", "1.0"),
    "ENDATA",
)

SQUARE_CONSTRAINT = sif_text(
    "NAME T",
    "VARIABLES",
    ("", "A"),
    ("", "B"),
    "GROUPS",
    ("N", "OBJ", "B", "1.0"),
    ("L", "CON"),
    "CONSTANTS",
    ("", "T", "CON", "4.0"),
    "ELEMENT TYPE",
    ("EV", "SQ", "V1"),
    "ELEMENT USES",
    ("T", "E1", "SQ"),
    ("V", "E1", "V1", "", "A"),
    "GROUP USES",
    ("E", "CON", "E1", "1.0"),
    "ENDATA",
    "ELEMENTS T",
    "INDIVIDUALS",
    ("T", "SQ"),
    ("F", "", "", "V1 * V1"),
    ("G", "V1", "", "V1 + V1"),
    ("H", "V1", "V1", "2.0"),
    "ENDATA",
)

LINEAR_CONSTRAINT = sif_text(
    "NAME T",
    "VARIABLES",
    ("", "A"),
    ("", "B"),
    "GROUPS",
    ("N", "OBJ", "A", "1.0"),
    ("L", "CON", "A", "1.0", "B", "2.0"),
    "ENDATA",
)

LOG_ELEMENT = sif_text(
    "NAME T",
    "VARIABLES",
    ("", "A"),
    "GROUPS",
    ("N", "OBJ"),
    "ELEMENT TYPE",
    ("EV", "LG", "V1"),
    "ELEMENT USES",
    ("T", "E1", "LG"),
    ("V", "E1", "V1", "", "A"),
    "GROUP USES",
    ("E", "OBJ", "E1", "1.0"),
    "ENDATA",
    "ELEMENTS T",
    "INDIVIDUALS",
    ("T", "LG"),
    ("F", "", "", "LOG( V1 )"),
    ("G", "V1", "", "1.0 / V1"),
    ("H", "V1", "V1", "-1.0 / V1 ** 2"),
    "ENDATA",
)


def log_group(second_derivative: bool = True) -> str:
    """OBJ = LOG(A), through a group type whose H slot may be left out."""
    rows = [("T", "LN"), ("F", "", "", "LOG( GVAR )"), ("G", "", "", "1.0 / GVAR")]
    if second_derivative:
        rows.append(("H", "", "", "-1.0 / GVAR ** 2"))
    return sif_text(
        "NAME T",
        "VARIABLES",
        ("", "A"),
        "GROUPS",
        ("N", "OBJ", "A", "1.0"),
        "GROUP TYPE",
        ("GV", "LN", "GVAR"),
        "GROUP USES",
        ("T", "OBJ", "LN"),
        "ENDATA",
        "GROUPS T",
        "INDIVIDUALS",
        *rows,
        "ENDATA",
    )


CONSTRAINT_LOG_ELEMENT = sif_text(
    "NAME T",
    "VARIABLES",
    ("", "A"),
    ("", "B"),
    "GROUPS",
    ("N", "OBJ", "A", "1.0"),
    ("E", "CON"),
    "ELEMENT TYPE",
    ("EV", "LG", "V1"),
    "ELEMENT USES",
    ("T", "E1", "LG"),
    ("V", "E1", "V1", "", "B"),
    "GROUP USES",
    ("E", "CON", "E1", "1.0"),
    "ENDATA",
    "ELEMENTS T",
    "INDIVIDUALS",
    ("T", "LG"),
    ("F", "", "", "LOG( V1 )"),
    ("G", "V1", "", "1.0 / V1"),
    ("H", "V1", "V1", "-1.0 / V1 ** 2"),
    "ENDATA",
)

# One TRIVIAL linear group over all variables, as objective and as a constraint.
WIDE_N = 1000
WIDE_LINEAR = sif_text(
    "NAME T",
    ("IE", "N", "", str(WIDE_N)),
    "VARIABLES",
    ("DO", "I", "1", "", "N"),
    ("X", "X(I)"),
    ("ND",),
    "GROUPS",
    ("DO", "I", "1", "", "N"),
    ("XN", "OBJ", "X(I)", "1.0"),
    ("XE", "CON", "X(I)", "1.0"),
    ("ND",),
    "CONSTANTS",
    ("", "T", "CON", "1.0"),
    "ENDATA",
)


# --- group arguments ---------------------------------------------------------------
# A TRIVIAL group with scale 1 is its own argument, so f(x) is a_0(x).


def test_group_argument_linear():
    ev = evaluator_for(LINEAR_OBJ)
    assert ev.evaluate_objective(np.array([1.0, 1.0]), 0).value == 2.0


def test_group_argument_with_element():
    ev = evaluator_for(SQUARE_ELEMENT_OBJ)
    assert ev.evaluate_objective(np.array([3.0, 7.0]), 0).value == 9.0


def test_group_argument_zero():
    ev = evaluator_for(SQUARE_ELEMENT_OBJ)
    assert ev.evaluate_objective(np.zeros(2), 0).value == 0.0


# --- objective -----------------------------------------------------------------------


def test_pure_quadratic_objective():
    ev = evaluator_for(PURE_QUADRATIC)
    result = ev.evaluate_objective(np.array([3.0, 4.0]), 2)
    assert result.value == 12.5
    assert result.gradient.tolist() == [3.0, 4.0]
    assert result.hessian.toarray().tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_rosenbrock_values(rosenbrock):
    _, _, ev = rosenbrock
    at_min = ev.evaluate_objective(np.array([1.0, 1.0]), 1)
    assert at_min.value == 0.0
    assert np.linalg.norm(at_min.gradient) == 0.0
    start = ev.evaluate_objective(np.array([-1.2, 1.0]), 1)
    assert abs(start.value - 24.2) <= 1e-12
    assert np.max(np.abs(start.gradient - [-215.6, -88.0])) <= 1e-10


def test_dimension_mismatch():
    ev = evaluator_for(PURE_QUADRATIC)
    with pytest.raises(DimensionMismatch):
        ev.evaluate_objective(np.array([1.0]), 0)


# --- constraints ----------------------------------------------------------------------


def test_square_constraint_value_and_jacobian():
    ev = evaluator_for(SQUARE_CONSTRAINT)
    result = ev.evaluate_constraints(np.array([3.0, 11.0]), 1)
    assert result.value.tolist() == [5.0]
    assert result.gradient.toarray().tolist() == [[6.0, 0.0]]


def test_restriction_is_selection():
    problem, internals = decode_corpus("RNGLP3")
    ev = Evaluator(problem, internals)
    x = problem.x0
    full = ev.evaluate_constraints(x, 2)
    one = ev.evaluate_constraints(x, 2, subset=[1])
    assert one.value.tolist() == [full.value[1]]
    assert (one.gradient.toarray() == full.gradient.toarray()[[1]]).all()
    assert (one.hessian[0].toarray() == full.hessian[1].toarray()).all()
    ordered = ev.evaluate_constraints(x, 1, subset=[2, 0])
    assert ordered.value.tolist() == [full.value[2], full.value[0]]
    identity = ev.evaluate_constraints(x, 1, subset=np.arange(problem.m))
    assert (identity.value == full.value).all()
    assert (identity.gradient.toarray() == full.gradient.toarray()).all()


def test_constraint_errors():
    ev = evaluator_for(PURE_QUADRATIC)
    with pytest.raises(NoConstraints):
        ev.evaluate_constraints(np.array([0.0, 0.0]), 0)
    ranged = evaluator_for(LINEAR_CONSTRAINT)
    with pytest.raises(BadSubset):
        ranged.evaluate_constraints(np.zeros(2), 0, subset=[0, 0])
    with pytest.raises(BadSubset):
        ranged.evaluate_constraints(np.zeros(2), 0, subset=[5])


# --- Lagrangian ------------------------------------------------------------------------


def test_zero_multipliers_reduce_to_objective():
    problem, internals = decode_corpus("CONSELM")
    ev = Evaluator(problem, internals)
    x = problem.x0
    obj = ev.evaluate_objective(x, 2)
    lag = ev.evaluate_lagrangian(x, np.zeros(problem.m), 2)
    assert lag.value == obj.value
    assert (lag.gradient == obj.gradient).all()
    assert (lag.hessian.toarray() == obj.hessian.toarray()).all()


def test_lagrangian_recomposition():
    problem, internals = decode_corpus("CONSELM")
    ev = Evaluator(problem, internals)
    rng = np.random.default_rng(5)
    x = problem.x0 + rng.uniform(-0.5, 0.5, problem.n)
    y = rng.uniform(-2.0, 2.0, problem.m)
    lag = ev.evaluate_lagrangian(x, y, 0)
    f = ev.evaluate_objective(x, 0).value
    c = ev.evaluate_constraints(x, 0).value
    assert abs(lag.value - (f + y @ c)) <= 1e-12 * max(1.0, abs(lag.value))


def test_restricted_lagrangian_hessian():
    problem, internals = decode_corpus("CONSELM")
    ev = Evaluator(problem, internals)
    x = problem.x0
    k = 1
    lag = ev.evaluate_lagrangian(x, np.array([1.0]), 2, subset=[k])
    obj = ev.evaluate_objective(x, 2)
    cons = ev.evaluate_constraints(x, 2)
    expected = obj.hessian.toarray() + cons.hessian[k].toarray()
    assert np.max(np.abs(lag.hessian.toarray() - expected)) <= 1e-12
    assert abs(lag.value - (obj.value + cons.value[k])) <= 1e-12


def test_multiplier_length_checked():
    ev = evaluator_for(LINEAR_CONSTRAINT)
    with pytest.raises(MultiplierLengthMismatch):
        ev.evaluate_lagrangian(np.zeros(2), np.zeros(3), 0)
    with pytest.raises(MultiplierLengthMismatch):
        ev.evaluate_lagrangian(np.zeros(2), None, 0)
    with pytest.raises(MultiplierLengthMismatch):
        ev.hessian_vector_product(np.zeros(2), np.ones(2), kind="lagrangian")


# --- products ----------------------------------------------------------------------------


def test_hvp_zero_vector():
    ev = evaluator_for(SQUARE_ELEMENT_OBJ)
    assert ev.hessian_vector_product(np.ones(2), np.zeros(2)).tolist() == [0.0, 0.0]


def test_hvp_pure_quadratic():
    ev = evaluator_for(PURE_QUADRATIC)
    out = ev.hessian_vector_product(np.zeros(2), np.array([1.0, 2.0]))
    assert out.tolist() == [1.0, 2.0]


def test_jvp_zero_and_linear_row():
    ev = evaluator_for(LINEAR_CONSTRAINT)
    assert ev.jacobian_vector_product(np.zeros(2), np.zeros(2)).tolist() == [0.0]
    out = ev.jacobian_vector_product(np.zeros(2), np.array([3.0, 4.0]))
    assert out.tolist() == [11.0]


@pytest.mark.parametrize("name", GOOD_CORPUS)
def test_products_match_materialized(name):
    problem, internals = decode_corpus(name)
    ev = Evaluator(problem, internals)
    rng = np.random.default_rng(11)
    x = problem.x0
    v = rng.uniform(-1.0, 1.0, problem.n)
    dense_h = ev.evaluate_objective(x, 2).hessian.toarray()
    hv = ev.hessian_vector_product(x, v)
    assert np.max(np.abs(hv - dense_h @ v)) <= 1e-12 * max(1.0, np.abs(dense_h @ v).max())
    if problem.m == 0:
        return
    y = rng.uniform(-1.0, 1.0, problem.m)
    dense_j = ev.evaluate_constraints(x, 1).gradient.toarray()
    jv = ev.jacobian_vector_product(x, v)
    assert np.max(np.abs(jv - dense_j @ v)) <= 1e-12 * max(1.0, np.abs(dense_j @ v).max())
    lag_h = ev.evaluate_lagrangian(x, y, 2).hessian.toarray()
    lhv = ev.hessian_vector_product(x, v, kind="lagrangian", y=y)
    assert np.max(np.abs(lhv - lag_h @ v)) <= 1e-12 * max(1.0, np.abs(lag_h @ v).max())


# --- structural invariants ---------------------------------------------------------------


def test_constraint_order_only_permutes():
    default_problem, default_internals = decode_corpus("RNGLP3")
    kept_problem, kept_internals = decode_corpus("RNGLP3", keepcorder=True)
    ev_default = Evaluator(default_problem, default_internals)
    ev_kept = Evaluator(kept_problem, kept_internals)
    x = default_problem.x0
    c_default = ev_default.evaluate_constraints(x, 1)
    c_kept = ev_kept.evaluate_constraints(x, 1)
    # default order lists CLE, CEQ, CGE; the file order is CEQ, CLE, CGE
    perm = [1, 0, 2]
    assert c_default.value.tolist() == [c_kept.value[k] for k in perm]
    assert (c_default.gradient.toarray() == c_kept.gradient.toarray()[perm]).all()


def test_quadratic_term_consistency():
    problem, internals = decode_corpus("BNDQUAD")
    ev = Evaluator(problem, internals)
    hessian = ev.evaluate_objective(problem.x0, 2).hessian
    assert (hessian != internals.H).nnz == 0


def test_hessians_exactly_symmetric():
    problem, internals = decode_corpus("CONSELM")
    ev = Evaluator(problem, internals)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = problem.x0 + rng.uniform(-1.0, 1.0, problem.n)
        dense = ev.evaluate_objective(x, 2).hessian.toarray()
        assert (dense == dense.T).all()
        for hk in ev.evaluate_constraints(x, 2).hessian:
            dense_k = hk.toarray()
            assert (dense_k == dense_k.T).all()


def test_domain_error_carries_element_index():
    ev = evaluator_for(LOG_ELEMENT)
    with pytest.raises(DomainError) as info:
        ev.evaluate_objective(np.array([0.0]), 0)
    assert info.value.element_index == 0


def test_concurrent_evaluations_agree():
    from concurrent.futures import ThreadPoolExecutor

    problem, internals = decode_corpus("CONSELM")
    ev = Evaluator(problem, internals)
    x = problem.x0

    def evaluate(_):
        result = ev.evaluate_objective(x, 2)
        return result.value, result.gradient.tolist(), result.hessian.toarray().tolist()

    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(pool.map(evaluate, range(32)))
    assert all(outcome == outcomes[0] for outcome in outcomes)


def test_group_domain_error_carries_group_index():
    ev = evaluator_for(log_group())
    with pytest.raises(DomainError) as info:
        ev.evaluate_objective(np.array([0.0]), 0)
    assert info.value.group_index == 0
    assert info.value.element_index is None


def test_constraint_element_domain_error_spares_objective():
    ev = evaluator_for(CONSTRAINT_LOG_ELEMENT)
    x = np.array([3.0, 0.0])
    assert ev.evaluate_objective(x, 0).value == 3.0
    assert ev.evaluate_objective(x, 2).gradient.tolist() == [1.0, 0.0]
    with pytest.raises(DomainError) as info:
        ev.evaluate_constraints(x, 0)
    assert info.value.element_index == 0


def test_missing_second_derivative_is_lazy():
    ev = evaluator_for(log_group(second_derivative=False))
    x = np.array([2.0])
    result = ev.evaluate_objective(x, 1)
    assert result.value == np.log(2.0)
    assert result.gradient.tolist() == [0.5]
    with pytest.raises(MissingDerivative):
        ev.evaluate_objective(x, 2)
    with pytest.raises(MissingDerivative):
        ev.hessian_vector_product(x, np.ones(1))


@pytest.mark.parametrize("name", ["CONSELM", "RNGLP3"])
def test_restricted_jvp_is_bitwise_selection(name):
    problem, internals = decode_corpus(name)
    ev = Evaluator(problem, internals)
    rng = np.random.default_rng(3)
    x = problem.x0 + rng.uniform(-0.5, 0.5, problem.n)
    v = rng.uniform(-1.0, 1.0, problem.n)
    full = ev.jacobian_vector_product(x, v)
    for subset in ([problem.m - 1], [problem.m - 1, 0], list(range(problem.m))):
        assert np.array_equal(ev.jacobian_vector_product(x, v, subset=subset),
                              full[subset])


def test_wide_linear_group_memory_is_linear():
    import tracemalloc

    ev = evaluator_for(WIDE_LINEAR)
    x = np.linspace(-1.0, 1.0, WIDE_N)
    y = np.array([0.5])
    calls = {
        "fgHx": lambda: ev.evaluate_objective(x, 2),
        "cJHx": lambda: ev.evaluate_constraints(x, 2),
        "LgHxy": lambda: ev.evaluate_lagrangian(x, y, 2),
    }
    results, peaks = {}, {}
    tracemalloc.start()
    try:
        for name, call in calls.items():
            tracemalloc.reset_peak()
            results[name] = call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(peak < 8 * 2**20 for peak in peaks.values()), peaks

    total = float(np.sum(x))
    obj, cons, lag = results["fgHx"], results["cJHx"], results["LgHxy"]
    assert abs(obj.value - total) <= 1e-12
    assert (obj.gradient == 1.0).all() and obj.hessian.nnz == 0
    assert abs(cons.value[0] - (total - 1.0)) <= 1e-12
    assert (cons.gradient.toarray() == 1.0).all()
    assert [h.nnz for h in cons.hessian] == [0]
    assert abs(lag.value - (total + 0.5 * (total - 1.0))) <= 1e-12
    assert (lag.gradient == 1.5).all() and lag.hessian.nnz == 0
