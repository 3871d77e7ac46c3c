"""Self-tests of the benchmark's generators and references.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import problems  # noqa: E402
from sifgps import Evaluator, decode  # noqa: E402

CORPUS = HERE.parent / "tests" / "corpus"


def _generated(generator, reference, n):
    def build(seed):
        text, constants = generator(seed)
        return text, [("N", n)], reference(n, constants)
    return build


def _loopqd(seed):
    rho = problems.loopqd_rho(seed)
    return ((CORPUS / "LOOPQD.SIF").read_text(), [("N", 30), ("RHO", rho)],
            problems.LoopqdReference(30, rho))


def _rosenbr(seed):
    return (CORPUS / "ROSENBR.SIF").read_text(), [], problems.RosenbrReference()


CASES = {
    "CHNCON": _generated(problems.chncon, problems.ChnconReference, 23),
    "WIDELN": _generated(problems.wideln, problems.WidelnReference, 120),
    "LOOPQD": _loopqd,
    "ROSENBR": _rosenbr,
}


@pytest.mark.parametrize("generator", [problems.chncon, problems.wideln])
def test_same_seed_gives_identical_text(generator):
    assert generator(7)[0].encode() == generator(7)[0].encode()
    assert generator(7)[0] != generator(8)[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("label", sorted(CASES))
def test_decoded_problem_agrees_with_reference(label, seed):
    text, params, ref = CASES[label](seed)
    problem, internals = decode(text, params)
    assert (problem.n, problem.m) == (ref.n, ref.m)
    ev = Evaluator(problem, internals)
    rng = np.random.default_rng(seed)
    x, v, w = (rng.uniform(-1.0, 1.0, ref.n) for _ in range(3))

    def same(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    obj = ev.evaluate_objective(x, 2)
    same(obj.value, ref.f(x))
    same(obj.gradient, ref.g(x))
    same(obj.hessian @ w, ref.hv(x, w))
    same(ev.hessian_vector_product(x, v), ref.hv(x, v))
    if ref.m == 0:
        return
    y = rng.normal(size=ref.m)
    cons = ev.evaluate_constraints(x, 1)
    same(cons.value, ref.c(x))
    same(cons.gradient @ w, ref.jv(x, w))
    same(ev.jacobian_vector_product(x, v), ref.jv(x, v))
    lag = ev.evaluate_lagrangian(x, y, 2)
    same(lag.value, ref.lag(x, y))
    same(lag.gradient, ref.lag_g(x, y))
    same(lag.hessian @ w, ref.lag_hv(x, y, w))
    same(ev.hessian_vector_product(x, v, kind="lagrangian", y=y), ref.lag_hv(x, y, v))
    np.testing.assert_array_equal(problem.clower, ref.clower)
    np.testing.assert_array_equal(problem.cupper, ref.cupper)
    hessians = ev.evaluate_constraints(x, 2).hessian
    assert all(h.nnz == 0 for h, linear in zip(hessians, ref.linear) if linear)


def test_constrained_chain_has_every_row_kind_and_ranges():
    text, params, ref = CASES["CHNCON"](0)
    problem, _ = decode(text, params)
    assert problem.nle and problem.neq and problem.nge
    assert np.isfinite(problem.clower[:problem.nle]).any()
    assert np.isfinite(problem.cupper[problem.nle + problem.neq:]).any()
