"""Decoding and evaluation against the benchmark's closed-form references.

perfbench/problems.py writes each reference from the problem's mathematical
definition with plain numpy, independently of sifgps.  Its CHNCON and
WIDELN generators use data-phase directives the corpus lacks (I/, I*, I-,
RI, R*, R+, ZE, ZP, a 'SCALE' entry and ranges), so these checks put those
decoder paths under test at small sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from sifgps import Evaluator, decode

from conftest import corpus_text, perfbench_problems

problems = perfbench_problems()


def chncon(seed):
    text, constants = problems.chncon(seed)
    return text, [("N", 23)], problems.ChnconReference(23, constants)


def wideln(seed):
    text, constants = problems.wideln(seed)
    return text, [("N", 120)], problems.WidelnReference(120, constants)


def loopqd(seed):
    rho = problems.loopqd_rho(seed)
    return (corpus_text("LOOPQD"), [("N", 30), ("RHO", rho)],
            problems.LoopqdReference(30, rho))


CASES = {"CHNCON": chncon, "WIDELN": wideln, "LOOPQD": loopqd}


def close(got, want):
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * scale)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("label", sorted(CASES))
def test_decoded_problem_matches_reference(label, seed):
    text, params, ref = CASES[label](seed)
    problem, internals = decode(text, params)
    assert (problem.n, problem.m) == (ref.n, ref.m)
    ev = Evaluator(problem, internals)
    rng = np.random.default_rng([seed, 9])
    x, v, w = (rng.uniform(-1.0, 1.0, ref.n) for _ in range(3))

    obj = ev.evaluate_objective(x, 2)
    close(obj.value, ref.f(x))
    close(obj.gradient, ref.g(x))
    close(obj.hessian @ w, ref.hv(x, w))
    close(ev.hessian_vector_product(x, v), ref.hv(x, v))
    if ref.m == 0:
        return

    np.testing.assert_array_equal(problem.clower, ref.clower)
    np.testing.assert_array_equal(problem.cupper, ref.cupper)
    y = rng.normal(size=ref.m)
    cons = ev.evaluate_constraints(x, 2)
    close(cons.value, ref.c(x))
    close(cons.gradient @ w, ref.jv(x, w))
    close(cons.gradient.T @ y, ref.jty(x, y))
    close(sum(yi * (h @ w) for yi, h in zip(y, cons.hessian)), ref.chv(x, y, w))
    close(ev.jacobian_vector_product(x, v), ref.jv(x, v))
    subset = np.sort(rng.choice(ref.m, size=max(ref.m // 4, 1), replace=False))
    close(ev.jacobian_vector_product(x, v, subset), ref.jv(x, v)[subset])
    lag = ev.evaluate_lagrangian(x, y, 2)
    close(lag.value, ref.lag(x, y))
    close(lag.gradient, ref.lag_g(x, y))
    close(lag.hessian @ w, ref.lag_hv(x, y, w))
    close(ev.hessian_vector_product(x, v, "lagrangian", y), ref.lag_hv(x, y, v))
