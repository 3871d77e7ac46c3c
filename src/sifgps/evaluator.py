"""Evaluation engine over a decoded problem.

Every action weights groups over the group-argument Jacobian G(x), whose row
i is the gradient of a_i(x) = sum_e w_ie f_e(x) + A_i x - beta_i.  A call
evaluates each element once and each group's F_i, d1_i, d2_i (over its
scale).  With group weights lambda (1 for the objective, y for constraints)
and mu_e = sum_i lambda_i d1_i w_ie: gradient H x + G^T (lambda d1), Hessian
H + G^T diag(lambda d2) G + sum_e mu_e P_e^T H_e P_e, Jacobian diag(d1) G.
Products apply these matrices without forming them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .errors import (
    BadSubset,
    DimensionMismatch,
    DomainError,
    MultiplierLengthMismatch,
    NoConstraints,
)
from .expressions import eval_element, eval_group_function, trivial_group
from .model import DecodedProblem, ProblemInternals, build_csr


@dataclass
class EvalResult:
    value: float | np.ndarray | None = None
    gradient: np.ndarray | sparse.csr_matrix | None = None
    hessian: sparse.csr_matrix | list[sparse.csr_matrix] | None = None


@dataclass
class _Walk:
    """One call's groups and weights, their values and derivatives, and G."""

    groups: np.ndarray
    lam: np.ndarray
    value: list[float]
    d1: np.ndarray                 # NaN when the walk's order is below 1
    d2: np.ndarray                 # NaN when the walk's order is below 2
    elements: dict[int, tuple]     # element -> (value, gradient, Hessian)
    G: sparse.csr_matrix | None    # the rows of G(x), in walk order


def _expand(starts: np.ndarray, counts: np.ndarray):
    """Concatenated ranges starts[k] + arange(counts[k]), as (owner k, index)."""
    owner = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, starts[owner] + offset


def _square(ptr: np.ndarray, rows: np.ndarray):
    """Every ordered pair (p, q) of entries within each listed row, row-major."""
    start, size = ptr[rows], ptr[rows + 1] - ptr[rows]
    owner, flat = _expand(np.zeros_like(start), size * size)
    size = size[owner]
    return owner, start[owner] + flat // size, start[owner] + flat % size


class Evaluator:
    """Read-only evaluation over an immutable (problem, internals) pair.

    An evaluator keeps no state between calls, so calls may run concurrently.
    """

    def __init__(self, problem: DecodedProblem, internals: ProblemInternals):
        self.problem = problem
        self.internals = internals
        self.n = problem.n
        self.m = problem.m
        self._ef_env = dict(zip(internals.efpar_names, internals.efpar))
        self._gf_env = dict(zip(internals.gfpar_names, internals.gfpar))
        # per element: (descriptor, parameter dict, variable indices)
        self._elements = []
        for name, values, cols in zip(internals.elftype, internals.elpar, internals.elvar):
            descriptor = internals.element_types[name]
            params = dict(zip(descriptor.parameters, values))
            self._elements.append((descriptor, params, cols))
        trivial = trivial_group()
        self._groups = []
        for name, values in zip(internals.grftype, internals.grpar):
            descriptor = internals.group_types.get(name, trivial)
            self._groups.append((descriptor, dict(zip(descriptor.parameters, values))))

        # element uses per group and variables per element
        grelt, elvar = internals.grelt, internals.elvar
        uses, size = np.diff(grelt.ptr), np.diff(elvar.ptr)

        # G's raw entries are A's, then each use's variables; entries on one
        # (row, column) sum into one slot of G's fixed pattern
        a = internals.A.tocoo()
        use_size = size[grelt.flat]
        owner, entries = _expand(elvar.ptr[grelt.flat], use_size)
        rows = np.concatenate([a.row, np.repeat(np.arange(uses.size), uses)[owner]])
        cols = np.concatenate([a.col, elvar.flat[entries]])
        keys, slot = np.unique(rows.astype(np.int64) * self.n + cols,
                               return_inverse=True)
        g_rows, self._g_cols = np.divmod(keys, max(self.n, 1))
        self._g_ptr = np.concatenate([[0], np.cumsum(
            np.bincount(g_rows, minlength=internals.n_groups))])
        self._slot, self._a_data = slot.ravel(), a.data
        self._quad = sparse.tril(internals.H).tocoo()
        # Python scalars for the walk, which reads them one at a time
        self._scalars = (grelt.ptr.tolist(), grelt.flat.tolist(),
                         internals.grelw.flat.tolist(),
                         (a.nnz + np.cumsum(use_size) - use_size).tolist(),
                         internals.gconst.tolist(), internals.gscale.tolist())

    # -- argument checking --

    def _vector(self, data, length: int, label: str) -> np.ndarray:
        arr = np.asarray(data, dtype=float)
        if arr.shape != (length,):
            raise DimensionMismatch(f"{label} must have length {length}, "
                                    f"got shape {arr.shape}")
        return arr

    def _subset(self, subset) -> np.ndarray:
        if subset is None:
            return np.arange(self.m, dtype=np.int64)
        arr = np.asarray(subset, dtype=np.int64)
        if arr.ndim != 1:
            raise BadSubset("constraint subset must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= self.m):
            raise BadSubset(f"subset entries must lie in [0, {self.m})")
        if len(np.unique(arr)) != arr.size:
            raise BadSubset("subset entries must be distinct")
        return arr

    def _need_constraints(self) -> None:
        if self.m == 0:
            raise NoConstraints("the problem has no general constraints")

    def _multipliers(self, y, subset) -> tuple[np.ndarray, np.ndarray]:
        """The checked constraint subset and its multipliers."""
        selected = self._subset(subset)
        if y is None:
            raise MultiplierLengthMismatch("the Lagrangian needs multipliers y")
        y = np.asarray(y, dtype=float)
        if y.shape != selected.shape:
            raise MultiplierLengthMismatch(
                f"y must have length {selected.size}, got shape {y.shape}")
        return selected, y

    # -- the walk over groups --

    def _walk(self, x: np.ndarray, order: int, groups: np.ndarray, lam) -> _Walk:
        """Evaluate the groups in order, each element once, and refill G."""
        use_ptr, use_elem, use_w, use_start, gconst, gscale = self._scalars
        ax = (self.internals.A @ x).tolist()
        raw = None if order < 1 else np.concatenate(
            [self._a_data, np.zeros(self._slot.size - self._a_data.size)])
        elements: dict[int, tuple] = {}
        values, firsts, seconds = [], [], []
        for gi in groups.tolist():
            a = ax[gi] - gconst[gi]
            for u in range(use_ptr[gi], use_ptr[gi + 1]):
                e, w = use_elem[u], use_w[u]
                result = elements.get(e)
                if result is None:
                    desc, params, cols = self._elements[e]
                    try:
                        result = eval_element(desc, x[cols], params, self._ef_env, order)
                    except DomainError as err:
                        raise DomainError(err.message, element_index=e) from err
                    elements[e] = result
                a += w * result[0]
                if raw is not None:
                    raw[use_start[u]:use_start[u] + result[1].size] = w * result[1]
            desc, params = self._groups[gi]
            try:
                value, d1, d2 = eval_group_function(desc, a, params, self._gf_env,
                                                    order, strict_derivatives=True)
            except DomainError as err:
                raise DomainError(err.message, group_index=gi) from err
            inv = 1.0 / gscale[gi]
            values.append(value * inv)
            firsts.append(d1 * inv if order >= 1 else None)
            seconds.append(d2 * inv if order >= 2 else None)
        G = None
        if raw is not None:
            data = np.bincount(self._slot, raw, minlength=self._g_cols.size)
            G = sparse.csr_matrix((data, self._g_cols, self._g_ptr),
                                  shape=(self.internals.n_groups, self.n))[groups]
        return _Walk(groups, lam, values, np.array(firsts, dtype=float),
                     np.array(seconds, dtype=float), elements, G)

    def _objective_walk(self, x, order: int, selected=None, y=None) -> _Walk:
        """The objective's groups with weight 1, then selected constraints with y."""
        groups, lam = self.internals.objgrps, np.ones(self.internals.objgrps.size)
        if selected is not None:
            groups = np.concatenate([groups, self.internals.congrps[selected]])
            lam = np.concatenate([lam, y])
        return self._walk(x, order, groups, lam)

    # -- weighted sums over a walk --

    def _function(self, walk: _Walk, x, order: int) -> EvalResult:
        """Objective value, weighted gradient and weighted Hessian of a walk."""
        hx = self.internals.H @ x
        value = 0.5 * float(np.dot(x, hx))
        for f in walk.value[:self.internals.objgrps.size]:
            value += f
        return EvalResult(
            value=value,
            gradient=hx + walk.G.T @ (walk.lam * walk.d1) if order >= 1 else None,
            hessian=self._hessian(walk, True) if order >= 2 else None)

    def _element_terms(self, walk: _Walk, c1, split: bool):
        """(block, row, col, value) of mu_e P_e^T H_e P_e; c1 is lambda d1."""
        positions = np.flatnonzero(c1 != 0.0)
        groups, n_el = walk.groups[positions], max(len(self._elements), 1)
        grelt, elvar = self.internals.grelt, self.internals.elvar
        owner, uses = _expand(grelt.ptr[groups], grelt.ptr[groups + 1] - grelt.ptr[groups])
        key = grelt.flat[uses] + (positions[owner] * n_el if split else 0)
        keys, inverse = np.unique(key, return_inverse=True)
        mu = np.bincount(inverse.ravel(),
                         c1[positions][owner] * self.internals.grelw.flat[uses])
        block, elems = np.divmod(keys, n_el)
        owner, p, q = _square(elvar.ptr, elems)
        hessians = np.concatenate(
            [np.zeros(0), *(walk.elements[e][2].ravel() for e in elems.tolist())])
        return block[owner], elvar.flat[p], elvar.flat[q], mu[owner] * hessians

    def _hessian(self, walk: _Walk, quad: bool, split: bool = False):
        """Mirrored lower triangle of the weighted Hessian, or with split, one per group."""
        c2 = walk.lam * walk.d2
        rows = np.flatnonzero(c2 != 0.0)
        G = walk.G
        owner, p, q = _square(G.indptr, rows)
        parts = [(rows[owner], G.indices[p], G.indices[q],
                  c2[rows][owner] * (G.data[p] * G.data[q])),
                 self._element_terms(walk, walk.lam * walk.d1, split)]
        if quad:
            parts.append((np.zeros_like(self._quad.row), self._quad.row,
                          self._quad.col, self._quad.data))
        block, rows, cols, vals = (np.concatenate(part) for part in zip(*parts))
        lower, off = rows >= cols, rows > cols
        block, rows, cols, vals = (np.concatenate([a[lower], b[off]]) for a, b in (
            (block, block), (rows, cols), (cols, rows), (vals, vals)))
        if not split:
            return build_csr(rows, cols, vals, (self.n, self.n))
        n = self.n
        keyed = build_csr(block, rows.astype(np.int64) * n + cols, vals,
                          (walk.groups.size, n * n))
        return [sparse.csr_matrix((keyed.data[s:e], np.divmod(keyed.indices[s:e], n)),
                                  shape=(n, n))
                for s, e in zip(keyed.indptr[:-1], keyed.indptr[1:])]

    # -- objective --

    def evaluate_objective(self, x, order: int = 0) -> EvalResult:
        x = self._vector(x, self.n, "x")
        return self._function(self._objective_walk(x, order), x, order)

    # -- constraints --

    def evaluate_constraints(self, x, order: int = 0, subset=None) -> EvalResult:
        self._need_constraints()
        x = self._vector(x, self.n, "x")
        congrps = self.internals.congrps[self._subset(subset)]
        walk = self._walk(x, order, congrps, np.ones(congrps.size))
        G = walk.G.tocoo() if order >= 1 else None
        return EvalResult(
            value=np.array(walk.value, dtype=float),
            gradient=(build_csr(G.row, G.col, walk.d1[G.row] * G.data,
                                (congrps.size, self.n)) if order >= 1 else None),
            hessian=self._hessian(walk, False, split=True) if order >= 2 else None)

    # -- Lagrangian --

    def evaluate_lagrangian(self, x, y, order: int = 0, subset=None) -> EvalResult:
        self._need_constraints()
        x = self._vector(x, self.n, "x")
        walk = self._objective_walk(x, order, *self._multipliers(y, subset))
        result = self._function(walk, x, order)
        nob = self.internals.objgrps.size
        result.value += float(np.dot(walk.lam[nob:], walk.value[nob:]))
        return result

    # -- products --

    def hessian_vector_product(self, x, v, kind: str = "objective",
                               y=None, subset=None) -> np.ndarray:
        x = self._vector(x, self.n, "x")
        v = self._vector(v, self.n, "v")
        selected = None
        if kind == "lagrangian":
            self._need_constraints()
            selected, y = self._multipliers(y, subset)
        walk = self._objective_walk(x, 2, selected, y)
        out = self.internals.H @ v + walk.G.T @ (walk.lam * walk.d2 * (walk.G @ v))
        _, rows, cols, vals = self._element_terms(walk, walk.lam * walk.d1, False)
        return out + np.bincount(rows, vals * v[cols], minlength=self.n)

    def jacobian_vector_product(self, x, v, subset=None) -> np.ndarray:
        self._need_constraints()
        x = self._vector(x, self.n, "x")
        v = self._vector(v, self.n, "v")
        congrps = self.internals.congrps[self._subset(subset)]
        walk = self._walk(x, 1, congrps, np.ones(congrps.size))
        return walk.d1 * (walk.G @ v)


# -- the action table ----------------------------------------------------------


@dataclass(frozen=True)
class Action:
    """One named evaluation: its call, the inputs it needs and its output keys."""

    call: Callable   # (evaluator, x, y, v, subset) -> EvalResult or a product
    needs: str       # which of "y", "v" and "I" (the constraint subset) it needs
    keys: tuple[str, ...]

    def __call__(self, evaluator: Evaluator, x, y=None, v=None, subset=None) -> dict:
        result = self.call(evaluator, x, y, v, subset)
        if isinstance(result, np.ndarray):
            return {self.keys[0]: result}
        return dict(zip(self.keys, (result.value, result.gradient, result.hessian)))


def _objective(order: int) -> Action:
    return Action(lambda ev, x, y, v, subset: ev.evaluate_objective(x, order),
                  "", ("f", "g", "H")[:order + 1])


def _constraints(order: int, needs: str = "") -> Action:
    return Action(lambda ev, x, y, v, subset: ev.evaluate_constraints(x, order, subset),
                  needs, ("c", "J", "Hc")[:order + 1])


def _lagrangian(order: int, needs: str = "y") -> Action:
    return Action(lambda ev, x, y, v, subset: ev.evaluate_lagrangian(x, y, order, subset),
                  needs, ("L", "gL", "HL")[:order + 1])


# Every action name, aliases included.  Constraint and Lagrangian actions
# honour a subset even when they do not require one.
ACTIONS: dict[str, Action] = {
    "fx": _objective(0),
    "fgx": _objective(1),
    "fgHx": _objective(2),
    "fHxv": Action(lambda ev, x, y, v, subset: ev.hessian_vector_product(x, v),
                   "v", ("Hv",)),
    "cx": _constraints(0),
    "cJx": _constraints(1),
    "cJHx": _constraints(2),
    "cJxv": Action(lambda ev, x, y, v, subset: ev.jacobian_vector_product(
        x, v, subset), "v", ("Jv",)),
    "cIx": _constraints(0, "I"),
    "cIJx": _constraints(1, "I"),
    "cIJHx": _constraints(2, "I"),
    "cIJxv": Action(lambda ev, x, y, v, subset: ev.jacobian_vector_product(
        x, v, subset), "vI", ("Jv",)),
    "Lxy": _lagrangian(0),
    "Lgxy": _lagrangian(1),
    "LgHxy": _lagrangian(2),
    "LHxyv": Action(lambda ev, x, y, v, subset: ev.hessian_vector_product(
        x, v, "lagrangian", y, subset), "yv", ("HLv",)),
    "LIxy": _lagrangian(0, "yI"),
    "LIgxy": _lagrangian(1, "yI"),
    "LIgHxy": _lagrangian(2, "yI"),
    "LIHxyv": Action(lambda ev, x, y, v, subset: ev.hessian_vector_product(
        x, v, "lagrangian", y, subset), "yvI", ("HLv",)),
}
ACTIONS["HLxyv"], ACTIONS["HLIxyv"] = ACTIONS["LHxyv"], ACTIONS["LIHxyv"]
