"""Evaluation engine over a decoded problem.

Every action weights groups over the group-argument Jacobian G(x), whose row
i is the gradient of a_i(x) = sum_e w_ie f_e(x) + A_i x - beta_i.  A call
evaluates each element once and each group's F_i, d1_i, d2_i (over its
scale).  With group weights lambda (1 for the objective, y for constraints)
and mu_e = sum_i lambda_i d1_i w_ie: gradient H x + G^T (lambda d1), Hessian
H + G^T diag(lambda d2) G + sum_e mu_e P_e^T H_e P_e, Jacobian diag(d1) G.
Products apply these matrices without forming them.

A call runs each element type's program once over an array of its
instances, and each group type's once over its groups, in arithmetic that
rounds exactly as the per-instance interpreter does.  A domain condition,
or a group type without a needed derivative slot, reruns the call through
that per-instance walk, which raises the error with its attribution.
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
    SifError,
)
from .expressions import (
    TRIVIAL_GROUP_NAME,
    ElementDescriptor,
    GroupDescriptor,
    eval_element,
    eval_elements,
    eval_group_function,
    trivial_group,
)
from .model import DecodedProblem, ProblemInternals, build_csr


@dataclass
class EvalResult:
    value: float | np.ndarray | None = None
    gradient: np.ndarray | sparse.csr_matrix | None = None
    hessian: sparse.csr_matrix | list[sparse.csr_matrix] | None = None


@dataclass(frozen=True)
class _ElementBatch:
    """The walked instances of one element type."""

    descriptor: ElementDescriptor
    elements: np.ndarray           # (k,) element indices
    params: dict[str, np.ndarray]  # parameter -> (k,) values
    g_at: np.ndarray               # (k, s) their slots in elvar.flat


@dataclass(frozen=True)
class _GroupBatch:
    """The walked groups of one group type."""

    descriptor: GroupDescriptor
    positions: np.ndarray          # (k,) positions in walk order
    params: dict[str, np.ndarray]  # parameter -> (k,) values


@dataclass(frozen=True)
class _Plan:
    """Index arrays of one group set; read-only, so calls may share it."""

    groups: np.ndarray             # walk order
    ranks: tuple                   # per use rank: (positions, elements, weights)
    elements: tuple[_ElementBatch, ...]
    group_batches: tuple[_GroupBatch, ...]
    g_take: np.ndarray             # G's data for these rows, in walk order,
    g_indices: np.ndarray          # with their column indices
    g_indptr: np.ndarray


@dataclass
class _Walk:
    """One call's groups and weights, their values and derivatives, and G."""

    groups: np.ndarray
    lam: np.ndarray
    value: np.ndarray              # F_i / sigma_i in walk order
    d1: np.ndarray | None          # None when the walk's order is below 1
    d2: np.ndarray | None          # None when the walk's order is below 2
    hessians: np.ndarray | None    # element Hessians, flat at Evaluator._h_start
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


def _codes(names: tuple[str, ...], types: dict) -> tuple[list, np.ndarray]:
    """The descriptors named, and each name's index into them."""
    present = sorted(set(names))
    index = {name: code for code, name in enumerate(present)}
    return ([types[name] for name in present],
            np.fromiter(map(index.__getitem__, names), np.int64, len(names)))


def _runs(keys: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each run of equal entries in sorted keys."""
    cuts = (np.flatnonzero(np.diff(keys)) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, keys.size])) if keys.size else []


def _by_code(codes: np.ndarray, items: np.ndarray):
    """(code, its items in their order) for each code present."""
    order = np.argsort(codes, kind="stable")
    codes, items = codes[order], items[order]
    return [(int(codes[start]), items[start:stop]) for start, stop in _runs(codes)]


def _columns(table, rows: np.ndarray, width: int) -> np.ndarray:
    """The (len(rows), width) slots in table.flat of rows of one width."""
    return table.ptr[rows][:, None] + np.arange(width)


def _g_pattern(internals: ProblemInternals, n: int):
    """G's fixed pattern and how one call's raw entries fill it.

    G's raw entries are A's, then each element use's variables; entries on
    one (row, column) sum into one slot of the pattern.  Returns the
    pattern's column indices and row pointers, each raw entry's slot, A's
    values, and each use entry's weight and slot in elvar.flat.
    """
    grelt, elvar = internals.grelt, internals.elvar
    a = internals.A.tocoo()
    uses = np.diff(grelt.ptr)
    owner, entries = _expand(elvar.ptr[grelt.flat], np.diff(elvar.ptr)[grelt.flat])
    rows = np.concatenate([a.row, np.repeat(np.arange(uses.size), uses)[owner]])
    cols = np.concatenate([a.col, elvar.flat[entries]])
    keys, slot = np.unique(rows.astype(np.int64) * n + cols, return_inverse=True)
    g_rows, g_cols = np.divmod(keys, max(n, 1))
    g_ptr = np.concatenate([[0], np.cumsum(
        np.bincount(g_rows, minlength=internals.n_groups))])
    return g_cols, g_ptr, slot.ravel(), a.data, internals.grelw.flat[owner], entries


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
        self._group_types = {TRIVIAL_GROUP_NAME: trivial_group(), **internals.group_types}
        # each instance's type as a code into a list of descriptors
        self._element_descs, self._elcode = _codes(internals.elftype,
                                                   internals.element_types)
        self._group_descs, self._grcode = _codes(internals.grftype, self._group_types)

        size = np.diff(internals.elvar.ptr)
        self._h_start = np.concatenate([[0], np.cumsum(size * size)])
        (self._g_cols, self._g_ptr, self._slot, self._a_data,
         self._entry_w, self._entry_src) = _g_pattern(internals, self.n)
        self._quad = sparse.tril(internals.H).tocoo()

        objective, constraints = internals.objgrps, internals.congrps
        self._plans = {"objective": self._plan(objective),
                       "constraints": self._plan(constraints)}
        self._plans["lagrangian"] = (self._plan(np.concatenate([objective, constraints]))
                                     if constraints.size else self._plans["objective"])

    def _plan(self, groups: np.ndarray) -> _Plan:
        """Index arrays for walking these groups in this order."""
        it = self.internals
        grelt, elvar = it.grelt, it.elvar
        counts = np.diff(grelt.ptr)[groups]
        owner, uses = _expand(grelt.ptr[groups], counts)
        elems, weights = grelt.flat[uses], it.grelw.flat[uses]
        # a group adds its element terms in use order: rank r is every
        # group's r-th use
        rank = np.arange(uses.size) - np.repeat(np.cumsum(counts) - counts, counts)
        by_rank = np.argsort(rank, kind="stable")
        columns = [column[by_rank] for column in (owner, elems, weights)]
        ranks = tuple(tuple(column[start:stop] for column in columns)
                      for start, stop in _runs(rank[by_rank]))

        element_batches = []
        used = np.unique(elems)
        for code, members in _by_code(self._elcode[used], used):
            desc = self._element_descs[code]
            params = it.elpar.flat[_columns(it.elpar, members, len(desc.parameters))]
            element_batches.append(_ElementBatch(
                desc, members, dict(zip(desc.parameters, params.T)),
                _columns(elvar, members, len(desc.elemental))))
        group_batches = []
        for code, positions in _by_code(self._grcode[groups], np.arange(groups.size)):
            desc = self._group_descs[code]
            params = it.grpar.flat[_columns(it.grpar, groups[positions],
                                            len(desc.parameters))]
            group_batches.append(_GroupBatch(desc, positions,
                                             dict(zip(desc.parameters, params.T))))

        return _Plan(groups, ranks, tuple(element_batches), tuple(group_batches),
                     *self._rows_of_g(groups))

    def _rows_of_g(self, groups: np.ndarray):
        """(data selection, indices, indptr) of G's rows in walk order.

        The index arrays come in the dtype csr_matrix keeps for this shape,
        so every call's G shares them instead of converting a copy.
        """
        counts = np.diff(self._g_ptr)[groups]
        _, take = _expand(self._g_ptr[groups], counts)
        rows = sparse.csr_matrix((np.empty(take.size), self._g_cols[take],
                                  np.concatenate([[0], np.cumsum(counts)])),
                                 shape=(groups.size, self.n))
        return take, rows.indices, rows.indptr

    # -- argument checking --

    def _vector(self, data, length: int, label: str) -> np.ndarray:
        arr = np.asarray(data, dtype=float)
        if arr.shape != (length,):
            raise DimensionMismatch(f"{label} must have length {length}, "
                                    f"got shape {arr.shape}")
        return arr

    def _subset(self, subset) -> np.ndarray:
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

    def _constraint_plan(self, subset, objective: bool = False) -> _Plan:
        """The constraint groups, all or a checked subset, after the objective's if asked."""
        if subset is None:
            return self._plans["lagrangian" if objective else "constraints"]
        groups = self.internals.congrps[self._subset(subset)]
        if objective:
            groups = np.concatenate([self.internals.objgrps, groups])
        return self._plan(groups)

    def _lagrangian_weights(self, y, plan: _Plan) -> np.ndarray:
        """1 on the objective's groups, then the checked multipliers."""
        nob = self.internals.objgrps.size
        if y is None:
            raise MultiplierLengthMismatch("the Lagrangian needs multipliers y")
        y = np.asarray(y, dtype=float)
        if y.shape != (plan.groups.size - nob,):
            raise MultiplierLengthMismatch(
                f"y must have length {plan.groups.size - nob}, got shape {y.shape}")
        return np.concatenate([np.ones(nob), y])

    # -- the walk over groups --

    def _walk(self, x: np.ndarray, order: int, plan: _Plan, lam: np.ndarray) -> _Walk:
        """Evaluate the plan's groups, each element once, and refill G."""
        with np.errstate(all="ignore"):
            try:
                values, d1, d2, gradients, hessians = self._fill(x, order, plan)
            except SifError:
                # the per-instance walk raises the same error with its attribution
                values, d1, d2, gradients, hessians = self._scalar_fill(x, order, plan)
        G = None
        if order >= 1:
            # entries of elements the walk skipped land only in rows it drops
            raw = np.concatenate([self._a_data, self._entry_w * gradients[self._entry_src]])
            data = np.bincount(self._slot, raw, minlength=self._g_cols.size)
            G = sparse.csr_matrix((data[plan.g_take], plan.g_indices, plan.g_indptr),
                                  shape=(plan.groups.size, self.n))
        return _Walk(plan.groups, lam, values, d1, d2, hessians, G)

    def _stores(self, order: int):
        """Flat element value, gradient (at elvar's slots) and Hessian stores."""
        return (np.empty(len(self.internals.elftype)),
                np.zeros(self.internals.elvar.flat.size) if order >= 1 else None,
                np.empty(self._h_start[-1]) if order >= 2 else None)

    def _fill(self, x: np.ndarray, order: int, plan: _Plan):
        """Each type's program once over its instances: F/sigma, d1, d2 and the stores."""
        f, gradients, hessians = self._stores(order)
        it = self.internals
        for batch in plan.elements:
            value, gradient, hessian = eval_elements(
                batch.descriptor, x[it.elvar.flat[batch.g_at]], batch.params,
                self._ef_env, order)
            f[batch.elements] = value
            if order >= 1:
                gradients[batch.g_at] = gradient
            if order >= 2:
                k, s = batch.g_at.shape
                hessians[self._h_start[batch.elements][:, None] + np.arange(s * s)] = \
                    hessian.reshape(k, s * s)
        a = (it.A @ x)[plan.groups]
        a -= it.gconst[plan.groups]
        for positions, elems, weights in plan.ranks:
            a[positions] += weights * f[elems]
        inv_scale = 1.0 / it.gscale[plan.groups]
        out = [np.empty(a.size) for _ in range(order + 1)]
        for batch in plan.group_batches:
            inv = inv_scale[batch.positions]
            results = eval_group_function(batch.descriptor, a[batch.positions],
                                          batch.params, self._gf_env, order,
                                          strict_derivatives=True)
            for column, result in zip(out, results):
                column[batch.positions] = result * inv
        out += [None] * (2 - order)
        return (*out, gradients, hessians)

    def _scalar_fill(self, x: np.ndarray, order: int, plan: _Plan):
        """_fill one instance at a time through the interpreter, in walk order.

        The error path: it raises the first domain error of the walk, naming
        its element or group.  Tests use it as the batched fill's oracle.
        """
        it = self.internals
        use_ptr, use_elem, use_w = (it.grelt.ptr.tolist(), it.grelt.flat.tolist(),
                                    it.grelw.flat.tolist())
        gconst, gscale = it.gconst.tolist(), it.gscale.tolist()
        ax = (it.A @ x).tolist()
        f, gradients, hessians = self._stores(order)
        done = set()
        out = [[], [], []]
        for gi in plan.groups.tolist():
            a = ax[gi] - gconst[gi]
            for u in range(use_ptr[gi], use_ptr[gi + 1]):
                e, w = use_elem[u], use_w[u]
                if e not in done:
                    desc = it.element_types[it.elftype[e]]
                    params = dict(zip(desc.parameters, it.elpar[e]))
                    try:
                        value, gradient, hessian = eval_element(
                            desc, x[it.elvar[e]], params, self._ef_env, order)
                    except DomainError as err:
                        raise DomainError(err.message, element_index=e) from err
                    f[e] = value
                    if order >= 1:
                        gradients[it.elvar.ptr[e]:it.elvar.ptr[e + 1]] = gradient
                    if order >= 2:
                        hessians[self._h_start[e]:self._h_start[e + 1]] = hessian.ravel()
                    done.add(e)
                a += w * f[e]
            desc = self._group_types[it.grftype[gi]]
            try:
                results = eval_group_function(desc, a, dict(zip(desc.parameters, it.grpar[gi])),
                                              self._gf_env, order, strict_derivatives=True)
            except DomainError as err:
                raise DomainError(err.message, group_index=gi) from err
            inv = 1.0 / gscale[gi]
            for column, result in zip(out, results[:order + 1]):
                column.append(result * inv)
        values = [np.array(column, dtype=float) for column in out[:order + 1]]
        values += [None] * (2 - order)
        return (*values, gradients, hessians)

    # -- weighted sums over a walk --

    def _function(self, walk: _Walk, x, order: int) -> EvalResult:
        """Objective value, weighted gradient and weighted Hessian of a walk."""
        hx = self.internals.H @ x
        # a sequential sum, one objective group at a time
        value = np.cumsum(np.concatenate([[0.5 * float(np.dot(x, hx))],
                                          walk.value[:self.internals.objgrps.size]]))[-1]
        return EvalResult(
            value=float(value),
            gradient=hx + walk.G.T @ (walk.lam * walk.d1) if order >= 1 else None,
            hessian=self._hessian(walk, True) if order >= 2 else None)

    def _element_terms(self, walk: _Walk, c1, split: bool):
        """(block, row, col, value) of mu_e P_e^T H_e P_e; c1 is lambda d1."""
        positions = np.flatnonzero(c1 != 0.0)
        groups, n_el = walk.groups[positions], max(len(self.internals.elftype), 1)
        grelt, elvar = self.internals.grelt, self.internals.elvar
        owner, uses = _expand(grelt.ptr[groups], grelt.ptr[groups + 1] - grelt.ptr[groups])
        key = grelt.flat[uses] + (positions[owner] * n_el if split else 0)
        keys, inverse = np.unique(key, return_inverse=True)
        mu = np.bincount(inverse.ravel(),
                         c1[positions][owner] * self.internals.grelw.flat[uses])
        block, elems = np.divmod(keys, n_el)
        owner, p, q = _square(elvar.ptr, elems)
        _, at = _expand(self._h_start[elems], self._h_start[elems + 1] - self._h_start[elems])
        values = walk.hessians[at]
        values *= mu[owner]
        return block[owner], elvar.flat[p], elvar.flat[q], values

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
        plan = self._plans["objective"]
        return self._function(self._walk(x, order, plan, np.ones(plan.groups.size)),
                              x, order)

    # -- constraints --

    def evaluate_constraints(self, x, order: int = 0, subset=None) -> EvalResult:
        self._need_constraints()
        x = self._vector(x, self.n, "x")
        plan = self._constraint_plan(subset)
        walk = self._walk(x, order, plan, np.ones(plan.groups.size))
        G = walk.G.tocoo() if order >= 1 else None
        return EvalResult(
            value=walk.value,
            gradient=(build_csr(G.row, G.col, walk.d1[G.row] * G.data,
                                (plan.groups.size, self.n)) if order >= 1 else None),
            hessian=self._hessian(walk, False, split=True) if order >= 2 else None)

    # -- Lagrangian --

    def evaluate_lagrangian(self, x, y, order: int = 0, subset=None) -> EvalResult:
        self._need_constraints()
        x = self._vector(x, self.n, "x")
        plan = self._constraint_plan(subset, objective=True)
        walk = self._walk(x, order, plan, self._lagrangian_weights(y, plan))
        result = self._function(walk, x, order)
        nob = self.internals.objgrps.size
        result.value += float(np.dot(walk.lam[nob:], walk.value[nob:]))
        return result

    # -- products --

    def hessian_vector_product(self, x, v, kind: str = "objective",
                               y=None, subset=None) -> np.ndarray:
        x = self._vector(x, self.n, "x")
        v = self._vector(v, self.n, "v")
        if kind == "lagrangian":
            self._need_constraints()
            plan = self._constraint_plan(subset, objective=True)
            lam = self._lagrangian_weights(y, plan)
        else:
            plan = self._plans["objective"]
            lam = np.ones(plan.groups.size)
        walk = self._walk(x, 2, plan, lam)
        out = self.internals.H @ v + walk.G.T @ (walk.lam * walk.d2 * (walk.G @ v))
        _, rows, cols, vals = self._element_terms(walk, walk.lam * walk.d1, False)
        return out + np.bincount(rows, vals * v[cols], minlength=self.n)

    def jacobian_vector_product(self, x, v, subset=None) -> np.ndarray:
        self._need_constraints()
        x = self._vector(x, self.n, "x")
        v = self._vector(v, self.n, "v")
        plan = self._constraint_plan(subset)
        walk = self._walk(x, 1, plan, np.ones(plan.groups.size))
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
