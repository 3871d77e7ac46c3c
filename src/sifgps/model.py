"""Decoded problem data model and constraint shaping transformations.

Holds the public problem summary, the internal evaluation tables, and the
ordering/format/scaling rules applied when a problem is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy import sparse

from .errors import InvalidBounds, MalformedRecord, RangeSignViolation, ZeroScaleFactor
from .expressions import (
    TRIVIAL_GROUP_NAME,
    ElementDescriptor,
    GroupDescriptor,
    trivial_group,
)

RELATIONS = ("<=", "==", ">=")


def build_csr(rows, cols, values, shape) -> sparse.csr_matrix:
    """Freeze coordinate triplets into CSR deterministically.

    Duplicates are summed in row-major order and exact zeros produced by the
    summation are pruned, so identical inputs give bitwise-identical output.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    if rows.size == 0:
        return sparse.csr_matrix(shape)
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    boundary = np.empty(rows.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(boundary)
    summed = np.add.reduceat(values, starts)
    rows, cols = rows[starts], cols[starts]
    keep = summed != 0.0
    matrix = sparse.csr_matrix((summed[keep], (rows[keep], cols[keep])), shape=shape)
    return matrix


def classify_and_order(relations, options) -> np.ndarray:
    """Permutation putting constraints in the order <=, ==, >=.

    File order is preserved within each relation class.  With keepcorder the
    identity permutation is returned.
    """
    indices = np.arange(len(relations), dtype=np.int64)
    if getattr(options, "keepcorder", False):
        return indices
    buckets = {rel: [] for rel in RELATIONS}
    for index, rel in enumerate(relations):
        buckets[rel].append(index)
    return np.array(buckets["<="] + buckets["=="] + buckets[">="], dtype=np.int64)


def convert_constraint_format(relation: str, crange: float | None) -> tuple[float, float]:
    """Two-sided bounds on the constraint value from (relation, range)."""
    if relation == "<=":
        if crange is None:
            return (-np.inf, 0.0)
        if crange > 0.0:
            raise RangeSignViolation(f"range {crange!r} on a <= constraint "
                                     f"must be nonpositive")
        return (float(crange), 0.0)
    if relation == "==":
        return (0.0, 0.0)
    if relation == ">=":
        if crange is None:
            return (0.0, np.inf)
        if crange < 0.0:
            raise RangeSignViolation(f"range {crange!r} on a >= constraint "
                                     f"must be nonnegative")
        return (0.0, float(crange))
    raise ValueError(f"unknown relation {relation!r}")


def fold_variable_scaling(A: sparse.csr_matrix, xscale: np.ndarray, options):
    """Divide the linear coefficients by the variable scalings.

    When the scalings are exposed instead (expose_xscale), A is returned
    untouched together with the scaling vector for the caller to apply.
    """
    xscale = np.asarray(xscale, dtype=float)
    if np.any(xscale == 0.0):
        bad = int(np.flatnonzero(xscale == 0.0)[0])
        raise ZeroScaleFactor(f"variable {bad} has scale factor 0")
    if getattr(options, "expose_xscale", False):
        return A, xscale.copy()
    coo = A.tocoo()
    scaled = sparse.csr_matrix(
        (coo.data / xscale[coo.col], (coo.row, coo.col)), shape=A.shape)
    return scaled, None


@dataclass(frozen=True, eq=False)
class DecodedProblem:
    """Public problem summary: dimensions, bounds, start point, metadata."""

    name: str
    sif_name: str | None
    n: int
    nob: int
    nle: int
    neq: int
    nge: int
    m: int
    lincons: np.ndarray
    pbclass: str
    x0: np.ndarray
    xlower: np.ndarray
    xupper: np.ndarray
    xtype: str
    xscale: np.ndarray | None = None
    y0: np.ndarray | None = None
    clower: np.ndarray | None = None
    cupper: np.ndarray | None = None
    ctypes: tuple[str, ...] | None = None
    cranges: tuple[float | None, ...] | None = None
    objlower: float | None = None
    objupper: float | None = None
    xnames: tuple[str, ...] | None = None
    cnames: tuple[str, ...] | None = None

    def validate(self) -> None:
        if self.m != self.nle + self.neq + self.nge:
            raise InvalidBounds("constraint counts do not sum to m")
        if np.any(self.xlower > self.xupper):
            bad = int(np.flatnonzero(self.xlower > self.xupper)[0])
            raise InvalidBounds(f"variable {bad} has lower bound above upper bound")
        for i, kind in enumerate(self.xtype):
            if kind == "b" and not (self.xlower[i] >= 0.0 and self.xupper[i] <= 1.0):
                raise InvalidBounds(f"binary variable {i} has bounds outside [0, 1]")
        if self.clower is not None and np.any(self.clower > self.cupper):
            raise InvalidBounds("constraint lower bound above upper bound")
        if self.lincons.size and (self.lincons.min() < 0 or self.lincons.max() >= self.m):
            raise InvalidBounds("lincons entry outside [0, m)")


@dataclass(frozen=True, eq=False)
class Ragged:
    """A table of variable-length rows: row k is flat[ptr[k]:ptr[k + 1]].

    LANCELOT's layout for its ISTAEV/IELVAR and ISTADG/IELING pairs.
    """

    ptr: np.ndarray                # int64, one more entry than there are rows
    flat: np.ndarray

    @classmethod
    def from_rows(cls, rows: list, dtype) -> Ragged:
        return cls(np.cumsum([0, *map(len, rows)]),
                   np.array(list(chain.from_iterable(rows)), dtype=dtype))

    def __len__(self) -> int:
        return self.ptr.size - 1

    def __getitem__(self, k: int) -> np.ndarray:
        k = range(len(self))[k]        # negative rows count from the end
        return self.flat[self.ptr[k]:self.ptr[k + 1]]

    def __iter__(self):
        ptr = self.ptr.tolist()
        return (self.flat[start:stop] for start, stop in zip(ptr, ptr[1:]))


@dataclass(frozen=True, eq=False)
class ProblemInternals:
    """Evaluation structure: group/element tables and sparse matrices.

    Group i's argument adds its linear term:
    a_i(x) = sum_j w_ij f_j + sum_j A_ij x_j - gconst_i.
    Per-element and per-group rows are Ragged tables; grelt and grelw have
    the same row pointers.

    Shared by evaluators; immutable after setup.
    """

    name: str
    objgrps: np.ndarray
    congrps: np.ndarray
    A: sparse.csr_matrix           # one row per group, columns are variables
    gconst: np.ndarray
    H: sparse.csr_matrix           # symmetric n x n quadratic term
    gscale: np.ndarray
    elftype: tuple[str, ...]
    elvar: Ragged                  # each element's variables
    elpar: Ragged                  # each element's parameter values
    grftype: tuple[str, ...]
    grelt: Ragged                  # each group's elements
    grelw: Ragged                  # their weights
    grpar: Ragged                  # each group's parameter values
    efpar: np.ndarray
    efpar_names: tuple[str, ...]
    gfpar: np.ndarray
    gfpar_names: tuple[str, ...]
    element_types: dict[str, ElementDescriptor]
    group_types: dict[str, GroupDescriptor]
    enames: tuple[str, ...] | None = None
    grnames: tuple[str, ...] | None = None
    alt_sets: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def n_groups(self) -> int:
        return self.A.shape[0]

    def validate(self) -> None:
        """Check that the tables fit together, naming the field that does not."""
        def widths(type_field: str, types: dict, attribute: str) -> np.ndarray:
            """Each row's width: the length of that attribute of its type."""
            names = getattr(self, type_field)
            unknown = set(names) - set(types)
            if unknown:
                raise MalformedRecord(
                    f"field {type_field!r} names unknown type(s) {sorted(unknown)}")
            per_type = {name: len(getattr(desc, attribute)) for name, desc in types.items()}
            return np.fromiter(map(per_type.__getitem__, names), np.int64, len(names))

        group_types = {TRIVIAL_GROUP_NAME: trivial_group(), **self.group_types}
        for field_name, table, expected in (
                ("elvar", self.elvar, widths("elftype", self.element_types, "elemental")),
                ("elpar", self.elpar, widths("elftype", self.element_types, "parameters")),
                ("grpar", self.grpar, widths("grftype", group_types, "parameters")),
                ("grelw", self.grelw, np.diff(self.grelt.ptr))):
            sizes = np.diff(table.ptr)
            bad = np.flatnonzero(sizes != expected)
            if bad.size:
                raise MalformedRecord(f"field {field_name!r} row {bad[0]} has "
                                      f"{sizes[bad[0]]} entries, not {expected[bad[0]]}")
        for field_name, index, bound in (("elvar", self.elvar.flat, self.A.shape[1]),
                                         ("grelt", self.grelt.flat, len(self.elftype)),
                                         ("objgrps", self.objgrps, self.n_groups),
                                         ("congrps", self.congrps, self.n_groups)):
            if index.size and (index.min() < 0 or index.max() >= bound):
                raise MalformedRecord(
                    f"field {field_name!r} holds an index outside [0, {bound})")
        if np.intersect1d(self.objgrps, self.congrps).size:
            raise InvalidBounds("a group belongs to both the objective and a constraint")
        if np.any(self.gscale == 0.0):
            raise ZeroScaleFactor("group scale factor 0")
        if (self.H != self.H.T).nnz != 0:
            raise InvalidBounds("quadratic matrix is not symmetric")
