"""Canonical JSON form of a decoded problem.

The dump is the package's durable problem representation: format_version 1,
zero-based indices, infinities written as the strings "inf"/"-inf", sparse
matrices as row-major coordinate lists.  Dump -> load -> dump is
byte-identical.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import sparse

from .errors import MalformedRecord
from .expressions import (
    TRIVIAL_GROUP_NAME,
    ElementDescriptor,
    ExpressionProgram,
    GroupDescriptor,
    node_from_json,
    node_to_json,
)
from .model import DecodedProblem, ProblemInternals, build_csr

FORMAT_VERSION = 1


def _num(value: float):
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if math.isnan(value):
        raise MalformedRecord("NaN cannot be serialized")
    return value


def _denum(value) -> float:
    if isinstance(value, str):
        if value == "inf":
            return math.inf
        if value == "-inf":
            return -math.inf
        raise MalformedRecord(f"bad numeric string {value!r}")
    return float(value)


def _vector(values) -> list:
    return [_num(v) for v in values]


def _devector(values) -> np.ndarray:
    return np.array([_denum(v) for v in values], dtype=float)


def _opt_vector(values):
    return None if values is None else _vector(values)


def _opt_devector(values):
    return None if values is None else _devector(values)


def _matrix(m: sparse.csr_matrix) -> dict:
    coo = m.tocoo()
    order = np.lexsort((coo.col, coo.row))
    entries = [[int(coo.row[k]), int(coo.col[k]), _num(coo.data[k])] for k in order]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": entries}


def _dematrix(data: dict) -> sparse.csr_matrix:
    entries = data["entries"]
    return build_csr([e[0] for e in entries], [e[1] for e in entries],
                     [_denum(e[2]) for e in entries],
                     (data["rows"], data["cols"]))


def _program(program: ExpressionProgram) -> dict:
    return {
        "temporaries": [[name, node_to_json(node)]
                        for name, node in program.temporaries],
        "value": node_to_json(program.value),
        "first": {name: node_to_json(node) for name, node in program.first.items()},
        "second": {f"{a},{b}": node_to_json(node)
                   for (a, b), node in program.second.items()},
    }


def _deprogram(data: dict, variables: tuple[str, ...],
               parameters: tuple[str, ...]) -> ExpressionProgram:
    second = {}
    for key, node in data["second"].items():
        a, b = key.split(",")
        second[(a, b)] = node_from_json(node)
    return ExpressionProgram(
        variables=variables,
        parameters=parameters,
        temporaries=tuple((name, node_from_json(node))
                          for name, node in data["temporaries"]),
        value=node_from_json(data["value"]),
        first={name: node_from_json(node) for name, node in data["first"].items()},
        second=second,
    )


def _element_type(desc: ElementDescriptor) -> dict:
    matrix = None
    if desc.range_matrix is not None:
        rows, cols = desc.range_matrix.shape
        matrix = {"rows": rows, "cols": cols,
                  "entries": [[i, j, _num(desc.range_matrix[i, j])]
                              for i in range(rows) for j in range(cols)
                              if desc.range_matrix[i, j] != 0.0]}
    return {
        "elemental": list(desc.elemental),
        "internal": list(desc.internal),
        "parameters": list(desc.parameters),
        "range_matrix": matrix,
        "program": _program(desc.program),
    }


def _de_element_type(name: str, data: dict) -> ElementDescriptor:
    elemental = tuple(data["elemental"])
    internal = tuple(data["internal"])
    parameters = tuple(data["parameters"])
    matrix = None
    if data["range_matrix"] is not None:
        matrix = np.zeros((data["range_matrix"]["rows"],
                           data["range_matrix"]["cols"]))
        for i, j, value in data["range_matrix"]["entries"]:
            matrix[i, j] = _denum(value)
    program = _deprogram(data["program"], internal if internal else elemental,
                         parameters)
    return ElementDescriptor(name, elemental, internal, parameters, matrix, program)


def _group_type(desc: GroupDescriptor) -> dict:
    return {
        "argument": desc.argument,
        "parameters": list(desc.parameters),
        "program": _program(desc.program),
    }


def _de_group_type(name: str, data: dict) -> GroupDescriptor:
    parameters = tuple(data["parameters"])
    program = _deprogram(data["program"], (data["argument"],), parameters)
    return GroupDescriptor(name, data["argument"], parameters, program)


def dump_problem(problem: DecodedProblem, internals: ProblemInternals,
                 provenance: dict) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "provenance": provenance,
        "problem": {
            "name": problem.name,
            "sif_name": problem.sif_name,
            "n": problem.n,
            "nob": problem.nob,
            "nle": problem.nle,
            "neq": problem.neq,
            "nge": problem.nge,
            "m": problem.m,
            "lincons": [int(k) for k in problem.lincons],
            "pbclass": problem.pbclass,
            "x0": _vector(problem.x0),
            "xlower": _vector(problem.xlower),
            "xupper": _vector(problem.xupper),
            "xtype": problem.xtype,
            "xscale": _opt_vector(problem.xscale),
            "y0": _opt_vector(problem.y0),
            "clower": _opt_vector(problem.clower),
            "cupper": _opt_vector(problem.cupper),
            "ctypes": list(problem.ctypes) if problem.ctypes is not None else None,
            "cranges": ([None if r is None else _num(r) for r in problem.cranges]
                        if problem.cranges is not None else None),
            "objlower": None if problem.objlower is None else _num(problem.objlower),
            "objupper": None if problem.objupper is None else _num(problem.objupper),
            "xnames": list(problem.xnames) if problem.xnames is not None else None,
            "cnames": list(problem.cnames) if problem.cnames is not None else None,
        },
        "internals": {
            "objgrps": [int(g) for g in internals.objgrps],
            "congrps": [int(g) for g in internals.congrps],
            "A": _matrix(internals.A),
            "H": _matrix(internals.H),
            "gconst": _vector(internals.gconst),
            "gscale": _vector(internals.gscale),
            "elftype": list(internals.elftype),
            "elvar": [[int(v) for v in row] for row in internals.elvar],
            "elpar": [_vector(row) for row in internals.elpar],
            "grftype": list(internals.grftype),
            "grelt": [[int(e) for e in row] for row in internals.grelt],
            "grelw": [_vector(row) for row in internals.grelw],
            "grpar": [_vector(row) for row in internals.grpar],
            "efpar": {"names": list(internals.efpar_names),
                      "values": _vector(internals.efpar)},
            "gfpar": {"names": list(internals.gfpar_names),
                      "values": _vector(internals.gfpar)},
            "element_types": {name: _element_type(desc)
                              for name, desc in internals.element_types.items()},
            "group_types": {name: _group_type(desc)
                            for name, desc in internals.group_types.items()},
            "enames": list(internals.enames) if internals.enames is not None else None,
            "grnames": (list(internals.grnames)
                        if internals.grnames is not None else None),
            "alt_sets": {k: list(v) for k, v in internals.alt_sets.items()},
        },
    }


def _check_tables(problem: DecodedProblem, internals: ProblemInternals) -> None:
    """Reject tables whose sizes, indices or type names do not fit together."""
    n, m = problem.n, problem.m
    n_groups, n_elements = len(internals.grftype), len(internals.elftype)
    sizes = [
        (n, "n", {"x0": problem.x0, "xlower": problem.xlower,
                  "xupper": problem.xupper, "xscale": problem.xscale,
                  "xtype": problem.xtype, "xnames": problem.xnames}),
        (m, "m", {"y0": problem.y0, "clower": problem.clower,
                  "cupper": problem.cupper, "ctypes": problem.ctypes,
                  "cranges": problem.cranges, "cnames": problem.cnames,
                  "congrps": internals.congrps}),
        (problem.nob, "nob", {"objgrps": internals.objgrps}),
        (n_groups, "the number of groups",
         {"gconst": internals.gconst, "gscale": internals.gscale,
          "grelt": internals.grelt, "grelw": internals.grelw,
          "grpar": internals.grpar}),
        (n_elements, "the number of elements",
         {"elvar": internals.elvar, "elpar": internals.elpar}),
    ]
    for size, label, fields in sizes:
        for field, values in fields.items():
            if values is not None and len(values) != size:
                raise MalformedRecord(f"field {field!r} has length {len(values)}, "
                                      f"not {label} = {size}")
    for field, matrix, shape in (("A", internals.A, (n_groups, n)),
                                 ("H", internals.H, (n, n))):
        if matrix.shape != shape:
            raise MalformedRecord(
                f"field {field!r} has shape {matrix.shape}, not {shape}")
    for field, rows, bound in (("elvar", internals.elvar, n),
                               ("grelt", internals.grelt, n_elements),
                               ("objgrps", (internals.objgrps,), n_groups),
                               ("congrps", (internals.congrps,), n_groups)):
        flat = np.concatenate([np.zeros(0, np.int64), *rows])
        if flat.size and (flat.min() < 0 or flat.max() >= bound):
            raise MalformedRecord(
                f"field {field!r} holds an index outside [0, {bound})")
    for field, names, known in (
            ("elftype", internals.elftype, set(internals.element_types)),
            ("grftype", internals.grftype,
             set(internals.group_types) | {TRIVIAL_GROUP_NAME})):
        unknown = set(names) - known
        if unknown:
            raise MalformedRecord(
                f"field {field!r} names unknown type(s) {sorted(unknown)}")


def load_problem(data: dict) -> tuple[DecodedProblem, ProblemInternals, dict]:
    """Rebuild a decoded problem from its dump, raising MalformedRecord on a bad one."""
    if data.get("format_version") != FORMAT_VERSION:
        raise MalformedRecord(
            f"unsupported dump format_version {data.get('format_version')!r}")
    try:
        problem, internals = _load_tables(data)
    except KeyError as exc:
        raise MalformedRecord(f"dump has no field {exc.args[0]!r}") from None
    _check_tables(problem, internals)
    problem.validate()
    internals.validate()
    globals_ef = frozenset(internals.efpar_names)
    globals_gf = frozenset(internals.gfpar_names)
    for desc in internals.element_types.values():
        desc.program.validate(globals_ef)
    for desc in internals.group_types.values():
        desc.program.validate(globals_gf)
    return problem, internals, data.get("provenance", {})


def _load_tables(data: dict) -> tuple[DecodedProblem, ProblemInternals]:
    p = data["problem"]
    problem = DecodedProblem(
        name=p["name"],
        sif_name=p["sif_name"],
        n=p["n"], nob=p["nob"], nle=p["nle"], neq=p["neq"], nge=p["nge"], m=p["m"],
        lincons=np.array(p["lincons"], dtype=np.int64),
        pbclass=p["pbclass"],
        x0=_devector(p["x0"]),
        xlower=_devector(p["xlower"]),
        xupper=_devector(p["xupper"]),
        xtype=p["xtype"],
        xscale=_opt_devector(p["xscale"]),
        y0=_opt_devector(p["y0"]),
        clower=_opt_devector(p["clower"]),
        cupper=_opt_devector(p["cupper"]),
        ctypes=tuple(p["ctypes"]) if p["ctypes"] is not None else None,
        cranges=(tuple(None if r is None else _denum(r) for r in p["cranges"])
                 if p["cranges"] is not None else None),
        objlower=None if p["objlower"] is None else _denum(p["objlower"]),
        objupper=None if p["objupper"] is None else _denum(p["objupper"]),
        xnames=tuple(p["xnames"]) if p["xnames"] is not None else None,
        cnames=tuple(p["cnames"]) if p["cnames"] is not None else None,
    )
    i = data["internals"]
    element_types = {name: _de_element_type(name, desc)
                     for name, desc in i["element_types"].items()}
    group_types = {name: _de_group_type(name, desc)
                   for name, desc in i["group_types"].items()}
    internals = ProblemInternals(
        name=p["name"],
        objgrps=np.array(i["objgrps"], dtype=np.int64),
        congrps=np.array(i["congrps"], dtype=np.int64),
        A=_dematrix(i["A"]),
        H=_dematrix(i["H"]),
        gconst=_devector(i["gconst"]),
        gscale=_devector(i["gscale"]),
        elftype=tuple(i["elftype"]),
        elvar=tuple(np.array(row, dtype=np.int64) for row in i["elvar"]),
        elpar=tuple(_devector(row) for row in i["elpar"]),
        grftype=tuple(i["grftype"]),
        grelt=tuple(np.array(row, dtype=np.int64) for row in i["grelt"]),
        grelw=tuple(_devector(row) for row in i["grelw"]),
        grpar=tuple(_devector(row) for row in i["grpar"]),
        efpar=_devector(i["efpar"]["values"]),
        efpar_names=tuple(i["efpar"]["names"]),
        gfpar=_devector(i["gfpar"]["values"]),
        gfpar_names=tuple(i["gfpar"]["names"]),
        element_types=element_types,
        group_types=group_types,
        enames=tuple(i["enames"]) if i["enames"] is not None else None,
        grnames=tuple(i["grnames"]) if i["grnames"] is not None else None,
        alt_sets={k: tuple(v) for k, v in i["alt_sets"].items()},
    )
    return problem, internals


def dumps_canonical(data: dict) -> str:
    try:
        return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise MalformedRecord(f"not serializable: {exc}") from None


def dump_text(problem: DecodedProblem, internals: ProblemInternals,
              provenance: dict) -> str:
    return dumps_canonical(dump_problem(problem, internals, provenance))


def load_text(text: str) -> tuple[DecodedProblem, ProblemInternals, dict]:
    return load_problem(json.loads(text))
