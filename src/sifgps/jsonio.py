"""Canonical JSON form of a decoded problem.

The dump is the package's durable problem representation: format_version 1,
zero-based indices, infinities written as the strings "inf"/"-inf", sparse
matrices as row-major coordinate lists, ragged tables as lists of rows.
Dump -> load -> dump is byte-identical.  FIELDS lists every field once, with
its codec and the count its length must equal; dump, load and the length
checks all read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from itertools import chain
from typing import Any, Callable

import numpy as np
from scipy import sparse

from .errors import MalformedRecord
from .expressions import (
    ElementDescriptor,
    ExpressionProgram,
    GroupDescriptor,
    node_from_json,
    node_to_json,
)
from .model import DecodedProblem, ProblemInternals, Ragged, build_csr

FORMAT_VERSION = 1


# -- array-level value codecs -------------------------------------------------


def _kinds(values, field: str, allowed: set) -> set:
    """The item types of a JSON list, which must all be allowed."""
    if not isinstance(values, list):
        raise MalformedRecord(f"field {field!r} is not a list")
    kinds = set(map(type, values))
    if not kinds <= allowed:
        raise MalformedRecord(f"field {field!r} holds a value of type "
                              f"{min(kind.__name__ for kind in kinds - allowed)}")
    return kinds


def _floats_out(values) -> list:
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        raise MalformedRecord("NaN cannot be serialized")
    if not np.isinf(values).any():
        return values.tolist()
    out = values.astype(object)
    out[values == np.inf] = "inf"
    out[values == -np.inf] = "-inf"
    return out.tolist()


def _floats_in(values, field: str) -> np.ndarray:
    if str in _kinds(values, field, {float, int, str}):
        text = {v for v in set(values) if type(v) is str} - {"inf", "-inf"}
        if text:
            raise MalformedRecord(f"field {field!r} holds the bad numeric string "
                                  f"{min(text)!r}")
    array = np.array(values, dtype=float)
    if np.isnan(array).any():
        raise MalformedRecord(f"field {field!r} holds NaN")
    return array


def _ints_in(values, field: str) -> np.ndarray:
    _kinds(values, field, {int})
    return np.array(values, dtype=np.int64)


def _count_in(value, field: str) -> int:
    if type(value) is not int or value < 0:
        raise MalformedRecord(f"field {field!r} is {value!r}, not a count")
    return value


def _names_in(values, field: str) -> tuple[str, ...]:
    _kinds(values, field, {str})
    return tuple(values)


def _matrix_out(matrix) -> dict:
    coo = sparse.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    entries = zip(coo.row[order].tolist(), coo.col[order].tolist(),
                  _floats_out(coo.data[order]))
    return {"rows": int(matrix.shape[0]), "cols": int(matrix.shape[1]),
            "entries": list(map(list, entries))}


def _matrix_in(data, field: str) -> sparse.csr_matrix:
    shape = (_count_in(data["rows"], field), _count_in(data["cols"], field))
    entries = data["entries"]
    _kinds(entries, field, {list})
    if set(map(len, entries)) - {3}:
        raise MalformedRecord(f"field {field!r} has an entry that is not "
                              f"[row, column, value]")
    rows, cols, values = map(list, zip(*entries)) if entries else ([], [], [])
    return build_csr(_ints_in(rows, field), _ints_in(cols, field),
                     _floats_in(values, field), shape)


# -- function programs ----------------------------------------------------------


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
    return {
        "elemental": list(desc.elemental),
        "internal": list(desc.internal),
        "parameters": list(desc.parameters),
        "range_matrix": (None if desc.range_matrix is None
                         else _matrix_out(desc.range_matrix)),
        "program": _program(desc.program),
    }


def _de_element_type(name: str, data: dict) -> ElementDescriptor:
    field = f"element_types.{name}"
    elemental = _names_in(data["elemental"], field)
    internal = _names_in(data["internal"], field)
    parameters = _names_in(data["parameters"], field)
    matrix = data["range_matrix"]
    if matrix is not None:
        matrix = _matrix_in(matrix, field).toarray()
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
    parameters = _names_in(data["parameters"], f"group_types.{name}")
    program = _deprogram(data["program"], (data["argument"],), parameters)
    return GroupDescriptor(name, data["argument"], parameters, program)


# -- the field table ------------------------------------------------------------


@dataclass(frozen=True)
class _Codec:
    dump: Callable[[Any], Any]
    load: Callable[[Any, str], Any]    # (JSON value, field name) -> value


def _optional(codec: _Codec) -> _Codec:
    return _Codec(lambda value: None if value is None else codec.dump(value),
                  lambda data, field: None if data is None else codec.load(data, field))


def _ragged(flat: _Codec) -> _Codec:
    """A Ragged table as a list of rows, its values through the flat codec."""
    def dump(table: Ragged) -> list:
        values, ptr = flat.dump(table.flat), table.ptr.tolist()
        return [values[start:stop] for start, stop in zip(ptr, ptr[1:])]

    def load(rows, field: str) -> Ragged:
        _kinds(rows, field, {list})
        return Ragged(np.cumsum([0, *map(len, rows)]),
                      flat.load(list(chain.from_iterable(rows)), field))
    return _Codec(dump, load)


def _types(dump_one, load_one) -> _Codec:
    return _Codec(lambda types: {name: dump_one(desc) for name, desc in types.items()},
                  lambda data, field: {name: load_one(name, desc)
                                       for name, desc in data.items()})


_TEXT = _Codec(str, lambda data, field: _names_in([data], field)[0])
_COUNT = _Codec(int, _count_in)
_NUMBER = _optional(_Codec(lambda value: _floats_out([value])[0],
                           lambda data, field: float(_floats_in([data], field)[0])))
_VECTOR = _Codec(_floats_out, _floats_in)
_INDICES = _Codec(np.ndarray.tolist, _ints_in)
_NAMES = _Codec(list, _names_in)
_MATRIX = _Codec(_matrix_out, _matrix_in)
_RANGES = _Codec(lambda ranges: list(map(_NUMBER.dump, ranges)),  # optional numbers
                 lambda data, field: tuple(_NUMBER.load(r, field) for r in data))
_ALT_SETS = _Codec(lambda sets: {key: list(names) for key, names in sets.items()},
                   lambda data, field: {key: _names_in(names, field)
                                        for key, names in data.items()})

# dump path -> (attribute of DecodedProblem or ProblemInternals, codec, the
# earlier attribute whose count or length fixes its length, or a matrix's two)
FIELDS: dict[str, tuple[str, _Codec, Any]] = {
    "problem.name": ("name", _TEXT, None),
    "problem.sif_name": ("sif_name", _optional(_TEXT), None),
    "problem.n": ("n", _COUNT, None),
    "problem.nob": ("nob", _COUNT, None),
    "problem.nle": ("nle", _COUNT, None),
    "problem.neq": ("neq", _COUNT, None),
    "problem.nge": ("nge", _COUNT, None),
    "problem.m": ("m", _COUNT, None),
    "problem.lincons": ("lincons", _INDICES, None),
    "problem.pbclass": ("pbclass", _TEXT, None),
    "problem.x0": ("x0", _VECTOR, "n"),
    "problem.xlower": ("xlower", _VECTOR, "n"),
    "problem.xupper": ("xupper", _VECTOR, "n"),
    "problem.xtype": ("xtype", _TEXT, "n"),
    "problem.xscale": ("xscale", _optional(_VECTOR), "n"),
    "problem.y0": ("y0", _optional(_VECTOR), "m"),
    "problem.clower": ("clower", _optional(_VECTOR), "m"),
    "problem.cupper": ("cupper", _optional(_VECTOR), "m"),
    "problem.ctypes": ("ctypes", _optional(_NAMES), "m"),
    "problem.cranges": ("cranges", _optional(_RANGES), "m"),
    "problem.objlower": ("objlower", _NUMBER, None),
    "problem.objupper": ("objupper", _NUMBER, None),
    "problem.xnames": ("xnames", _optional(_NAMES), "n"),
    "problem.cnames": ("cnames", _optional(_NAMES), "m"),
    "internals.elftype": ("elftype", _NAMES, None),
    "internals.grftype": ("grftype", _NAMES, None),
    "internals.objgrps": ("objgrps", _INDICES, "nob"),
    "internals.congrps": ("congrps", _INDICES, "m"),
    "internals.A": ("A", _MATRIX, ("grftype", "n")),
    "internals.H": ("H", _MATRIX, ("n", "n")),
    "internals.gconst": ("gconst", _VECTOR, "grftype"),
    "internals.gscale": ("gscale", _VECTOR, "grftype"),
    "internals.elvar": ("elvar", _ragged(_INDICES), "elftype"),
    "internals.elpar": ("elpar", _ragged(_VECTOR), "elftype"),
    "internals.grelt": ("grelt", _ragged(_INDICES), "grftype"),
    "internals.grelw": ("grelw", _ragged(_VECTOR), "grftype"),
    "internals.grpar": ("grpar", _ragged(_VECTOR), "grftype"),
    "internals.efpar.names": ("efpar_names", _NAMES, None),
    "internals.efpar.values": ("efpar", _VECTOR, "efpar_names"),
    "internals.gfpar.names": ("gfpar_names", _NAMES, None),
    "internals.gfpar.values": ("gfpar", _VECTOR, "gfpar_names"),
    "internals.element_types": ("element_types",
                                _types(_element_type, _de_element_type), None),
    "internals.group_types": ("group_types", _types(_group_type, _de_group_type), None),
    "internals.enames": ("enames", _optional(_NAMES), "elftype"),
    "internals.grnames": ("grnames", _optional(_NAMES), "grftype"),
    "internals.alt_sets": ("alt_sets", _ALT_SETS, None),
}


def dump_problem(problem: DecodedProblem, internals: ProblemInternals,
                 provenance: dict) -> dict:
    data = {"format_version": FORMAT_VERSION, "provenance": provenance}
    owners = {"problem": problem, "internals": internals}
    for path, (attribute, codec, _) in FIELDS.items():
        section, *parents, key = path.split(".")
        node = data.setdefault(section, {})
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = codec.dump(getattr(owners[section], attribute))
    return data


def load_problem(data: dict) -> tuple[DecodedProblem, ProblemInternals, dict]:
    """Rebuild a decoded problem from its dump, raising MalformedRecord on a bad one."""
    version = data.get("format_version") if isinstance(data, dict) else None
    if version != FORMAT_VERSION:
        raise MalformedRecord(f"unsupported dump format_version {version!r}")
    values: dict[str, Any] = {}          # attribute -> its value
    for path, (attribute, codec, length) in FIELDS.items():
        node = data
        for key in path.split("."):
            if not isinstance(node, dict) or key not in node:
                raise MalformedRecord(f"dump has no field {key!r}")
            node = node[key]
        field = path.split(".", 1)[1]
        try:
            value = values[attribute] = codec.load(node, field)
        except (AttributeError, IndexError, KeyError, OverflowError, TypeError,
                ValueError) as exc:
            raise MalformedRecord(f"field {field!r} is malformed: "
                                  f"{type(exc).__name__}: {exc}") from None
        if length is None or value is None:
            continue
        labels = (length,) if isinstance(length, str) else length
        expected = tuple(values[label] if type(values[label]) is int
                         else len(values[label]) for label in labels)
        actual = value.shape if hasattr(value, "shape") else (len(value),)
        if actual != expected:
            raise MalformedRecord(f"field {field!r} has shape {actual}, not "
                                  f"{expected} from {', '.join(labels)}")
    problem = DecodedProblem(**{f.name: values[f.name] for f in fields(DecodedProblem)})
    internals = ProblemInternals(**{f.name: values[f.name]
                                    for f in fields(ProblemInternals)})
    problem.validate()
    internals.validate()
    globals_ef = frozenset(internals.efpar_names)
    globals_gf = frozenset(internals.gfpar_names)
    for desc in internals.element_types.values():
        desc.program.validate(globals_ef)
    for desc in internals.group_types.values():
        desc.program.validate(globals_gf)
    return problem, internals, data.get("provenance", {})


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
