"""Data-phase execution of a sectioned SIF program.

Runs parameter arithmetic, expands loops, flattens indexed names into dense
zero-based registries, and assembles the decoded problem together with its
evaluation structure.
"""

from __future__ import annotations

import operator
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DanglingElementUse,
    ErrorLog,
    MalformedRecord,
    MissingEndata,
    MissingParameterValue,
    SifError,
    TypeMismatch,
    UnboundLoopVariable,
    UnboundParameter,
    UndeclaredName,
    UndefinedElementType,
    UndefinedGroupType,
    UnknownDirective,
    UnterminatedLoop,
    UnusedUserParameters,
    ZeroIncrement,
)
from .expressions import (
    ElementTypeDecl,
    GroupTypeDecl,
    NonlinearPart,
    TRIVIAL_GROUP_NAME,
    apply_intrinsic,
    trivial_group,
)
from .model import (
    DecodedProblem,
    ProblemInternals,
    Ragged,
    build_csr,
    classify_and_order,
    convert_constraint_format,
    fold_variable_scaling,
)
from .reader import Phase, SectionKind, SectionedProgram, SourceRecord, parse_fortran_real


@dataclass
class DecodeOptions:
    """Decoding options; defaults follow the decoder's native behaviour."""

    keepcorder: bool = False
    keepcformat: bool = False
    expose_xscale: bool = False
    addin_a: bool = True
    get_xnames: bool = True
    get_cnames: bool = True
    get_enames: bool = False
    get_gnames: bool = False

    def as_dict(self) -> dict[str, bool]:
        return {
            "keepcorder": self.keepcorder,
            "keepcformat": self.keepcformat,
            "expose_xscale": self.expose_xscale,
            "addin_a": self.addin_a,
            "get_xnames": self.get_xnames,
            "get_cnames": self.get_cnames,
            "get_enames": self.get_enames,
            "get_gnames": self.get_gnames,
        }


@dataclass
class NameRegistry:
    """Dense zero-based indices, allocated at first use."""

    entries: dict[str, int] = field(default_factory=dict)

    def resolve(self, name: str) -> tuple[int, bool]:
        if not name:
            raise MalformedRecord("empty name where an identifier is required")
        existing = self.entries.get(name)
        if existing is not None:
            return existing, False
        index = len(self.entries)
        self.entries[name] = index
        return index, True

    def get(self, name: str) -> int | None:
        return self.entries.get(name)

    @property
    def next_index(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class ParameterEnvironment:
    """Integer, real and string parameter bindings plus the active loops."""

    integer_params: dict[str, int] = field(default_factory=dict)
    real_params: dict[str, float] = field(default_factory=dict)
    string_params: dict[str, str] = field(default_factory=dict)
    loop_stack: list[list] = field(default_factory=list)

    def bind_int(self, name: str, value: int) -> None:
        self.real_params.pop(name, None)
        self.string_params.pop(name, None)
        self.integer_params[name] = int(value)

    def bind_real(self, name: str, value: float) -> None:
        self.integer_params.pop(name, None)
        self.string_params.pop(name, None)
        self.real_params[name] = float(value)

    def bind_string(self, name: str, value: str) -> None:
        self.integer_params.pop(name, None)
        self.real_params.pop(name, None)
        self.string_params[name] = value

    def lookup_int(self, name: str, line: int | None = None) -> int:
        if name in self.integer_params:
            return self.integer_params[name]
        if name in self.real_params or name in self.string_params:
            raise TypeMismatch(f"parameter {name!r} is not an integer",
                               line_number=line)
        raise UnboundParameter(f"integer parameter {name!r} is not bound",
                               line_number=line)

    def lookup_string(self, name: str, line: int | None = None) -> str:
        if name in self.string_params:
            return self.string_params[name]
        raise UnboundParameter(f"string parameter {name!r} is not bound",
                               line_number=line)

    def lookup_real(self, name: str, line: int | None = None) -> float:
        if name in self.real_params:
            return self.real_params[name]
        if name in self.integer_params or name in self.string_params:
            raise TypeMismatch(f"parameter {name!r} is not a real (convert with RI)",
                               line_number=line)
        raise UnboundParameter(f"real parameter {name!r} is not bound",
                               line_number=line)


_RENAME = {"+": "p", "-": "m", "*": "t", "/": "d"}


def rename_problem(sif_name: str) -> str:
    """Turn a SIF problem name into a language-safe identifier."""
    out = "".join(_RENAME.get(c, c) for c in sif_name)
    if out and out[0].isdigit():
        out = "n" + out
    return out


# --- parameter directives ------------------------------------------------------

def _int_literal(text: str, line: int | None) -> int:
    value = parse_fortran_real(text, line)
    if not value.is_integer():
        raise TypeMismatch(f"expected an integer literal, got {text!r}",
                           line_number=line)
    return int(value)


def _int_div(a: int, b: int, line: int | None) -> int:
    # Fortran integer division truncates toward zero.
    if b == 0:
        raise MalformedRecord("integer division by zero", line_number=line)
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _real_div(a: float, b: float, line: int | None) -> float:
    if b == 0.0:
        raise MalformedRecord("division by zero parameter", line_number=line)
    return a / b


def _unquote(text: str, line: int | None) -> str:
    return text[1:-1] if len(text) >= 2 and text[0] == text[-1] == "'" else text


@dataclass(frozen=True)
class _Kind:
    """How a directive's literals read, its parameters look up and bind, and
    its quotients divide."""

    literal: Callable
    lookup: Callable
    bind: Callable
    divide: Callable | None = None


_INT = _Kind(_int_literal, ParameterEnvironment.lookup_int,
             ParameterEnvironment.bind_int, _int_div)
_REAL = _Kind(parse_fortran_real, ParameterEnvironment.lookup_real,
              ParameterEnvironment.bind_real, _real_div)
_STRING = _Kind(_unquote, ParameterEnvironment.lookup_string,
                ParameterEnvironment.bind_string)
_INT_TO_REAL = _Kind(None, ParameterEnvironment.lookup_int,
                     ParameterEnvironment.bind_real)


# Operand forms: each reads a record's operands, in the order its arithmetic
# takes them.  A parameter with a literal gives (literal, field 3), so that
# "S" and "D" are literal - parameter and literal / parameter ("A" and "M"
# commute exactly); field 3 is read first, so its errors come first.

def _literal(kind, env, record, line):
    return (kind.literal(record.value4, line),)


def _with_literal(kind, env, record, line):
    operand = kind.lookup(env, record.name3, line)
    return kind.literal(record.value4, line), operand


def _parameter(kind, env, record, line):
    return (kind.lookup(env, record.name3, line),)


def _parameters(kind, env, record, line):
    return kind.lookup(env, record.name3, line), kind.lookup(env, record.name5, line)


def _intrinsic(kind, env, record, line):
    if record.value4:
        operand = parse_fortran_real(record.value4, line)
    elif record.name5:
        operand = env.lookup_real(record.name5, line)
    else:
        raise MalformedRecord("RF directive without an operand", line_number=line)
    return (apply_intrinsic(record.name3, operand, line_number=line),)


def _quoted(kind, env, record, line):
    return (kind.literal(record.name3 or record.value4, line),)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}

# code -> (parameter type, operand form, operator or None for the operand itself)
_DIRECTIVES = {
    **{prefix + suffix: (kind, form, op)
       for prefix, kind in (("I", _INT), ("R", _REAL))
       for suffix, form, op in (
           ("E", _literal, None), ("=", _parameter, None),
           ("A", _with_literal, "+"), ("S", _with_literal, "-"),
           ("M", _with_literal, "*"), ("D", _with_literal, "/"),
           ("+", _parameters, "+"), ("-", _parameters, "-"),
           ("*", _parameters, "*"), ("/", _parameters, "/"))},
    "RI": (_INT_TO_REAL, _parameter, None),
    "RF": (_REAL, _intrinsic, None),
    "AE": (_STRING, _quoted, None),
    "A=": (_STRING, _parameter, None),
}


def is_directive(indicator: str) -> bool:
    return indicator.upper() in _DIRECTIVES


def eval_param_directive(env: ParameterEnvironment,
                         record: SourceRecord) -> ParameterEnvironment:
    """Apply one parameter-definition/arithmetic record to the environment."""
    line = record.line_number
    if not record.name2:
        raise MalformedRecord("directive without a target parameter", line_number=line)
    row = _DIRECTIVES.get(record.indicator.upper())
    if row is None:
        raise UnknownDirective(f"unknown directive code {record.indicator!r}",
                               line_number=line)
    kind, form, op = row
    operands = form(kind, env, record, line)
    value = (operands[0] if op is None else kind.divide(*operands, line) if op == "/"
             else _ARITHMETIC[op](*operands))
    kind.bind(env, record.name2, value)
    return env


# --- loop expansion and name flattening ------------------------------------------

_INDEXED = re.compile(r"^([^()]*)\(([^()]+)\)$")
_INT_TOKEN = re.compile(r"^[+-]?\d+$")


def _flatten_name(name: str, env: ParameterEnvironment, line: int | None) -> str:
    if "(" not in name:
        return name
    match = _INDEXED.match(name)
    if match is None:
        raise MalformedRecord(f"malformed indexed name {name!r}", line_number=line)
    base, inside = match.groups()
    parts = []
    for token in inside.split(","):
        token = token.strip()
        if _INT_TOKEN.match(token):
            parts.append(str(int(token)))
            continue
        value = env.integer_params.get(token)
        if value is None:
            raise UnboundLoopVariable(f"unbound index parameter {token!r}",
                                      line_number=line)
        parts.append(str(value))
    return base + ",".join(parts)


def _substitute(record: SourceRecord, env: ParameterEnvironment) -> SourceRecord:
    line = record.line_number
    name2 = _flatten_name(record.name2, env, line)
    name3 = _flatten_name(record.name3, env, line)
    name5 = _flatten_name(record.name5, env, line)
    if (name2, name3, name5) == (record.name2, record.name3, record.name5):
        return record
    return SourceRecord(line, record.indicator, name2, name3, record.value4,
                        name5, record.value6, record.trailing_comment)


@dataclass
class _Loop:
    var: str
    start: str
    end: str
    increment: str | None
    body: list
    line: int


def _parse_loop_items(records: list[SourceRecord]) -> list:
    top: list = []
    stack: list[_Loop] = []

    def target() -> list:
        return stack[-1].body if stack else top

    for record in records:
        code = record.indicator.upper()
        if code == "DO":
            start = record.name3 or record.value4
            if record.name5:
                end = record.name5
            elif record.value6:
                end = record.value6
            elif record.name3 and record.value4:
                end = record.value4
            else:
                end = ""
            if not record.name2 or not start or not end:
                raise MalformedRecord("DO record needs a variable, a start and an end",
                                      line_number=record.line_number)
            loop = _Loop(record.name2, start, end, None, [], record.line_number)
            target().append(loop)
            stack.append(loop)
        elif code == "DI":
            for loop in reversed(stack):
                if loop.var == record.name2:
                    loop.increment = record.name3 or record.value4
                    break
            else:
                raise UnboundLoopVariable(
                    f"DI for {record.name2!r} outside a matching loop",
                    line_number=record.line_number)
        elif code in ("ND", "OD"):
            if not stack:
                raise MalformedRecord("loop end without a matching DO",
                                      line_number=record.line_number)
            closing = stack.pop()
            if record.name2 and record.name2 != closing.var:
                raise MalformedRecord(
                    f"loop end names {record.name2!r} but {closing.var!r} is open",
                    line_number=record.line_number)
        else:
            target().append(record)
    if stack:
        raise UnterminatedLoop(f"loop over {stack[-1].var!r} is never closed",
                               line_number=stack[-1].line)
    return top


def _loop_bound(token: str, env: ParameterEnvironment, line: int | None) -> int:
    if _INT_TOKEN.match(token):
        return int(token)
    value = env.integer_params.get(token)
    if value is None:
        raise UnboundLoopVariable(f"unbound loop bound {token!r}", line_number=line)
    return value


def expand_loops(records: list[SourceRecord], env: ParameterEnvironment, emit) -> None:
    """Run the loop structure of one section.

    Every non-directive record inside a loop body is emitted once per
    iteration with indexed names flattened under the current bindings;
    parameter directives are executed against the environment in place.
    """
    items = _parse_loop_items(records)

    def run(items: list) -> None:
        for item in items:
            if isinstance(item, _Loop):
                start = _loop_bound(item.start, env, item.line)
                end = _loop_bound(item.end, env, item.line)
                step = (_loop_bound(item.increment, env, item.line)
                        if item.increment else 1)
                if step == 0:
                    raise ZeroIncrement(f"loop over {item.var!r} has increment 0",
                                        line_number=item.line)
                frame = [item.var, start, end, step]
                env.loop_stack.append(frame)
                value = start
                while (step > 0 and value <= end) or (step < 0 and value >= end):
                    env.bind_int(item.var, value)
                    frame[1] = value
                    run(item.body)
                    value += step
                env.loop_stack.pop()
            else:
                record = _substitute(item, env)
                if is_directive(record.indicator):
                    eval_param_directive(env, record)
                else:
                    emit(record)

    run(items)


# --- setup ---------------------------------------------------------------------

def _pairs(record: SourceRecord) -> list[tuple[str, str]]:
    out = []
    if record.name3:
        out.append((record.name3, record.value4))
    if record.name5:
        out.append((record.name5, record.value6))
    return out


_BOUND_CODES = {
    "UP": "UP", "XU": "UP", "ZU": "UP",
    "LO": "LO", "XL": "LO", "ZL": "LO",
    "FX": "FX", "XX": "FX", "ZX": "FX",
    "FR": "FR", "XR": "FR",
    "MI": "MI", "XM": "MI",
    "PL": "PL", "XP": "PL",
    "BV": "BV", "LI": "LI", "UI": "UI",
}

_RELATION_CODES = {"N": "obj", "L": "<=", "G": ">=", "E": "=="}


class _Builder:
    def __init__(self, program: SectionedProgram, user_params, options: DecodeOptions):
        self.program = program
        self.options = options
        self.env = ParameterEnvironment()
        self.user_queue = deque(user_params)

        self.vreg = NameRegistry()
        self.greg = NameRegistry()
        self.ereg = NameRegistry()

        self.vscale: dict[int, float] = {}
        self.vtype: dict[int, str] = {}
        self.relations: dict[int, str] = {}
        self.a_entries: dict[tuple[int, int], float] = {}
        self.h_entries: dict[tuple[int, int], float] = {}
        self.gscale_map: dict[int, float] = {}
        self.gconst_map: dict[int, float] = {}
        self.default_const: float | None = None
        self.range_map: dict[int, float] = {}
        self.bound_default_ops: list[tuple[str, float | None]] = []
        self.bound_ops: dict[int, list[tuple[str, float | None]]] = {}
        self.x0_map: dict[int, float] = {}
        self.default_x0: float | None = None
        self.y0_map: dict[int, float] = {}
        self.objlower: float | None = None
        self.objupper: float | None = None

        self.el_decls: dict[str, dict[str, list[str]]] = {}
        self.gr_decls: dict[str, dict] = {}
        self.default_eltype: str | None = None
        self.default_grtype: str | None = None
        self.eltype_map: dict[int, str] = {}
        self.elassign: dict[int, dict[str, int]] = {}
        self.elparam: dict[int, dict[str, float]] = {}
        self.grftype_map: dict[int, str] = {}
        self.grelt_map: dict[int, list[int]] = {}
        self.grelw_map: dict[int, list[float]] = {}
        self.grparam: dict[int, dict[str, float]] = {}

        self.set_names: dict[SectionKind, str] = {}
        self.alt_sets: dict[str, list[str]] = {}

    # -- helpers --

    def _real(self, text: str, line: int | None) -> float:
        return parse_fortran_real(text, line)

    def _zreal(self, record: SourceRecord) -> float:
        name = record.name5 or record.value4
        if not name:
            raise MalformedRecord("Z-form record without a parameter name",
                                  line_number=record.line_number)
        return self.env.lookup_real(name, record.line_number)

    def _var_of(self, name: str, line: int | None) -> int:
        index = self.vreg.get(name)
        if index is None:
            raise UndeclaredName(f"unknown variable {name!r}", line_number=line)
        return index

    def _group_of(self, name: str, line: int | None) -> int:
        index = self.greg.get(name)
        if index is None:
            raise UndeclaredName(f"unknown group {name!r}", line_number=line)
        return index

    def _add_a(self, group: int, variable: int, coefficient: float) -> None:
        key = (group, variable)
        if self.options.addin_a and key in self.a_entries:
            self.a_entries[key] += coefficient
        else:
            self.a_entries[key] = coefficient

    def _add_h(self, vi: int, vj: int, value: float) -> None:
        self.h_entries[(vi, vj)] = self.h_entries.get((vi, vj), 0.0) + value
        if vi != vj:
            self.h_entries[(vj, vi)] = self.h_entries.get((vj, vi), 0.0) + value

    def _first_set(self, kind: SectionKind, name: str) -> bool:
        """True when the record belongs to the decoded (first) alternative set."""
        stored = self.set_names.get(kind)
        if stored is None:
            self.set_names[kind] = name
            return True
        if name == stored:
            return True
        alts = self.alt_sets.setdefault(kind.value, [])
        if name not in alts:
            alts.append(name)
        return False

    def _apply_user_param(self, record: SourceRecord) -> SourceRecord:
        if not record.trailing_comment or "$-PARAMETER" not in record.trailing_comment:
            return record
        code = record.indicator.upper()
        if code not in ("IE", "RE") or not self.user_queue:
            return record
        item = self.user_queue.popleft()
        if isinstance(item, tuple):
            name, value = item
            if name != record.name2:
                raise MalformedRecord(
                    f"user parameter {name!r} does not match {record.name2!r}, "
                    f"assigned in file order", line_number=record.line_number)
        else:
            value = item
        try:
            as_float = float(value)
        except (TypeError, ValueError):
            raise TypeMismatch(
                f"parameter {record.name2!r} needs a number, got {value!r}",
                line_number=record.line_number) from None
        if code == "IE":
            if not as_float.is_integer():
                raise TypeMismatch(
                    f"parameter {record.name2!r} needs an integer, got {value!r}",
                    line_number=record.line_number)
            text = str(int(as_float))
        else:
            text = repr(as_float)
        return SourceRecord(record.line_number, record.indicator, record.name2,
                            record.name3, text, record.name5, record.value6,
                            record.trailing_comment)

    # -- section handlers --

    def _handle_preamble(self, record: SourceRecord) -> None:
        raise UnknownDirective(
            f"unexpected record {record.indicator!r} outside any section",
            line_number=record.line_number)

    def _handle_variables(self, record: SourceRecord) -> None:
        code = record.indicator.upper()
        if code not in ("", "X", "Z"):
            raise UnknownDirective(f"code {record.indicator!r} in VARIABLES",
                                   line_number=record.line_number)
        v, _ = self.vreg.resolve(record.name2)
        if code == "Z":
            if record.name3:
                g, _ = self.greg.resolve(record.name3)
                self._add_a(g, v, self._zreal(record))
            return
        for name, value in _pairs(record):
            if name == "'SCALE'":
                self.vscale[v] = self._real(value, record.line_number)
            elif name == "'INTEGER'":
                self.vtype[v] = "i"
            else:
                g, _ = self.greg.resolve(name)
                self._add_a(g, v, self._real(value, record.line_number))

    def _handle_groups(self, record: SourceRecord) -> None:
        code = record.indicator.upper()
        base = code[1:] if len(code) == 2 and code[0] in "XZ" else code
        if base == "D":
            raise UnknownDirective("D data lines in GROUPS are not supported",
                                   line_number=record.line_number)
        relation = _RELATION_CODES.get(base)
        if relation is None:
            raise UnknownDirective(f"code {record.indicator!r} in GROUPS",
                                   line_number=record.line_number)
        g, _ = self.greg.resolve(record.name2)
        known = self.relations.get(g)
        if known is None:
            self.relations[g] = relation
        elif known != relation:
            raise MalformedRecord(
                f"group {record.name2!r} redefined with a different relation",
                line_number=record.line_number)
        if code.startswith("Z"):
            if record.name3 == "'SCALE'":
                self.gscale_map[g] = self._zreal(record)
            elif record.name3:
                v, _ = self.vreg.resolve(record.name3)
                self._add_a(g, v, self._zreal(record))
            return
        for name, value in _pairs(record):
            if name == "'SCALE'":
                self.gscale_map[g] = self._real(value, record.line_number)
            else:
                v, _ = self.vreg.resolve(name)
                self._add_a(g, v, self._real(value, record.line_number))

    def _constants_like(self, record: SourceRecord, kind: SectionKind,
                        sink: dict[int, float], allow_default: bool) -> None:
        code = record.indicator.upper()
        if code not in ("", "X", "Z"):
            raise UnknownDirective(f"code {record.indicator!r} in {kind.value}",
                                   line_number=record.line_number)
        if not self._first_set(kind, record.name2):
            return
        if code == "Z":
            entries = [(record.name3, self._zreal(record))]
        else:
            entries = [(name, self._real(value, record.line_number))
                       for name, value in _pairs(record)]
        for name, value in entries:
            if name == "'DEFAULT'" and allow_default:
                self.default_const = value
            else:
                sink[self._group_of(name, record.line_number)] = value

    def _handle_constants(self, record: SourceRecord) -> None:
        self._constants_like(record, SectionKind.CONSTANTS, self.gconst_map, True)

    def _handle_ranges(self, record: SourceRecord) -> None:
        self._constants_like(record, SectionKind.RANGES, self.range_map, False)

    def _handle_bounds(self, record: SourceRecord) -> None:
        code = record.indicator.upper()
        op = _BOUND_CODES.get(code)
        if op is None:
            raise UnknownDirective(f"bound code {record.indicator!r}",
                                   line_number=record.line_number)
        if not self._first_set(SectionKind.BOUNDS, record.name2):
            return
        needs_value = op in ("UP", "LO", "FX", "LI", "UI")
        if not needs_value:
            value = None
        elif code.startswith("Z"):
            value = self._zreal(record)
        else:
            value = self._real(record.value4, record.line_number)
        if record.name3 == "'DEFAULT'":
            self.bound_default_ops.append((op, value))
        else:
            v = self._var_of(record.name3, record.line_number)
            self.bound_ops.setdefault(v, []).append((op, value))

    def _handle_start_point(self, record: SourceRecord) -> None:
        code = record.indicator.upper()
        if code not in ("", "X", "V", "XV", "Z", "ZV"):
            raise UnknownDirective(f"code {record.indicator!r} in START POINT",
                                   line_number=record.line_number)
        if not self._first_set(SectionKind.START_POINT, record.name2):
            return
        if code in ("Z", "ZV"):
            entries = [(record.name3, self._zreal(record))]
        else:
            entries = [(name, self._real(value, record.line_number))
                       for name, value in _pairs(record)]
        for name, value in entries:
            if name == "'DEFAULT'":
                self.default_x0 = value
                continue
            v = self.vreg.get(name)
            if v is not None:
                self.x0_map[v] = value
                continue
            g = self.greg.get(name)
            if g is not None:
                if self.relations.get(g) == "obj":
                    raise MalformedRecord(
                        f"start value for objective group {name!r}",
                        line_number=record.line_number)
                self.y0_map[g] = value
                continue
            raise UndeclaredName(f"unknown name {name!r} in START POINT",
                                 line_number=record.line_number)

    def _handle_quadratic(self, record: SourceRecord) -> None:
        code = record.indicator.upper()
        if code not in ("", "X", "Z"):
            raise UnknownDirective(f"code {record.indicator!r} in QUADRATIC",
                                   line_number=record.line_number)
        vi = self._var_of(record.name2, record.line_number)
        if code == "Z":
            self._add_h(vi, self._var_of(record.name3, record.line_number),
                        self._zreal(record))
            return
        for name, value in _pairs(record):
            vj = self._var_of(name, record.line_number)
            self._add_h(vi, vj, self._real(value, record.line_number))

    def _handle_element_type(self, record: SourceRecord) -> None:
        code = record.indicator.upper()
        slot = {"EV": "ev", "IV": "iv", "EP": "ep"}.get(code)
        if slot is None:
            raise UnknownDirective(f"code {record.indicator!r} in ELEMENT TYPE",
                                   line_number=record.line_number)
        decl = self.el_decls.setdefault(record.name2, {"ev": [], "iv": [], "ep": []})
        for name in (record.name3, record.name5):
            if not name:
                continue
            if any(name in names for names in decl.values()):
                raise MalformedRecord(
                    f"{name!r} declared twice for element type {record.name2!r}",
                    line_number=record.line_number)
            decl[slot].append(name)

    def _handle_element_uses(self, record: SourceRecord) -> None:
        code = record.indicator.upper()
        if code in ("T", "XT"):
            if record.name2 == "'DEFAULT'":
                self.default_eltype = record.name3
                return
            e, _ = self.ereg.resolve(record.name2)
            known = self.eltype_map.get(e)
            if known is not None and known != record.name3:
                raise MalformedRecord(f"element {record.name2!r} assigned two types",
                                      line_number=record.line_number)
            self.eltype_map[e] = record.name3
        elif code in ("V", "XV", "ZV"):
            e, _ = self.ereg.resolve(record.name2)
            problem_var = record.name5 or record.value4
            if not record.name3 or not problem_var:
                raise MalformedRecord("element variable record needs the elemental "
                                      "and the problem variable",
                                      line_number=record.line_number)
            v = self._var_of(problem_var, record.line_number)
            self.elassign.setdefault(e, {})[record.name3] = v
        elif code in ("P", "XP"):
            e, _ = self.ereg.resolve(record.name2)
            for name, value in _pairs(record):
                self.elparam.setdefault(e, {})[name] = self._real(
                    value, record.line_number)
        elif code == "ZP":
            e, _ = self.ereg.resolve(record.name2)
            self.elparam.setdefault(e, {})[record.name3] = self._zreal(record)
        else:
            raise UnknownDirective(f"code {record.indicator!r} in ELEMENT USES",
                                   line_number=record.line_number)

    def _handle_group_type(self, record: SourceRecord) -> None:
        code = record.indicator.upper()
        if code == "GV":
            decl = self.gr_decls.setdefault(record.name2, {"arg": None, "gp": []})
            if decl["arg"] is not None:
                raise MalformedRecord(
                    f"group type {record.name2!r} declares two arguments",
                    line_number=record.line_number)
            decl["arg"] = record.name3
        elif code == "GP":
            decl = self.gr_decls.setdefault(record.name2, {"arg": None, "gp": []})
            for name in (record.name3, record.name5):
                if name:
                    decl["gp"].append(name)
        else:
            raise UnknownDirective(f"code {record.indicator!r} in GROUP TYPE",
                                   line_number=record.line_number)

    def _handle_group_uses(self, record: SourceRecord) -> None:
        code = record.indicator.upper()
        if code in ("T", "XT"):
            if record.name2 == "'DEFAULT'":
                self.default_grtype = record.name3
                return
            g = self._group_of(record.name2, record.line_number)
            self.grftype_map[g] = record.name3
        elif code in ("E", "XE", "ZE"):
            g = self.greg.get(record.name2)
            if g is None:
                raise DanglingElementUse(
                    f"element attached to unknown group {record.name2!r}",
                    line_number=record.line_number)
            if code == "ZE":
                entries = [(record.name3, self._zreal(record))]
            else:
                entries = []
                for name, value in _pairs(record):
                    weight = self._real(value, record.line_number) if value else 1.0
                    entries.append((name, weight))
            for name, weight in entries:
                e = self.ereg.get(name)
                if e is None:
                    raise UndeclaredName(f"unknown element {name!r}",
                                         line_number=record.line_number)
                self.grelt_map.setdefault(g, []).append(e)
                self.grelw_map.setdefault(g, []).append(weight)
        elif code in ("P", "XP"):
            g = self._group_of(record.name2, record.line_number)
            for name, value in _pairs(record):
                self.grparam.setdefault(g, {})[name] = self._real(
                    value, record.line_number)
        elif code == "ZP":
            g = self._group_of(record.name2, record.line_number)
            self.grparam.setdefault(g, {})[record.name3] = self._zreal(record)
        else:
            raise UnknownDirective(f"code {record.indicator!r} in GROUP USES",
                                   line_number=record.line_number)

    def _handle_object_bound(self, record: SourceRecord) -> None:
        code = record.indicator.upper()
        if code in ("LO", "XL"):
            self.objlower = self._real(record.value4, record.line_number)
        elif code in ("UP", "XU"):
            self.objupper = self._real(record.value4, record.line_number)
        else:
            raise UnknownDirective(f"code {record.indicator!r} in OBJECT BOUND",
                                   line_number=record.line_number)

    _HANDLERS = {
        SectionKind.PREAMBLE: _handle_preamble,
        SectionKind.VARIABLES: _handle_variables,
        SectionKind.GROUPS: _handle_groups,
        SectionKind.CONSTANTS: _handle_constants,
        SectionKind.RANGES: _handle_ranges,
        SectionKind.BOUNDS: _handle_bounds,
        SectionKind.START_POINT: _handle_start_point,
        SectionKind.QUADRATIC: _handle_quadratic,
        SectionKind.ELEMENT_TYPE: _handle_element_type,
        SectionKind.ELEMENT_USES: _handle_element_uses,
        SectionKind.GROUP_TYPE: _handle_group_type,
        SectionKind.GROUP_USES: _handle_group_uses,
        SectionKind.OBJECT_BOUND: _handle_object_bound,
    }

    # -- driving --

    def run(self) -> tuple[DecodedProblem, ProblemInternals]:
        if not self.program.has_endata:
            raise MissingEndata("setup needs a program that reached ENDATA")
        for section in self.program.in_phase(Phase.DATA):
            handler = self._HANDLERS[section.kind]
            records = [self._apply_user_param(r) for r in section.records]
            expand_loops(records, self.env, lambda rec: handler(self, rec))
        if self.user_queue:
            raise UnusedUserParameters(
                f"{len(self.user_queue)} user parameter(s) beyond the file's "
                f"$-PARAMETER list")
        element_part = self._parse_part(Phase.ELEMENTS)
        group_part = self._parse_part(Phase.GROUPS)
        return self._assemble(element_part, group_part)

    def _parse_part(self, phase: Phase) -> NonlinearPart:
        from .expressions import parse_nonlinear_section

        sections = {s.kind: s.records for s in self.program.in_phase(phase)}
        if not sections:
            return NonlinearPart({}, (), ())
        if phase is Phase.ELEMENTS:
            declarations = {
                name: ElementTypeDecl(tuple(d["ev"]), tuple(d["iv"]), tuple(d["ep"]))
                for name, d in self.el_decls.items()
            }
            return parse_nonlinear_section("element", sections, declarations)
        declarations = {}
        for name, d in self.gr_decls.items():
            if d["arg"] is None:
                raise UndefinedGroupType(f"group type {name!r} has no argument",
                                         line_number=None)
            declarations[name] = GroupTypeDecl(d["arg"], tuple(d["gp"]))
        return parse_nonlinear_section("group", sections, declarations)

    def _assemble(self, element_part: NonlinearPart,
                  group_part: NonlinearPart) -> tuple[DecodedProblem, ProblemInternals]:
        options = self.options
        n = len(self.vreg)
        ngroups = len(self.greg)

        for name, g in self.greg.entries.items():
            if g not in self.relations:
                raise UndeclaredName(f"group {name!r} has no GROUPS record")

        objective = [g for g in range(ngroups) if self.relations[g] == "obj"]
        cons_file = [g for g in range(ngroups) if self.relations[g] != "obj"]
        file_rels = [self.relations[g] for g in cons_file]
        perm = classify_and_order(file_rels, options)
        congrps = np.array([cons_file[k] for k in perm], dtype=np.int64)
        ctypes = tuple(self.relations[g] for g in congrps)
        m = len(congrps)
        nle = sum(1 for r in ctypes if r == "<=")
        neq = sum(1 for r in ctypes if r == "==")
        nge = sum(1 for r in ctypes if r == ">=")

        # variables: bounds, types, start point, scaling
        xlower = np.zeros(n)
        xupper = np.full(n, np.inf)
        xtype = [self.vtype.get(v, "r") for v in range(n)]
        for v in range(n):
            ops = self.bound_default_ops + self.bound_ops.get(v, [])
            lo, up = 0.0, np.inf
            for op, value in ops:
                if op == "UP":
                    up = value
                elif op == "LO":
                    lo = value
                elif op == "FX":
                    lo = up = value
                elif op == "FR":
                    lo, up = -np.inf, np.inf
                elif op == "MI":
                    lo = -np.inf
                elif op == "PL":
                    up = np.inf
                elif op == "BV":
                    lo, up = 0.0, 1.0
                    xtype[v] = "b"
                elif op == "LI":
                    lo = value
                    xtype[v] = "i"
                elif op == "UI":
                    up = value
                    xtype[v] = "i"
            xlower[v] = lo
            xupper[v] = up

        x0 = np.full(n, self.default_x0 if self.default_x0 is not None else 0.0)
        for v, value in self.x0_map.items():
            x0[v] = value

        xscale = np.ones(n)
        for v, value in self.vscale.items():
            xscale[v] = value

        rows = [k for (k, _) in self.a_entries]
        cols = [k for (_, k) in self.a_entries]
        A_raw = build_csr(rows, cols, list(self.a_entries.values()), (ngroups, n))
        A, exposed_scale = fold_variable_scaling(A_raw, xscale, options)

        h_rows = [k for (k, _) in self.h_entries]
        h_cols = [k for (_, k) in self.h_entries]
        H = build_csr(h_rows, h_cols, list(self.h_entries.values()), (n, n))

        gconst = np.full(ngroups, self.default_const if self.default_const is not None
                         else 0.0)
        for g, value in self.gconst_map.items():
            gconst[g] = value
        gscale = np.ones(ngroups)
        for g, value in self.gscale_map.items():
            gscale[g] = value

        # constraint shapes
        cranges: list[float | None] = []
        for g in congrps:
            relation = self.relations[g]
            r = self.range_map.get(int(g))
            # ranges of equality constraints are ignored
            cranges.append(None if relation == "==" else r)
        clower = cupper = None
        ctypes_out = cranges_out = None
        if m:
            if options.keepcformat:
                ctypes_out = ctypes
                cranges_out = tuple(cranges)
                for relation, r in zip(ctypes, cranges):
                    convert_constraint_format(relation, r)  # sign validation only
            else:
                pairs = [convert_constraint_format(relation, r)
                         for relation, r in zip(ctypes, cranges)]
                clower = np.array([p[0] for p in pairs])
                cupper = np.array([p[1] for p in pairs])

        y0 = None
        if m:
            y0 = np.zeros(m)
            position = {int(g): k for k, g in enumerate(congrps)}
            for g, value in self.y0_map.items():
                y0[position[g]] = value

        # elements
        nelem = len(self.ereg)
        elftype: list[str] = []
        elvar: list[list[int]] = []
        elpar: list[list[float]] = []
        element_names = self.ereg.names
        for e in range(nelem):
            type_name = self.eltype_map.get(e, self.default_eltype)
            if type_name is None:
                raise UndefinedElementType(
                    f"element {element_names[e]!r} has no type")
            descriptor = element_part.descriptors.get(type_name)
            if descriptor is None:
                raise UndefinedElementType(
                    f"element type {type_name!r} has no function program")
            assigned = self.elassign.get(e, {})
            indices = []
            for ev in descriptor.elemental:
                if ev not in assigned:
                    raise MissingParameterValue(
                        f"element {element_names[e]!r} never assigns elemental "
                        f"variable {ev!r}")
                indices.append(assigned[ev])
            values = []
            given = self.elparam.get(e, {})
            for pname in descriptor.parameters:
                if pname not in given:
                    raise MissingParameterValue(
                        f"element {element_names[e]!r} has no value for "
                        f"parameter {pname!r}")
                values.append(given[pname])
            elftype.append(type_name)
            elvar.append(indices)
            elpar.append(values)

        # groups
        group_names = self.greg.names
        group_types = dict(group_part.descriptors)
        grftype: list[str] = []
        grpar: list[list[float]] = []
        trivial = trivial_group()
        for g in range(ngroups):
            type_name = self.grftype_map.get(g, self.default_grtype or TRIVIAL_GROUP_NAME)
            if type_name in group_types:
                descriptor = group_types[type_name]
            elif type_name == TRIVIAL_GROUP_NAME:
                descriptor = trivial
            else:
                raise UndefinedGroupType(
                    f"group type {type_name!r} has no function program")
            params = self.grparam.get(g, {})
            values = []
            for pname in descriptor.parameters:
                if pname not in params:
                    raise MissingParameterValue(
                        f"group {group_names[g]!r} has no value for "
                        f"parameter {pname!r}")
                values.append(params[pname])
            extra = set(params) - set(descriptor.parameters)
            if extra:
                raise MalformedRecord(
                    f"group {group_names[g]!r} sets unknown parameter(s) "
                    f"{sorted(extra)}")
            grftype.append(type_name)
            grpar.append(values)
        grelt = Ragged.from_rows([self.grelt_map.get(g, []) for g in range(ngroups)],
                                 np.int64)
        grelw = Ragged(grelt.ptr, np.array(
            [w for g in range(ngroups) for w in self.grelw_map.get(g, [])], dtype=float))

        lincons = np.flatnonzero(np.diff(grelt.ptr)[congrps] == 0)

        name = rename_problem(self.program.problem_name)
        sif_name = self.program.problem_name if name != self.program.problem_name else None

        problem = DecodedProblem(
            name=name,
            sif_name=sif_name,
            n=n, nob=len(objective), nle=nle, neq=neq, nge=nge, m=m,
            lincons=lincons,
            pbclass=self.program.classification,
            x0=x0, xlower=xlower, xupper=xupper, xtype="".join(xtype),
            xscale=exposed_scale,
            y0=y0, clower=clower, cupper=cupper,
            ctypes=ctypes_out, cranges=cranges_out,
            objlower=self.objlower, objupper=self.objupper,
            xnames=self.vreg.names if options.get_xnames else None,
            cnames=(tuple(group_names[int(g)] for g in congrps)
                    if options.get_cnames and m else None),
        )
        internals = ProblemInternals(
            name=name,
            objgrps=np.array(objective, dtype=np.int64),
            congrps=congrps,
            A=A, gconst=gconst, H=H, gscale=gscale,
            elftype=tuple(elftype), elvar=Ragged.from_rows(elvar, np.int64),
            elpar=Ragged.from_rows(elpar, float), grftype=tuple(grftype),
            grelt=grelt, grelw=grelw, grpar=Ragged.from_rows(grpar, float),
            efpar=np.array(element_part.global_values),
            efpar_names=element_part.global_names,
            gfpar=np.array(group_part.global_values),
            gfpar_names=group_part.global_names,
            element_types={name: element_part.descriptors[name]
                           for name in element_part.descriptors},
            group_types=group_types,
            enames=self.ereg.names if options.get_enames else None,
            grnames=group_names if options.get_gnames else None,
            alt_sets={k: tuple(v) for k, v in self.alt_sets.items()},
        )
        problem.validate()
        internals.validate()
        return problem, internals


def setup(program: SectionedProgram, user_params=(),
          options: DecodeOptions | None = None) -> tuple[DecodedProblem, ProblemInternals]:
    """Execute the data phase of a sectioned program.

    ``user_params`` are consumed positionally by the file's $-PARAMETER
    records; the file's own value is used once they run out.  Entries may be
    bare values or (name, value) tuples, in which case the name is checked
    against the record it lands on.
    """
    return _Builder(program, list(user_params), options or DecodeOptions()).run()


def decode(text: str, user_params=(), options: DecodeOptions | None = None,
           errors: ErrorLog | None = None):
    """Read and set up a SIF file in one step.

    With an error log, problems are collected instead of raised and
    ``(None, None)`` is returned once any error is recorded.
    """
    from .reader import read_sif

    program = read_sif(text, errors)
    if errors is not None and len(errors):
        return None, None
    if errors is None:
        return setup(program, user_params, options)
    try:
        return setup(program, user_params, options)
    except SifError as err:
        errors.add(err)
        return None, None
