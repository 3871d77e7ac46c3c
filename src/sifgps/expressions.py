"""Interpreted element and group function programs.

The nonlinear parts of a SIF file assign Fortran expressions to function
values and to their first and second derivatives.  Those expressions are
parsed into small trees and evaluated directly; derivatives always come from
the file, never from numeric differentiation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    ExpressionSyntaxError,
    MissingValueExpression,
    UndeclaredName,
    UndefinedElementType,
    UndefinedGroupType,
    UnknownIntrinsic,
)
from .reader import SectionKind, SourceRecord, parse_fortran_real

# Committed intrinsic set, with the arity of each call.  (min, max) arities;
# None means unbounded.
_INTRINSICS: dict[str, tuple[int, int | None]] = {
    "ABS": (1, 1), "SQRT": (1, 1), "EXP": (1, 1), "LOG": (1, 1), "LOG10": (1, 1),
    "SIN": (1, 1), "COS": (1, 1), "TAN": (1, 1),
    "ASIN": (1, 1), "ACOS": (1, 1), "ATAN": (1, 1),
    "SINH": (1, 1), "COSH": (1, 1), "TANH": (1, 1),
    "MAX": (2, None), "MIN": (2, None), "SIGN": (2, 2), "MOD": (2, 2),
}

# Fortran spellings that map onto the committed set.
_INTRINSIC_ALIASES = {
    "ARCSIN": "ASIN", "ARCCOS": "ACOS", "ARCTAN": "ATAN",
    "HYPSIN": "SINH", "HYPCOS": "COSH", "HYPTAN": "TANH",
    "DABS": "ABS", "DSQRT": "SQRT", "DEXP": "EXP", "DLOG": "LOG",
    "DLOG10": "LOG10", "DSIN": "SIN", "DCOS": "COS", "DTAN": "TAN",
    "DASIN": "ASIN", "DACOS": "ACOS", "DATAN": "ATAN",
    "DSINH": "SINH", "DCOSH": "COSH", "DTANH": "TANH",
    "DSIGN": "SIGN", "DMOD": "MOD",
    "DMAX1": "MAX", "DMIN1": "MIN", "AMAX1": "MAX", "AMIN1": "MIN",
    "ALOG": "LOG", "ALOG10": "LOG10",
}

# Identity conversions; the call disappears at parse time.
_IDENTITY_CALLS = {"DBLE", "FLOAT", "REAL", "SNGL"}

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>(\d+\.?\d*|\.\d+)([DdEe][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>\*\*|[+\-*/(),])"
    r")"
)

# Expression trees are plain tuples:
#   ("num", value) ("var", name) ("neg", node)
#   ("bin", op, left, right) ("call", intrinsic, (args...))
Node = tuple


def canonical_intrinsic(name: str) -> str | None:
    upper = name.upper()
    upper = _INTRINSIC_ALIASES.get(upper, upper)
    return upper if upper in _INTRINSICS else None


class _Parser:
    def __init__(self, text: str, line_number: int | None):
        self.text = text
        self.line_number = line_number
        self.tokens: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN.match(text, pos)
            if match is None or match.end() == pos:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise ExpressionSyntaxError(f"cannot tokenize {rest!r}",
                                            line_number=line_number)
            pos = match.end()
            for kind in ("num", "name", "op"):
                value = match.group(kind)
                if value is not None:
                    self.tokens.append((kind, value))
                    break
        self.index = 0

    def error(self, message: str) -> ExpressionSyntaxError:
        return ExpressionSyntaxError(f"{message} in {self.text!r}",
                                     line_number=self.line_number)

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of expression")
        self.index += 1
        return token

    def accept_op(self, *ops: str) -> str | None:
        token = self.peek()
        if token and token[0] == "op" and token[1] in ops:
            self.index += 1
            return token[1]
        return None

    def expect_op(self, op: str) -> None:
        if self.accept_op(op) is None:
            raise self.error(f"expected {op!r}")

    # precedence: ** above unary minus above * / above + -
    def parse(self) -> Node:
        node = self.parse_sum()
        if self.peek() is not None:
            raise self.error(f"trailing input {self.peek()[1]!r}")
        return node

    def parse_sum(self) -> Node:
        node = self.parse_term()
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return node
            node = ("bin", op, node, self.parse_term())

    def parse_term(self) -> Node:
        node = self.parse_unary()
        while True:
            op = self.accept_op("*", "/")
            if op is None:
                return node
            node = ("bin", op, node, self.parse_unary())

    def parse_unary(self) -> Node:
        op = self.accept_op("+", "-")
        if op == "-":
            return ("neg", self.parse_unary())
        if op == "+":
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        if self.accept_op("**"):
            return ("bin", "**", base, self.parse_unary())
        return base

    def parse_atom(self) -> Node:
        kind, value = self.take()
        if kind == "num":
            return ("num", float(value.replace("D", "e").replace("d", "e")))
        if kind == "op" and value == "(":
            node = self.parse_sum()
            self.expect_op(")")
            return node
        if kind == "name":
            if self.accept_op("("):
                args = [self.parse_sum()]
                while self.accept_op(","):
                    args.append(self.parse_sum())
                self.expect_op(")")
                if value.upper() in _IDENTITY_CALLS:
                    if len(args) != 1:
                        raise self.error(f"{value} takes one argument")
                    return args[0]
                intrinsic = canonical_intrinsic(value)
                if intrinsic is None:
                    raise UnknownIntrinsic(f"unknown intrinsic {value!r}",
                                           line_number=self.line_number)
                low, high = _INTRINSICS[intrinsic]
                if len(args) < low or (high is not None and len(args) > high):
                    raise self.error(f"{intrinsic} called with {len(args)} arguments")
                return ("call", intrinsic, tuple(args))
            return ("var", value)
        raise self.error(f"unexpected token {value!r}")


def parse_expression(text: str, line_number: int | None = None) -> Node:
    text = text.strip()
    if not text:
        raise ExpressionSyntaxError("empty expression", line_number=line_number)
    return _Parser(text, line_number).parse()


def _power(base: float, exponent: float) -> float:
    if float(exponent).is_integer() and abs(exponent) <= 64:
        count = int(exponent)
        out = 1.0
        for _ in range(abs(count)):
            out *= base
        if count < 0:
            if out == 0.0:
                raise DomainError("zero raised to a negative power")
            return 1.0 / out
        return out
    if base <= 0.0:
        raise DomainError(f"{base!r} ** {exponent!r} with non-integer exponent")
    try:
        return math.pow(base, exponent)
    except OverflowError as exc:
        raise DomainError(f"overflow in {base!r} ** {exponent!r}") from exc


def _call(name: str, args: tuple[float, ...]) -> float:
    try:
        if name == "ABS":
            return abs(args[0])
        if name == "SQRT":
            if args[0] < 0.0:
                raise DomainError(f"SQRT of negative value {args[0]!r}")
            return math.sqrt(args[0])
        if name == "EXP":
            return math.exp(args[0])
        if name in ("LOG", "LOG10"):
            if args[0] <= 0.0:
                raise DomainError(f"{name} of non-positive value {args[0]!r}")
            return math.log(args[0]) if name == "LOG" else math.log10(args[0])
        if name == "SIN":
            return math.sin(args[0])
        if name == "COS":
            return math.cos(args[0])
        if name == "TAN":
            return math.tan(args[0])
        if name in ("ASIN", "ACOS"):
            if abs(args[0]) > 1.0:
                raise DomainError(f"{name} of value {args[0]!r} outside [-1, 1]")
            return math.asin(args[0]) if name == "ASIN" else math.acos(args[0])
        if name == "ATAN":
            return math.atan(args[0])
        if name == "SINH":
            return math.sinh(args[0])
        if name == "COSH":
            return math.cosh(args[0])
        if name == "TANH":
            return math.tanh(args[0])
        if name == "MAX":
            return max(args)
        if name == "MIN":
            return min(args)
        if name == "SIGN":
            return math.copysign(abs(args[0]), args[1])
        if name == "MOD":
            if args[1] == 0.0:
                raise DomainError("MOD with zero divisor")
            return math.fmod(args[0], args[1])
    except OverflowError as exc:
        raise DomainError(f"overflow in {name}") from exc
    raise UnknownIntrinsic(f"unknown intrinsic {name!r}")


def eval_node(node: Node, env: dict[str, float]) -> float:
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        try:
            return env[node[1]]
        except KeyError:
            raise UndeclaredName(f"name {node[1]!r} has no value") from None
    if tag == "neg":
        return -eval_node(node[1], env)
    if tag == "bin":
        op = node[1]
        left = eval_node(node[2], env)
        right = eval_node(node[3], env)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0.0:
                raise DomainError("division by zero")
            return left / right
        return _power(left, right)
    return _call(node[1], tuple(eval_node(a, env) for a in node[2]))


def free_names(node: Node, out: set[str] | None = None) -> set[str]:
    if out is None:
        out = set()
    tag = node[0]
    if tag == "var":
        out.add(node[1])
    elif tag == "neg":
        free_names(node[1], out)
    elif tag == "bin":
        free_names(node[2], out)
        free_names(node[3], out)
    elif tag == "call":
        for arg in node[2]:
            free_names(arg, out)
    return out


@dataclass(frozen=True)
class ExpressionProgram:
    """One function definition: value plus file-specified derivatives.

    ``variables`` are the differentiation inputs (internal variables for an
    element, the single argument for a group); ``parameters`` are the
    per-instance parameter names.  Together they form the program inputs.
    """

    variables: tuple[str, ...]
    parameters: tuple[str, ...]
    temporaries: tuple[tuple[str, Node], ...]
    value: Node
    first: dict[str, Node] = field(default_factory=dict)
    second: dict[tuple[str, str], Node] = field(default_factory=dict)

    @property
    def inputs(self) -> tuple[str, ...]:
        return self.variables + self.parameters

    def validate(self, global_names: frozenset[str]) -> None:
        known = set(self.inputs) | set(global_names)
        for name, node in self.temporaries:
            unknown = free_names(node) - known
            if unknown:
                raise UndeclaredName(f"undeclared name(s) {sorted(unknown)} in "
                                     f"temporary {name!r}")
            known.add(name)
        for node in (self.value, *self.first.values(), *self.second.values()):
            unknown = free_names(node) - known
            if unknown:
                raise UndeclaredName(f"undeclared name(s) {sorted(unknown)}")

    def run(self, var_values: dict[str, float], param_values: dict[str, float],
            global_env: dict[str, float], order: int):
        """Evaluate value and, as requested, first/second derivative slots.

        Missing derivative slots evaluate to zero; callers decide whether an
        absent slot is structural or an error.
        """
        env = dict(global_env)
        env.update(param_values)
        env.update(var_values)
        for name, node in self.temporaries:
            env[name] = eval_node(node, env)
        value = eval_node(self.value, env)
        if order < 1:
            return value, None, None
        grad: dict[str, float] = {}
        for name in self.variables:
            node = self.first.get(name)
            grad[name] = eval_node(node, env) if node is not None else 0.0
        if order < 2:
            return value, grad, None
        hess: dict[tuple[str, str], float] = {}
        for i, a in enumerate(self.variables):
            for b in self.variables[i:]:
                node = self.second.get((a, b))
                hess[(a, b)] = eval_node(node, env) if node is not None else 0.0
        return value, grad, hess


@dataclass(frozen=True)
class ElementDescriptor:
    """An element type: its variables, parameters, range matrix and program."""

    name: str
    elemental: tuple[str, ...]
    internal: tuple[str, ...]
    parameters: tuple[str, ...]
    range_matrix: np.ndarray | None  # (len(internal), len(elemental)); None = identity
    program: ExpressionProgram


@dataclass(frozen=True)
class GroupDescriptor:
    """A group type: the univariate argument name, parameters and program."""

    name: str
    argument: str
    parameters: tuple[str, ...]
    program: ExpressionProgram


def trivial_group() -> GroupDescriptor:
    """The identity group function: value a, first derivative 1, second 0."""
    program = ExpressionProgram(
        variables=("GVAR",),
        parameters=(),
        temporaries=(),
        value=("var", "GVAR"),
        first={"GVAR": ("num", 1.0)},
        second={("GVAR", "GVAR"): ("num", 0.0)},
    )
    return GroupDescriptor("TRIVIAL", "GVAR", (), program)


TRIVIAL_GROUP_NAME = "TRIVIAL"


def eval_element(desc: ElementDescriptor, x_e, params: dict[str, float],
                 global_env: dict[str, float], order: int):
    """Evaluate one element at its elemental variables.

    Returns value, gradient over elemental variables and Hessian over
    elemental variables, chaining derivatives through the range matrix.
    """
    x_e = np.asarray(x_e, dtype=float)
    if x_e.shape != (len(desc.elemental),):
        raise DomainError(f"element type {desc.name} expects "
                          f"{len(desc.elemental)} elemental variables")
    if desc.internal:
        u = desc.range_matrix @ x_e
        names = desc.internal
    else:
        u = x_e
        names = desc.elemental
    value, grad_map, hess_map = desc.program.run(
        dict(zip(names, u)), params, global_env, order)
    if order < 1:
        return value, None, None
    g_u = np.array([grad_map[name] for name in names])
    gradient = desc.range_matrix.T @ g_u if desc.internal else g_u
    if order < 2:
        return value, gradient, None
    size = len(names)
    h_u = np.zeros((size, size))
    for i, a in enumerate(names):
        for j in range(i, size):
            val = hess_map[(a, names[j])]
            h_u[i, j] = val
            h_u[j, i] = val
    hessian = desc.range_matrix.T @ h_u @ desc.range_matrix if desc.internal else h_u
    return value, gradient, hessian


def eval_group_function(desc: GroupDescriptor, alpha: float,
                        params: dict[str, float], global_env: dict[str, float],
                        order: int, *, strict_derivatives: bool = False):
    """Evaluate a group function F(alpha) with its file-specified derivatives.

    With ``strict_derivatives`` a missing derivative slot raises instead of
    evaluating to zero: a univariate function has no structurally-zero slot.
    """
    from .errors import MissingDerivative

    arg = desc.argument
    if strict_derivatives:
        if order >= 1 and arg not in desc.program.first:
            raise MissingDerivative(f"group type {desc.name} has no first "
                                    f"derivative expression")
        if order >= 2 and (arg, arg) not in desc.program.second:
            raise MissingDerivative(f"group type {desc.name} has no second "
                                    f"derivative expression")
    value, grad_map, hess_map = desc.program.run({arg: alpha}, params,
                                                 global_env, order)
    d1 = grad_map[arg] if order >= 1 else None
    d2 = hess_map[(arg, arg)] if order >= 2 else None
    return value, d1, d2


# --- parsing the nonlinear sections -------------------------------------------

@dataclass(frozen=True)
class ElementTypeDecl:
    elemental: tuple[str, ...]
    internal: tuple[str, ...]
    parameters: tuple[str, ...]


@dataclass(frozen=True)
class GroupTypeDecl:
    argument: str
    parameters: tuple[str, ...]


@dataclass
class NonlinearPart:
    descriptors: dict[str, ElementDescriptor | GroupDescriptor]
    global_names: tuple[str, ...]
    global_values: tuple[float, ...]


def _merge_continuations(records: list[SourceRecord]) -> list[SourceRecord]:
    merged: list[SourceRecord] = []
    for record in records:
        if record.indicator.endswith("+"):
            if not merged or merged[-1].indicator != record.indicator[:-1]:
                raise ExpressionSyntaxError("continuation without a preceding line",
                                            line_number=record.line_number)
            prev = merged[-1]
            merged[-1] = SourceRecord(
                prev.line_number, prev.indicator, prev.name2, prev.name3,
                prev.value4 + " " + record.value4,
                prev.name5, prev.value6, prev.trailing_comment,
            )
        else:
            merged.append(record)
    return merged


def _parse_globals(records: list[SourceRecord]) -> tuple[tuple[str, ...], tuple[float, ...]]:
    names: list[str] = []
    values: list[float] = []
    env: dict[str, float] = {}
    for record in _merge_continuations(records):
        if record.indicator.upper() != "A":
            raise ExpressionSyntaxError(
                f"unexpected {record.indicator!r} record among global parameters",
                line_number=record.line_number)
        node = parse_expression(record.value4, record.line_number)
        unknown = free_names(node) - set(env)
        if unknown:
            raise UndeclaredName(f"undeclared name(s) {sorted(unknown)}",
                                 line_number=record.line_number)
        value = eval_node(node, env)
        env[record.name2] = value
        names.append(record.name2)
        values.append(value)
    return tuple(names), tuple(values)


class _ProgramBuilder:
    def __init__(self, kind: str, type_name: str,
                 decl: ElementTypeDecl | GroupTypeDecl, line_number: int):
        self.kind = kind
        self.type_name = type_name
        self.decl = decl
        self.line_number = line_number
        self.temporaries: list[tuple[str, Node]] = []
        self.value: Node | None = None
        self.first: dict[str, Node] = {}
        self.second: dict[tuple[str, str], Node] = {}
        self.range_entries: list[tuple[str, str, float, int]] = []
        if kind == "element":
            self.variables = decl.internal if decl.internal else decl.elemental
        else:
            self.variables = (decl.argument,)

    def check_variable(self, name: str, line: int) -> str:
        if self.kind == "group" and not name:
            return self.decl.argument
        if name not in self.variables:
            raise UndeclaredName(
                f"{name!r} is not a variable of type {self.type_name}",
                line_number=line)
        return name

    def add(self, record: SourceRecord) -> None:
        code = record.indicator.upper()
        if code == "A":
            self.temporaries.append(
                (record.name2, parse_expression(record.value4, record.line_number)))
        elif code == "F":
            if self.value is not None:
                raise ExpressionSyntaxError(
                    f"duplicate value expression for type {self.type_name}",
                    line_number=record.line_number)
            self.value = parse_expression(record.value4, record.line_number)
        elif code == "G":
            name = self.check_variable(record.name2, record.line_number)
            self.first[name] = parse_expression(record.value4, record.line_number)
        elif code == "H":
            a = self.check_variable(record.name2, record.line_number)
            b = self.check_variable(record.name3, record.line_number)
            order = {n: i for i, n in enumerate(self.variables)}
            key = (a, b) if order[a] <= order[b] else (b, a)
            self.second[key] = parse_expression(record.value4, record.line_number)
        elif code == "R" and self.kind == "element":
            for el_name, coef_text in ((record.name3, record.value4),
                                       (record.name5, record.value6)):
                if el_name:
                    self.range_entries.append(
                        (record.name2, el_name,
                         parse_fortran_real(coef_text, record.line_number),
                         record.line_number))
        else:
            raise ExpressionSyntaxError(
                f"unexpected {record.indicator!r} record in type {self.type_name}",
                line_number=record.line_number)

    def build(self, global_names: frozenset[str]):
        if self.value is None:
            raise MissingValueExpression(
                f"type {self.type_name} never assigns its function value",
                line_number=self.line_number)
        if self.kind == "group":
            program = ExpressionProgram(
                variables=self.variables,
                parameters=self.decl.parameters,
                temporaries=tuple(self.temporaries),
                value=self.value, first=self.first, second=self.second)
            program.validate(global_names)
            return GroupDescriptor(self.type_name, self.decl.argument,
                                   self.decl.parameters, program)
        decl = self.decl
        matrix: np.ndarray | None = None
        if decl.internal:
            matrix = np.zeros((len(decl.internal), len(decl.elemental)))
            int_index = {n: i for i, n in enumerate(decl.internal)}
            el_index = {n: i for i, n in enumerate(decl.elemental)}
            for int_name, el_name, coef, line in self.range_entries:
                if int_name not in int_index:
                    raise UndeclaredName(f"{int_name!r} is not an internal variable "
                                         f"of type {self.type_name}", line_number=line)
                if el_name not in el_index:
                    raise UndeclaredName(f"{el_name!r} is not an elemental variable "
                                         f"of type {self.type_name}", line_number=line)
                matrix[int_index[int_name], el_index[el_name]] = coef
        elif self.range_entries:
            raise ExpressionSyntaxError(
                f"type {self.type_name} declares no internal variables but has "
                f"range transformation lines",
                line_number=self.range_entries[0][3])
        program = ExpressionProgram(
            variables=self.variables,
            parameters=decl.parameters,
            temporaries=tuple(self.temporaries),
            value=self.value, first=self.first, second=self.second)
        program.validate(global_names)
        return ElementDescriptor(self.type_name, decl.elemental, decl.internal,
                                 decl.parameters, matrix, program)


def parse_nonlinear_section(kind: str, sections: dict[SectionKind, list[SourceRecord]],
                            declarations: dict[str, ElementTypeDecl | GroupTypeDecl],
                            ) -> NonlinearPart:
    """Parse one ELEMENTS or GROUPS part into typed descriptors.

    ``kind`` is "element" or "group"; ``declarations`` carries the variable
    and parameter names from the corresponding data-phase TYPE section.
    """
    global_names, global_values = _parse_globals(sections.get(SectionKind.GLOBALS, []))
    # TEMPORARIES records only declare names for the generated Fortran; the
    # assignments in INDIVIDUALS are what matters here.
    descriptors: dict[str, ElementDescriptor | GroupDescriptor] = {}
    builder: _ProgramBuilder | None = None
    name_set = frozenset(global_names)

    def finish() -> None:
        nonlocal builder
        if builder is not None:
            descriptors[builder.type_name] = builder.build(name_set)
            builder = None

    for record in _merge_continuations(sections.get(SectionKind.INDIVIDUALS, [])):
        code = record.indicator.upper()
        if code in ("T", "XT"):
            finish()
            type_name = record.name2
            decl = declarations.get(type_name)
            if decl is None:
                error = UndefinedElementType if kind == "element" else UndefinedGroupType
                raise error(f"type {type_name!r} was never declared",
                            line_number=record.line_number)
            builder = _ProgramBuilder(kind, type_name, decl, record.line_number)
        elif builder is None:
            raise ExpressionSyntaxError("record before any type marker",
                                        line_number=record.line_number)
        else:
            builder.add(record)
    finish()
    return NonlinearPart(descriptors, global_names, global_values)


def apply_intrinsic(name: str, *args: float) -> float:
    """Apply one intrinsic by (possibly aliased) name; used by RF directives."""
    canonical = canonical_intrinsic(name)
    if canonical is None:
        raise UnknownIntrinsic(f"unknown intrinsic {name!r}")
    low, high = _INTRINSICS[canonical]
    if len(args) < low or (high is not None and len(args) > high):
        raise ExpressionSyntaxError(f"{canonical} called with {len(args)} arguments")
    return _call(canonical, args)


# --- JSON round-trip of expression trees ---------------------------------------

def node_to_json(node: Node):
    tag = node[0]
    if tag == "num":
        return ["num", node[1]]
    if tag == "var":
        return ["var", node[1]]
    if tag == "neg":
        return ["neg", node_to_json(node[1])]
    if tag == "bin":
        return ["bin", node[1], node_to_json(node[2]), node_to_json(node[3])]
    return ["call", node[1], [node_to_json(a) for a in node[2]]]


def node_from_json(data) -> Node:
    tag = data[0]
    if tag == "num":
        return ("num", float(data[1]))
    if tag == "var":
        return ("var", data[1])
    if tag == "neg":
        return ("neg", node_from_json(data[1]))
    if tag == "bin":
        return ("bin", data[1], node_from_json(data[2]), node_from_json(data[3]))
    if tag == "call":
        return ("call", data[1], tuple(node_from_json(a) for a in data[2]))
    raise ExpressionSyntaxError(f"unknown expression tag {tag!r}")
