from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from sifgps import DecodeOptions, Evaluator, decode

CORPUS = Path(__file__).parent / "corpus"
PERFBENCH_PROBLEMS = Path(__file__).resolve().parent.parent / "perfbench" / "problems.py"

# Every file that must decode cleanly; BADDATA is the seeded-error file.
GOOD_CORPUS = [
    "ROSENBR",
    "BNDQUAD",
    "RNGLP3",
    "CONSELM",
    "LOOPQD",
    "VSCALE",
    "GRPWGT",
    "MPSROWS",
]


def corpus_text(name: str) -> str:
    return (CORPUS / f"{name}.SIF").read_text()


def decode_corpus(name: str, user_params=(), **option_kwargs):
    options = DecodeOptions(**option_kwargs) if option_kwargs else None
    return decode(corpus_text(name), user_params, options)


def perfbench_problems():
    """The benchmark's seeded SIF generators and closed-form numpy references."""
    spec = importlib.util.spec_from_file_location("perfbench_problems", PERFBENCH_PROBLEMS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rosenbrock():
    problem, internals = decode_corpus("ROSENBR")
    return problem, internals, Evaluator(problem, internals)


_FIELD_COLUMNS = (1, 4, 14, 24, 39, 49)


def sif_text(*rows) -> str:
    """Build SIF text from header strings and record field tuples."""
    lines = []
    for row in rows:
        if isinstance(row, str):
            lines.append(row)
            continue
        line = ""
        for col, text in zip(_FIELD_COLUMNS, row):
            if not text:
                continue
            pad = max(col, len(line) + 1 if line else col)
            line = line.ljust(pad) + text
        lines.append(line)
    return "\n".join(lines) + "\n"
