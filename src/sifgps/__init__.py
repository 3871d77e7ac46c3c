"""Standalone SIF decoder and group-partially-separable problem evaluator."""

from .errors import ErrorLog, SifError
from .evaluator import EvalResult, Evaluator
from .expander import DecodeOptions, decode, setup
from .jsonio import dump_text, load_text
from .model import DecodedProblem, ProblemInternals
from .reader import SectionedProgram, SourceRecord, read_sif

__all__ = [
    "DecodeOptions",
    "DecodedProblem",
    "ErrorLog",
    "EvalResult",
    "Evaluator",
    "ProblemInternals",
    "SectionedProgram",
    "SifError",
    "SourceRecord",
    "decode",
    "dump_text",
    "load_text",
    "read_sif",
    "setup",
]

__version__ = "0.1.0"
