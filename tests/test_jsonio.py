from __future__ import annotations

import json

import numpy as np
import pytest

from sifgps import DecodeOptions, Evaluator, decode, dump_text, load_text
from sifgps.errors import MalformedRecord
from sifgps.jsonio import dumps_canonical, load_problem

from conftest import GOOD_CORPUS, corpus_text, decode_corpus


def provenance_for(name: str) -> dict:
    return {"source": f"{name}.SIF", "options": DecodeOptions().as_dict(),
            "user_params": []}


@pytest.mark.parametrize("name", GOOD_CORPUS)
def test_dump_load_dump_is_byte_identical(name):
    problem, internals = decode_corpus(name)
    first = dump_text(problem, internals, provenance_for(name))
    reloaded = load_text(first)
    second = dump_text(*reloaded)
    assert first == second


@pytest.mark.parametrize("name", ["CONSELM", "GRPWGT", "VSCALE"])
def test_reloaded_problem_evaluates_identically(name):
    problem, internals = decode_corpus(name)
    text = dump_text(problem, internals, provenance_for(name))
    problem2, internals2, _ = load_text(text)
    x = problem.x0 + 0.1
    before = Evaluator(problem, internals).evaluate_objective(x, 2)
    after = Evaluator(problem2, internals2).evaluate_objective(x, 2)
    assert before.value == after.value
    assert (before.gradient == after.gradient).all()
    assert (before.hessian != after.hessian).nnz == 0


def test_infinity_encoded_as_strings():
    problem, internals = decode_corpus("BNDQUAD")
    data = json.loads(dump_text(problem, internals, provenance_for("BNDQUAD")))
    assert data["problem"]["xupper"] == [2.0, "inf", 5.0]
    assert data["problem"]["xlower"] == [0.0, "-inf", -1.0]


def test_sparse_entries_sorted_row_major():
    problem, internals = decode_corpus("BNDQUAD")
    data = json.loads(dump_text(problem, internals, provenance_for("BNDQUAD")))
    entries = [(i, j) for i, j, _ in data["internals"]["H"]["entries"]]
    assert entries == sorted(entries)
    assert data["internals"]["H"]["rows"] == problem.n


def test_indices_are_zero_based():
    problem, internals = decode_corpus("CONSELM")
    data = json.loads(dump_text(problem, internals, provenance_for("CONSELM")))
    assert min(data["internals"]["objgrps"] + data["internals"]["congrps"]) == 0
    assert all(min(row) >= 0 for row in data["internals"]["elvar"] if row)


def test_unknown_format_version_rejected():
    problem, internals = decode_corpus("ROSENBR")
    data = json.loads(dump_text(problem, internals, provenance_for("ROSENBR")))
    data["format_version"] = 99
    with pytest.raises(MalformedRecord):
        load_problem(data)


def test_nan_rejected():
    with pytest.raises(MalformedRecord):
        dumps_canonical({"x": float("nan")})
    problem, internals = decode_corpus("ROSENBR")
    data = json.loads(dump_text(problem, internals, provenance_for("ROSENBR")))
    data["problem"]["x0"][0] = "nan"
    with pytest.raises(MalformedRecord):
        load_problem(data)


def test_exposed_scalings_survive_round_trip():
    problem, internals = decode(corpus_text("VSCALE"),
                                options=DecodeOptions(expose_xscale=True))
    text = dump_text(problem, internals, provenance_for("VSCALE"))
    problem2, _, _ = load_text(text)
    np.testing.assert_array_equal(problem2.xscale, [2.0, 0.5])


@pytest.mark.parametrize("kwargs", [
    {"keepcorder": True},
    {"keepcformat": True},
    {"keepcorder": True, "keepcformat": True, "expose_xscale": True},
    {"get_enames": True, "get_gnames": True, "get_xnames": False},
])
def test_option_variants_round_trip(kwargs):
    options = DecodeOptions(**kwargs)
    for name in ("RNGLP3", "VSCALE"):
        problem, internals = decode(corpus_text(name), options=options)
        provenance = {"source": f"{name}.SIF", "options": options.as_dict(),
                      "user_params": []}
        first = dump_text(problem, internals, provenance)
        second = dump_text(*load_text(first))
        assert first == second
        reloaded_problem, _, _ = load_text(first)
        if options.keepcformat:
            assert reloaded_problem.ctypes == problem.ctypes
            assert reloaded_problem.cranges == problem.cranges


def _set(path, value):
    def edit(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        data[last] = value
    return edit


def _delete(section, key):
    def edit(data):
        del data[section][key]
    return edit


def _append(section, key, value):
    def edit(data):
        data[section][key].append(value)
    return edit


# CONSELM: n = 3, m = 2, three groups, three elements
MALFORMED_EDITS = {
    "elvar index": (_set(("internals", "elvar", 0, 1), 3), "elvar"),
    "grelt index": (_set(("internals", "grelt", 0, 0), 3), "grelt"),
    "objgrps index": (_set(("internals", "objgrps"), [3]), "objgrps"),
    "congrps index": (_set(("internals", "congrps"), [2, 3]), "congrps"),
    "unknown elftype": (_set(("internals", "elftype", 1), "PSQX"), "elftype"),
    "unknown grftype": (_set(("internals", "grftype", 1), "L2X"), "grftype"),
    "missing internal key": (_delete("internals", "grelw"), "grelw"),
    "missing problem key": (_delete("problem", "x0"), "x0"),
    "A columns": (_set(("internals", "A", "cols"), 5), "A"),
    "A rows": (_set(("internals", "A", "rows"), 4), "A"),
    "x0 length": (_append("problem", "x0", 0.0), "x0"),
    "clower length": (_append("problem", "clower", 0.0), "clower"),
    "gscale length": (_append("internals", "gscale", 1.0), "gscale"),
}


@pytest.mark.parametrize("edit", MALFORMED_EDITS, ids=list(MALFORMED_EDITS))
def test_malformed_dump_names_the_field(edit):
    mutate, field = MALFORMED_EDITS[edit]
    problem, internals = decode_corpus("CONSELM")
    data = json.loads(dump_text(problem, internals, provenance_for("CONSELM")))
    mutate(data)
    with pytest.raises(MalformedRecord) as info:
        load_problem(data)
    assert f"field {field!r}" in info.value.message
