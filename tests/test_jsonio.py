from __future__ import annotations

import hashlib
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


# sha256 of each corpus dump in format_version 1.  Dump -> load -> dump cannot
# see an encoder change, because both directions change together; these can.
DUMP_SHA256 = {
    "ROSENBR": "098b963943ca740f0262738a640f97570b2acf455efbd9a25de22f3af6c2b4cf",
    "BNDQUAD": "e5cffdc707ac407d6fd857705dc1854bca8f694c274719dcedc428549c1b9324",
    "RNGLP3": "6b7561488222612fa0e68bbe4825dd118d97f8e2f7def550be6ab6171451ae56",
    "CONSELM": "1e30f6d0270049df8faa17693d305b55c50701d6bff7d887f6a8841ca05641ec",
    "LOOPQD": "05b80496c90aa40369f23eb3072e9a090a3e66a4cd640d71272ccf50dd5c22f0",
    "VSCALE": "dbabaf210b07ae6c867482974a18a10f45640eb1ba4200897c27aeac7d085dc9",
    "GRPWGT": "6d40529d1105daf04832829c942ec883dc3e938690cde87c6afc33ba6883f626",
    "MPSROWS": "a3a0e84777a39ea72c2a782b5af3ba9b9b8558ccbc682fd8080e472caf22d109",
}


@pytest.mark.parametrize("name", GOOD_CORPUS)
def test_dump_bytes_are_pinned(name):
    problem, internals = decode_corpus(name)
    text = dump_text(problem, internals, provenance_for(name))
    assert hashlib.sha256(text.encode()).hexdigest() == DUMP_SHA256[name]


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
    "elvar row width": (_set(("internals", "elvar", 1), [2, 0]), "elvar"),
    "elpar missing value": (_set(("internals", "elpar", 1), []), "elpar"),
    "elpar extra value": (_set(("internals", "elpar", 0), [1.0]), "elpar"),
    "grpar extra value": (_set(("internals", "grpar", 1), [1.0]), "grpar"),
    "grelt/grelw rows": (_set(("internals", "grelw", 0), [1.0]), "grelw"),
    "non-integer index": (_set(("internals", "elvar", 0, 0), 0.5), "elvar"),
    "non-integer count": (_set(("problem", "n"), "3"), "n"),
    "null vector": (_set(("problem", "x0"), None), "x0"),
    "list in a vector": (_set(("problem", "x0", 0), [0.2]), "x0"),
    "A entry pair": (_set(("internals", "A", "entries", 0), [0, 0]), "A"),
    "ragged table not a list": (_set(("internals", "elvar"), 5), "elvar"),
    "nan string": (_set(("problem", "x0", 0), "nan"), "x0"),
    "bad numeric string": (_set(("problem", "xupper", 0), "infinity"), "xupper"),
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
