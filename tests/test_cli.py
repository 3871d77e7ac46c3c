from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy import sparse

from sifgps import Evaluator, load_text
from sifgps.cli import main
from sifgps.evaluator import ACTIONS

from conftest import CORPUS
from test_evaluator import SIN_OF_SQUARE


def run(capsys, *argv) -> tuple[int, str, str]:
    capsys.readouterr()  # drop anything a setup call printed
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def decode_to(tmp_path: Path, name: str, *flags) -> Path:
    out = tmp_path / f"{name}.json"
    code = main(["decode", str(CORPUS / f"{name}.SIF"), "--out", str(out), *flags])
    assert code == 0
    return out


def test_decode_writes_dump(tmp_path, capsys):
    out = tmp_path / "rosenbr.json"
    code, stdout, _ = run(capsys, "decode", str(CORPUS / "ROSENBR.SIF"),
                          "--out", str(out))
    assert code == 0
    assert str(out) in stdout
    data = json.loads(out.read_text())
    assert data["problem"]["n"] == 2
    assert data["problem"]["m"] == 0
    assert data["problem"]["nob"] == 2


def test_decode_records_options_in_provenance(tmp_path, capsys):
    out = tmp_path / "dump.json"
    code, _, _ = run(capsys, "decode", str(CORPUS / "RNGLP3.SIF"), "--out", str(out),
                     "--keep-corder", "--keep-cformat", "--expose-xscale")
    assert code == 0
    options = json.loads(out.read_text())["provenance"]["options"]
    assert options["keepcorder"] is True
    assert options["keepcformat"] is True
    assert options["expose_xscale"] is True
    assert options["addin_a"] is True


def test_decode_error_count_is_exit_status(tmp_path, capsys):
    code, _, stderr = run(capsys, "decode", str(CORPUS / "BADDATA.SIF"),
                          "--out", str(tmp_path / "x.json"))
    assert code == 3
    lines = [line for line in stderr.splitlines() if line]
    assert len(lines) == 3
    assert "UnknownSectionHeader" in lines[0]
    assert "MalformedRecord" in lines[1]
    assert "MissingEndata" in lines[2]
    assert not (tmp_path / "x.json").exists()


def test_missing_endata_alone(tmp_path, capsys):
    bad = tmp_path / "NOEND.SIF"
    bad.write_text("NAME          NOEND\nVARIABLES\n    X1\n")
    code, _, stderr = run(capsys, "decode", str(bad), "--out",
                          str(tmp_path / "o.json"))
    assert code == 1
    assert "MissingEndata" in stderr


def test_eval_objective_at_minimum(tmp_path, capsys):
    dump = decode_to(tmp_path, "ROSENBR")
    code, stdout, _ = run(capsys, "eval", str(dump), "fx", "--x", "1,1")
    assert code == 0
    assert json.loads(stdout) == {"f": 0.0}


def test_eval_gradient_at_start(tmp_path, capsys):
    dump = decode_to(tmp_path, "ROSENBR")
    code, stdout, _ = run(capsys, "eval", str(dump), "fgx", "--x=-1.2,1")
    payload = json.loads(stdout)
    assert code == 0
    assert abs(payload["f"] - 24.2) <= 1e-12
    assert abs(payload["g"][0] + 215.6) <= 1e-10
    assert abs(payload["g"][1] + 88.0) <= 1e-10


def test_eval_constraint_action_on_unconstrained(tmp_path, capsys):
    dump = decode_to(tmp_path, "ROSENBR")
    code, _, stderr = run(capsys, "eval", str(dump), "cx", "--x", "1,1")
    assert code == 1
    assert "NoConstraints" in stderr


def test_eval_lagrangian_alias(tmp_path, capsys):
    dump = decode_to(tmp_path, "RNGLP3")
    code, stdout, _ = run(capsys, "eval", str(dump), "HLxyv",
                          "--x", "1,1", "--y", "1,0,0", "--v", "1,0")
    assert code == 0
    assert "HLv" in json.loads(stdout)


def test_eval_missing_argument_names_action(tmp_path, capsys):
    dump = decode_to(tmp_path, "RNGLP3")
    code, _, stderr = run(capsys, "eval", str(dump), "Lxy", "--x", "1,1")
    assert code == 1
    assert "Lxy" in stderr and "--y" in stderr


def test_eval_unknown_action(tmp_path, capsys):
    dump = decode_to(tmp_path, "RNGLP3")
    code, _, stderr = run(capsys, "eval", str(dump), "zzz", "--x", "1,1")
    assert code == 1
    assert "UnknownAction" in stderr


def test_eval_restricted_subset(tmp_path, capsys):
    dump = decode_to(tmp_path, "RNGLP3")
    code, stdout, _ = run(capsys, "eval", str(dump), "cIx", "--x", "1.5,0.5",
                          "--i", "1")
    assert code == 0
    assert json.loads(stdout)["c"] == [0.0]


def test_eval_sif_input_with_params(capsys):
    code, stdout, _ = run(capsys, "eval", str(CORPUS / "LOOPQD.SIF"), "fx",
                          "--x", "0,0,0,0", "--param", "N=4", "--param", "RHO=0.0")
    assert code == 0
    assert json.loads(stdout)["f"] == 0.0


def test_param_rejected_for_dump_input(tmp_path, capsys):
    dump = decode_to(tmp_path, "LOOPQD")
    code, _, stderr = run(capsys, "eval", str(dump), "fx", "--x", "0,0,0,0,0",
                          "--param", "N=4")
    assert code == 1
    assert "baked in" in stderr


def test_eval_x_file(tmp_path, capsys):
    dump = decode_to(tmp_path, "ROSENBR")
    points = tmp_path / "x.txt"
    points.write_text("1.0\n1.0\n")
    code, stdout, _ = run(capsys, "eval", str(dump), "fx", "--x-file", str(points))
    assert code == 0
    assert json.loads(stdout) == {"f": 0.0}


def one_error_line(capsys, *argv) -> str:
    """Run argv, expecting exit 1, no output and exactly one error line."""
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1 and stdout == ""
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    return lines[0]


def test_info_on_truncated_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 1,')
    line = one_error_line(capsys, "info", str(bad))
    assert line.startswith("MalformedRecord (line 1): not valid JSON")
    assert "column 22" in line


def test_eval_x_file_with_non_numeric_entry(tmp_path, capsys):
    points = tmp_path / "x.txt"
    points.write_text("1.0\nabc\n")
    line = one_error_line(capsys, "eval", str(CORPUS / "ROSENBR.SIF"), "fx",
                          "--x-file", str(points))
    assert line.startswith("SifError: bad vector file") and "'abc'" in line


def test_eval_rejects_non_finite_input(capsys):
    line = one_error_line(capsys, "eval", str(CORPUS / "ROSENBR.SIF"), "fgx",
                          "--x=nan,1")
    assert line == "SifError: --x has a non-finite entry"


def test_eval_names_a_non_finite_result(capsys):
    line = one_error_line(capsys, "eval", str(CORPUS / "ROSENBR.SIF"), "fx",
                          "--x=1e200,1e200")
    assert line == "SifError: result 'f' of 'fx' is not finite"


def test_eval_reports_a_math_failure_in_one_line(tmp_path, capsys):
    sif = tmp_path / "SINSQ.SIF"
    sif.write_text(SIN_OF_SQUARE)
    line = one_error_line(capsys, "eval", str(sif), "fx", "--x=1e200")
    assert line == "DomainError: SIN of inf outside its domain [element 0]"


def test_info_summary(tmp_path, capsys):
    dump = decode_to(tmp_path, "CONSELM")
    code, stdout, _ = run(capsys, "info", str(dump))
    assert code == 0
    assert "CONSELM" in stdout
    assert "constraints    2" in stdout
    assert "OOR2-AN-3-2" in stdout


def test_check_passes_on_corpus(tmp_path, capsys):
    dump = decode_to(tmp_path, "CONSELM")
    code, stdout, _ = run(capsys, "check", str(dump), "--trials", "3")
    assert code == 0
    assert stdout.strip().endswith("OK")
    assert "objective gradient vs fd" in stdout


def test_check_zero_trials_uses_x0_only(tmp_path, capsys):
    dump = decode_to(tmp_path, "ROSENBR")
    code, stdout, _ = run(capsys, "check", str(dump), "--trials", "0")
    assert code == 0
    assert "worst at x0" in stdout


def test_check_detects_corrupted_derivative(tmp_path, capsys):
    dump = decode_to(tmp_path, "ROSENBR")
    data = json.loads(dump.read_text())
    # break the first-derivative expression of the squared group
    data["internals"]["group_types"]["L2"]["program"]["first"]["GVAR"] = \
        ["num", 0.125]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    code, stdout, _ = run(capsys, "check", str(broken), "--trials", "2")
    assert code == 1
    assert "FAILED" in stdout
    assert any("gradient" in line and "FAIL" in line
               for line in stdout.splitlines())


def test_cli_output_is_deterministic(tmp_path, capsys):
    dump = decode_to(tmp_path, "CONSELM")
    first = run(capsys, "eval", str(dump), "fgHx", "--x", "0.4,0.1,0.9")
    second = run(capsys, "eval", str(dump), "fgHx", "--x", "0.4,0.1,0.9")
    assert first == second
    check_one = run(capsys, "check", str(dump), "--trials", "2", "--seed", "7")
    check_two = run(capsys, "check", str(dump), "--trials", "2", "--seed", "7")
    assert check_one == check_two


def test_decode_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run(capsys, "decode", str(CORPUS / "ROSENBR.SIF"))
    assert code == 0
    assert (tmp_path / "ROSENBR.json").exists()


def test_info_and_check_accept_sif_input(capsys):
    code, stdout, _ = run(capsys, "info", str(CORPUS / "GRPWGT.SIF"))
    assert code == 0
    assert "GRPWGT" in stdout
    code, stdout, _ = run(capsys, "check", str(CORPUS / "GRPWGT.SIF"),
                          "--trials", "2")
    assert code == 0
    assert stdout.strip().endswith("OK")


def _dense(value):
    if isinstance(value, dict):
        out = np.zeros((value["rows"], value["cols"]))
        for i, j, entry in value["entries"]:
            out[i, j] = entry
        return out
    if sparse.issparse(value):
        return value.toarray()
    if isinstance(value, list) and value and not np.isscalar(value[0]):
        return [_dense(item) for item in value]
    return np.asarray(value)


def test_eval_every_action_matches_the_evaluator(tmp_path, capsys):
    dump = decode_to(tmp_path, "CONSELM")
    ev = Evaluator(*load_text(dump.read_text())[:2])
    x, v = np.array([0.4, 0.1, 0.9]), np.array([1.0, -2.0, 0.5])
    y, y_sub, subset = np.array([0.3, -1.2]), np.array([0.7]), [1]

    def parts(result, *keys):
        return dict(zip(keys, (result.value, result.gradient, result.hessian)))

    expected = {
        "fx": parts(ev.evaluate_objective(x, 0), "f"),
        "fgx": parts(ev.evaluate_objective(x, 1), "f", "g"),
        "fgHx": parts(ev.evaluate_objective(x, 2), "f", "g", "H"),
        "fHxv": {"Hv": ev.hessian_vector_product(x, v)},
        "cx": parts(ev.evaluate_constraints(x, 0), "c"),
        "cJx": parts(ev.evaluate_constraints(x, 1), "c", "J"),
        "cJHx": parts(ev.evaluate_constraints(x, 2), "c", "J", "Hc"),
        "cJxv": {"Jv": ev.jacobian_vector_product(x, v)},
        "cIx": parts(ev.evaluate_constraints(x, 0, subset), "c"),
        "cIJx": parts(ev.evaluate_constraints(x, 1, subset), "c", "J"),
        "cIJHx": parts(ev.evaluate_constraints(x, 2, subset), "c", "J", "Hc"),
        "cIJxv": {"Jv": ev.jacobian_vector_product(x, v, subset)},
        "Lxy": parts(ev.evaluate_lagrangian(x, y, 0), "L"),
        "Lgxy": parts(ev.evaluate_lagrangian(x, y, 1), "L", "gL"),
        "LgHxy": parts(ev.evaluate_lagrangian(x, y, 2), "L", "gL", "HL"),
        "LHxyv": {"HLv": ev.hessian_vector_product(x, v, "lagrangian", y)},
        "LIxy": parts(ev.evaluate_lagrangian(x, y_sub, 0, subset), "L"),
        "LIgxy": parts(ev.evaluate_lagrangian(x, y_sub, 1, subset), "L", "gL"),
        "LIgHxy": parts(ev.evaluate_lagrangian(x, y_sub, 2, subset), "L", "gL", "HL"),
        "LIHxyv": {"HLv": ev.hessian_vector_product(x, v, "lagrangian", y_sub,
                                                    subset)},
    }
    expected["HLxyv"], expected["HLIxyv"] = expected["LHxyv"], expected["LIHxyv"]
    assert set(ACTIONS) == set(expected)

    def joined(values):
        return ",".join(repr(float(t)) for t in values)

    for name, action in ACTIONS.items():
        restricted = "I" in action.needs
        argv = ["eval", str(dump), name, "--x=" + joined(x)]
        if "y" in action.needs:
            argv.append("--y=" + joined(y_sub if restricted else y))
        if "v" in action.needs:
            argv.append("--v=" + joined(v))
        if restricted:
            argv.append("--i=1")
        code, stdout, stderr = run(capsys, *argv)
        assert code == 0, (name, stderr)
        payload = json.loads(stdout)
        assert list(payload) == sorted(expected[name]), name
        for key, value in expected[name].items():
            got, want = _dense(payload[key]), _dense(value)
            if isinstance(want, list):
                assert len(got) == len(want), (name, key)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (name, key)
            else:
                assert np.array_equal(got, want), (name, key)
