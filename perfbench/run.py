"""Layered benchmark for sifgps: closed-loop solver-style workloads.

Run from the repository root:

    python3 perfbench/run.py --workload chain-solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process drives each workload; every call waits for the previous one.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced pass (see perfbench/README.md).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools capped at one thread, here and in every subprocess; set
# before numpy is imported.
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "corpus"
OUT = ROOT / "perfbench" / "out"

RTOL = 1e-9                      # relative tolerance of every value check
SETUP_REPS = 5                   # set-ups per in-process run; setup_s is their median
CLI_SETUP_REPS = 3               # decode rounds per cli-cold run
SETUP_MIN_SECONDS = 1.0          # cheap set-ups repeat until this much time is spent
LAYER_REPS = 3                   # reps of the traced per-layer pass
MIN_ITERS = 12                   # the tail percentile needs ten iterations beyond it
HESSIAN_ACTIONS = ("fgHx", "cJHx", "LgHxy")

# action -> (kind, order); order None marks a matrix-vector product.
SPEC = {
    "fx": ("objective", 0), "fgx": ("objective", 1), "fgHx": ("objective", 2),
    "fHxv": ("objective", None),
    "cx": ("constraints", 0), "cJx": ("constraints", 1),
    "cJHx": ("constraints", 2), "cJxv": ("constraints", None),
    "cIJxv": ("constraints", None),
    "Lgxy": ("lagrangian", 1), "LgHxy": ("lagrangian", 2),
    "LHxyv": ("lagrangian", None),
}
PRODUCT_KEY = {"objective": "Hv", "constraints": "Jv", "lagrangian": "HLv"}
US_PER_GROUP = ("fx", "fgx", "fHxv", "cx", "cJx", "cJxv", "cIJxv", "Lgxy", "LHxyv")


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "sifgps" / "__init__.py").is_file():
    _fail_setup(f"no sifgps sources under {SRC}; run from a repository checkout")
for _name in ("LOOPQD.SIF", "ROSENBR.SIF", "BADDATA.SIF"):
    if not (CORPUS / _name).is_file():
        _fail_setup(f"missing corpus file {CORPUS / _name}")
sys.path.insert(0, str(SRC))
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import sparse  # noqa: E402

import sifgps  # noqa: E402
from sifgps import Evaluator, dump_text, load_text, read_sif, setup  # noqa: E402
from sifgps import cli  # noqa: E402
from sifgps.expander import DecodeOptions  # noqa: E402

import problems  # noqa: E402
from spans import NullTracer, SpanIndex, Tracer, median_ms  # noqa: E402

if SRC not in Path(sifgps.__file__).resolve().parents:
    _fail_setup(f"imported sifgps from {sifgps.__file__}, not from {SRC}")


# -- checking results against the references -------------------------------------


@dataclass
class Args:
    x: np.ndarray
    y: np.ndarray | None = None
    v: np.ndarray | None = None
    I: np.ndarray | None = None


class Tally:
    """Operations attempted and failed; a failure is never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, label: str, problems_found: list[str]) -> None:
        self.attempted += 1
        if problems_found:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"{label}: {'; '.join(problems_found)}")


def probe_vector(seed: int, n: int) -> np.ndarray:
    """The seeded vector w through which matrices are checked as H @ w."""
    return np.random.default_rng([seed, 5]).normal(size=n)


def close(got, want) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return bool(np.all(np.abs(got - want) <= RTOL * scale))


def hessian_ok(matrix, n: int, product, probe) -> bool:
    """Exactly symmetric, and H @ probe matches the reference product."""
    return (matrix.shape == (n, n) and (matrix != matrix.T).nnz == 0
            and close(matrix @ probe, product(probe)))


def verify(ref, name: str, a: Args, got: dict, probe: np.ndarray) -> list[str]:
    """Problems found in one result, as key names; empty when it is right."""
    kind, order = SPEC[name]
    x, n = a.x, ref.n
    rows = a.I if a.I is not None else np.arange(ref.m)
    bad = []

    def expect(key, ok):
        try:
            good = key in got and ok()
        except (ValueError, TypeError, IndexError, AttributeError):
            good = False
        if not good:
            bad.append(key)

    if order is None:
        want = {"objective": lambda: ref.hv(x, a.v),
                "constraints": lambda: ref.jv(x, a.v)[rows],
                "lagrangian": lambda: ref.lag_hv(x, a.y, a.v)}[kind]
        key = PRODUCT_KEY[kind]
        expect(key, lambda: close(got[key], want()))
    elif kind == "objective":
        expect("f", lambda: close(got["f"], ref.f(x)))
        if order >= 1:
            expect("g", lambda: close(got["g"], ref.g(x)))
        if order >= 2:
            expect("H", lambda: hessian_ok(got["H"], n, lambda w: ref.hv(x, w), probe))
    elif kind == "constraints":
        expect("c", lambda: close(got["c"], ref.c(x)[rows]))
        if order >= 1:
            expect("J", lambda: got["J"].shape == (len(rows), n)
                   and close(got["J"] @ probe, ref.jv(x, probe)[rows]))
        if order >= 2:
            expect("Hc", lambda: _constraint_hessians_ok(ref, x, rows, got["Hc"], probe))
    else:
        expect("L", lambda: close(got["L"], ref.lag(x, a.y)))
        if order >= 1:
            expect("gL", lambda: close(got["gL"], ref.lag_g(x, a.y)))
        if order >= 2:
            expect("HL", lambda: hessian_ok(got["HL"], n,
                                            lambda w: ref.lag_hv(x, a.y, w), probe))
    return bad


def _constraint_hessians_ok(ref, x, rows, hessians, probe) -> bool:
    """Each Hessian symmetric, exactly zero on linear rows; weighted sum @ probe."""
    if len(hessians) != len(rows):
        return False
    weights = np.zeros(ref.m)
    weights[rows] = np.linspace(0.5, 1.5, len(rows))
    total = np.zeros(ref.n)
    for row, matrix in zip(rows, hessians):
        if matrix.shape != (ref.n, ref.n) or (matrix != matrix.T).nnz != 0:
            return False
        if ref.linear[row] and matrix.nnz != 0:
            return False
        total += weights[row] * (matrix @ probe)
    return close(total, ref.chv(x, weights, probe))


def invoke(ev, name: str, a: Args):
    kind, order = SPEC[name]
    if order is None:
        if kind == "constraints":
            return ev.jacobian_vector_product(a.x, a.v, subset=a.I)
        return ev.hessian_vector_product(a.x, a.v, kind=kind, y=a.y)
    if kind == "objective":
        return ev.evaluate_objective(a.x, order)
    if kind == "constraints":
        return ev.evaluate_constraints(a.x, order, a.I)
    return ev.evaluate_lagrangian(a.x, a.y, order)


def as_payload(name: str, result) -> dict:
    """An evaluator result keyed as `sifgps eval` prints it."""
    kind, order = SPEC[name]
    if order is None:
        return {PRODUCT_KEY[kind]: result}
    keys = {"objective": ("f", "g", "H"), "constraints": ("c", "J", "Hc"),
            "lagrangian": ("L", "gL", "HL")}[kind]
    parts = (result.value, result.gradient, result.hessian)
    return dict(zip(keys[:order + 1], parts[:order + 1]))


def _matrix(data: dict) -> sparse.csr_matrix:
    entries = np.array(data["entries"], dtype=float).reshape(-1, 3)
    return sparse.csr_matrix(
        (entries[:, 2], (entries[:, 0].astype(np.int64), entries[:, 1].astype(np.int64))),
        shape=(data["rows"], data["cols"]))


def from_cli(payload: dict) -> dict:
    out = {}
    for key, value in payload.items():
        if key == "Hc":
            out[key] = [_matrix(m) for m in value]
        elif isinstance(value, dict):
            out[key] = _matrix(value)
        else:
            out[key] = value
    return out


def groups_touched(name: str, problem, a: Args) -> int:
    """Groups an action evaluates: the base of evaluator.<action>.us_per_group."""
    kind, _ = SPEC[name]
    cons = len(a.I) if a.I is not None else problem.m
    return {"objective": problem.nob, "constraints": cons,
            "lagrangian": problem.nob + problem.m}[kind]


def eval_argv(dump: Path, name: str, a: Args, xfile: Path) -> list[str]:
    """`sifgps eval` arguments; vectors go as --v=... since they may start with '-'."""
    argv = ["eval", str(dump), name, "--x-file", str(xfile)]
    for flag, values in (("--y", a.y), ("--v", a.v)):
        if values is not None:
            argv.append(flag + "=" + ",".join(repr(float(t)) for t in values))
    if a.I is not None:
        argv.append("--i=" + ",".join(str(int(i)) for i in a.I))
    return argv


# -- problems -----------------------------------------------------------------------


@dataclass
class Problem:
    """SIF text with its $-PARAMETER values and independent reference."""

    label: str
    text: str
    params: list
    ref: object

    def cli_params(self) -> list[str]:
        out = []
        for name, value in self.params:
            out += ["--param", f"{name}={value}"]
        return out

    def provenance(self) -> dict:
        return {"source": f"{self.label}.SIF", "options": DecodeOptions().as_dict(),
                "user_params": [[name, value] for name, value in self.params]}


def loopqd(seed: int, n: int) -> Problem:
    rho = problems.loopqd_rho(seed)
    return Problem("LOOPQD", (CORPUS / "LOOPQD.SIF").read_text(),
                   [("N", n), ("RHO", rho)], problems.LoopqdReference(n, rho))


def chncon(seed: int, n: int) -> Problem:
    text, k = problems.chncon(seed)
    return Problem("CHNCON", text, [("N", n)], problems.ChnconReference(n, k))


def wideln(seed: int, n: int) -> Problem:
    text, k = problems.wideln(seed)
    return Problem("WIDELN", text, [("N", n)], problems.WidelnReference(n, k))


def rosenbr() -> Problem:
    return Problem("ROSENBR", (CORPUS / "ROSENBR.SIF").read_text(), [],
                   problems.RosenbrReference())


# -- workloads ----------------------------------------------------------------------


def chain_steps(rng, problem):
    """Newton-CG-like step: gradient, three Hessian products, trial value."""
    n = problem.n
    x = rng.uniform(-1.0, 1.0, n)
    steps = [("fgx", Args(x))]
    steps += [("fHxv", Args(x, v=rng.normal(size=n))) for _ in range(3)]
    steps.append(("fx", Args(x + 0.1 * rng.normal(size=n))))
    return steps


def constrained_steps(rng, problem):
    """SQP-like step over constraint, Lagrangian and restricted actions."""
    n, m = problem.n, problem.m
    x = rng.uniform(-1.0, 1.0, n)
    y = rng.normal(size=m)
    active = np.sort(rng.choice(m, size=m // 4, replace=False))
    return [("cx", Args(x)), ("cJx", Args(x)), ("Lgxy", Args(x, y)),
            ("LgHxy", Args(x, y)),
            ("LHxyv", Args(x, y, v=rng.normal(size=n))),
            ("LHxyv", Args(x, y, v=rng.normal(size=n))),
            ("cIJxv", Args(x, v=rng.normal(size=n), I=active)),
            ("fx", Args(x + 0.1 * rng.normal(size=n)))]


def wide_steps(rng, problem):
    """Every Hessian-matrix action and both Hessian products."""
    n, m = problem.n, problem.m
    x = rng.uniform(-1.0, 1.0, n)
    y = rng.normal(size=m)
    return [("fgHx", Args(x)), ("cJHx", Args(x)), ("LgHxy", Args(x, y)),
            ("fHxv", Args(x, v=rng.normal(size=n))),
            ("LHxyv", Args(x, y, v=rng.normal(size=n)))]


class InProcess:
    """Decode once, then call evaluator actions in a closed loop."""

    cycle = 1
    setup_reps = SETUP_REPS

    def __init__(self, seed: int, problem: Problem, steps, size: str):
        self.seed = seed
        self.problem = problem
        self.problems = [problem]
        self.steps = steps
        self.size = size

    def setup(self, tracer, tally):
        p = self.problem
        with tracer.span("reader.read_sif"):
            program = read_sif(p.text)
        with tracer.span("expander.setup"):
            decoded, internals = setup(program, p.params)
        with tracer.span("evaluator.init"):
            ev = Evaluator(decoded, internals)
        return ev

    def after_setup(self, tally) -> None:
        pass

    def iteration(self, ev, k: int, tracer, tally) -> float:
        rng = np.random.default_rng([self.seed, 100, k + 1])
        total = 0.0
        for name, a in self.steps(rng, self.problem.ref):
            result, seconds = call(ev, name, a, tracer, tally)
            total += seconds
            if result is not None:
                tally.record(name, verify(self.problem.ref, name, a,
                                          as_payload(name, result),
                                          probe_vector(self.seed, ev.n)))
        return total

    def cli_pairs(self):
        """(problem, action, args): the loop's actions, once each, at iteration 0."""
        seen = {}
        for name, a in self.steps(np.random.default_rng([self.seed, 100, 1]),
                                  self.problem.ref):
            seen.setdefault(name, a)
        return [(self.problem, name, a) for name, a in seen.items()]

    def hessian_probes(self, problem):
        n, m = problem.ref.n, problem.ref.m
        x = np.random.default_rng([self.seed, 6]).uniform(-1.0, 1.0, n)
        y = np.random.default_rng([self.seed, 7]).normal(size=m)
        return [(name, Args(x, y if name == "LgHxy" else None))
                for name in HESSIAN_ACTIONS if name == "fgHx" or m > 0]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def call(ev, name: str, a: Args, tracer, tally, **counts):
    """Time one action; an exception counts as a failed operation."""
    counts.setdefault("groups", groups_touched(name, ev.problem, a))
    start = perf_counter()
    try:
        with tracer.span("evaluator." + name, **counts):
            result = invoke(ev, name, a)
    except Exception:  # noqa: BLE001 - the benchmark keeps running and counts it
        tally.record(name, [traceback.format_exc(limit=2).strip().splitlines()[-1]])
        return None, perf_counter() - start
    return result, perf_counter() - start


class CliCold:
    """`sifgps decode` as set-up, then one `sifgps eval` subprocess per iteration."""

    setup_reps = CLI_SETUP_REPS
    size = "ROSENBR n=2, LOOPQD N=5000, CHNCON N=200, WIDELN N=200"
    BADDATA_ERRORS = 3   # misspelled header, bad numeric field, missing ENDATA

    PAIRS = (("ROSENBR", "fgHx"), ("LOOPQD", "fgx"), ("CHNCON", "cJxv"),
             ("CHNCON", "LHxyv"), ("WIDELN", "cJHx"), ("CHNCON", "cIJxv"),
             ("LOOPQD", "fx"), ("WIDELN", "LgHxy"))
    cycle = len(PAIRS)

    def __init__(self, seed: int):
        self.seed = seed
        self.problems = [rosenbr(), loopqd(seed, 5000), chncon(seed, 200),
                         wideln(seed, 200)]
        self.by_label = {p.label: p for p in self.problems}
        self.work = None
        rng = np.random.default_rng([seed, 8])
        self.x = {p.label: rng.uniform(-1.0, 1.0, p.ref.n) for p in self.problems}
        self.args = []
        for label, name in self.PAIRS:
            ref, x = self.by_label[label].ref, self.x[label]
            kind, _ = SPEC[name]
            y = rng.normal(size=ref.m) if kind == "lagrangian" else None
            v = rng.normal(size=ref.n) if SPEC[name][1] is None else None
            rows = (np.sort(rng.choice(ref.m, size=ref.m // 4, replace=False))
                    if name.startswith("cI") else None)
            self.args.append(Args(x, y, v, rows))

    def prepare_files(self, work: Path) -> None:
        self.work = work
        for p in self.problems:
            if p.label in ("CHNCON", "WIDELN"):
                (work / f"{p.label}.SIF").write_text(p.text)
            (work / f"{p.label}.x").write_text(
                "\n".join(repr(float(t)) for t in self.x[p.label]) + "\n")

    def sif_path(self, label: str) -> Path:
        return (CORPUS if label in ("ROSENBR", "LOOPQD", "BADDATA") else self.work) \
            / f"{label}.SIF"

    def dump_path(self, label: str) -> Path:
        return self.work / f"{label}.json"

    def run_cli(self, argv: list[str]):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "sifgps.cli", *argv],
                              env=SUBPROCESS_ENV, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        return proc, perf_counter() - start

    def setup(self, tracer, tally):
        for p in self.problems:
            path = self.dump_path(p.label)
            path.unlink(missing_ok=True)
            with tracer.span("cli.decode"):
                proc, _ = self.run_cli(["decode", str(self.sif_path(p.label)),
                                        "--out", str(path), *p.cli_params()])
            tally.record(f"decode {p.label}", [] if proc.returncode == 0 and path.is_file()
                         else [f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"])
        bad = self.dump_path("BADDATA")
        with tracer.span("cli.decode"):
            proc, _ = self.run_cli(["decode", str(self.sif_path("BADDATA")),
                                    "--out", str(bad)])
        errors = [line for line in proc.stderr.splitlines() if line.strip()]
        ok = proc.returncode == len(errors) == self.BADDATA_ERRORS and not bad.exists()
        tally.record("decode BADDATA", [] if ok else
                     [f"exit {proc.returncode} with {len(errors)} error lines"])
        return True

    def after_setup(self, tally) -> None:
        """Dump -> load -> dump must be byte-identical for every decoded problem."""
        for p in self.problems:
            text = self.dump_path(p.label).read_text()
            again = dump_text(*load_text(text))
            tally.record(f"round trip {p.label}", [] if again == text else ["bytes differ"])

    def iteration(self, state, k: int, tracer, tally) -> float:
        j = k % self.cycle
        label, name = self.PAIRS[j]
        try:
            with tracer.span("cli.eval"):
                proc, seconds = self.run_cli(eval_argv(
                    self.dump_path(label), name, self.args[j], self.work / f"{label}.x"))
        except subprocess.TimeoutExpired:
            tally.record(f"eval {label} {name}", ["timed out"])
            return 120.0
        if proc.returncode != 0:
            tally.record(f"eval {label} {name}",
                         [f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"])
            return seconds
        try:
            got = from_cli(json.loads(proc.stdout))
        except (ValueError, KeyError, TypeError) as exc:
            tally.record(f"eval {label} {name}", [f"unreadable output: {exc}"])
            return seconds
        ref = self.by_label[label].ref
        tally.record(f"eval {label} {name}",
                     verify(ref, name, self.args[j], got, probe_vector(self.seed, ref.n)))
        return seconds

    def cli_pairs(self):
        return [(self.by_label[label], name, self.args[j])
                for j, (label, name) in enumerate(self.PAIRS)]

    def hessian_probes(self, problem):
        return [(name, self.args[j]) for j, (label, name) in enumerate(self.PAIRS)
                if label == problem.label and name in HESSIAN_ACTIONS]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def make_workload(name: str, seed: int):
    if name == "chain-solve":
        return InProcess(seed, loopqd(seed, 10000), chain_steps, "LOOPQD N=10000")
    if name == "constrained-solve":
        return InProcess(seed, chncon(seed, 2000), constrained_steps,
                         "CHNCON n=2000, m=1999")
    if name == "wide-linear":
        return InProcess(seed, wideln(seed, 2000), wide_steps, "WIDELN n=2000, m=1")
    return CliCold(seed)


WORKLOADS = ("chain-solve", "constrained-solve", "wide-linear", "cli-cold")


# -- passes -------------------------------------------------------------------------


def timed_pass(wl, seconds: float, tracer, tally):
    """Set up repeatedly, warm up once, then iterate for ``seconds``.

    Set-up runs at least ``setup_reps`` times and for SETUP_MIN_SECONDS.
    Iterations run in whole cycles and stop before a cycle would overrun.
    """
    setup_times = []
    state = None
    while len(setup_times) < wl.setup_reps or sum(setup_times) < SETUP_MIN_SECONDS:
        state = None
        gc.collect()
        start = perf_counter()
        with tracer.span("setup", it=len(setup_times)):
            state = wl.setup(tracer, tally)
        setup_times.append(perf_counter() - start)
    wl.after_setup(tally)
    wl.iteration(state, -1, tracer, tally)          # lazy set-up, untimed
    times = []
    began = perf_counter()
    while True:
        cycle_start = perf_counter()
        for _ in range(wl.cycle):
            k = len(times)
            with tracer.span("iteration", it=k):
                times.append(wl.iteration(state, k, tracer, tally))
        now = perf_counter()
        if len(times) >= MIN_ITERS and now - began + (now - cycle_start) > seconds:
            break
    return setup_times, times


def end_to_end(wl, setup_times, times) -> tuple[dict, list[str]]:
    n = len(times)
    ordered = sorted(times)
    tail_pct = 100.0 * (n - 10) / n
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "iters_per_s": (n / sum(times), "1/s"),
        "iter_ms_p50": (1000.0 * statistics.median(times), "ms"),
        "iter_ms_tail": (1000.0 * ordered[n - 11], "ms"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "iters_per_s": f"iterations per second of call time at {wl.size}",
        "iter_ms_p50": f"median of n={n} iterations",
        "iter_ms_tail": f"p{tail_pct:.1f}: 10 of n={n} iterations above it",
        "peak_rss_mb": "ru_maxrss of " + ("the largest child process"
                                          if isinstance(wl, CliCold) else "this process"),
    }
    lines = [f"{key:14s} {value:12.4f} {unit:6s} ({notes[key]})"
             for key, (value, unit) in metrics.items()]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def layer_pass(wl, tracer, tally, work: Path) -> None:
    """Decode -> dump -> load -> Evaluator per problem, LAYER_REPS times, traced."""
    for r in range(LAYER_REPS):
        with tracer.span("layers", it=r):
            for p in wl.problems:
                with tracer.span("reader.read_sif") as s:
                    program = read_sif(p.text)
                s[5]["records"] = sum(len(sec.records) for sec in program.sections)
                with tracer.span("expander.setup") as s:
                    decoded, internals = setup(program, p.params)
                s[5].update(vars=decoded.n, groups=internals.n_groups,
                            elements=len(internals.elftype), a_nnz=internals.A.nnz)
                with tracer.span("jsonio.dump_text") as s:
                    text = dump_text(decoded, internals, p.provenance())
                s[5]["bytes"] = len(text.encode())
                with tracer.span("jsonio.load_text"):
                    loaded = load_text(text)
                with tracer.span("evaluator.init"):
                    Evaluator(decoded, internals)
                if r == 0:
                    tally.record(f"round trip {p.label}",
                                 [] if dump_text(*loaded) == text else ["bytes differ"])
                    (work / f"{p.label}.json").write_text(text)


def cli_pass(wl, tracer, tally, work: Path) -> None:
    """In-process `cli.main eval`, then the same load, init and action directly."""
    for j, (p, name, a) in enumerate(wl.cli_pairs()):
        dump = work / f"{p.label}.json"
        xfile = work / f"{p.label}-{j}.x"
        xfile.write_text("\n".join(repr(float(t)) for t in a.x) + "\n")
        argv = eval_argv(dump, name, a, xfile)
        text = dump.read_text()
        out = io.StringIO()
        with tracer.span("cli", it=j):
            try:
                with tracer.span("cli.main"), contextlib.redirect_stdout(out):
                    code = cli.main(argv)
            except (Exception, SystemExit):  # noqa: BLE001 - counted below as a failure
                code = None
            with tracer.span("jsonio.load_text"):
                decoded, internals, _ = load_text(text)
            with tracer.span("evaluator.init"):
                ev = Evaluator(decoded, internals)
            result, _ = call(ev, name, a, tracer, tally)
        w = probe_vector(wl.seed, p.ref.n)
        got = from_cli(json.loads(out.getvalue())) if code == 0 else {}
        tally.record(f"cli.main {p.label} {name}", verify(p.ref, name, a, got, w))
        if result is not None:
            tally.record(f"{p.label} {name}",
                         verify(p.ref, name, a, as_payload(name, result), w))


def memory_pass(wl, tally) -> dict:
    """tracemalloc peaks (bytes above the level at call entry), untimed."""
    peaks: dict[str, float] = {}
    nnz: dict[str, int] = {}

    def measure(fn):
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        for p in wl.problems:
            program = read_sif(p.text)
            (decoded, internals), peak = measure(lambda: setup(program, p.params))
            peaks["expander.setup"] = max(peaks.get("expander.setup", 0), peak)
            ev, peak = measure(lambda: Evaluator(decoded, internals))
            peaks["evaluator.init"] = max(peaks.get("evaluator.init", 0), peak)
            w = probe_vector(wl.seed, p.ref.n)
            for name, a in wl.hessian_probes(p):
                result, peak = measure(lambda: invoke(ev, name, a))
                tally.record(f"{p.label} {name}",
                             verify(p.ref, name, a, as_payload(name, result), w))
                key = "evaluator." + name
                if peak >= peaks.get(key, -1):
                    peaks[key] = peak
                    out = result.hessian
                    nnz[key] = (sum(h.nnz for h in out) if isinstance(out, list)
                                else out.nnz)
            del ev
    finally:
        tracemalloc.stop()
    return {"peaks": peaks, "nnz": nnz}


def import_ms(reps: int = 5) -> float:
    """Subprocess import of sifgps.cli minus a bare interpreter start, ms."""
    def run(code: str) -> float:
        times = []
        for _ in range(reps):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=SUBPROCESS_ENV, cwd=ROOT,
                           check=True, timeout=60)
            times.append(perf_counter() - start)
        return statistics.median(times)

    return 1000.0 * (run("import sifgps.cli") - run("pass"))


def per_layer(wl, index: SpanIndex, memory: dict, cli_import: float,
              overhead: float) -> dict:
    spans = index.spans
    m: dict[str, tuple[float, str]] = {}

    def count(name: str, key: str) -> int:
        """Work counted at a layer boundary, summed over one "layers" rep."""
        first = [i for i in index.calls(name, "layers") if spans[i][4] == 0]
        return sum(spans[i][5][key] for i in first)

    m["reader.read_sif.ms"] = (median_ms(index.per_root("reader.read_sif", "layers")), "ms")
    m["reader.records"] = (count("reader.read_sif", "records"), "count")
    m["expander.setup.ms"] = (median_ms(index.per_root("expander.setup", "layers")), "ms")
    m["expander.setup.peak_mb"] = (memory["peaks"]["expander.setup"] / 2**20, "MiB")
    for key in ("vars", "groups", "elements", "a_nnz"):
        m[f"expander.{key}"] = (count("expander.setup", key), "count")
    m["evaluator.init.ms"] = (median_ms(index.per_root("evaluator.init", "layers")), "ms")
    m["evaluator.init.peak_mb"] = (memory["peaks"]["evaluator.init"] / 2**20, "MiB")

    root = "iteration" if isinstance(wl, InProcess) else "cli"
    for name in SPEC:
        calls = index.calls("evaluator." + name, root)
        m[f"evaluator.{name}.ms_p50"] = (median_ms([index.self_s[i] for i in calls]), "ms")
        m[f"evaluator.{name}.calls"] = (len(calls), "count")
        if name in US_PER_GROUP:
            per = [1e6 * index.self_s[i] / spans[i][5]["groups"] for i in calls
                   if spans[i][5]["groups"]]
            m[f"evaluator.{name}.us_per_group"] = (
                statistics.median(per) if per else 0.0, "us")
    for name in HESSIAN_ACTIONS:
        key = "evaluator." + name
        peak = memory["peaks"].get(key, 0)
        nnz = memory["nnz"].get(key, 0)
        m[f"{key}.peak_mb"] = (peak / 2**20, "MiB")
        m[f"{key}.out_nnz"] = (nnz, "count")
        m[f"{key}.bytes_per_nnz"] = (peak / max(nnz, 1), "B/nnz")

    m["jsonio.dump_text.ms"] = (median_ms(index.per_root("jsonio.dump_text", "layers")), "ms")
    m["jsonio.dump_bytes"] = (count("jsonio.dump_text", "bytes"), "B")
    m["jsonio.load_text.ms"] = (median_ms(index.per_root("jsonio.load_text", "layers")), "ms")
    m["cli.import.ms"] = (cli_import, "ms")
    self_ms = []
    for i in index.calls("cli.main", "cli"):
        r = index.root[i]
        inner = sum(index.self_s[j] for j, span in enumerate(spans)
                    if index.root[j] == r and span[3] == r and j != i)
        self_ms.append(index.self_s[i] - inner)
    m["cli.self_ms"] = (median_ms(self_ms), "ms")
    m["trace.overhead_frac"] = (overhead, "fraction")
    return m


# -- entry point --------------------------------------------------------------------


def stamp(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "threads": THREAD_CAPS["OMP_NUM_THREADS"]}


def run_workload(args) -> int:
    meta = stamp(args)
    print("# " + json.dumps(meta, sort_keys=True))
    wl = make_workload(args.workload, args.seed)
    tally = Tally()
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        if isinstance(wl, CliCold):
            wl.prepare_files(work)
        if args.trace == 0:
            setup_times, times = timed_pass(wl, args.seconds, NullTracer(), tally)
            metrics, lines = end_to_end(wl, setup_times, times)
        else:
            half = args.seconds / 2.0
            _, plain = timed_pass(wl, half, NullTracer(), tally)
            tracer = Tracer()
            _, traced = timed_pass(wl, half, tracer, tally)
            overhead = 1.0 - (len(traced) / sum(traced)) / (len(plain) / sum(plain))
            layer_work = work / "layers"
            layer_work.mkdir()
            layer_pass(wl, tracer, tally, layer_work)
            cli_pass(wl, tracer, tally, layer_work)
            memory = memory_pass(wl, tally)
            layer = per_layer(wl, SpanIndex(tracer.spans), memory, import_ms(), overhead)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            lines = [f"{k:34s} {v:14.4f} {u}" for k, (v, u) in layer.items()]
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"meta": meta, "spans": tracer.spans}))
            lines.append(f"spans: {len(tracer.spans)} written to "
                         f"{trace_file.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    fail_frac = tally.failed / tally.attempted
    lines.append(f"{'fail_frac':14s} {fail_frac:12.4f} {'':6s} "
                 f"({tally.failed} of {tally.attempted} operations)")
    for line in lines:
        print(line)
    for note in tally.notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another; one summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
