"""Benchmark of the canoninv command line, one workload per run.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload classical --seed 1 --seconds 25 --trace 0

Every request is one in-process call to ``canoninv.cli.main(argv)`` with its
output captured: exactly the command a user runs.  The load is a closed loop:
one caller, one process, one thread.  A run repeats whole passes over the
workload's requests, each pass in an order shuffled by ``--seed``, until the
next pass would end after ``--seconds``; it always makes at least one pass.
Every output is checked against the references in ``ref/``, written by
``refgen.py``.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics: ``total_s``, the median over passes of one pass's summed request
wall time; ``setup_s``, the median of ``SETUP_REPEATS`` fresh imports of
canoninv plus loads of the references (interpreter start-up cannot be
repeated inside one process, so it is left out); and ``peak_rss_mb``.
Failures are not a metric: they are the ``attempted`` and ``failed`` counts
of the last line.  With ``--trace 1`` the run alternates an untraced and a
traced pass, and the last line holds the per-layer metrics listed in
``layers.json``.  A result file with every request, pass and span total goes
to ``out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
LAYERS = BENCH_DIR / "layers.json"

sys.path.insert(0, str(BENCH_DIR))

import layertrace  # noqa: E402
from workloads import REFERENCES, WORKLOADS, Request, system_file  # noqa: E402

# A request that runs longer is recorded as failed with reason "timeout".
# The slowest request of any workload (A5 build) takes about 20 s.
REQUEST_CAP_S = 60.0
# No request may run past this point of a run, so that a run always exits
# within the 180 s a benchmark run is allowed.
RUN_DEADLINE_S = 150.0
SETUP_REPEATS = 21

END_TO_END_UNITS = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself cannot run: missing sources or references."""


class RequestTimeout(Exception):
    """Raised by the interval timer when a request exceeds its cap."""


def system_digest(output: dict) -> str:
    """sha256 of the sorted-key JSON of a built system's group and entries."""
    core = {"group": output["group"], "entries": output["entries"]}
    text = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_output(request: Request, stdout: str, references: dict):
    """Return None when the output of a request that exited 0 is correct, else why not."""
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if not isinstance(data, dict):
        return "output is not a JSON object"
    if request.kind == "build":
        verification = data.get("verification")
        if not isinstance(verification, dict) or verification.get("passed") is not True:
            return "verification did not pass"
        try:
            digest = system_digest(data)
        except KeyError:
            return "output lacks the group or the entries"
        if digest != references[request.id]:
            return "system digest differs from the reference"
    elif request.kind == "verify":
        if data.get("passed") is not True:
            return "verify did not pass"
    elif data.get("equal") is not True:
        return "oracle and construction disagree"
    return None


@dataclass
class Outcome:
    request: Request
    seconds: float
    failure: str | None  # None when the output passed its check

    def to_json(self):
        return {"id": self.request.id, "seconds": self.seconds, "failure": self.failure}


def _on_alarm(_signum, _frame):
    raise RequestTimeout


def call_cli(cli, argv, cap_s: float, span=contextlib.nullcontext()):
    """Run ``cli.main(argv)`` under a wall-clock cap with its output captured.

    Returns (stdout, failure or None, wall seconds); a non-zero exit code is
    a failure.  The cap is an interval timer in this process: no thread or
    process is started.
    """
    if cap_s <= 0:
        return "", "timeout", 0.0
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    code = None
    failure = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except RequestTimeout:
        failure = "timeout"
    except SystemExit as exc:  # argparse inside cli.main exits on bad arguments
        failure = f"exit code {exc.code}"
    except Exception as exc:  # a crash of the program is a failed request
        traceback.print_exc()
        failure = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    if failure is None and code != 0:
        failure = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    return out.getvalue(), failure, seconds


def execute(cli, request: Request, references: dict, cap_s: float, tracer=None,
            request_index=0) -> Outcome:
    """Run one request and check its output."""
    span = tracer.request_span(request_index) if tracer else contextlib.nullcontext()
    stdout, failure, seconds = call_cli(cli, request.argv(), cap_s, span)
    if failure is None:
        failure = check_output(request, stdout, references)
    return Outcome(request, seconds, failure)


def _drop_canoninv_modules():
    for name in [n for n in sys.modules if n == "canoninv" or n.startswith("canoninv.")]:
        del sys.modules[name]


def load_references(requests) -> dict:
    """Reference digests of the requests; checks every saved system file."""
    if not REFERENCES.is_file():
        raise BenchError(f"missing {REFERENCES}; run perfbench/refgen.py at a trusted commit")
    data = json.loads(REFERENCES.read_text(encoding="utf-8"))
    refs = {}
    for r in requests:
        if r.kind == "build":
            refs[r.id] = data["builds"][r.id]
        elif r.kind == "verify":
            path = system_file(r.group)
            if not path.is_file() or file_digest(path) != data["systems"][r.group]:
                raise BenchError(f"saved system {path} is missing or altered")
    return refs


def import_canoninv():
    """Import canoninv afresh from the sources next to the benchmark; returns its cli."""
    if not (SRC / "canoninv" / "__init__.py").is_file():
        raise BenchError(f"no canoninv sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    _drop_canoninv_modules()
    importlib.import_module("canoninv")
    return importlib.import_module("canoninv.cli")


class Run:
    """State of one benchmark run: its clock, order generator and loaded program."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.started = time.perf_counter()
        self.requests = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.cli = None
        self.references = None
        self.setup_times = []
        self.executed = 0

    def elapsed(self):
        return time.perf_counter() - self.started

    def do_setup(self):
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.cli = import_canoninv()
            self.references = load_references(self.requests)
            self.setup_times.append(time.perf_counter() - t0)

    def one_pass(self, tracer=None):
        """One pass over every request, in a fresh seeded order."""
        order = list(self.requests)
        self.rng.shuffle(order)
        outcomes = []
        for r in order:
            cap = min(REQUEST_CAP_S, RUN_DEADLINE_S - self.elapsed())
            outcomes.append(execute(self.cli, r, self.references, cap, tracer, self.executed))
            self.executed += 1
        return outcomes

    def rounds(self):
        """Yield once per round while the next round still ends within ``--seconds``.

        The first round always runs; a round is assumed to last as long as
        the one before it.
        """
        t0 = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            yield
            now = time.perf_counter()
            if (now - t0) + (now - round_start) > self.seconds:
                return
            if self.elapsed() >= RUN_DEADLINE_S:
                return


def pass_seconds(outcomes, kind=None):
    return sum((o.seconds for o in outcomes if kind is None or o.request.kind == kind), 0.0)


def layer_metrics(totals, inside):
    """Per-layer figures of one traced pass, keyed by the names in ``layers.json``."""
    ns = 1e-9
    m = {}
    for span, t in totals.items():
        m[f"{span}.s"] = t["incl_ns"] * ns
        m[f"{span}.calls"] = t["calls"]
    m["groups.antiinvariant.terms"] = totals["groups.antiinvariant"]["work_a"]
    seeds = totals["seeds.seed_invariants"]["work_a"]
    m["seeds.candidates_per_seed"] = inside["averages_in_seeds"] / seeds if seeds else 0.0
    m["canonical.verify_canonical.pairing_s"] = inside["apply_diff_in_verify_ns"] * ns
    m["canonical.verify_canonical.invariance_s"] = inside["substitute_in_verify_ns"] * ns
    for span in ("polys.apply_diff", "polys.mul"):
        pairs = totals[span]["work_a"]
        m[f"{span}.term_pairs"] = pairs
        m[f"{span}.ns_per_pair"] = totals[span]["incl_ns"] / pairs if pairs else 0.0
    m["polys.apply_diff.out_terms"] = totals["polys.apply_diff"]["work_b"]
    m["polys.substitute_linear.in_terms"] = totals["polys.substitute_linear"]["work_a"]
    m["linalg.rref.cells"] = totals["linalg.rref"]["work_a"]
    m["cli.self_s"] = totals[layertrace.REQUEST_SPAN]["self_ns"] * ns
    return m


def load_layers():
    return json.loads(LAYERS.read_text(encoding="utf-8"))["metrics"]


def src_line_count() -> int:
    """Non-blank lines of src/canoninv/*.py."""
    return sum(
        1
        for path in sorted((SRC / "canoninv").glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def measure_untraced(run: Run, result: dict):
    """End-to-end metrics from untraced passes; returns (metrics, units, passes)."""
    passes = [run.one_pass() for _ in run.rounds()]
    metrics = {
        "total_s": statistics.median([pass_seconds(p) for p in passes]),
        "setup_s": statistics.median(run.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result["pass_totals_s"] = [pass_seconds(p) for p in passes]
    return metrics, END_TO_END_UNITS, passes


def measure_traced(run: Run, result: dict, span_file: Path):
    """Per-layer metrics from alternating untraced and traced passes."""
    tracer = layertrace.Tracer()
    untraced, traced, per_pass = [], [], []
    for _ in run.rounds():
        untraced.append(run.one_pass())
        first = len(tracer)
        with tracer.install():
            traced.append(run.one_pass(tracer))
        totals, inside = layertrace.summarize(tracer, first)
        per_pass.append(layer_metrics(totals, inside))
        if len(per_pass) == 1:
            result["span_totals"] = totals
    units = {m["name"]: m["unit"] for m in load_layers()}
    untraced_total = statistics.median([pass_seconds(p) for p in untraced])
    for pp, p in zip(per_pass, traced):
        pp["trace.overhead_s"] = pass_seconds(p) - untraced_total
    metrics = {}
    for name, unit in units.items():
        if name.startswith("requests."):
            kind = name[len("requests."):-len("_s")]
            metrics[name] = statistics.median([pass_seconds(p, kind) for p in untraced])
        elif unit == "count":
            metrics[name] = per_pass[0][name]
        else:
            metrics[name] = statistics.median([pp[name] for pp in per_pass])
    result["work_counts_repeat"] = all(
        pp[n] == per_pass[0][n] for pp in per_pass for n, u in units.items() if u == "count")
    result["not_called"] = sorted(n for n, t in result["span_totals"].items() if not t["calls"])
    result["traced_pass_totals_s"] = [pass_seconds(p) for p in traced]
    result["pass_totals_s"] = [pass_seconds(p) for p in untraced]
    tracer.write_tsv(span_file)
    return metrics, units, untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(args.workload, args.seed, args.seconds)
    try:
        run.do_setup()
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_line_count(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "setup_times_s": run.setup_times,
    }
    if args.trace:
        metrics, units, passes = measure_traced(run, result, OUT_DIR / f"spans-{stem}.tsv")
    else:
        metrics, units, passes = measure_untraced(run, result)
    every = [o for p in passes for o in p]
    failed = sum(1 for o in every if o.failure is not None)
    result.update({
        "attempted": len(every),
        "failed": failed,
        "failed_ratio": failed / len(every),
        "passes": [[o.to_json() for o in p] for p in passes],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    })
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for o in every:
        if o.failure is not None:
            print(f"FAILED {o.request.id}: {o.failure}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    print(f"failed_ratio {failed / len(every)} ({failed} failed of {len(every)} attempted)")
    print(f"src_lines {result['src_lines']} python {result['python']} nproc {result['nproc']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": result["metrics"],
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
