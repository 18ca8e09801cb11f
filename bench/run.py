#!/usr/bin/env python3
"""hypersel benchmark: time to a verified verdict on four scenario workloads.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

``--workload all`` runs the four workloads one after another, each in its
own process, and exits nonzero if any of them is incorrect.

One op is one scenario document taken to a verified verdict.  Documents are
generated from ``--seed`` (see ``workloads.py``) and reach the program only
through its public entry points: ``Scenario.load -> run_scenario ->
Report.to_json``, or ``hypersel.cli.main`` on a file.  The load is a closed
loop with one caller and no threads, because a researcher waits for each
verdict.  Every workload carries at least 110 ops, so that p90 has ten
samples above it.  The ops run in whole passes until ``--seconds`` have
passed and every op has run ``MIN_PASSES`` times.

Times are calibrated.  On a shared machine the same interpreter work runs
up to twice as slowly in phases of seconds to minutes, long enough to
cover whole runs.  So between consecutive ops the benchmark times a fixed
piece of interpreter work (``reference``, about 1 ms), and scales each
op's wall time by ``REF_S`` over the mean of the reference times just
before and just after it: a calibrated second is a second on a machine
that runs the reference in ``REF_S``.  A change to the program moves the
op's time and not the reference's, so it moves the calibrated figure by
the same share as the wall time.  An op's verdict time is the median of
its calibrated runs.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: time from process start until the first op can begin
  (start the interpreter, import ``hypersel``, generate and write the
  documents), the median of ``SETUP_PER_PASS`` set-ups before each
  pass, each in a fresh process and calibrated by the median of
  references timed just before and just after it;
* ``run_s``: calibrated time to take every op to its verdict once, the
  sum of the ops' verdict times;
* ``verdict_s.p50`` / ``verdict_s.p90``: median and 90th percentile of the
  ops' verdict times;
* ``peak_rss_mb``: ``ru_maxrss`` of this process.

The uncalibrated wall-time figures are printed too, above the result line.

``--trace 1`` runs the microbenchmark slice, then untraced passes for half
of ``--seconds`` and traced passes for the rest, and reports the per-layer
metrics (see ``tracing.py``); counts are those of one traced pass and must
repeat exactly from pass to pass and run to run.  Spans are written to
``bench/out/spans-<workload>-seed<seed>.jsonl``.

Every op is checked against its expected verdict.  An op that fails it
counts as failed.  A wrong verdict, an exception escaping the API or an
exit code outside {0, 1, 2}, a report that changes between passes or, at
the pinned seed, a report digest (``elapsed_ms`` removed) that differs
from ``digests.json`` also makes the result incorrect and the exit status
1.  The only exception: ops marked ``known_escape`` in ``workloads.py``,
the exit-contract escapes that ROADMAP item 4 is to fix, count as failed
and as ``cli.contract_violations`` without making the result incorrect.
The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import gc
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import micro
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
PINNED_SEED = 0
SETUP_PER_PASS = 2
MIN_PASSES = 3
REF_S = 0.001  # calibrated seconds: the reference takes REF_S
REF_ITEMS = 600
SETUP_REFS = 3  # references timed on each side of a set-up

UNITS = {"setup_s": "s", "run_s": "s", "verdict_s.p50": "s", "verdict_s.p90": "s",
         "peak_rss_mb": "MB"}


class Api:
    """The program's public entry points, from the latest import; looked up
    on their modules at each call, so the tracer's wrappers are seen."""

    def __init__(self) -> None:
        from hypersel import cli, scenario

        self.cli, self.scenario = cli, scenario


class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo, self.hi = lo, hi


def reference() -> float:
    """Wall time of a fixed piece of interpreter work of the kind hypersel
    does: small objects, attribute reads, frozensets and dict updates.  The
    garbage collector is off meanwhile, so that the program's heap does not
    add a collection to it."""
    gc.disable()
    try:
        start = time.perf_counter()
        seen: dict[frozenset, int] = {}
        total = 0
        for i in range(REF_ITEMS):
            pair = _Pair(i % 13, i * 7 % 29)
            key = frozenset((pair.lo, pair.hi))
            seen[key] = seen.get(key, 0) + 1
            total += len(key) + pair.lo + pair.hi
        return time.perf_counter() - start
    finally:
        gc.enable()


# Set-up as a fresh process does it: start the interpreter, import hypersel,
# generate the workload's documents and write those the CLI reads.
SET_UP = """
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import hypersel.cli
import workloads
workloads.write(workloads.build(sys.argv[3], int(sys.argv[4])), Path(sys.argv[5]))
"""


def time_set_up(workload: str, seed: int, work: Path) -> tuple[float, float]:
    """(calibrated, wall) time of one set-up in a fresh process."""
    scratch = Path(tempfile.mkdtemp(prefix="setup-", dir=work))
    cmd = [sys.executable, "-c", SET_UP, str(ROOT / "src"), str(BENCH), workload, str(seed),
           str(scratch)]
    refs = [reference() for _ in range(SETUP_REFS)]
    start = time.perf_counter()
    subprocess.run(cmd, check=True)  # no timeout: a timed wait polls in 50 ms steps
    elapsed = time.perf_counter() - start
    refs += [reference() for _ in range(SETUP_REFS)]
    shutil.rmtree(scratch)
    return elapsed * REF_S / statistics.median(refs), elapsed


class Outcome:
    __slots__ = ("elapsed", "code", "payload", "stderr", "escape")

    def __init__(self, elapsed, code=None, payload=None, stderr="", escape=None):
        self.elapsed, self.code, self.payload = elapsed, code, payload
        self.stderr, self.escape = stderr, escape


def execute(op: workloads.Op, api: Api) -> Outcome:
    """Run one op; only the program's own work is inside the timed region."""
    if op.via == "api":
        start = time.perf_counter()
        try:
            report = api.scenario.run_scenario(api.scenario.Scenario.load(op.doc))
            payload, code = report.to_json(), report.exit_code()
        except api.scenario.ScenarioError as exc:
            return Outcome(time.perf_counter() - start, 2, None, str(exc))
        except Exception as exc:  # an escape is a measured outcome, not a crash
            return Outcome(time.perf_counter() - start, escape=_describe(exc))
        return Outcome(time.perf_counter() - start, code, payload)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(op.argv())
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an escape is a measured outcome, not a crash
        return Outcome(time.perf_counter() - start, escape=_describe(exc))
    elapsed = time.perf_counter() - start
    text = out.getvalue()
    try:
        payload = json.loads(text) if text.strip() else None
    except json.JSONDecodeError:
        payload = {"unparsed": text}
    return Outcome(elapsed, code, payload, err.getvalue())


def _describe(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    where = f"{Path(frame.filename).name}:{frame.lineno}"
    return f"{type(exc).__name__} at {where}: {exc}"


def escaped(out: Outcome) -> str | None:
    """How the outcome left the exit contract, or None."""
    if out.escape is None and (out.code not in (0, 1, 2) or "Traceback" in out.stderr):
        return f"exit code {out.code!r}, stderr {out.stderr[-200:]!r}"
    return out.escape


def verify(op: workloads.Op, out: Outcome) -> tuple[str, str] | None:
    """(``escape`` or ``wrong``, reason) when the outcome breaks the op's
    expectation; None when it is the expected verdict.  An escape is wrong
    unless the op is a known escape."""
    escape = escaped(out)
    if escape is not None:
        return ("escape" if op.known_escape else "wrong"), escape
    if out.code != op.expect_exit:
        return "wrong", f"exit {out.code}, expected {op.expect_exit}"
    if out.code == 2:
        return ("wrong", "an invalid scenario printed output") if out.payload else None
    if op.via == "build-base":
        if out.payload.get("target") != op.target or not (
            out.payload.get("members") or out.payload.get("stages")
        ):
            return "wrong", "build-base payload without stages"
        return None
    results = out.payload.get("results", [])
    names = {rec["name"] for rec in results}
    for rec in results:
        if rec["name"] in op.planted:
            if rec["status"] != "fail" or rec["witness"] is None:
                return "wrong", f"planted check {rec['name']} gave {rec['status']} without a witness"
        elif rec["status"] != "pass":
            return "wrong", f"check {rec['name']} gave {rec['status']}: {rec['detail']}"
    missing = set(op.planted) - names
    if missing:
        return "wrong", f"planted checks {sorted(missing)} did not run"
    return None


def digest(payload: dict) -> str:
    """Digest of the emitted JSON with every ``elapsed_ms`` removed."""
    if "results" in payload:
        payload = dict(payload, results=[
            {k: v for k, v in rec.items() if k != "elapsed_ms"} for rec in payload["results"]
        ])
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()[:20]


class Runner:
    """Runs whole passes over the ops and keeps every figure of the run."""

    def __init__(self, ops, api, expected_digests, tracer=None):
        self.ops, self.api, self.expected = ops, api, expected_digests
        self.tracer = tracer
        self.times: dict[str, list[float]] = {}  # op id -> calibrated times of correct runs
        self.wall: dict[str, list[float]] = {}  # op id -> wall times of correct runs
        self.pass_times: list[float] = []  # calibrated time of each pass's ops
        self.attempted = self.failed = 0
        self.problems: list[str] = []  # wrong verdicts and digest mismatches
        self.reported: set[str] = set()
        self.digests: dict[str, str] = {}

    def run_pass(self) -> dict:
        counters = {"cli.contract_violations": 0, "scenario.check.error_records": 0}
        total = 0.0
        before = reference()
        for op in self.ops:
            if self.tracer is None:
                out = execute(op, self.api)
            else:
                with self.tracer.op(op.id):
                    out = execute(op, self.api)
            after = reference()
            calibrated = out.elapsed * REF_S / ((before + after) / 2)
            before = after
            total += calibrated
            self.attempted += 1
            problem = verify(op, out)
            if problem is None and out.payload is not None:
                problem = self._check_digest(op, digest(out.payload))
            if out.payload and "results" in out.payload:
                counters["scenario.check.error_records"] += sum(
                    rec["status"] == "error" for rec in out.payload["results"])
            if problem is None:
                self.times.setdefault(op.id, []).append(calibrated)
                self.wall.setdefault(op.id, []).append(out.elapsed)
                continue
            self.failed += 1
            kind, reason = problem
            if op.via != "api" and escaped(out) is not None:
                counters["cli.contract_violations"] += 1
            if kind == "wrong":
                self.problems.append(f"{op.id}: {reason}")
            if op.id not in self.reported:
                self.reported.add(op.id)
                print(f"op {op.id} failed ({kind}): {reason}", file=sys.stderr)
        self.pass_times.append(total)
        return counters

    def _check_digest(self, op, value: str):
        seen = self.digests.setdefault(op.id, value)
        if seen != value:
            return "wrong", "report differs between passes"
        if self.expected is not None and self.expected.get(op.id) != value:
            return "wrong", f"digest {value} differs from the pinned {self.expected.get(op.id)}"
        return None


def measure(runner: Runner, seconds: float, min_passes: int = 1, before_pass=None) -> None:
    deadline = time.perf_counter() + seconds
    while True:
        if before_pass is not None:
            before_pass()
        runner.run_pass()
        if time.perf_counter() >= deadline and len(runner.pass_times) >= min_passes:
            return


def verdict_times(per_op: dict[str, list[float]], setup: list[float]) -> dict[str, float]:
    """The time metrics from each op's runs and the set-up times: medians
    throughout."""
    verdicts = [statistics.median(times) for times in per_op.values()]
    return {
        "setup_s": statistics.median(setup),
        "run_s": sum(verdicts),
        "verdict_s.p50": statistics.median(verdicts),
        "verdict_s.p90": statistics.quantiles(verdicts, n=10)[-1],
    }


def end_to_end(runner: Runner, setups: list[tuple[float, float]]) -> dict[str, float]:
    metrics = verdict_times(runner.times, [calibrated for calibrated, _ in setups])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def traced(runner: Runner, seconds: float, spans_path: Path) -> dict[str, float]:
    metrics = micro.run()
    measure(runner, seconds / 2)
    untraced_run_s = statistics.median(runner.pass_times)
    tracer = tracing.Tracer()
    tracer.install()
    runner.tracer = tracer
    origin = time.perf_counter()
    passes = []
    try:
        deadline = origin + seconds / 2
        while not passes or time.perf_counter() < deadline:
            before = tracer.snapshot()
            counters = runner.run_pass()
            after = tracer.snapshot()
            passes.append(({k: v - before.get(k, 0) for k, v in after.items()}, counters))
    finally:
        tracer.uninstall()
        runner.tracer = None
    traced_run_s = statistics.median(runner.pass_times[-len(passes):])
    tracer.write_spans(spans_path, origin)
    metrics.update(tracing.per_layer(passes))
    metrics["trace.overhead_ratio"] = traced_run_s / untraced_run_s
    return metrics


def run_record(args, result: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_lines = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "hypersel").glob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0], "commit": commit,
        "nproc": os.cpu_count(), "src_lines": src_lines, "result": result,
    }


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process); the last
    line sums the verdicts and keys each metric by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", args.record]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append a run record (JSON line) to this file")
    parser.add_argument("--write-digests", action="store_true",
                        help="store this workload's report digests for the pinned seed")
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "hypersel", ROOT / "scenarios"):
        if not needed.is_dir():
            print(f"benchmark needs {needed.relative_to(ROOT)} in the checkout", file=sys.stderr)
            return 2
    if args.write_digests and args.seed != PINNED_SEED:
        print(f"digests are pinned to seed {PINNED_SEED}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    expected = None
    if args.seed == PINNED_SEED and not args.write_digests:
        expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[args.workload]

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        ops = workloads.build(args.workload, args.seed)
        workloads.write(ops, work)
        runner = Runner(ops, Api(), expected)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics = traced(runner, args.seconds, spans)
            units, counts = tracing.UNITS, {}
        else:
            setup_times = []

            def set_ups():
                for _ in range(SETUP_PER_PASS):
                    setup_times.append(time_set_up(args.workload, args.seed, work))

            measure(runner, args.seconds, MIN_PASSES, set_ups)
            metrics = end_to_end(runner, setup_times)
            units = UNITS
            wall = verdict_times(runner.wall, [elapsed for _, elapsed in setup_times])
            print("uncalibrated wall time: " + ", ".join(
                f"{name} {value:.6f} s" for name, value in wall.items()))
            timed = f"{len(runner.times)} ops, median of {len(runner.pass_times)} passes"
            counts = {"setup_s": f"{len(setup_times)} set-ups", "run_s": timed,
                      "verdict_s.p50": timed, "verdict_s.p90": timed}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.write_digests:
        stored = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        stored[args.workload] = dict(sorted(runner.digests.items()))
        DIGESTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    correct = not runner.problems
    for problem in runner.problems[:20]:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(runner.pass_times)} passes of "
          f"{len(ops)} ops, {runner.failed} of {runner.attempted} ops failed "
          f"(failed_ratio {runner.failed / runner.attempted:.4f})")
    for name, value in metrics.items():
        n = f"  (n = {counts[name]})" if name in counts else ""
        print(f"  {name:52s} {value:14.6f} {units[name]}{n}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(run_record(args, result)) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
