"""One pass of the four benchmark workloads at the pinned seed, in-process.

``bench/run.py`` checks every report against ``bench/digests.json`` (SHA-256
of the emitted JSON with ``elapsed_ms`` removed), but only when the benchmark
runs.  This test runs each op once through the benchmark's own ``execute``,
``verify`` and ``digest`` and asserts every pinned digest, so a change to the
bytes of any report fails here.  It reads ``bench/`` with ``runpy`` and writes
the documents the CLI reads under ``tmp_path``.
"""
import json
import runpy
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
PINNED = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def run_py():
    before = set(sys.modules)
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # run.py imports its sibling modules
        mp.setattr(sys, "dont_write_bytecode", True)
        yield runpy.run_path(str(BENCH / "run.py"))
    for name in set(sys.modules) - before:
        if (getattr(sys.modules[name], "__file__", None) or "").startswith(str(BENCH)):
            del sys.modules[name]


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_pinned_seed_reports_match_digests(run_py, workload, tmp_path):
    workloads = run_py["workloads"]
    ops = workloads.build(workload, run_py["PINNED_SEED"])
    workloads.write(ops, tmp_path)
    api = run_py["Api"]()
    problems, digests = [], {}
    for op in ops:
        out = run_py["execute"](op, api)
        problem = run_py["verify"](op, out)
        if problem is not None:
            problems.append((op.id, *problem))
        if out.payload is not None:
            digests[op.id] = run_py["digest"](out.payload)
    assert not problems
    assert digests == PINNED[workload]
