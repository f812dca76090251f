"""The benchmark's span targets must resolve, and its expected spans fire.

perfbench/spans.py names the functions it wraps by module and attribute
path; the untraced benchmark worker resolves every one of them, so a
rename in src/ would crash it.  A traced run aborts when a span listed in
workloads.EXPECTED_SPANS records no call, so a refactor that moves work
out of a wrapped function would break it.  These tests fail first
instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import charstacks.cli  # noqa: F401  (every module the targets live in)

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# the shrunken jobs of one workload, run through the traced worker's spans
SPANS_FIRE = """
import random
import sys

import charstacks.cli
import spans
import worker
import workloads

name = sys.argv[1]
rec = spans.Recorder()
spans.install(rec)
for job in workloads.jobs(name, random.Random(0), small=True):
    work, _ = worker.JOBS[job["kind"]](job)
    work()
silent = [s for s in workloads.EXPECTED_SPANS[name] if not rec.calls[s]]
if silent:
    sys.exit(f"{name}: no calls recorded by {silent}")
"""


def test_span_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    spans.assert_untouched()


def test_expected_spans_fire(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    # one fresh interpreter per workload, so every cache starts cold; they
    # run side by side, since the interpreter start is most of their time
    procs = {name: subprocess.Popen([sys.executable, "-c", SPANS_FIRE, name],
                                    env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE, text=True)
             for name in workloads.NAMES}
    failed = []
    try:
        for name, proc in procs.items():
            _, err = proc.communicate(timeout=300)
            if proc.returncode:
                failed.append((name, proc.returncode, err[-1000:]))
    finally:
        for proc in procs.values():
            proc.kill()
    assert not failed, failed
