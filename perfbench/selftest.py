"""Self-test of the benchmark on shrunken workloads (n = 2, q = 3, |mu| <= 3).

    python3 perfbench/selftest.py

For each workload it runs the shrunken jobs once untraced and twice
traced, and checks that every claimed job passes its output check, that
traced and untraced outputs are equal, that every expected span fires and
that call and size counters repeat exactly between the traced runs.  It
then checks that the output checks reject wrong answers, and that
BENCHMARK.json lists exactly the metrics run.py reports.  Exits 1 on the
first failure.
"""

import copy
import json
import os
import random
import sys
import time

import run

sys.path.insert(0, run.SRC)
import spans  # noqa: E402
import workloads  # noqa: E402


def expect(ok, what):
    if not ok:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}", flush=True)


def check_workload(runner, name):
    jobs = workloads.jobs(name, random.Random(0), small=True)
    plain = runner.cycle(jobs, False)
    traced = [runner.cycle(jobs, True) for _ in range(2)]
    for job, result in plain + traced[0] + traced[1]:
        expect(result is not None, f"{name}: {job['id']} ran")
        if not job["probe"]:
            reason = workloads.check(job, result)
            expect(reason is None, f"{name}: {job['id']} passes its check"
                   + (f" ({reason})" if reason else ""))
    for (job, a), (_, b) in zip(plain, traced[0]):
        expect((a["exit"], a["output"]) == (b["exit"], b["output"]),
               f"{name}: {job['id']} traced output equals untraced")
    calls = {span: sum(r["trace"]["calls"][span] for _, r in traced[0])
             for span in spans.SPAN_NAMES}
    silent = [span for span in workloads.EXPECTED_SPANS[name]
              if calls[span] == 0]
    expect(not silent, f"{name}: expected spans fire {silent or ''}")
    for (job, a), (_, b) in zip(traced[0], traced[1]):
        for key in ("calls", "counters"):
            expect(a["trace"][key] == b["trace"][key],
                   f"{name}: {job['id']} {key} repeat exactly")
    return {job["id"]: (job, result) for job, result in plain}


def mutated(result, edit):
    result = copy.deepcopy(result)
    report = json.loads(result["output"])
    edit(report)
    result["output"] = json.dumps(report)
    return result


def check_rejections(runs):
    def rejects(job_id, result, what):
        job = runs[job_id][0]
        expect(workloads.check(job, result) is not None,
               f"check rejects {job_id} with {what}")

    def passes(job_id, result, what):
        job = runs[job_id][0]
        expect(workloads.check(job, result) is None,
               f"check accepts {job_id} with {what}")

    verify = runs["verify-n2"][1]
    rejects("verify-n2", dict(verify, exit=1), "exit code 1")
    rejects("verify-n2", mutated(verify, lambda r: r.update(
        mixed_series=r["eseries"])), "the E-series as mixed series")
    rejects("verify-n2", mutated(verify, lambda r: r.update(d=r["d"] + 2)),
            "another d")
    rejects("hlv-1-m3", dict(runs["hlv-1-m3"][1], output="1*z^3"),
            "z^3 for (z-w)^3")
    rejects("verify-n2", dict(verify, output="confirmed"), "text output")
    count = runs["count-r2-q3"][1]
    rejects("count-r2-q3", mutated(count, lambda r: r.update(
        groupoid_count="5", formula_value="5")), "another count")
    rejects("count-r2-q3", mutated(count, lambda r: r.update(match=False)),
            "match false")
    probe = runs["probe-r2-q3"][1]
    rejects("probe-r2-q3", dict(probe, exit=1), "a verified-false verdict")
    passes("probe-r2-q3", dict(probe, exit=2, output=""), "exit 2")
    passes("probe-r2-q3", mutated(dict(probe, exit=0), lambda r: r.update(
        match=None, formula_value=None)), "match null")
    series = runs["mixed-m4-2-11"][1]
    rejects("mixed-m4-2-11", mutated(series, lambda r: r.update(
        value="1*q^1")), "another value")
    rejects("mixed-m4-2-11", mutated(series, lambda r: r.update(
        generic=True)), "another genericity verdict")
    tables = runs["macdonald-3"][1]
    rejects("macdonald-3", mutated(tables, lambda r: r["H"].update(
        {"(2,1)": r["H"]["(1,1,1)"]})), "a wrong H table")
    rejects("macdonald-3", mutated(tables, lambda r: r.update(
        failed_certificates=["orthogonality"])), "a failed certificate")


def check_metric_list():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == workloads.NAMES,
           "BENCHMARK.json lists the workloads")
    for key, names in (("end_to_end", list(run.END_TO_END)),
                       ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in bench[key]]
        expect(listed == [(m, run.unit(m)) for m in names],
               f"BENCHMARK.json lists the {key} metrics and units")


def main():
    check_metric_list()
    runner = run.Runner(run.worker_env(), time.monotonic() + 600)
    runs = {}
    for name in workloads.NAMES:
        runs.update(check_workload(runner, name))
    check_rejections(runs)
    print("selftest passed")


if __name__ == "__main__":
    main()
