"""Benchmark for charstacks: time to a verified result, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from `src/`.  Load
is a closed loop with one client: every job runs in its own fresh
interpreter (perfbench/worker.py), so caches start cold, as each CLI user
gets them, and the next job starts when the previous one has returned.
A cycle runs every job of the workload once, in an order the seed
permutes; cycles repeat while another one fits in S seconds, and at least
one runs.

Times are given at a reference host speed.  A shared host's speed drifts
by tens of percent over seconds to minutes, so each worker samples a
fixed loop (worker.spin) during every interval it times, and each time is
scaled by REF_SPIN_S over the loop's mean duration in that interval.  The
raw times are printed above the result.

--trace 0 reports the end-to-end metrics:
  setup_s      median time for a fresh interpreter to `import charstacks`
               (bytecode warm), over SETUP_REPEATS import-only workers and
               every job worker
  wall_s       median over cycles of the summed job time, entry call to
               return (import excluded)
  cpu_s        the same for the workers' user plus system CPU time
  peak_rss_mb  largest peak RSS of any worker
--trace 1 runs one untraced and one traced cycle, requires them to give
equal outputs, and reports the per-layer metrics of PER_LAYER from the
traced cycle's spans (see spans.py; span times are not scaled), with
trace.overhead_frac (traced over untraced wall time, minus 1),
trace.coverage_frac (share of traced wall time inside layer spans) and
fail_frac.

Every output is checked (workloads.check).  The two `count` jobs of
cli-small on a non-generic orbit (probes) run only in the traced run and
count only in fail_frac: the formula is not claimed there, and the CLI
still answers them with a verified-false verdict, so they fail.  The
last line of stdout is the JSON result; lines before it describe the
machine, the samples and any failure.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_REPEATS = 7
REF_SPIN_S = 0.004  # worker.spin() at the reference speed
RUN_LIMIT_S = 170  # every worker is stopped by then

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = [
    "symfunc.ple_log.self_s", "symfunc.mul_s", "symfunc.mul.calls",
    "symfunc.plethysm_pr_s", "symfunc.plethysm_pr.calls",
    "symfunc.to_basis_s",
    "symfunc.log.max_num_terms", "symfunc.log.max_den_terms",
    "hlvkernel.omega.self_s", "hlvkernel.hook_H_s", "hlvkernel.hlv_HH.self_s",
    "hlvkernel.omega.max_num_terms", "hlvkernel.omega.max_den_terms",
    "hlvkernel.HH.num_terms", "hlvkernel.HH.den_terms",
    "macdonald.modified_H.self_s", "macdonald.modified_H.calls",
    "macdonald.specialized_H.self_s", "macdonald.qt_inner.self_s",
    "macdonald.H.max_terms",
    "exactalg.simplified_s", "exactalg.simplified.calls",
    "exactalg.substitute_s", "exactalg.u_to_q.self_s",
    "ffcount.enumerate_gl_s", "ffcount.enumerate_gl.calls",
    "ffcount.orbit_members_s", "ffcount.count.self_s",
    "cli.main.self_s", "charstack.series.self_s", "charstack.is_generic_s",
    "trace.overhead_frac", "trace.coverage_frac", "fail_frac",
]


def unit(metric):
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def layer_value(metric, trace):
    """A per-layer metric from summed span tallies: `<span>.self_s` is self
    time, `<span>_s` total time, `<span>.calls` calls, others counters."""
    if metric.endswith(".self_s"):
        return trace["self_s"][metric[:-len(".self_s")]]
    if metric.endswith(".calls"):
        return trace["calls"][metric[:-len(".calls")]]
    if metric.endswith("_s"):
        return trace["total_s"][metric[:-len("_s")]]
    return trace["counters"][metric]


def worker_env():
    """The caller's environment without charstacks settings, since a
    persisted Macdonald table (CHARSTACKS_CACHE_DIR) would skip that layer,
    with bytecode writes allowed and a fixed string hash seed, so that set
    iteration order, and with it the work done, repeats between runs."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("CHARSTACKS_")
           and key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_info():
    import importlib.util
    import platform
    import sympy
    from sympy.external.gmpy import GROUND_TYPES
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "sympy_ground_types": GROUND_TYPES,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "flint": importlib.util.find_spec("flint") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def scaled(seconds, spin_s):
    """A time measured while worker.spin() took spin_s, at reference speed."""
    return seconds * REF_SPIN_S / spin_s


class Runner:
    """Runs jobs in fresh workers until the run's deadline."""

    def __init__(self, env, deadline):
        self.env = env
        self.deadline = deadline

    def job(self, job, traced):
        spec = json.dumps(dict(job, trace=traced))
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run([sys.executable, WORKER, spec],
                                  env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"# {job['id']}: timed out", flush=True)
            return None
        if proc.returncode != 0:
            print(f"# {job['id']}: worker exited {proc.returncode}\n"
                  + proc.stderr[-2000:], flush=True)
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    def cycle(self, jobs, traced):
        return [(job, self.job(job, traced)) for job in jobs]


def check_all(pairs):
    """(claimed attempted, claimed failed, probes failed), printing reasons."""
    import workloads
    attempted = failed = probes_failed = 0
    for job, result in pairs:
        reason = workloads.check(job, result)
        if reason:
            print(f"# {'probe ' if job['probe'] else ''}{job['id']} failed: "
                  f"{reason}", flush=True)
        if job["probe"]:
            probes_failed += bool(reason)
        else:
            attempted += 1
            failed += bool(reason)
    return attempted, failed, probes_failed


def end_to_end(runner, jobs, rng, seconds):
    importer = {"id": "import", "kind": "import"}
    runner.job(importer, False)  # writes the bytecode the timed imports read
    imports = [runner.job(importer, False) for _ in range(SETUP_REPEATS)]
    claimed = [job for job in jobs if not job["probe"]]
    start = time.monotonic()
    cycles = []
    while True:
        began = time.monotonic()
        cycles.append(runner.cycle(rng.sample(claimed, len(claimed)), False))
        now = time.monotonic()
        if now + (now - began) > start + seconds:
            break
    pairs = [pair for cycle in cycles for pair in cycle]
    attempted, failed, _ = check_all(pairs)
    done = [result for _, result in pairs if result is not None]
    if len(done) < len(pairs) or None in imports:
        return attempted, failed, None
    setup = [scaled(r["import_s"], r["import_speed"]["wall_s"])
             for r in imports + done]
    wall = [sum(scaled(r["wall_s"], r["speed"]["wall_s"]) for _, r in cycle)
            for cycle in cycles]
    cpu = [sum(scaled(r["cpu_s"], r["speed"]["cpu_s"]) for _, r in cycle)
           for cycle in cycles]
    print(f"# samples: setup_s n={len(setup)}; cycles n={len(cycles)} "
          f"wall_s {wall} cpu_s {cpu}", flush=True)
    for job, r in pairs:
        print(f"# {job['id']}: raw wall_s {r['wall_s']:.4f} cpu_s "
              f"{r['cpu_s']:.4f}, spin_s {r['speed']['wall_s']:.5f}, "
              f"rss_mb {r['rss_mb']:.1f}", flush=True)
    return attempted, failed, {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(wall),
        "cpu_s": statistics.median(cpu),
        "peak_rss_mb": max(r["rss_mb"] for r in done),
    }


def per_layer(runner, name, jobs):
    import spans
    import workloads
    plain = runner.cycle(jobs, False)
    traced = runner.cycle(jobs, True)
    attempted, failed, probes_failed = check_all(plain + traced)
    if any(r is None for _, r in plain + traced):
        return attempted, failed, None
    for (job, a), (_, b) in zip(plain, traced):
        if (a["exit"], a["output"]) != (b["exit"], b["output"]):
            print(f"# {job['id']}: traced output differs from untraced")
            failed += 1
    total = {"calls": dict.fromkeys(spans.SPAN_NAMES, 0),
             "total_s": dict.fromkeys(spans.SPAN_NAMES, 0.0),
             "self_s": dict.fromkeys(spans.SPAN_NAMES, 0.0),
             "counters": dict.fromkeys(spans.COUNTER_NAMES, 0)}
    for _, result in traced:
        for key in ("calls", "total_s", "self_s"):
            for span, value in result["trace"][key].items():
                total[key][span] += value
        for counter, value in result["trace"]["counters"].items():
            total["counters"][counter] = max(total["counters"][counter], value)
    silent = [span for span in workloads.EXPECTED_SPANS[name]
              if total["calls"][span] == 0]
    if silent:
        raise SystemExit(f"spans recorded no call on {name}: {silent}")
    plain_wall = sum(scaled(r["wall_s"], r["speed"]["wall_s"])
                     for _, r in plain)
    traced_wall = sum(scaled(r["wall_s"], r["speed"]["wall_s"])
                      for _, r in traced)
    derived = {
        "trace.overhead_frac": traced_wall / plain_wall - 1,
        "trace.coverage_frac":
            sum(r["trace"]["top_s"] for _, r in traced)
            / sum(r["wall_s"] for _, r in traced),
        "fail_frac": (failed + probes_failed) / (2 * len(jobs)),
    }
    metrics = {metric: derived[metric] if metric in derived
               else layer_value(metric, total) for metric in PER_LAYER}
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "charstacks", "__init__.py")):
        print(f"error: no charstacks sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {workloads.NAMES}")
    env = worker_env()
    print(f"# machine: {json.dumps(machine_info())}", flush=True)
    rng = random.Random(args.seed)
    jobs = workloads.jobs(args.workload, rng)
    print(f"# closed loop, 1 client; jobs: "
          f"{json.dumps([job.get('argv', job['id']) for job in jobs])}",
          flush=True)
    runner = Runner(env, started + RUN_LIMIT_S)
    if args.trace:
        attempted, failed, metrics = per_layer(runner, args.workload, jobs)
    else:
        attempted, failed, metrics = end_to_end(runner, jobs, rng,
                                                args.seconds)
    if metrics is None:
        print("error: a job crashed or timed out", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
